//! Blocked-SpMV trace golden: the propagation-blocking trace of every
//! mini-tier corpus matrix, plus a tall and a wide one, hashes to fixed
//! values at 1, 3, 16 and `n + 5` bins.
//!
//! Each row holds one FNV-1a hash per bin count over every access's
//! address and write flag, in emission order. The values were recorded
//! while phase 2 still re-walked the CSC into per-bin row vectors, so a
//! change to either phase that moves, adds or drops one access fails
//! here by name.

use commorder_cachesim::trace::{for_each_access, ExecutionModel};
use commorder_sparse::traffic::Kernel;
use commorder_sparse::CsrMatrix;
use commorder_synth::corpus;

/// `(matrix, [hash at 1, 3, 16 and n + 5 bins])`.
const GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "mini-rmat",
        [
            0x35783b47d7946bb7,
            0xc8f632dd2cd3ac87,
            0xb7380f675c7154c3,
            0x23f1b268c00c8543,
        ],
    ),
    (
        "mini-sbm",
        [
            0xe7a9bef6df280faf,
            0xecf448b721d3f223,
            0x745d470f2bfa1223,
            0x611bcc1612fb3133,
        ],
    ),
    (
        "mini-webhub",
        [
            0x780c861d5f6c15fb,
            0xc2f026c5f43a71bb,
            0x66cd13cfc78dde9f,
            0xe7f2b3fcb7a2f9c3,
        ],
    ),
    (
        "mini-grid",
        [
            0xdd7d14fe8f6b8135,
            0xb17f93725e3286ad,
            0x3b7ad45c81aa29a5,
            0xe3d4cd82b113b42d,
        ],
    ),
    (
        "mini-banded",
        [
            0x69dd067a817d3202,
            0xb74c5e2f5b1787ea,
            0x390c53b19ad46b2a,
            0x9334986ec445ee7a,
        ],
    ),
    (
        "mini-kmer",
        [
            0x3a96b48320b2a4a5,
            0xdbf0e555e3783645,
            0x2760c3d5585258f9,
            0x7cbdafea4c7ff965,
        ],
    ),
    (
        "mini-mawi",
        [
            0xa035714d3c01056a,
            0x231defbfe39a372e,
            0xf4cebfa65203e252,
            0x17455597bfeba7f2,
        ],
    ),
    (
        "mini-er",
        [
            0x977903b7ffded468,
            0x32bdc9e1b7f2d890,
            0xbd831cb2396fcca8,
            0x5f83af85b8357a48,
        ],
    ),
    (
        "tall-600x70",
        [
            0xa387570f5401c5a9,
            0xc37dfceeb994cf51,
            0x253518912f0a7c4d,
            0x872ef504723db229,
        ],
    ),
    (
        "wide-70x600",
        [
            0x4db14f5d610e74d3,
            0x1f73d992d7af0a77,
            0xb27bb54b7f2f5537,
            0x4a6348e33257c9af,
        ],
    ),
];

/// FNV-1a over each access's `addr << 1 | write`, little-endian.
fn trace_hash(a: &CsrMatrix, bins: u32) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for_each_access(
        a,
        Kernel::SpmvBlocked { bins },
        ExecutionModel::Sequential,
        |acc| {
            for b in ((acc.addr() << 1) | u64::from(acc.is_write())).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        },
    );
    h
}

/// A `rows × cols` matrix with 0–7 distinct columns per row drawn from
/// a fixed LCG, so rows and columns have uneven lengths.
fn rectangular(rows: u32, cols: u32) -> CsrMatrix {
    let mut state = 0x5EED_u64;
    let mut next = |bound: u32| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(bound)) as u32
    };
    let mut offsets = vec![0u32];
    let mut columns = Vec::new();
    for _ in 0..rows {
        let mut row: Vec<u32> = (0..next(8)).map(|_| next(cols)).collect();
        row.sort_unstable();
        row.dedup();
        columns.extend_from_slice(&row);
        offsets.push(columns.len() as u32);
    }
    let values = (0..columns.len()).map(|i| i as f32).collect();
    CsrMatrix::new(rows, cols, offsets, columns, values).expect("valid CSR")
}

#[test]
fn blocked_traces_hash_to_their_golden_values() {
    let mut matrices: Vec<(String, CsrMatrix)> = corpus::mini()
        .into_iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.generate().expect("mini entry generates"),
            )
        })
        .collect();
    matrices.push(("tall-600x70".to_string(), rectangular(600, 70)));
    matrices.push(("wide-70x600".to_string(), rectangular(70, 600)));
    let got: Vec<(&str, [u64; 4])> = matrices
        .iter()
        .map(|(name, a)| {
            let n = a.n_rows();
            (
                name.as_str(),
                [1, 3, 16, n + 5].map(|bins| trace_hash(a, bins)),
            )
        })
        .collect();
    let listing: Vec<String> = got
        .iter()
        .map(|(name, h)| {
            format!(
                "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                h[0], h[1], h[2], h[3]
            )
        })
        .collect();
    assert!(
        got == GOLDEN,
        "blocked traces drifted; got\n{}",
        listing.join("\n")
    );
}
