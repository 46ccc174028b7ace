//! Trace goldens: every trace family, replayed on every mini-tier corpus
//! matrix, hashes to fixed values.
//!
//! Each row holds one FNV-1a hash per trace over every access's address
//! and write flag, in emission order, so a change that moves, adds or
//! drops one access fails here by name.
//!
//! * [`GOLDEN`] pins the propagation-blocking trace at 1, 3, 16 and
//!   `n + 5` bins, on the mini tier plus a tall and a wide matrix. Its
//!   values were recorded while phase 2 still re-walked the CSC into
//!   per-bin row vectors.
//! * [`FAMILY_GOLDEN`] pins every other family on the mini tier:
//!   the row walks under both execution models, the tiled kernel, both
//!   SpGEMM kernels, PageRank, BFS, ELL and SELL. Its values were
//!   recorded while each family still placed its arrays with its own
//!   allocator, so the shared address map moves nothing.

use commorder_cachesim::format_trace::{EllTrace, SellTrace};
use commorder_cachesim::graph_trace::{BfsTrace, PagerankTrace};
use commorder_cachesim::source::{KernelTrace, TraceSource};
use commorder_cachesim::trace::ExecutionModel;
use commorder_cachesim::SpGemmTrace;
use commorder_sparse::traffic::Kernel;
use commorder_sparse::{CsrMatrix, EllMatrix, SellMatrix};
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

/// Columns of [`FAMILY_GOLDEN`], in order.
const FAMILIES: [&str; 16] = [
    "SpMV-CSR",
    "SpMV-CSR interleaved 8",
    "SpMV-COO",
    "SpMV-COO interleaved 8",
    "SpMM-1",
    "SpMM-1 interleaved 8",
    "SpMM-33",
    "SpMM-33 interleaved 8",
    "SpMV-CSR-T64",
    "SpMV-CSR-T64 interleaved 8",
    "SpGEMM",
    "SpGEMM-CW, rows clustered by r mod 5",
    "PageRank x2",
    "BFS from 0",
    "ELL",
    "SELL-32-256",
];

/// `(matrix, [hash of each of FAMILIES])`.
const FAMILY_GOLDEN: &[(&str, [u64; 16])] = &[
    (
        "mini-rmat",
        [
            0x57f8b9c19657928e,
            0x4715d24344dd1d0a,
            0xbd0d687222a4009d,
            0x2520b82174e1c8ed,
            0xcc37ac27e6a14cbe,
            0x2bd389345c9122d2,
            0xe4107fefc135a1aa,
            0xa69354d52aa3e34a,
            0x3f33fbb84b504709,
            0x3f33fbb84b504709,
            0x509ddf46e64cdbb3,
            0x8cd2cbf680ad97d7,
            0x4f6f2d98de8257c1,
            0x3d1142ed9ba60f7c,
            0x6240c7b7381da11f,
            0x6b82449c13df1b40,
        ],
    ),
    (
        "mini-sbm",
        [
            0x06e440e005725bcf,
            0x5d763d2baeb3826b,
            0xd9c3048ca4a5aba1,
            0xe59864e99c03967d,
            0xfa5b90d60c7c36ef,
            0x1791ac9f266c0993,
            0x3e024d28a1d646c6,
            0xd7fdf50a98585f9e,
            0x3f020a8d094bff6e,
            0x3f020a8d094bff6e,
            0x703a6a2485605bc5,
            0x43eb37683d574a5d,
            0x5bbdd48e79883909,
            0x88108e82ac134aee,
            0x8544dd0a761d9022,
            0xd537630bd10c0db6,
        ],
    ),
    (
        "mini-webhub",
        [
            0x4f70612760b61527,
            0x5ea5d06720943827,
            0x5bf011729d5add81,
            0x281d2aa49e35ce65,
            0x7459b0181e5e1604,
            0x32d1c6cd4f1a0008,
            0x12201137c8c7308b,
            0x39d872832c977f87,
            0x058b9c6513663acc,
            0x058b9c6513663acc,
            0x3a1b5ba7cd083d97,
            0x2db9c5ab2623cb4b,
            0x624f0b77e16c14f6,
            0xdd215e8cbdc37e71,
            0xd0da06a1fc371e33,
            0xe862454ef0ad2ba7,
        ],
    ),
    (
        "mini-grid",
        [
            0x69562015ac360250,
            0x11f5b469db263378,
            0xbbeb365c18604454,
            0x5ee0c818bc3741a4,
            0xdf9145b4958a6fe9,
            0x19766c0c77506bb1,
            0xc2101c492be32888,
            0xeaff327bce625f8c,
            0x7b9dec5e354db761,
            0x7b9dec5e354db761,
            0x82fe19dac807546c,
            0x809753418de31f18,
            0x6f7ff955effe3d31,
            0xc753bc3708db99bc,
            0xb044f6fffd661f11,
            0x7d5a911c776ecc92,
        ],
    ),
    (
        "mini-banded",
        [
            0x33355b041745b842,
            0xad2b11de4fa67e3e,
            0x8d2adde760e0cf9d,
            0x7855d8c96ff2b501,
            0x3603e8f6c851a352,
            0x85ce3ae88b27a6ea,
            0xd038e07c00a4c221,
            0x6bb9d1d8f52c2f0d,
            0xb0959927c3191845,
            0xb0959927c3191845,
            0x3c140e45c950caeb,
            0x0a08989546f49df3,
            0x37f1991dc2ec7df5,
            0xc66c977cd7e0b564,
            0x3515f6c496482c18,
            0x58e14bdb200f206d,
        ],
    ),
    (
        "mini-kmer",
        [
            0x1e40b766a44f66f6,
            0x9d03029362bd3a4e,
            0x017696a48c22d872,
            0xe34466b21e2ac4be,
            0x2d421c6998d555c0,
            0xa62a96218f381e60,
            0x8315c05cf2cc443a,
            0x36bac2264c3de3a6,
            0xdfac80c1538eb94c,
            0xdfac80c1538eb94c,
            0x8c4ee27099a21723,
            0xf1707b94d8d23c1f,
            0x7d1fa25502290695,
            0x932c9219f9d85e4b,
            0xdcbe4c30d1a35935,
            0xa622583515a66377,
        ],
    ),
    (
        "mini-mawi",
        [
            0x73697afa75fc2acf,
            0x0491569394553577,
            0xf761eda88aefa2d1,
            0xc73f3a3c4102be85,
            0x11336b9eddc37aa3,
            0x50a9e68d8e7a2daf,
            0xd032bb033e9ce14b,
            0x746afe3f83f039cb,
            0x94eb5ee36f7a7c5b,
            0x94eb5ee36f7a7c5b,
            0x887ce012e016e57c,
            0x05d7ae05adba81d8,
            0xd2ec893335bc807d,
            0x9bcd6aabe092d6ec,
            0x3c36152293984d47,
            0xa5e5e64b986cabdf,
        ],
    ),
    (
        "mini-er",
        [
            0x5515edff0d48e29c,
            0x19212460854760b0,
            0x0d3dd8d506129d21,
            0x18716a52ff096b79,
            0x3b2b40b19b3dcc68,
            0x891e23cfe7c8b094,
            0xce304a4a320f0467,
            0x5fd26de92508f0d3,
            0x3426fac2c2620b87,
            0x3426fac2c2620b87,
            0xd20df6c08b116beb,
            0x8858f88bf6f21727,
            0x7999dca47a202aac,
            0x4ac7af04331f96e2,
            0xe4607a73faab4f57,
            0x3f36ac641c677e1f,
        ],
    ),
];

/// FNV-1a over each access's `addr << 1 | write`, little-endian.
fn source_hash(source: &dyn TraceSource) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    source.replay(&mut |acc| {
        for b in ((acc.addr() << 1) | u64::from(acc.is_write())).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    });
    h
}

/// [`source_hash`] of the blocked kernel's trace at `bins` bins.
fn trace_hash(a: &CsrMatrix, bins: u32) -> u64 {
    let source = KernelTrace::new(a, Kernel::SpmvBlocked { bins }, ExecutionModel::Sequential);
    source_hash(&source)
}

/// One hash per column of [`FAMILIES`] for the square matrix `a`.
fn family_hashes(a: &CsrMatrix) -> [u64; 16] {
    const INTERLEAVED: ExecutionModel = ExecutionModel::Interleaved { streams: 8 };
    let kernel_hash =
        |kernel: Kernel, model: ExecutionModel| source_hash(&KernelTrace::new(a, kernel, model));
    let mut hashes = Vec::new();
    for kernel in [
        Kernel::SpmvCsr,
        Kernel::SpmvCoo,
        Kernel::SpmmCsr { k: 1 },
        Kernel::SpmmCsr { k: 33 },
        Kernel::SpmvCsrTiled { tile_cols: 64 },
    ] {
        hashes.push(kernel_hash(kernel, ExecutionModel::Sequential));
        hashes.push(kernel_hash(kernel, INTERLEAVED));
    }
    hashes.push(kernel_hash(
        Kernel::SpGemmGustavson,
        ExecutionModel::Sequential,
    ));
    let clusters: Vec<u32> = (0..a.n_rows()).map(|r| r % 5).collect();
    let clustered = SpGemmTrace::new(a, a, Kernel::SpGemmClusterWise, Some(&clusters))
        .expect("square self-multiply");
    hashes.push(source_hash(&clustered));
    hashes.push(source_hash(&PagerankTrace::new(a, 2).expect("square")));
    hashes.push(source_hash(&BfsTrace::new(a, 0).expect("square, n > 0")));
    let ell = EllMatrix::from_csr(a).expect("mini entries fit ELL");
    hashes.push(source_hash(&EllTrace::new(&ell)));
    let sell = SellMatrix::from_csr(a, 32, 256).expect("valid SELL geometry");
    hashes.push(source_hash(&SellTrace::new(&sell)));
    hashes.try_into().expect("one hash per family")
}

/// The mini tier, generated, by name.
fn mini() -> Vec<(String, CsrMatrix)> {
    corpus::mini()
        .into_iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.generate().expect("mini entry generates"),
            )
        })
        .collect()
}

/// `got` as source lines for a golden table.
fn listing<const N: usize>(got: &[(&str, [u64; N])]) -> String {
    got.iter()
        .map(|(name, h)| {
            let cols: Vec<String> = h.iter().map(|v| format!("{v:#018x}")).collect();
            format!("(\"{name}\", [{}]),", cols.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n")
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
    let mut matrices = mini();
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
    assert!(
        got == GOLDEN,
        "blocked traces drifted; got\n{}",
        listing(&got)
    );
}

#[test]
fn every_trace_family_hashes_to_its_golden_values() {
    let matrices = mini();
    let got: Vec<(&str, [u64; 16])> = matrices
        .iter()
        .map(|(name, a)| (name.as_str(), family_hashes(a)))
        .collect();
    for ((name, row), (golden_name, golden)) in got.iter().zip(FAMILY_GOLDEN) {
        assert_eq!(name, golden_name);
        for ((family, h), g) in FAMILIES.iter().zip(row).zip(golden) {
            assert!(h == g, "{name} {family}: {h:#018x}, pinned {g:#018x}");
        }
    }
    assert!(
        got.len() == FAMILY_GOLDEN.len(),
        "family traces drifted; got\n{}",
        listing(&got)
    );
}
