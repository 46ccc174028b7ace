//! Thread-count invariance and golden permutations at corpus scale:
//! `Reordering::reorder_with` must emit permutations byte-identical to
//! the serial `reorder` on real 131k-row corpus entries, at every engine
//! width, and the serial permutations themselves are pinned by golden
//! fingerprints.
//!
//! Two entries cover the two graph shapes detection meets:
//! `soc-rmat-131k` is one giant component plus isolated vertices, while
//! `kmer-131k` splits into many chain islands. Every reorder phase is
//! one serial loop, so the engine width must not reach a permutation;
//! the goldens pin the algorithms (detection, dendrogram DFS, insular
//! grouping, BOBA's first touch and RABBIT-FLAT's seeded shuffle), so a
//! silent change cannot hide behind self-consistent runs.
//!
//! Both corpus entries are pattern matrices, whose integral weight sums
//! are exact in any order. `planted-real` carries non-dyadic weights,
//! so its golden also pins the order in which detection sums them: a
//! permutation must not depend on hash seed, process or machine.

use commorder_exec::Engine;
use commorder_reorder::ReorderContext;
use commorder_sparse::{CooMatrix, CsrMatrix};
use commorder_synth::corpus;
use commorder_synth::generators::PlantedPartition;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 0xC0DE;

/// Golden serial fingerprints per corpus entry. A change to merge order,
/// insular handling or first-touch traversal shifts a hash and must be
/// an intentional, reviewed update of these constants.
const GOLDEN: &[(&str, &[(&str, u64)])] = &[
    (
        "soc-rmat-131k",
        &[
            ("RABBIT", 0x7DD1_8AD7_146A_48D1),
            ("RABBIT++", 0xFE57_094B_445D_98B5),
            ("BOBA", 0x3E15_2420_A19B_4C41),
            ("RABBIT-FLAT", 0xADC3_670B_BB8E_49E5),
        ],
    ),
    (
        "kmer-131k",
        &[
            ("RABBIT", 0x83E8_7365_0BAB_E161),
            ("RABBIT++", 0xB872_E892_D992_B8E1),
            ("BOBA", 0xD78D_8BE1_A162_9F6D),
            ("RABBIT-FLAT", 0xD1D2_761E_F496_2BB5),
        ],
    ),
    (
        "planted-real",
        &[
            ("RABBIT", 0x0246_AA50_F596_AC5D),
            ("RABBIT++", 0x2DBB_B21E_2530_66A5),
        ],
    ),
];

fn golden_matrix(name: &str) -> CsrMatrix {
    if name == "planted-real" {
        return planted_real();
    }
    corpus::standard()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} must exist in the standard corpus"))
        .generate()
        .expect("corpus entries generate")
}

/// A planted partition whose edge weights come from {0.1, 0.2, 0.3, 0.7}
/// by coordinate (symmetric in `(r, c)`), so detection sums weights that
/// have no exact binary representation.
fn planted_real() -> CsrMatrix {
    const WEIGHTS: [f32; 4] = [0.1, 0.2, 0.3, 0.7];
    let g = PlantedPartition::uniform(8192, 64, 12.0, 0.15)
        .generate(0x5EED)
        .expect("planted partition generates");
    let entries: Vec<(u32, u32, f32)> = g
        .iter()
        .map(|(r, c, _)| {
            let k = (r.min(c) as usize * 7 + r.max(c) as usize * 3) % WEIGHTS.len();
            (r, c, WEIGHTS[k])
        })
        .collect();
    let coo = CooMatrix::from_entries(g.n_rows(), g.n_cols(), entries).expect("in bounds");
    CsrMatrix::try_from(coo).expect("valid CSR")
}

/// FNV-1a over the permutation's new-id array, little-endian — the same
/// fingerprint `xtask bench` publishes in BENCH_reorder.json.
fn fnv1a(ids: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for id in ids {
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Checks every golden technique on `name`: the serial permutation's
/// fingerprint, then serial/parallel agreement at every thread count.
fn assert_golden_and_invariant_on(name: &str) {
    let (_, expect) = GOLDEN
        .iter()
        .find(|(matrix, _)| *matrix == name)
        .unwrap_or_else(|| panic!("{name} has golden fingerprints"));
    let m = golden_matrix(name);
    for (technique, want) in *expect {
        let t = commorder_reorder::technique_by_name(technique, SEED)
            .unwrap_or_else(|| panic!("{technique} is registered"));
        let serial = t.reorder(&m).expect("square corpus matrix");
        let got = fnv1a(serial.as_slice());
        assert_eq!(
            got, *want,
            "{technique} serial permutation fingerprint drifted on {name} (got {got:#018x})"
        );
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            let cx = ReorderContext::new(&engine, SEED);
            let parallel = t.reorder_with(&m, &cx).expect("square");
            assert_eq!(
                serial, parallel,
                "{technique} must be thread-count-invariant on {name} at {threads} threads"
            );
        }
    }
}

#[test]
fn golden_and_parallel_permutations_on_single_component_entry() {
    assert_golden_and_invariant_on("soc-rmat-131k");
}

#[test]
fn golden_and_parallel_permutations_on_island_entry() {
    assert_golden_and_invariant_on("kmer-131k");
}

#[test]
fn golden_and_parallel_permutations_on_real_weights() {
    assert_golden_and_invariant_on("planted-real");
}
