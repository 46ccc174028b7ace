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
//!
//! Every corpus entry and `planted-real` equals its own transpose, so
//! detection reads `A ∪ Aᵀ` without building `Aᵀ`. Three more inputs
//! are not mirrors and take the transpose path: `planted-directed`
//! keeps only the upper triangle, `planted-real-ordered` keys its
//! weights by the ordered pair `(r, c)`, and `planted-signed-zero`
//! stores `0.0` and `-0.0` across the diagonal once.

use commorder_exec::Engine;
use commorder_reorder::ReorderContext;
use commorder_sparse::{ops, CooMatrix, CsrMatrix};
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
    (
        "planted-directed",
        &[
            ("RABBIT", 0x5B4F_BF19_3EDC_8A05),
            ("RABBIT-FLAT", 0x993D_3181_9511_2901),
            ("RABBIT++", 0x5405_C1E4_3B50_3FE5),
        ],
    ),
    (
        "planted-real-ordered",
        &[
            ("RABBIT", 0x02EF_8448_B860_714D),
            ("RABBIT-FLAT", 0x3B3D_0DA7_7C93_22A1),
            ("RABBIT++", 0xA275_1B27_BD7C_D059),
        ],
    ),
    (
        "planted-signed-zero",
        &[
            ("RABBIT", 0xC0DB_E28C_4D90_9C65),
            ("RABBIT-FLAT", 0x8B47_400B_3767_944D),
            ("RABBIT++", 0xBEE9_8CDF_92FF_F3E9),
        ],
    ),
];

fn golden_matrix(name: &str) -> CsrMatrix {
    match name {
        "planted-real" => return weighted_planted(|r, c| r.min(c) * 7 + r.max(c) * 3),
        "planted-real-ordered" => return weighted_planted(|r, c| r * 7 + c * 6),
        "planted-directed" => return planted_directed(),
        "planted-signed-zero" => return planted_signed_zero(),
        _ => {}
    }
    corpus::standard()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} must exist in the standard corpus"))
        .generate()
        .expect("corpus entries generate")
}

/// The symmetric pattern graph every `planted-*` input derives from.
fn planted() -> CsrMatrix {
    PlantedPartition::uniform(8192, 64, 12.0, 0.15)
        .generate(0x5EED)
        .expect("planted partition generates")
}

/// The planted partition with edge weights from {0.1, 0.2, 0.3, 0.7},
/// picked by `key(r, c)`, so detection sums weights that have no exact
/// binary representation. A key symmetric in `(r, c)` keeps the matrix
/// its own transpose; an ordered one does not.
fn weighted_planted(key: impl Fn(usize, usize) -> usize) -> CsrMatrix {
    const WEIGHTS: [f32; 4] = [0.1, 0.2, 0.3, 0.7];
    let g = planted();
    let entries: Vec<(u32, u32, f32)> = g
        .iter()
        .map(|(r, c, _)| (r, c, WEIGHTS[key(r as usize, c as usize) % WEIGHTS.len()]))
        .collect();
    let coo = CooMatrix::from_entries(g.n_rows(), g.n_cols(), entries).expect("in bounds");
    CsrMatrix::try_from(coo).expect("valid CSR")
}

/// The planted partition with its lower triangle dropped: a directed
/// graph whose every edge points to the larger vertex id.
fn planted_directed() -> CsrMatrix {
    let g = planted();
    let entries: Vec<(u32, u32, f32)> = g.iter().filter(|&(r, c, _)| r <= c).collect();
    let coo = CooMatrix::from_entries(g.n_rows(), g.n_cols(), entries).expect("in bounds");
    CsrMatrix::try_from(coo).expect("valid CSR")
}

/// `planted-real` with row 0's first edge stored as `0.0` and its
/// mirror as `-0.0`: equal values whose bits differ.
fn planted_signed_zero() -> CsrMatrix {
    let g = weighted_planted(|r, c| r.min(c) * 7 + r.max(c) * 3);
    let c = g.row(0).0[0];
    let mut values = g.values().to_vec();
    values[0] = 0.0;
    // Column 0 is the smallest, so `(c, 0)` leads row `c`.
    values[g.row_offsets()[c as usize] as usize] = -0.0;
    CsrMatrix::new(
        g.n_rows(),
        g.n_cols(),
        g.row_offsets().to_vec(),
        g.col_indices().to_vec(),
        values,
    )
    .expect("same structure")
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

#[test]
fn golden_and_parallel_permutations_on_directed_input() {
    assert_golden_and_invariant_on("planted-directed");
}

#[test]
fn golden_and_parallel_permutations_on_ordered_real_weights() {
    assert_golden_and_invariant_on("planted-real-ordered");
}

#[test]
fn golden_and_parallel_permutations_on_signed_zero_mirror() {
    assert_golden_and_invariant_on("planted-signed-zero");
}

/// Golden fingerprints of the pattern-only reorderers, which read the
/// pattern of `A ∪ Aᵀ`. The plain planted partition is its own mirror,
/// so they read it in place; `planted-directed` and
/// `planted-signed-zero` are not, so they read a materialized union.
/// All three share one union pattern, hence one permutation each.
const PATTERN_GOLDEN: &[(&str, u64)] = &[
    ("GORDER", 0xE64E_B452_8C11_F09D),
    ("RCM", 0xAF85_E136_B7F3_B935),
    ("RCM++", 0xAF85_E136_B7F3_B935),
    ("BISECTION", 0x5F61_365D_CC93_2071),
    ("SLASHBURN", 0x9023_43E7_D82B_A909),
    ("LABELPROP", 0xFB03_032C_3DCE_F725),
];

#[test]
fn pattern_reorderers_give_golden_orders_in_place_and_on_a_copy() {
    for (name, m, mirrored) in [
        ("planted", planted(), true),
        ("planted-directed", planted_directed(), false),
        ("planted-signed-zero", planted_signed_zero(), false),
    ] {
        assert_eq!(ops::is_mirrored(&m), Ok(mirrored), "{name}");
        for &(technique, want) in PATTERN_GOLDEN {
            let t = commorder_reorder::technique_by_name(technique, SEED)
                .unwrap_or_else(|| panic!("{technique} is registered"));
            let got = fnv1a(t.reorder(&m).expect("square").as_slice());
            assert_eq!(
                got, want,
                "{technique} permutation fingerprint drifted on {name} (got {got:#018x})"
            );
        }
    }
}

#[test]
fn the_transpose_path_inputs_are_not_their_own_mirrors() {
    for name in [
        "planted-directed",
        "planted-real-ordered",
        "planted-signed-zero",
    ] {
        assert_eq!(ops::is_mirrored(&golden_matrix(name)), Ok(false), "{name}");
    }
    assert_eq!(ops::is_mirrored(&golden_matrix("planted-real")), Ok(true));
}
