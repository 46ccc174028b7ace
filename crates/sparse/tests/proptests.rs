//! Property-based tests for the sparse substrate: format invariants,
//! kernel correctness against the dense reference, and permutation laws.
//!
//! Driven by the offline `commorder_check::propcheck` harness: each
//! property runs [`DEFAULT_CASES`] deterministically seeded cases, and a
//! failure panics with the (name, case, seed) triple to reproduce it.

use commorder_check::propcheck::{arb_csr, arb_perm, run_cases, DEFAULT_CASES};
use commorder_sparse::{kernels, ops, stats, CooMatrix, CscMatrix, Permutation};

fn approx(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn csr_invariants_hold_after_conversion() {
    run_cases("csr-invariants", DEFAULT_CASES, |rng| {
        // Row offsets monotone, columns strictly increasing per row.
        let m = arb_csr(rng, 30, 5);
        let offs = m.row_offsets();
        assert_eq!(offs[0], 0);
        assert_eq!(*offs.last().expect("offsets non-empty") as usize, m.nnz());
        for r in 0..m.n_rows() {
            let (cols, _) = m.row(r);
            for w in cols.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    });
}

#[test]
fn spmv_matches_dense_reference() {
    run_cases("spmv-vs-dense", DEFAULT_CASES, |rng| {
        let m = arb_csr(rng, 25, 6);
        let x: Vec<f32> = (0..m.n_cols()).map(|i| (i as f32).sin()).collect();
        let sparse = kernels::spmv_csr(&m, &x).expect("dims");
        let dense = kernels::dense_reference_spmv(&m, &x);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!(approx(*a, *b), "{a} vs {b}");
        }
    });
}

#[test]
fn coo_and_tiled_kernels_agree_with_csr() {
    run_cases("kernel-agreement", DEFAULT_CASES, |rng| {
        let m = arb_csr(rng, 25, 6);
        let tile = 1 + rng.gen_u32(39);
        let x: Vec<f32> = (0..m.n_cols()).map(|i| 1.0 + (i % 3) as f32).collect();
        let reference = kernels::spmv_csr(&m, &x).expect("dims");
        let coo = kernels::spmv_coo(&CooMatrix::from(&m), &x).expect("dims");
        let tiled = kernels::spmv_csr_tiled(&m, &x, tile).expect("dims");
        for ((a, b), c) in reference.iter().zip(&coo).zip(&tiled) {
            assert!(approx(*a, *b));
            assert!(approx(*a, *c));
        }
    });
}

#[test]
fn csc_round_trip_preserves_matrix() {
    run_cases("csc-round-trip", DEFAULT_CASES, |rng| {
        let m = arb_csr(rng, 25, 5);
        let csc = CscMatrix::from(&m);
        assert_eq!(csc.to_csr(), m);
        assert_eq!(csc.nnz(), m.nnz());
        // Column degrees equal in-degrees.
        let in_deg = m.in_degrees();
        for c in 0..m.n_cols() {
            assert_eq!(csc.col_degree(c), in_deg[c as usize]);
        }
    });
}

#[test]
fn permute_preserves_structure_metrics() {
    run_cases("permute-invariants", DEFAULT_CASES, |rng| {
        // nnz and degree *multiset* are permutation invariants.
        let m = arb_csr(rng, 25, 5);
        let p = arb_perm(rng, m.n_rows());
        let pm = m.permute_symmetric(&p).expect("square");
        assert_eq!(pm.nnz(), m.nnz());
        let mut d1 = m.out_degrees();
        let mut d2 = pm.out_degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        // Skew is invariant under symmetric permutation.
        let s1 = stats::skew_top10(&m);
        let s2 = stats::skew_top10(&pm);
        assert!((s1 - s2).abs() < 1e-12);
    });
}

#[test]
fn from_new_ids_accepts_exactly_bijections() {
    run_cases("from-new-ids-bijections", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_u32(60);
        // A shuffled identity is a bijection and must be accepted.
        let good = arb_perm(rng, n).into_inner();
        assert!(Permutation::from_new_ids(good.clone()).is_ok());
        // Any single corruption (duplicate or out-of-range entry) breaks
        // the bijection and must be rejected.
        let idx = rng.gen_range(u64::from(n)) as usize;
        let mut dup = good.clone();
        dup[idx] = dup[(idx + 1) % dup.len()];
        if dup.len() > 1 {
            assert!(Permutation::from_new_ids(dup).is_err());
        }
        let mut oob = good;
        oob[idx] = n + rng.gen_u32(5);
        assert!(Permutation::from_new_ids(oob).is_err());
    });
}

#[test]
fn self_loop_removal_and_symmetrize_compose() {
    run_cases("clean-then-symmetrize", DEFAULT_CASES, |rng| {
        let m = arb_csr(rng, 25, 5);
        let clean = ops::remove_self_loops(&m);
        assert!(clean.iter().all(|(r, c, _)| r != c));
        let sym = ops::symmetrize(&clean).expect("square");
        assert!(sym.is_symmetric());
        assert!(sym.iter().all(|(r, c, _)| r != c));
    });
}

#[test]
fn undirected_equals_symmetrize_then_remove_self_loops() {
    run_cases("undirected-one-pass", DEFAULT_CASES, |rng| {
        let m = arb_csr(rng, 25, 5);
        let reference = ops::remove_self_loops(&ops::symmetrize(&m).expect("square"));
        assert_eq!(ops::undirected(&m).expect("square"), reference);
    });
}

#[test]
fn connected_components_partition_vertices() {
    run_cases("components-partition", DEFAULT_CASES, |rng| {
        let m = arb_csr(rng, 25, 4);
        let (comp, count) = ops::connected_components(&m).expect("square");
        assert_eq!(comp.len(), m.n_rows() as usize);
        assert!(comp.iter().all(|&c| c < count));
        // Adjacent vertices share a component.
        for (r, c, _) in m.iter() {
            assert_eq!(comp[r as usize], comp[c as usize]);
        }
    });
}

#[test]
fn compulsory_traffic_monotone_in_nnz() {
    use commorder_sparse::traffic::Kernel;
    run_cases("compulsory-monotone", DEFAULT_CASES, |rng| {
        let n = 1 + rng.gen_range(10_000);
        let nnz = rng.gen_range(1_000_000);
        for k in [Kernel::SpmvCsr, Kernel::SpmvCoo, Kernel::SpmmCsr { k: 4 }] {
            assert!(k.compulsory_bytes(n, nnz + 1) > k.compulsory_bytes(n, nnz));
            assert!(k.compulsory_bytes(n + 1, nnz) > k.compulsory_bytes(n, nnz));
        }
    });
}
