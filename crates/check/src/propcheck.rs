//! Minimal deterministic property-test harness.
//!
//! The workspace runs offline, so instead of a registry dependency this
//! module drives the vendored [`commorder_synth::rng::Rng`] through a
//! fixed number of seeded cases. Failures panic with the case name and
//! seed, so any counterexample is reproducible with
//! `Rng::new(case_seed(name, seed))`.
//!
//! ```
//! use commorder_check::propcheck::{arb_perm, run_cases};
//!
//! run_cases("inverse-round-trips", 16, |rng| {
//!     let p = arb_perm(rng, 50);
//!     assert!(p.then(&p.inverse()).expect("same length").is_identity());
//! });
//! ```

use std::collections::BTreeMap;

use commorder_cachesim::Access;
use commorder_sparse::{CooMatrix, CsrMatrix, Permutation, ELEM_BYTES};
use commorder_synth::rng::Rng;

/// Number of cases the workspace property tests default to.
pub const DEFAULT_CASES: u64 = 64;

/// Deterministic per-case seed: FNV-1a over the case name mixed with the
/// case number, so distinct properties explore distinct streams.
#[must_use]
pub fn case_seed(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= case;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// Runs `property` against `cases` independently seeded RNGs.
///
/// # Panics
///
/// Re-panics any property failure, prefixed with the case name and seed
/// needed to reproduce it.
#[expect(
    clippy::panic,
    reason = "a failing property re-panics with the case and seed that reproduce it: that panic is the harness's report"
)]
pub fn run_cases<F: FnMut(&mut Rng)>(name: &str, cases: u64, mut property: F) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            property(&mut rng);
        }));
        if let Err(payload) = result {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property {name:?} failed at case {case} (seed {seed:#x}): {detail}");
        }
    }
}

/// A random valid CSR matrix with up to `max_n` rows/columns and about
/// `avg_degree` entries per row (duplicates merged, so possibly fewer).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "coords are drawn below n, so the COO is valid and so is its CSR"
)]
pub fn arb_csr(rng: &mut Rng, max_n: u32, avg_degree: u32) -> CsrMatrix {
    let n = 1 + rng.gen_u32(max_n.max(1));
    let target = (u64::from(n) * u64::from(avg_degree.max(1))) as usize;
    let mut entries = Vec::with_capacity(target);
    for _ in 0..target {
        let r = rng.gen_u32(n);
        let c = rng.gen_u32(n);
        let v = (rng.next_f64() * 4.0 - 2.0) as f32;
        entries.push((r, c, v));
    }
    let coo = CooMatrix::from_entries(n, n, entries).expect("coords drawn in bounds");
    CsrMatrix::try_from(coo).expect("conversion preserves validity")
}

/// A random undirected (symmetric) graph as CSR, the input shape every
/// reordering technique expects.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "coords are drawn below n, so the COO is valid and so is its CSR"
)]
pub fn arb_graph(rng: &mut Rng, max_n: u32, avg_degree: u32) -> CsrMatrix {
    let n = 2 + rng.gen_u32(max_n.max(2));
    let target = (u64::from(n) * u64::from(avg_degree.max(1)) / 2) as usize;
    let mut entries = Vec::with_capacity(2 * target);
    for _ in 0..target {
        let u = rng.gen_u32(n);
        let v = rng.gen_u32(n);
        if u == v {
            continue;
        }
        entries.push((u, v, 1.0));
        entries.push((v, u, 1.0));
    }
    let coo = CooMatrix::from_entries(n, n, entries).expect("coords drawn in bounds");
    CsrMatrix::try_from(coo).expect("conversion preserves validity")
}

/// A random square matrix equal to its own transpose (values included),
/// built from `arb_csr`'s upper triangle and diagonal. With `perturb`,
/// one off-diagonal entry then loses its mirror or has its value negated
/// (different bits, so the matrix is nearly but not exactly mirrored).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "coords are copied from a valid n x n matrix, so the COO is valid and so is its CSR"
)]
pub fn arb_mirrored(rng: &mut Rng, max_n: u32, avg_degree: u32, perturb: bool) -> CsrMatrix {
    let base = arb_csr(rng, max_n, avg_degree);
    let mut entries = Vec::with_capacity(2 * base.nnz());
    for (r, c, v) in base.iter().filter(|&(r, c, _)| r <= c) {
        entries.push((r, c, v));
        if r != c {
            entries.push((c, r, v));
        }
    }
    let off_diagonal: Vec<usize> = (0..entries.len())
        .filter(|&k| entries[k].0 != entries[k].1)
        .collect();
    if perturb && !off_diagonal.is_empty() {
        let k = off_diagonal[rng.gen_range(off_diagonal.len() as u64) as usize];
        if rng.gen_bool(0.5) {
            entries.swap_remove(k);
        } else {
            entries[k].2 = -entries[k].2;
        }
    }
    let n = base.n_rows();
    let coo = CooMatrix::from_entries(n, n, entries).expect("coords drawn in bounds");
    CsrMatrix::try_from(coo).expect("conversion preserves validity")
}

/// Brute-force `A ∪ Aᵀ` of a square `a` as row-major `(row, col, value)`
/// triples, optionally without the diagonal: the reference the row-merge
/// in `commorder_sparse::ops` must match. Where both `(r, c)` and
/// `(c, r)` are stored, the value is `a_rc + a_cr` in that order.
#[must_use]
pub fn brute_union(a: &CsrMatrix, keep_diagonal: bool) -> Vec<(u32, u32, f32)> {
    let mut union: BTreeMap<(u32, u32), (Option<f32>, Option<f32>)> = BTreeMap::new();
    for (r, c, v) in a.iter() {
        union.entry((r, c)).or_default().0 = Some(v);
        union.entry((c, r)).or_default().1 = Some(v);
    }
    union
        .into_iter()
        .filter(|&((r, c), _)| keep_diagonal || r != c)
        .map(|((r, c), pair)| match pair {
            (Some(x), Some(y)) => (r, c, x + y),
            (Some(x), None) | (None, Some(x)) => (r, c, x),
            (None, None) => unreachable!("every key has a value"),
        })
        .collect()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates over the
/// identity).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "a shuffle of the identity is a bijection"
)]
pub fn arb_perm(rng: &mut Rng, n: u32) -> Permutation {
    let mut ids: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut ids);
    Permutation::from_new_ids(ids).expect("a shuffle of the identity is a bijection")
}

/// A random element-aligned trace over `[0, end)`.
#[must_use]
pub fn arb_trace(rng: &mut Rng, len: usize, end: u64) -> Vec<Access> {
    let elems = (end / ELEM_BYTES).max(1);
    (0..len)
        .map(|_| Access::new(rng.gen_range(elems) * ELEM_BYTES, rng.gen_bool(0.25)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::check_csr;
    use crate::perm::check_permutation;
    use crate::trace::check_trace;

    #[test]
    fn case_seeds_are_distinct_per_name_and_case() {
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_eq!(case_seed("a", 3), case_seed("a", 3));
    }

    #[test]
    fn generators_produce_valid_objects() {
        run_cases("generators-valid", 16, |rng| {
            let m = arb_csr(rng, 40, 4);
            assert!(check_csr(&m).is_empty());
            let g = arb_graph(rng, 40, 4);
            assert!(g.is_symmetric());
            let p = arb_perm(rng, g.n_rows());
            assert!(check_permutation(&p, Some(u64::from(g.n_rows()))).is_empty());
            let t = arb_trace(rng, 50, 4096);
            assert!(check_trace(&t, Some(4096), 32).is_empty());
        });
    }

    #[test]
    fn view_built_unions_equal_the_brute_force_union_bit_for_bit() {
        use commorder_sparse::ops;
        let bits = |entries: Vec<(u32, u32, f32)>| -> Vec<(u32, u32, u32)> {
            entries
                .into_iter()
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect()
        };
        run_cases("union-rows-vs-brute-force", DEFAULT_CASES, |rng| {
            let cases = [
                (arb_csr(rng, 40, 3), false),
                (arb_mirrored(rng, 40, 3, false), true),
                (arb_mirrored(rng, 40, 3, true), false),
            ];
            for (m, mirrored) in cases {
                let entries = bits(m.iter().collect());
                let mut flipped: Vec<_> = entries.iter().map(|&(r, c, v)| (c, r, v)).collect();
                flipped.sort_unstable();
                assert_eq!(ops::is_mirrored(&m), Ok(entries == flipped));
                // An `arb_csr` draw may happen to be mirrored; the others
                // are mirrored exactly when unperturbed.
                assert!(!mirrored || entries == flipped);
                let sym = ops::symmetrize(&m).expect("square");
                assert_eq!(bits(sym.iter().collect()), bits(brute_union(&m, true)));
                let und = ops::undirected(&m).expect("square");
                assert_eq!(bits(und.iter().collect()), bits(brute_union(&m, false)));
                assert!(check_csr(&sym).is_empty() && check_csr(&und).is_empty());
            }
        });
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_carry_name_and_seed() {
        run_cases("always-fails", 4, |_| panic!("boom"));
    }
}
