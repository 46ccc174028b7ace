//! Lightweight degree-based orderings: ORIGINAL, RANDOM, DEGSORT, DBG,
//! HUBSORT and HUBGROUP.
//!
//! These exploit only the power-law degree distribution (§IV-A): packing
//! the most-referenced vertices (columns with high in-degree, since SpMV
//! reads `X[col]` once per stored entry) into the fewest cache lines.

use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::Reordering;

pub(crate) fn require_square(a: &CsrMatrix) -> Result<(), SparseError> {
    if a.is_square() {
        Ok(())
    } else {
        Err(SparseError::DimensionMismatch {
            expected: "square matrix".to_string(),
            found: format!("{} x {}", a.n_rows(), a.n_cols()),
        })
    }
}

/// The publisher's ordering: the identity permutation (paper's ORIGINAL).
///
/// Observation 3 of the paper: this is an ill-defined baseline — it
/// reflects an arbitrary publisher choice, not a matrix property.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Original;

impl Reordering for Original {
    fn name(&self) -> &str {
        "ORIGINAL"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        Ok(Permutation::identity(a.n_rows() as usize))
    }
}

/// Uniformly random vertex IDs (paper's RANDOM): the structure-destroying
/// lower bound every technique is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomOrder {
    seed: u64,
}

impl RandomOrder {
    /// Creates a random ordering with a fixed seed (deterministic).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomOrder { seed }
    }
}

impl Reordering for RandomOrder {
    fn name(&self) -> &str {
        "RANDOM"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        let mut ids: Vec<u32> = (0..a.n_rows()).collect();
        Shuffler::new(self.seed).shuffle(&mut ids);
        Permutation::from_new_ids(ids)
    }
}

/// Seeded Fisher–Yates shuffles driven by one SplitMix64 stream, shared
/// by RANDOM and RABBIT-FLAT. Inline so the reorder crate stays
/// independent of the synth crate's RNG.
pub(crate) struct Shuffler {
    state: u64,
}

impl Shuffler {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    pub(crate) fn new(seed: u64) -> Self {
        Shuffler {
            state: seed.wrapping_add(Self::GAMMA),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Shuffles `ids` in place, continuing this stream.
    pub(crate) fn shuffle(&mut self, ids: &mut [u32]) {
        for i in (1..ids.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
    }
}

/// DEGSORT: stable sort of all vertices by decreasing in-degree.
///
/// "Assigns vertex IDs in decreasing order of degree so as to pack highly
/// connected vertices into the fewest number of cache lines" (§IV-A).
/// Uses in-degrees, following the paper's choice for push-style workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegSort;

impl Reordering for DegSort {
    fn name(&self) -> &str {
        "DEGSORT"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        let degrees = a.in_degrees();
        let mut order: Vec<u32> = (0..a.n_rows()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
        Permutation::from_order(&order)
    }
}

/// DBG: degree-based grouping (Faldu et al., IISWC'19).
///
/// Vertices are partitioned into logarithmic degree buckets anchored at
/// the mean in-degree; buckets are laid out from the highest degree range
/// down, and vertices **keep their original relative order inside each
/// bucket** — preserving whatever locality the original order had, unlike
/// DEGSORT's full reshuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dbg {
    /// Number of buckets (the reference implementation uses 8).
    pub buckets: u32,
}

impl Default for Dbg {
    fn default() -> Self {
        Dbg { buckets: 8 }
    }
}

impl Dbg {
    /// Bucket index for a degree given the mean: bucket 0 collects
    /// `deg >= mean * 2^(buckets-2)`, the last bucket `deg < mean / 2`.
    fn bucket_of(&self, degree: u32, mean: f64) -> u32 {
        // Thresholds (buckets = 8): [32m, 16m, 8m, 4m, 2m, m, m/2).
        let b = self.buckets;
        for k in 0..(b - 1) {
            let exp = i32::from(b as u16) - 3 - k as i32; // 5,4,...,-1 for b=8
            let threshold = mean * f64::powi(2.0, exp);
            if f64::from(degree) >= threshold {
                return k;
            }
        }
        b - 1
    }
}

impl Reordering for Dbg {
    fn name(&self) -> &str {
        "DBG"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        if self.buckets < 2 {
            return Err(SparseError::DimensionMismatch {
                expected: "at least 2 buckets".to_string(),
                found: format!("{} buckets", self.buckets),
            });
        }
        let degrees = a.in_degrees();
        let mean = if a.n_rows() == 0 {
            0.0
        } else {
            a.nnz() as f64 / f64::from(a.n_rows())
        };
        let mut order: Vec<u32> = Vec::with_capacity(a.n_rows() as usize);
        for bucket in 0..self.buckets {
            // Scanning vertices in original order per bucket keeps the
            // within-bucket order stable.
            order.extend(
                (0..a.n_rows()).filter(|&v| self.bucket_of(degrees[v as usize], mean) == bucket),
            );
        }
        Permutation::from_order(&order)
    }
}

/// Classifies vertices as hubs: in-degree strictly greater than the mean
/// in-degree ("typically defined as nodes with degree greater than the
/// average degree of the graph", §VI-A).
#[must_use]
pub fn hub_mask(a: &CsrMatrix) -> Vec<bool> {
    let degrees = a.in_degrees();
    let mean = if a.n_rows() == 0 {
        0.0
    } else {
        a.nnz() as f64 / f64::from(a.n_rows())
    };
    degrees.iter().map(|&d| f64::from(d) > mean).collect()
}

/// HUBSORT: hubs first in decreasing degree order, non-hubs after in their
/// original relative order (Zhang et al. / frequency-based clustering
/// family, \[43\]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubSort;

impl Reordering for HubSort {
    fn name(&self) -> &str {
        "HUBSORT"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        let degrees = a.in_degrees();
        let hubs = hub_mask(a);
        let mut hub_ids: Vec<u32> = (0..a.n_rows()).filter(|&v| hubs[v as usize]).collect();
        hub_ids.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
        let mut order = hub_ids;
        order.extend((0..a.n_rows()).filter(|&v| !hubs[v as usize]));
        Permutation::from_order(&order)
    }
}

/// HUBGROUP: hubs first **keeping their original relative order**, then
/// non-hubs, also in original order — the lighter-weight cousin of
/// HUBSORT that preserves pre-existing locality among the hubs (the
/// property RABBIT++ relies on in §VI-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubGroup;

impl Reordering for HubGroup {
    fn name(&self) -> &str {
        "HUBGROUP"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        require_square(a)?;
        let hubs = hub_mask(a);
        let mut order: Vec<u32> = (0..a.n_rows()).filter(|&v| hubs[v as usize]).collect();
        order.extend((0..a.n_rows()).filter(|&v| !hubs[v as usize]));
        Permutation::from_order(&order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;

    /// Star with hub at id 3 plus a 2-path, so degrees are distinguishable.
    fn star_graph() -> CsrMatrix {
        let mut entries = Vec::new();
        for v in [0u32, 1, 2, 4, 5] {
            entries.push((3, v, 1.0));
            entries.push((v, 3, 1.0));
        }
        entries.push((0, 1, 1.0));
        entries.push((1, 0, 1.0));
        CsrMatrix::try_from(CooMatrix::from_entries(6, 6, entries).unwrap()).unwrap()
    }

    #[test]
    fn original_is_identity() {
        let p = Original.reorder(&star_graph()).unwrap();
        assert!(p.is_identity());
    }

    #[test]
    fn random_is_deterministic_per_seed_and_unbiased_length() {
        let g = star_graph();
        let p1 = RandomOrder::new(5).reorder(&g).unwrap();
        let p2 = RandomOrder::new(5).reorder(&g).unwrap();
        let p3 = RandomOrder::new(6).reorder(&g).unwrap();
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_eq!(p1.len(), 6);
    }

    #[test]
    fn degsort_puts_hub_first() {
        let g = star_graph();
        let p = DegSort.reorder(&g).unwrap();
        assert_eq!(p.new_of(3), 0, "hub (degree 5) gets new id 0");
        // Vertices 0 and 1 (degree 2) come next, stable in original order.
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
    }

    #[test]
    fn degsort_is_stable_for_ties() {
        let g = star_graph();
        let p = DegSort.reorder(&g).unwrap();
        // 2, 4, 5 all have degree 1 and must stay in relative order.
        assert!(p.new_of(2) < p.new_of(4));
        assert!(p.new_of(4) < p.new_of(5));
    }

    #[test]
    fn dbg_orders_buckets_by_decreasing_degree_range() {
        let g = star_graph();
        let p = Dbg::default().reorder(&g).unwrap();
        // Hub is in the highest-degree bucket -> first.
        assert_eq!(p.new_of(3), 0);
        // Remaining vertices keep original relative order within buckets.
        assert!(p.new_of(0) < p.new_of(1));
        assert!(p.new_of(2) < p.new_of(4));
    }

    #[test]
    fn dbg_rejects_degenerate_bucket_count() {
        assert!(Dbg { buckets: 1 }.reorder(&star_graph()).is_err());
    }

    #[test]
    fn hub_mask_flags_only_above_mean() {
        let g = star_graph();
        // nnz = 12, n = 6, mean = 2; hub iff degree > 2: only vertex 3 (5).
        let mask = hub_mask(&g);
        assert_eq!(mask, vec![false, false, false, true, false, false]);
    }

    #[test]
    fn hubsort_and_hubgroup_put_hubs_first() {
        let g = star_graph();
        for technique in [&HubSort as &dyn Reordering, &HubGroup] {
            let p = technique.reorder(&g).unwrap();
            assert_eq!(p.new_of(3), 0, "{}", technique.name());
            // Non-hubs keep original relative order.
            assert!(p.new_of(0) < p.new_of(1));
            assert!(p.new_of(1) < p.new_of(2));
        }
    }

    #[test]
    fn rectangular_matrices_are_rejected() {
        let rect = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        for technique in [
            &Original as &dyn Reordering,
            &RandomOrder::new(0),
            &DegSort,
            &Dbg::default(),
            &HubSort,
            &HubGroup,
        ] {
            assert!(technique.reorder(&rect).is_err(), "{}", technique.name());
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let empty = CsrMatrix::empty(0);
        assert!(DegSort.reorder(&empty).unwrap().is_empty());
        assert!(Dbg::default().reorder(&empty).unwrap().is_empty());
    }
}
