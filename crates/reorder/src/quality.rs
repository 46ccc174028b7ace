//! Community-quality metrics from §V of the paper: **modularity** (the
//! quantity RABBIT maximizes), **insularity** (the paper's visualizable
//! proxy), **insular nodes** (the basis of RABBIT++'s first modification)
//! and community-size summaries.

use commorder_exec::Engine;
use commorder_sparse::{CsrMatrix, SparseError};

fn validate(a: &CsrMatrix, assignment: &[u32]) -> Result<(), SparseError> {
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch {
            expected: "square matrix".to_string(),
            found: format!("{} x {}", a.n_rows(), a.n_cols()),
        });
    }
    if assignment.len() != a.n_rows() as usize {
        return Err(SparseError::DimensionMismatch {
            expected: format!("assignment of length {}", a.n_rows()),
            found: format!("assignment of length {}", assignment.len()),
        });
    }
    Ok(())
}

/// **Insularity** (§V-A): the fraction of edges that connect members of
/// the same community. Ranges over `[0, 1]`; the paper's Fig. 1 example
/// evaluates to 20/24 ≈ 0.83. Returns 1.0 for an edgeless graph
/// (vacuously insular).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on a non-square matrix or a
/// wrong-length assignment.
pub fn insularity(a: &CsrMatrix, assignment: &[u32]) -> Result<f64, SparseError> {
    validate(a, assignment)?;
    if a.nnz() == 0 {
        return Ok(1.0);
    }
    let intra = a
        .iter()
        .filter(|&(r, c, _)| assignment[r as usize] == assignment[c as usize])
        .count();
    Ok(intra as f64 / a.nnz() as f64)
}

/// **Insular nodes** (§VI-A): `mask[v]` is `true` when every neighbour of
/// `v` (row *and* column entries — the full undirected neighbourhood)
/// belongs to `v`'s community. Isolated vertices are vacuously insular.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on a non-square matrix or a
/// wrong-length assignment.
pub fn insular_nodes(a: &CsrMatrix, assignment: &[u32]) -> Result<Vec<bool>, SparseError> {
    validate(a, assignment)?;
    let mut mask = vec![true; a.n_rows() as usize];
    for (r, c, _) in a.iter() {
        if assignment[r as usize] != assignment[c as usize] {
            mask[r as usize] = false;
            mask[c as usize] = false;
        }
    }
    Ok(mask)
}

/// [`insular_nodes`] for callers that carry an engine.
///
/// The scan is one serial row loop; `engine` is unused. It stays in the
/// signature so every reorderer phase takes the same arguments.
///
/// # Errors
///
/// See [`insular_nodes`].
pub fn insular_nodes_with(
    a: &CsrMatrix,
    assignment: &[u32],
    _engine: &Engine,
) -> Result<Vec<bool>, SparseError> {
    insular_nodes(a, assignment)
}

/// Fraction of nodes that are insular (Fig. 4's y-axis).
///
/// # Errors
///
/// See [`insular_nodes`].
pub fn insular_fraction(a: &CsrMatrix, assignment: &[u32]) -> Result<f64, SparseError> {
    let mask = insular_nodes(a, assignment)?;
    if mask.is_empty() {
        return Ok(1.0);
    }
    Ok(mask.iter().filter(|&&b| b).count() as f64 / mask.len() as f64)
}

/// Newman–Girvan **modularity** \[34\] of an assignment on the undirected
/// view of `a`:
/// `Q = Σ_c [ w_in(c)/m − (d(c)/(2m))² ]`, where `m` is the total edge
/// weight, `w_in(c)` the weight inside community `c` and `d(c)` its total
/// incident weight. `a` must already be symmetric (community detection
/// symmetrizes before calling this). Returns 0 for an edgeless graph.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on a non-square matrix or a
/// wrong-length assignment.
pub fn modularity(a: &CsrMatrix, assignment: &[u32]) -> Result<f64, SparseError> {
    validate(a, assignment)?;
    let k = assignment
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut w_in = vec![0f64; k];
    let mut d = vec![0f64; k];
    let mut total = 0f64;
    for (r, c, v) in a.iter() {
        let v = f64::from(v);
        total += v;
        d[assignment[r as usize] as usize] += v;
        if assignment[r as usize] == assignment[c as usize] {
            w_in[assignment[r as usize] as usize] += v;
        }
    }
    if total == 0.0 {
        return Ok(0.0);
    }
    // `total` counted each undirected edge twice (symmetric storage), so
    // 2m = total, w_in and d likewise double-counted consistently.
    let two_m = total;
    let q: f64 = (0..k)
        .map(|c| w_in[c] / two_m - (d[c] / two_m).powi(2))
        .sum();
    Ok(q)
}

/// Summary of detected community sizes used in §V's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityStats {
    /// Number of communities.
    pub count: usize,
    /// Mean community size in vertices.
    pub mean_size: f64,
    /// Largest community size.
    pub max_size: u32,
    /// Mean size normalized to the number of vertices (the paper's
    /// "average community size normalized to the number of nodes").
    pub mean_size_normalized: f64,
    /// Largest community as a fraction of all vertices (the mawi
    /// discussion: "the largest community ... corresponds to nearly 98%
    /// of the matrix").
    pub max_size_fraction: f64,
}

impl CommunityStats {
    /// Computes the summary from per-community sizes.
    #[must_use]
    pub fn from_sizes(sizes: &[u32]) -> CommunityStats {
        let n: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let count = sizes.len();
        let mean = if count == 0 {
            0.0
        } else {
            n as f64 / count as f64
        };
        CommunityStats {
            count,
            mean_size: mean,
            max_size: max,
            mean_size_normalized: if n == 0 { 0.0 } else { mean / n as f64 },
            max_size_fraction: if n == 0 {
                0.0
            } else {
                f64::from(max) / n as f64
            },
        }
    }
}

/// Accumulator footprint of a Gustavson SpGEMM self-multiply `A x A`
/// under a community assignment: how many distinct result columns the
/// dense accumulator must hold per row, and per community when the rows
/// of each community execute as one block (cluster-wise execution).
///
/// A small `peak_cluster / peak_row` ratio is the structural signal that
/// cluster-wise execution keeps the accumulator cache-resident: the
/// block's rows share their result columns instead of multiplying them.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumulatorStats {
    /// Largest per-row distinct-result-column count.
    pub peak_row: u64,
    /// Mean per-row distinct-result-column count.
    pub mean_row: f64,
    /// Largest per-community union of result columns.
    pub peak_cluster: u64,
    /// Mean per-community union size over populated communities.
    pub mean_cluster: f64,
}

/// Computes [`AccumulatorStats`] for the self-multiply `A x A` by two
/// stamp-array scans (per row, then per community block); no result is
/// materialized, so the cost is `O(flops)` time and `O(n)` space.
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] on a non-square matrix or a
/// wrong-length assignment.
pub fn accumulator_working_set(
    a: &CsrMatrix,
    assignment: &[u32],
) -> Result<AccumulatorStats, SparseError> {
    validate(a, assignment)?;
    let n = a.n_rows();
    let mut stamp = vec![0u32; a.n_cols() as usize];
    let distinct_result_cols =
        |rows: &mut dyn Iterator<Item = u32>, epoch: u32, stamp: &mut [u32]| -> u64 {
            let mut distinct = 0u64;
            for r in rows {
                let (mids, _) = a.row(r);
                for &k in mids {
                    let (cols, _) = a.row(k);
                    for &j in cols {
                        if stamp[j as usize] != epoch {
                            stamp[j as usize] = epoch;
                            distinct += 1;
                        }
                    }
                }
            }
            distinct
        };

    let mut peak_row = 0u64;
    let mut total_row = 0u64;
    for r in 0..n {
        let d = distinct_result_cols(&mut std::iter::once(r), r + 1, &mut stamp);
        peak_row = peak_row.max(d);
        total_row += d;
    }

    // Community pass: rows grouped by assignment, one epoch per
    // populated community. A fresh stamp epoch space avoids collisions
    // with the per-row pass.
    stamp.fill(0);
    let n_comms = assignment
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_comms];
    for (r, &c) in assignment.iter().enumerate() {
        members[c as usize].push(r as u32);
    }
    let mut peak_cluster = 0u64;
    let mut total_cluster = 0u64;
    let mut populated = 0u64;
    for (c, rows) in members.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        populated += 1;
        let d = distinct_result_cols(&mut rows.iter().copied(), c as u32 + 1, &mut stamp);
        peak_cluster = peak_cluster.max(d);
        total_cluster += d;
    }

    Ok(AccumulatorStats {
        peak_row,
        mean_row: if n == 0 {
            0.0
        } else {
            total_row as f64 / f64::from(n)
        },
        peak_cluster,
        mean_cluster: if populated == 0 {
            0.0
        } else {
            total_cluster as f64 / populated as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;

    /// A Fig.-1-style example: 9 vertices in 3 triangle communities linked
    /// by 2 inter-community edges — 9 intra undirected edges (18 stored
    /// entries) and 2 inter (4 entries), so insularity is 18/22.
    fn fig1() -> (CsrMatrix, Vec<u32>) {
        let intra = [
            (0, 1),
            (1, 2),
            (0, 2), // community 0
            (3, 4),
            (4, 5),
            (3, 5), // community 1
            (6, 7),
            (7, 8),
            (6, 8), // community 2
        ];
        let inter = [(2, 3), (5, 6)];
        let entries: Vec<_> = intra
            .iter()
            .chain(inter.iter())
            .flat_map(|&(u, v)| [(u, v, 1.0), (v, u, 1.0)])
            .collect();
        let m = CsrMatrix::try_from(CooMatrix::from_entries(9, 9, entries).unwrap()).unwrap();
        let assignment = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        (m, assignment)
    }

    #[test]
    fn insularity_matches_hand_count() {
        let (m, comm) = fig1();
        // 9 intra undirected edges -> 18 intra entries; 2 inter -> 4.
        let ins = insularity(&m, &comm).unwrap();
        assert!((ins - 18.0 / 22.0).abs() < 1e-12, "ins = {ins}");
    }

    #[test]
    fn insularity_bounds() {
        let (m, comm) = fig1();
        // One community: insularity 1.
        assert_eq!(insularity(&m, &[0; 9]).unwrap(), 1.0);
        // All singletons: insularity 0 (no self loops).
        let singletons: Vec<u32> = (0..9).collect();
        assert_eq!(insularity(&m, &singletons).unwrap(), 0.0);
        // Proper assignment in between.
        let ins = insularity(&m, &comm).unwrap();
        assert!(ins > 0.0 && ins < 1.0);
    }

    #[test]
    fn insular_nodes_are_the_untouched_interiors() {
        let (m, comm) = fig1();
        let mask = insular_nodes(&m, &comm).unwrap();
        // Vertices 2,3 and 5,6 sit on inter-community edges.
        assert!(!mask[2] && !mask[3] && !mask[5] && !mask[6]);
        assert!(mask[0] && mask[1] && mask[4] && mask[7] && mask[8]);
        let frac = insular_fraction(&m, &comm).unwrap();
        assert!((frac - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertices_are_insular() {
        let m = CsrMatrix::empty(3);
        let mask = insular_nodes(&m, &[0, 1, 2]).unwrap();
        assert_eq!(mask, vec![true; 3]);
        assert_eq!(insularity(&m, &[0, 1, 2]).unwrap(), 1.0);
    }

    #[test]
    fn modularity_of_good_split_beats_single_blob() {
        let (m, comm) = fig1();
        let good = modularity(&m, &comm).unwrap();
        let blob = modularity(&m, &[0; 9]).unwrap();
        assert!(good > blob, "good {good} vs blob {blob}");
        // Single community has Q = w_in/2m - 1 = 0 when all edges internal.
        assert!(blob.abs() < 1e-12);
    }

    #[test]
    fn modularity_is_bounded() {
        let (m, comm) = fig1();
        let q = modularity(&m, &comm).unwrap();
        assert!((-0.5..=1.0).contains(&q));
    }

    #[test]
    fn dimension_mismatches_error() {
        let (m, _) = fig1();
        assert!(insularity(&m, &[0, 1]).is_err());
        assert!(modularity(&m, &[0, 1]).is_err());
        assert!(insular_nodes(&m, &[0, 1]).is_err());
    }

    #[test]
    fn community_stats_basics() {
        let s = CommunityStats::from_sizes(&[5, 3, 2]);
        assert_eq!(s.count, 3);
        assert_eq!(s.max_size, 5);
        assert!((s.mean_size - 10.0 / 3.0).abs() < 1e-12);
        assert!((s.max_size_fraction - 0.5).abs() < 1e-12);
        assert!((s.mean_size_normalized - (10.0 / 3.0) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn community_stats_empty() {
        let s = CommunityStats::from_sizes(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_size, 0.0);
        assert_eq!(s.max_size_fraction, 0.0);
    }
}

/// Adjusted Rand Index between two community assignments over the same
/// vertex set — the standard chance-corrected agreement measure for
/// validating detection against planted ground truth (1.0 = identical
/// partitions up to relabelling, ~0.0 = chance agreement).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if the assignments differ
/// in length.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> Result<f64, SparseError> {
    if a.len() != b.len() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("assignments of equal length {}", a.len()),
            found: format!("lengths {} and {}", a.len(), b.len()),
        });
    }
    let n = a.len();
    if n < 2 {
        return Ok(1.0);
    }
    // Contingency table via a hash map (community ids may be sparse).
    let mut joint: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    let mut rows: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut cols: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_insert(0) += 1;
        *rows.entry(x).or_insert(0) += 1;
        *cols.entry(y).or_insert(0) += 1;
    }
    let choose2 = |k: u64| -> f64 { (k * k.saturating_sub(1)) as f64 / 2.0 };
    let sum_joint: f64 = joint.values().map(|&k| choose2(k)).sum();
    let sum_rows: f64 = rows.values().map(|&k| choose2(k)).sum();
    let sum_cols: f64 = cols.values().map(|&k| choose2(k)).sum();
    let total = choose2(n as u64);
    let expected = sum_rows * sum_cols / total;
    let max_index = (sum_rows + sum_cols) / 2.0;
    if (max_index - expected).abs() < 1e-12 {
        // Degenerate (e.g. both partitions are single blobs): identical
        // by construction.
        return Ok(1.0);
    }
    Ok((sum_joint - expected) / (max_index - expected))
}

/// Normalized Mutual Information between two assignments (arithmetic
/// normalization), in `[0, 1]`; 1.0 = identical up to relabelling.
/// Returns 1.0 when both partitions are trivial (zero entropy).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if the assignments differ
/// in length.
pub fn normalized_mutual_information(a: &[u32], b: &[u32]) -> Result<f64, SparseError> {
    if a.len() != b.len() {
        return Err(SparseError::DimensionMismatch {
            expected: format!("assignments of equal length {}", a.len()),
            found: format!("lengths {} and {}", a.len(), b.len()),
        });
    }
    let n = a.len() as f64;
    if a.is_empty() {
        return Ok(1.0);
    }
    let mut joint: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    let mut pa: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    let mut pb: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_insert(0.0) += 1.0;
        *pa.entry(x).or_insert(0.0) += 1.0;
        *pb.entry(y).or_insert(0.0) += 1.0;
    }
    let entropy = |p: &std::collections::HashMap<u32, f64>| -> f64 {
        p.values()
            .map(|&c| {
                let q = c / n;
                -q * q.ln()
            })
            .sum()
    };
    let ha = entropy(&pa);
    let hb = entropy(&pb);
    if ha == 0.0 && hb == 0.0 {
        return Ok(1.0);
    }
    let mut mi = 0.0;
    for (&(x, y), &c) in &joint {
        let pxy = c / n;
        let px = pa[&x] / n;
        let py = pb[&y] / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    Ok((2.0 * mi / (ha + hb)).clamp(0.0, 1.0))
}

#[cfg(test)]
mod agreement_tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        // Relabelling does not matter.
        let b = vec![5, 5, 9, 9, 1, 1];
        assert!((adjusted_rand_index(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((normalized_mutual_information(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_partitions_score_near_zero() {
        // a splits by half, b alternates: statistically independent.
        let a: Vec<u32> = (0..400).map(|i| u32::from(i >= 200)).collect();
        let b: Vec<u32> = (0..400).map(|i| i % 2).collect();
        let ari = adjusted_rand_index(&a, &b).unwrap();
        assert!(ari.abs() < 0.05, "ari = {ari}");
        let nmi = normalized_mutual_information(&a, &b).unwrap();
        assert!(nmi < 0.05, "nmi = {nmi}");
    }

    #[test]
    fn partial_agreement_is_intermediate() {
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 0, 0, 1, 1, 1, 1, 1]; // one vertex moved
        let ari = adjusted_rand_index(&a, &b).unwrap();
        assert!(ari > 0.3 && ari < 1.0, "ari = {ari}");
    }

    #[test]
    fn length_mismatch_errors() {
        assert!(adjusted_rand_index(&[0, 1], &[0]).is_err());
        assert!(normalized_mutual_information(&[0], &[0, 1]).is_err());
    }

    #[test]
    fn accumulator_working_set_matches_hand_count() {
        // rows: 0 -> {1}, 1 -> {0, 2}, 2 -> {1}, 3 -> {}.
        // A x A result columns: row 0 -> {0, 2}; row 1 -> {1};
        // row 2 -> {0, 2}; row 3 -> {}.
        let m = commorder_sparse::CsrMatrix::new(
            4,
            4,
            vec![0, 1, 3, 4, 4],
            vec![1, 0, 2, 1],
            vec![1.0; 4],
        )
        .unwrap();
        let s = accumulator_working_set(&m, &[1, 0, 1, 0]).unwrap();
        assert_eq!(s.peak_row, 2);
        assert!((s.mean_row - 5.0 / 4.0).abs() < 1e-12, "{}", s.mean_row);
        // community 0 = rows {1, 3} -> {1}; community 1 = rows {0, 2}
        // -> {0, 2}.
        assert_eq!(s.peak_cluster, 2);
        assert!(
            (s.mean_cluster - 3.0 / 2.0).abs() < 1e-12,
            "{}",
            s.mean_cluster
        );
        // One blob unions every row: {0, 1, 2}.
        let blob = accumulator_working_set(&m, &[0; 4]).unwrap();
        assert_eq!(blob.peak_cluster, 3);
        // Singleton communities degenerate to the per-row footprint.
        let singles = accumulator_working_set(&m, &[0, 1, 2, 3]).unwrap();
        assert_eq!(singles.peak_cluster, singles.peak_row);
        assert!((singles.mean_cluster - singles.mean_row).abs() < 1e-12);
    }

    #[test]
    fn accumulator_working_set_validates_inputs() {
        let m = commorder_sparse::CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(accumulator_working_set(&m, &[0]).is_err());
        let sq = commorder_sparse::CsrMatrix::empty(3);
        assert!(accumulator_working_set(&sq, &[0, 1]).is_err());
        let s = accumulator_working_set(&sq, &[0, 1, 2]).unwrap();
        assert_eq!(s.peak_row, 0);
        assert_eq!(s.peak_cluster, 0);
    }

    #[test]
    fn rabbit_recovers_planted_blocks_with_high_ari() {
        use commorder_synth::generators::PlantedPartition;
        let g = PlantedPartition::uniform(1024, 16, 10.0, 0.02)
            .generate(44)
            .unwrap();
        let detected = crate::Rabbit::new().run(&g).unwrap().assignment;
        let planted: Vec<u32> = (0..1024).map(|v| v / 64).collect();
        let ari = adjusted_rand_index(&detected, &planted).unwrap();
        assert!(
            ari > 0.8,
            "rabbit should recover planted blocks: ari = {ari}"
        );
        let nmi = normalized_mutual_information(&detected, &planted).unwrap();
        assert!(nmi > 0.85, "nmi = {nmi}");
    }
}
