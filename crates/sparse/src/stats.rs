//! Structural statistics the paper's analysis is built on: degree
//! distributions, the top-10% **skew** metric (§V-B), and classic
//! bandwidth/profile measures of non-zero concentration near the diagonal.

use crate::CsrMatrix;

/// Summary of a degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Arithmetic mean degree (the paper's "average row length").
    pub mean: f64,
    /// Median degree.
    pub median: u32,
    /// 90th-percentile degree.
    pub p90: u32,
    /// Number of vertices with degree zero (empty rows — the paper's
    /// wiki-Talk footnote notes 93% empty rows distort ideal-traffic
    /// estimates).
    pub zero_count: u32,
}

impl DegreeStats {
    /// Computes summary statistics from a degree vector.
    ///
    /// Returns an all-zero summary for an empty input.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the empty input returned early, so sorted has a last element"
    )]
    pub fn from_degrees(degrees: &[u32]) -> DegreeStats {
        if degrees.is_empty() {
            return DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0,
                p90: 0,
                zero_count: 0,
            };
        }
        let mut sorted = degrees.to_vec();
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().map(|&d| u64::from(d)).sum();
        let pct = |p: f64| -> u32 {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        DegreeStats {
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: sum as f64 / sorted.len() as f64,
            median: pct(0.5),
            p90: pct(0.9),
            zero_count: sorted.iter().take_while(|&&d| d == 0).count() as u32,
        }
    }
}

/// The paper's degree-**skew** metric (§V-B): the fraction of non-zeros
/// owned by the top 10% most-connected rows, in `[0, 1]`.
///
/// "High skew values indicate a stronger power-law behavior where the hub
/// vertices are even more disproportionately connected." The paper reports
/// it as a percentage; multiply by 100 to match.
///
/// Returns 0 for an empty matrix.
#[must_use]
pub fn skew_top10(a: &CsrMatrix) -> f64 {
    skew_top_fraction(a, 0.10)
}

/// Generalization of [`skew_top10`]: fraction of non-zeros owned by the
/// top `frac` (by row degree) of rows.
///
/// # Panics
///
/// Panics if `frac` is not in `(0, 1]`.
#[must_use]
pub fn skew_top_fraction(a: &CsrMatrix, frac: f64) -> f64 {
    assert!(frac > 0.0 && frac <= 1.0, "frac must be in (0, 1]");
    if a.nnz() == 0 || a.n_rows() == 0 {
        return 0.0;
    }
    let mut degrees = a.out_degrees();
    degrees.sort_unstable_by(|x, y| y.cmp(x));
    let top = ((a.n_rows() as f64 * frac).ceil() as usize).max(1);
    let top_nnz: u64 = degrees.iter().take(top).map(|&d| u64::from(d)).sum();
    top_nnz as f64 / a.nnz() as f64
}

/// Matrix bandwidth: `max |r - c|` over stored entries (0 for an empty
/// matrix). Reordering for locality tends to shrink it (Fig. 1's
/// "non-zeros close to the main diagonal").
#[must_use]
pub fn bandwidth(a: &CsrMatrix) -> u32 {
    a.iter().map(|(r, c, _)| r.abs_diff(c)).max().unwrap_or(0)
}

/// Mean |r - c| over stored entries (0 for an empty matrix) — a smoother
/// locality proxy than [`bandwidth`], which only sees the worst entry.
#[must_use]
pub fn mean_index_distance(a: &CsrMatrix) -> f64 {
    if a.nnz() == 0 {
        return 0.0;
    }
    let sum: u64 = a.iter().map(|(r, c, _)| u64::from(r.abs_diff(c))).sum();
    sum as f64 / a.nnz() as f64
}

/// Matrix profile (a.k.a. envelope size): `Σ_r (r - min_col(r))` over
/// non-empty rows with `min_col(r) <= r`, the quantity RCM minimizes.
#[must_use]
pub fn profile(a: &CsrMatrix) -> u64 {
    (0..a.n_rows())
        .filter_map(|r| {
            let (cols, _) = a.row(r);
            cols.first()
                .map(|&first| u64::from(r.saturating_sub(first)))
        })
        .sum()
}

/// Pearson correlation coefficient between two equal-length samples.
///
/// Used for the paper's §V-B correlations (insularity vs. community size:
/// −0.472; insularity vs. skew: −0.721). Returns `None` when either input
/// has zero variance or fewer than two points.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Geometric mean of strictly positive samples; `None` if empty or any
/// sample is `<= 0`. Ratio summaries across matrices (the "mean DRAM
/// traffic" numbers under Fig. 2) are aggregated this way.
#[must_use]
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Arithmetic mean; `None` if empty.
#[must_use]
pub fn arithmetic_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn star5() -> CsrMatrix {
        // Hub 0 connected to 1..4 (symmetric star).
        CsrMatrix::from_undirected_edges(5, |visit| (1..5).for_each(|v| visit(0, v))).unwrap()
    }

    #[test]
    fn degree_stats_basics() {
        let s = DegreeStats::from_degrees(&[0, 1, 1, 2, 4]);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
        assert_eq!(s.median, 1);
        assert_eq!(s.zero_count, 1);
    }

    #[test]
    fn degree_stats_empty() {
        let s = DegreeStats::from_degrees(&[]);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn skew_of_star_is_hub_dominated() {
        let a = star5();
        // Top 10% of 5 rows = 1 row = the hub with 4 of 8 nnz.
        assert!((skew_top10(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skew_of_uniform_matrix_is_proportional() {
        // Ring: every row degree 2; top 10% of rows hold ~10% of nnz.
        let n = 100u32;
        let a =
            CsrMatrix::from_undirected_edges(n, |visit| (0..n).for_each(|v| visit(v, (v + 1) % n)))
                .unwrap();
        let skew = skew_top10(&a);
        assert!((skew - 0.10).abs() < 0.01, "skew = {skew}");
    }

    #[test]
    fn skew_panics_outside_range() {
        let a = star5();
        let result = std::panic::catch_unwind(|| skew_top_fraction(&a, 0.0));
        assert!(result.is_err());
    }

    #[test]
    fn bandwidth_and_profile() {
        let a = star5();
        assert_eq!(bandwidth(&a), 4);
        // Rows 1..4 each reach back to column 0: profile = 1+2+3+4 = 10.
        assert_eq!(profile(&a), 10);
        assert!(mean_index_distance(&a) > 0.0);
    }

    #[test]
    fn bandwidth_empty() {
        assert_eq!(bandwidth(&CsrMatrix::empty(3)), 0);
        assert_eq!(profile(&CsrMatrix::empty(3)), 0);
        assert_eq!(mean_index_distance(&CsrMatrix::empty(3)), 0.0);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let xs = [1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[2.0, 3.0, 4.0]), None);
    }

    #[test]
    fn means() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, -2.0]), None);
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((arithmetic_mean(&[2.0, 8.0]).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(&[]), None);
    }
}

/// Gini coefficient of a degree distribution — a single-number
/// inequality measure complementing [`skew_top10`] (0 = perfectly
/// uniform, →1 = one vertex owns everything). `None` for empty or
/// all-zero inputs.
#[must_use]
pub fn gini(degrees: &[u32]) -> Option<f64> {
    if degrees.is_empty() {
        return None;
    }
    let mut sorted: Vec<u64> = degrees.iter().map(|&d| u64::from(d)).collect();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return None;
    }
    let n = sorted.len() as f64;
    // G = (2 * Σ i·x_i) / (n * Σ x_i) − (n + 1)/n, with 1-based ranks i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    Some((2.0 * weighted) / (n * total as f64) - (n + 1.0) / n)
}

#[cfg(test)]
mod gini_tests {
    use super::gini;

    #[test]
    fn uniform_distribution_has_zero_gini() {
        let g = gini(&[5; 100]).unwrap();
        assert!(g.abs() < 1e-12, "gini = {g}");
    }

    #[test]
    fn single_owner_approaches_one() {
        let mut degrees = vec![0u32; 99];
        degrees.push(1000);
        let g = gini(&degrees).unwrap();
        assert!(g > 0.95, "gini = {g}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(gini(&[]), None);
        assert_eq!(gini(&[0, 0, 0]), None);
    }

    #[test]
    fn skewed_beats_uniform() {
        let uniform = gini(&[4; 50]).unwrap();
        let skewed = gini(&(1..=50u32).collect::<Vec<_>>()).unwrap();
        assert!(skewed > uniform + 0.2);
    }
}
