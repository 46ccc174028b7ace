//! Sample summaries: median, quartiles and the tail-percentile rule.
//!
//! Quartiles use the same "exclusive" interpolation as Python's
//! `statistics.quantiles(values, n=4)`, so the spread a run reports is
//! the spread a caller computing it from the printed values would get.

/// A tail percentile needs at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median, quartiles and tail of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest whole percentile with at
    /// least [`TAIL_BEYOND`] samples above its nearest-rank position;
    /// `None` when fewer than `2 * TAIL_BEYOND` samples exist.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 for a zero
    /// median) — the run-to-run spread compared against a bound.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `true` when the spread is too wide for `bound` to be resolved: a
    /// metric is steady when its quartile distance stays below a third
    /// of the regression bound it is judged by.
    #[must_use]
    pub fn unsteady_for(&self, bound: f64) -> bool {
        self.spread() > bound / 3.0
    }
}

/// Summarizes `samples`; `None` when there are none. NaNs sort last.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let (q1, q3) = if n == 1 {
        (sorted[0], sorted[0])
    } else {
        (
            exclusive_quartile(&sorted, 1),
            exclusive_quartile(&sorted, 3),
        )
    };
    Some(Summary {
        n,
        median,
        q1,
        q3,
        tail: tail(&sorted),
    })
}

/// Median of `samples`, 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Quartile `i` (1..=3) of sorted data, `n >= 2`, by Python's
/// `method='exclusive'`: position `i * (n + 1) / 4`, clamped to the
/// data range and linearly interpolated.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Highest whole percentile `p` in 50..=99 whose nearest-rank sample
/// (rank `ceil(p * n / 100)`) has at least [`TAIL_BEYOND`] samples
/// after it.
fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Geometric mean of positive values, 0 when empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_its_own_median_and_quartiles_with_no_tail() {
        let s = summarize(&[2.5]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (1, 2.5, 2.5, 2.5));
        assert_eq!(s.tail, None);
        assert_eq!(s.spread(), 0.0);
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn ties_collapse_the_spread() {
        let s = summarize(&[3.0; 25]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(s.tail, Some((60, 3.0)));
        assert!(!s.unsteady_for(0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: even the median has only 9 above it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail, None);
        // 20 samples: p50 is rank 10, ten beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail, Some((50, 10.0)));
        // 105 samples (3 suite reps of 35 jobs): p90 is rank 95.
        let v: Vec<f64> = (1..=105).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail, Some((90, 95.0)));
    }

    #[test]
    fn pooled_210_samples_report_p95() {
        // 6 reps x 35 jobs: p95 is rank 200 with ten samples beyond; p96
        // (rank 202) would leave only eight.
        let v: Vec<f64> = (1..=210).rev().map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.tail, Some((95, 200.0)));
        assert_eq!(s.median, 105.5);
        assert_eq!(s.n, 210);
    }

    #[test]
    fn steadiness_is_judged_against_a_third_of_the_bound() {
        // Quartiles 0.975 and 1.025 around a median of 1: spread 5%.
        let s = Summary {
            n: 5,
            median: 1.0,
            q1: 0.975,
            q3: 1.025,
            tail: None,
        };
        assert!((s.spread() - 0.05).abs() < 1e-12);
        assert!(s.unsteady_for(0.10));
        assert!(!s.unsteady_for(0.25));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
