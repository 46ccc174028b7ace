//! The aggregating in-memory registry sink: span statistics by path,
//! counter/gauge totals, power-of-two histograms, and the
//! human-readable phase-tree summary behind `commorder-cli profile`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

use crate::event::Event;
use crate::names;
use crate::sink::Sink;

/// Aggregate timing of one span path (or one `(path, detail)` instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Completed spans recorded.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Fastest single span.
    pub min_ns: u64,
    /// Slowest single span.
    pub max_ns: u64,
}

impl SpanStat {
    fn add(&mut self, dur_ns: u64) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
    }
}

/// Power-of-two bucketed distribution of `observe` values (bucket `i`
/// counts observations with `floor(log2(value_ns)) == i`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Bucket counts (index = `floor(log2(value_ns))`, clamped).
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count = self.count.saturating_add(1);
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let ns = (value * 1e9).max(0.0);
        let bucket = if ns < 1.0 {
            0
        } else {
            (ns.log2() as usize).min(63)
        };
        self.buckets[bucket] = self.buckets[bucket].saturating_add(1);
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Value at quantile `q` (clamped to `[0, 1]`); 0 when empty.
    ///
    /// Resolution is one power-of-two bucket: the returned value is the
    /// lower bound of the bucket holding the `ceil(q * count)`-th
    /// observation, clamped to the exact observed `[min, max]` range (so
    /// a single-sample histogram returns that sample at every quantile).
    /// Bucket counts accumulate in 128-bit arithmetic, so saturated
    /// (`u64::MAX`) buckets cannot overflow the scan.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum: u128 = 0;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cum += u128::from(bucket);
            if cum >= u128::from(rank) {
                let lower_bound = if i == 0 {
                    0.0
                } else {
                    (i as f64).exp2() * 1e-9
                };
                return lower_bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile (`quantile(0.95)`).
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile (`quantile(0.99)`).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Aggregate heap-allocation totals attributed to one span path (fed by
/// the `obs-alloc` counting allocator; always present in the API so
/// consumers need no feature gates, empty when the feature is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStat {
    /// Allocation calls (alloc + realloc) recorded under the path.
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

#[derive(Default)]
struct RegistryInner {
    spans: BTreeMap<String, SpanStat>,
    detailed: BTreeMap<(String, String), SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    allocs: BTreeMap<String, AllocStat>,
}

/// Aggregating sink: keeps totals instead of a stream.
///
/// Install alongside a [`crate::JsonlSink`] (or alone) and read it back
/// after the run via [`Registry::render_tree`], [`Registry::hottest`],
/// and the metric accessors.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Aggregate statistics for an exact span path (`a/b/c`).
    #[must_use]
    pub fn span(&self, path: &str) -> Option<SpanStat> {
        self.lock().spans.get(path).copied()
    }

    /// All span paths with their statistics, in path order.
    #[must_use]
    pub fn spans(&self) -> Vec<(String, SpanStat)> {
        self.lock()
            .spans
            .iter()
            .map(|(p, s)| (p.clone(), *s))
            .collect()
    }

    /// Current value of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Last sampled value of a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Snapshot of a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Exclusive (self) time of an exact span path: its inclusive total
    /// minus the summed totals of its direct children, saturating at 0.
    /// `None` when the path was never recorded.
    #[must_use]
    pub fn self_ns(&self, path: &str) -> Option<u64> {
        let inner = self.lock();
        let stat = inner.spans.get(path)?;
        Some(
            stat.total_ns
                .saturating_sub(children_total_ns(&inner.spans, path)),
        )
    }

    /// Every span path with `(inclusive_ns, self_ns)`, in path order.
    /// By construction `self_ns <= inclusive_ns` for every row.
    #[must_use]
    pub fn self_times(&self) -> Vec<(String, u64, u64)> {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .map(|(path, stat)| {
                let self_ns = stat
                    .total_ns
                    .saturating_sub(children_total_ns(&inner.spans, path));
                (path.clone(), stat.total_ns, self_ns)
            })
            .collect()
    }

    /// Aggregate allocation totals for an exact span path (recorded only
    /// when the `obs-alloc` counting allocator is installed).
    #[must_use]
    pub fn alloc(&self, path: &str) -> Option<AllocStat> {
        self.lock().allocs.get(path).copied()
    }

    /// All span paths with allocation totals, in path order.
    #[must_use]
    pub fn allocs(&self) -> Vec<(String, AllocStat)> {
        self.lock()
            .allocs
            .iter()
            .map(|(p, s)| (p.clone(), *s))
            .collect()
    }

    /// Collapsed-stack ("folded") flamegraph export: one
    /// `root;child;leaf count` line per span path, weighted by the
    /// completed-span **count** and sorted lexicographically by stack.
    ///
    /// Counts — not durations — are the weights precisely so the export
    /// is deterministic: with thread-invariant chunking every span path
    /// completes the same number of times at any thread count, making
    /// this output byte-identical across runs. Feed it to any
    /// collapsed-stack renderer (`flamegraph.pl`, inferno, speedscope).
    #[must_use]
    pub fn render_folded(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (path, stat) in &inner.spans {
            let _ = writeln!(out, "{} {}", path.replace('/', ";"), stat.count);
        }
        out
    }

    /// The `k` slowest span instances (by summed duration) among spans
    /// named `name` that carried a detail label — e.g. the hottest
    /// (matrix, technique) grid cells. Ties break by label so the order
    /// is stable.
    #[must_use]
    pub fn hottest(&self, name: &str, k: usize) -> Vec<(String, SpanStat)> {
        let inner = self.lock();
        let mut rows: Vec<(String, SpanStat)> = inner
            .detailed
            .iter()
            .filter(|((path, _), _)| path.rsplit('/').next() == Some(name))
            .map(|((_, detail), stat)| (detail.clone(), *stat))
            .collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Renders the aggregated spans as an indented phase tree with
    /// inclusive time, exclusive (self) time, and a percent-of-parent
    /// column, followed by the counter/gauge/histogram/allocation
    /// summaries.
    ///
    /// Siblings are sorted **lexicographically by name** — never by
    /// time — so the rendering is byte-stable across runs and thread
    /// counts and can be pinned by golden tests.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        out.push_str("phase tree (by span path; inclusive / self / % of parent)\n");
        let roots: Vec<&String> = inner.spans.keys().filter(|p| !p.contains('/')).collect();
        let root_total: u64 = roots
            .iter()
            .filter_map(|p| inner.spans.get(*p))
            .map(|s| s.total_ns)
            .sum();
        // BTreeMap keys iterate in lexicographic order already.
        for root in roots {
            render_subtree(&mut out, &inner.spans, root, root_total, 0);
        }
        if !inner.counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in &inner.counters {
                let _ = writeln!(out, "  {name:<32} {value}");
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, value) in &inner.gauges {
                let _ = writeln!(out, "  {name:<32} {value:.4}");
            }
        }
        if !inner.histograms.is_empty() {
            out.push_str("histograms\n");
            for (name, h) in &inner.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} n={} mean={} min={} max={} p50={} p95={} p99={}",
                    h.count,
                    fmt_seconds(h.mean()),
                    fmt_seconds(if h.count == 0 { 0.0 } else { h.min }),
                    fmt_seconds(if h.count == 0 { 0.0 } else { h.max }),
                    fmt_seconds(h.p50()),
                    fmt_seconds(h.p95()),
                    fmt_seconds(h.p99()),
                );
            }
        }
        if !inner.allocs.is_empty() {
            out.push_str("allocations (by span path)\n");
            for (path, stat) in &inner.allocs {
                let _ = writeln!(
                    out,
                    "  {path:<34} {:>10} allocs {:>14} bytes",
                    stat.count, stat.bytes
                );
            }
        }
        out
    }
}

/// Summed inclusive time of `path`'s direct children.
fn children_total_ns(spans: &BTreeMap<String, SpanStat>, path: &str) -> u64 {
    let prefix = format!("{path}/");
    spans
        .range(prefix.clone()..)
        .take_while(|(p, _)| p.starts_with(&prefix))
        .filter(|(p, _)| !p[prefix.len()..].contains('/'))
        .map(|(_, s)| s.total_ns)
        .sum()
}

fn render_subtree(
    out: &mut String,
    spans: &BTreeMap<String, SpanStat>,
    path: &str,
    parent_total: u64,
    level: usize,
) {
    let Some(stat) = spans.get(path) else { return };
    let name = path.rsplit('/').next().unwrap_or(path);
    let percent = if parent_total > 0 {
        100.0 * stat.total_ns as f64 / parent_total as f64
    } else {
        100.0
    };
    let self_ns = stat.total_ns.saturating_sub(children_total_ns(spans, path));
    let indent = "  ".repeat(level);
    let label = format!("{indent}{name}");
    let _ = writeln!(
        out,
        "  {label:<34} {:>6}x {:>10} {:>10} {percent:5.1}%",
        stat.count,
        fmt_ns(stat.total_ns),
        fmt_ns(self_ns),
    );
    // Direct children: paths extending `path` by exactly one segment,
    // already in lexicographic order from the BTreeMap range scan.
    let prefix = format!("{path}/");
    let children: Vec<&String> = spans
        .range(prefix.clone()..)
        .take_while(|(p, _)| p.starts_with(&prefix))
        .map(|(p, _)| p)
        .filter(|p| !p[prefix.len()..].contains('/'))
        .collect();
    for child in children {
        render_subtree(out, spans, child, stat.total_ns, level + 1);
    }
}

/// Adaptive duration formatting for nanosecond totals.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    fmt_seconds(s)
}

/// Adaptive duration formatting for seconds.
#[must_use]
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

impl Sink for Registry {
    fn record(&self, event: &Event) {
        let mut inner = self.lock();
        match event {
            Event::Meta { .. } => {}
            Event::Span {
                path,
                detail,
                dur_ns,
                ..
            } => {
                inner.spans.entry(path.clone()).or_default().add(*dur_ns);
                if let Some(detail) = detail {
                    inner
                        .detailed
                        .entry((path.clone(), detail.clone()))
                        .or_default()
                        .add(*dur_ns);
                }
            }
            Event::Counter { name, delta } => {
                *inner.counters.entry(name).or_insert(0) += delta;
            }
            Event::Gauge { name, value } => {
                inner.gauges.insert(name, *value);
            }
            Event::Observe { name, value } => {
                inner.histograms.entry(name).or_default().add(*value);
            }
            Event::Alloc { path, count, bytes } => {
                let stat = inner.allocs.entry(path.clone()).or_default();
                stat.count = stat.count.saturating_add(*count);
                stat.bytes = stat.bytes.saturating_add(*bytes);
            }
        }
        // Every name reaching a registry should be declared; aggregation
        // still proceeds for unknown names (the CHK validators flag them).
        debug_assert!(
            match event {
                Event::Counter { name, .. }
                | Event::Gauge { name, .. }
                | Event::Observe { name, .. } => names::lookup(name).is_some(),
                _ => true,
            },
            "undeclared metric: {event:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, detail: Option<&str>, dur_ns: u64) -> Event {
        Event::Span {
            thread: 0,
            depth: path.matches('/').count() as u64,
            path: path.to_string(),
            name: "test",
            detail: detail.map(ToString::to_string),
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn spans_aggregate_by_path() {
        let r = Registry::new();
        r.record(&span("job", None, 10));
        r.record(&span("job", None, 30));
        r.record(&span("job/reorder", None, 5));
        let s = r.span("job").expect("path recorded");
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(r.spans().len(), 2);
    }

    #[test]
    fn counters_gauges_histograms() {
        let r = Registry::new();
        r.record(&Event::Counter {
            name: "exec.jobs",
            delta: 2,
        });
        r.record(&Event::Counter {
            name: "exec.jobs",
            delta: 3,
        });
        r.record(&Event::Gauge {
            name: "exec.utilization",
            value: 0.5,
        });
        r.record(&Event::Observe {
            name: "exec.queue_wait_seconds",
            value: 0.001,
        });
        r.record(&Event::Observe {
            name: "exec.queue_wait_seconds",
            value: 0.003,
        });
        assert_eq!(r.counter("exec.jobs"), 5);
        assert_eq!(r.counter("grid.cells"), 0);
        assert_eq!(r.gauge("exec.utilization"), Some(0.5));
        let h = r.histogram("exec.queue_wait_seconds").expect("observed");
        assert_eq!(h.count, 2);
        assert!((h.mean() - 0.002).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn hottest_ranks_detailed_instances() {
        let r = Registry::new();
        r.record(&span("job/grid.cell", Some("a/RABBIT"), 10));
        r.record(&span("job/grid.cell", Some("b/RCM"), 90));
        r.record(&span("job/grid.cell", Some("a/RABBIT"), 20));
        let top = r.hottest("grid.cell", 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "b/RCM");
        assert_eq!(top[0].1.total_ns, 90);
        assert_eq!(top[1].0, "a/RABBIT");
        assert_eq!(top[1].1.total_ns, 30);
        assert!(r.hottest("nope", 5).is_empty());
    }

    #[test]
    fn tree_renders_nested_phases() {
        let r = Registry::new();
        r.record(&span("run", None, 100));
        r.record(&span("run/fast", None, 20));
        r.record(&span("run/slow", None, 80));
        r.record(&span("run/slow/inner", None, 40));
        let tree = r.render_tree();
        let fast = tree.find("fast").expect("fast phase listed");
        let slow = tree.find("slow").expect("slow phase listed");
        assert!(
            fast < slow,
            "children sorted lexicographically, not by time:\n{tree}"
        );
        assert!(tree.contains("inner"));
        assert!(tree.contains("80.0%"), "{tree}");
    }

    #[test]
    fn tree_sibling_order_is_insertion_order_independent() {
        let forward = Registry::new();
        forward.record(&span("run", None, 100));
        forward.record(&span("run/a", None, 10));
        forward.record(&span("run/b", None, 90));
        let backward = Registry::new();
        backward.record(&span("run/b", None, 90));
        backward.record(&span("run/a", None, 10));
        backward.record(&span("run", None, 100));
        assert_eq!(forward.render_tree(), backward.render_tree());
        assert_eq!(forward.render_folded(), backward.render_folded());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let r = Registry::new();
        r.record(&span("run", None, 100));
        r.record(&span("run/a", None, 30));
        r.record(&span("run/b", None, 20));
        r.record(&span("run/a/deep", None, 25));
        assert_eq!(r.self_ns("run"), Some(50)); // 100 - (30 + 20)
        assert_eq!(r.self_ns("run/a"), Some(5)); // grandchild excluded
        assert_eq!(r.self_ns("run/b"), Some(20));
        assert_eq!(r.self_ns("missing"), None);
        for (_, total_ns, self_ns) in r.self_times() {
            assert!(self_ns <= total_ns);
        }
    }

    #[test]
    fn self_time_saturates_when_children_exceed_parent() {
        // Aggregate child totals can exceed the parent's through clock
        // quantization; self time must clamp to zero, never wrap.
        let r = Registry::new();
        r.record(&span("run", None, 10));
        r.record(&span("run/child", None, 15));
        assert_eq!(r.self_ns("run"), Some(0));
    }

    #[test]
    fn folded_output_is_sorted_and_count_weighted() {
        let r = Registry::new();
        r.record(&span("suite", None, 5));
        r.record(&span("exec.job/grid.job", None, 80));
        r.record(&span("exec.job", None, 100));
        r.record(&span("exec.job", None, 50));
        assert_eq!(
            r.render_folded(),
            "exec.job 2\nexec.job;grid.job 1\nsuite 1\n"
        );
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn quantile_of_single_sample_returns_the_sample() {
        let mut h = Histogram::default();
        h.add(0.037);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert!((h.quantile(q) - 0.037).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for i in 1..=1000u32 {
            h.add(f64::from(i) * 1e-6);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p50 >= h.min && p99 <= h.max);
        // Bucket resolution is a factor of two.
        assert!((250e-6..=1000e-6).contains(&p50), "p50={p50}");
    }

    #[test]
    fn quantile_survives_saturating_bucket_counts() {
        let mut h = Histogram {
            count: u64::MAX,
            sum: f64::MAX,
            min: 1e-9,
            max: 1.0,
            buckets: [0; 64],
        };
        h.buckets[0] = u64::MAX;
        h.buckets[30] = u64::MAX;
        h.buckets[63] = u64::MAX;
        let (p50, p99) = (h.p50(), h.p99());
        assert!(p50.is_finite() && p99.is_finite());
        assert!(p50 <= p99);
        assert!(p50 >= h.min && p99 <= h.max);
        // Re-adding at saturation must not wrap.
        h.add(0.5);
        assert_eq!(h.count, u64::MAX);
    }

    #[test]
    fn non_finite_observations_are_skipped() {
        let mut h = Histogram::default();
        h.add(f64::NAN);
        h.add(f64::INFINITY);
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn alloc_events_aggregate_by_path() {
        let r = Registry::new();
        r.record(&Event::Alloc {
            path: "exec.job".to_string(),
            count: 3,
            bytes: 100,
        });
        r.record(&Event::Alloc {
            path: "exec.job".to_string(),
            count: 2,
            bytes: 50,
        });
        let stat = r.alloc("exec.job").expect("alloc recorded");
        assert_eq!(stat.count, 5);
        assert_eq!(stat.bytes, 150);
        assert_eq!(r.allocs().len(), 1);
        assert!(r.alloc("missing").is_none());
        assert!(r.render_tree().contains("allocations"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(1_500_000_000), "1.500s");
        assert_eq!(fmt_ns(2_500_000), "2.500ms");
        assert_eq!(fmt_ns(900), "0.9us");
    }
}
