//! In-memory span recorder for the traced rep.
//!
//! The benchmark wraps each call it makes into a layer in a span, with
//! the caller's span as parent. Spans stay in memory until the run ends
//! and are then written as JSONL. A span's self time is its duration
//! minus the part of its interval that its children cover, so a layer's
//! self time never counts a sub-call twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// Id of the span that made this call; `None` for a top-level call.
    pub parent: Option<u64>,
    /// Layer-qualified call name, e.g. `reorder.detect`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// `true` for a call only the traced rep makes (a standalone
    /// sub-call or a counting replay); its time is excluded from the
    /// tracing overhead.
    pub extra: bool,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span sink; spans from parallel jobs interleave freely.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to parent its own sub-calls.
    pub fn span<R>(&self, parent: Option<u64>, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        self.record(parent, name, false, f)
    }

    /// [`Recorder::span`] for a call the untraced rep does not make.
    pub fn extra<R>(&self, parent: Option<u64>, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        self.record(parent, name, true, f)
    }

    fn record<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        extra: bool,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        // Ids only need to be unique; no other data is published through
        // the counter.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span push never panics while holding the lock")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                extra,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span push never panics while holding the lock")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time in seconds of every span, by id: duration minus the union
/// of the children's intervals clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Summed self time in seconds per span name.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += own[&s.id];
    }
    out
}

/// Renders spans as JSONL, one object per line.
#[must_use]
pub fn render_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"extra\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.extra
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            extra: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..60
        // (parallel jobs) and one child sticking out past the parent.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        let own = self_times(&spans);
        assert!((own[&1] - 40e-9).abs() < 1e-15, "100 - (50 + 10)");
        assert!((own[&2] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_renders() {
        let rec = Recorder::default();
        let got = rec.span(None, "outer", |id| rec.extra(Some(id), "inner", |_| 7));
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.extra && !outer.extra);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let jsonl = render_jsonl("w", &spans);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"inner\""));
        assert!(jsonl.contains("\"parent\":null"));
    }
}
