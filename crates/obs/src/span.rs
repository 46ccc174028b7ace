//! Span timers: RAII guards that measure a named phase and report it as
//! an [`Event::Span`] when dropped.
//!
//! Nesting is tracked per thread: each thread owns a stack of the span
//! names currently open on it, so a span's `path` is the `/`-joined
//! chain of its ancestors plus itself. The stack is thread-local — spans
//! opened on a worker thread nest under that worker's spans, never under
//! another thread's — which is exactly the execution structure the
//! engine produces (one `exec.job` root per job).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::Event;
use crate::{emit, enabled, epoch};

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static ORDINAL: RefCell<Option<u64>> = const { RefCell::new(None) };
}

static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Process-unique dense ordinal of the calling thread (assigned on first
/// use; stable for the thread's lifetime).
#[must_use]
pub fn thread_ordinal() -> u64 {
    ORDINAL.with(|slot| {
        *slot
            .borrow_mut()
            .get_or_insert_with(|| NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed))
    })
}

/// An open span. Dropping it records the phase duration.
///
/// Obtain via [`crate::span!`] or [`Span::enter`]. When telemetry is
/// disabled the guard is inert (a single relaxed atomic load at enter,
/// nothing at drop).
#[derive(Debug)]
#[must_use = "a span measures until dropped; bind it to a `_guard` name"]
pub struct Span(Option<OpenSpan>);

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    path: String,
    depth: u64,
    detail: Option<String>,
    started: Instant,
    /// Thread-local (alloc count, bytes) totals when the span opened;
    /// the drop handler attributes the delta to this span's path.
    #[cfg(feature = "obs-alloc")]
    allocs_at_open: (u64, u64),
}

impl Span {
    /// Opens a span named `name` nested under the thread's current span.
    pub fn enter(name: &'static str) -> Span {
        Span::open(name, None)
    }

    /// Opens a span carrying a free-form instance label (e.g. the
    /// matrix/technique pair of a grid cell).
    pub fn enter_detailed(name: &'static str, detail: String) -> Span {
        Span::open(name, Some(detail))
    }

    /// An inert span (what every constructor returns while telemetry is
    /// disabled).
    pub fn disabled() -> Span {
        Span(None)
    }

    fn open(name: &'static str, detail: Option<String>) -> Span {
        if !enabled() {
            return Span(None);
        }
        let (path, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let depth = stack.len() as u64;
            let mut path = String::with_capacity(16 * (stack.len() + 1));
            for parent in stack.iter() {
                path.push_str(parent);
                path.push('/');
            }
            path.push_str(name);
            stack.push(name);
            (path, depth)
        });
        Span(Some(OpenSpan {
            name,
            path,
            depth,
            detail,
            started: Instant::now(),
            #[cfg(feature = "obs-alloc")]
            allocs_at_open: crate::alloc::thread_totals(),
        }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let dur_ns = open.started.elapsed().as_nanos() as u64;
        let start_ns = open.started.saturating_duration_since(epoch()).as_nanos() as u64;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // The guard was pushed at enter; intervening spans are
            // guards too, so LIFO drop order keeps this exact.
            if stack.last() == Some(&open.name) {
                stack.pop();
            }
        });
        #[cfg(feature = "obs-alloc")]
        {
            // Attribute the allocation delta since enter to this span's
            // path. The delta includes descendants (it is "inclusive"
            // like span time); zero-allocation spans emit nothing.
            let (count_now, bytes_now) = crate::alloc::thread_totals();
            let count = count_now.wrapping_sub(open.allocs_at_open.0);
            let bytes = bytes_now.wrapping_sub(open.allocs_at_open.1);
            if count > 0 {
                emit(&Event::Alloc {
                    path: open.path.clone(),
                    count,
                    bytes,
                });
            }
        }
        emit(&Event::Span {
            thread: thread_ordinal(),
            depth: open.depth,
            path: open.path,
            name: open.name,
            detail: open.detail,
            start_ns,
            dur_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    #[test]
    fn spans_nest_and_report_paths() {
        let _serial = crate::tests_serial();
        let sink = Arc::new(MemorySink::new());
        let _guard = crate::install(sink.clone());
        {
            let _a = Span::enter("outer");
            {
                let _b = Span::enter("inner");
            }
        }
        let spans: Vec<(String, u64)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Span { path, depth, .. } => Some((path, depth)),
                _ => None,
            })
            .collect();
        // Children end (and report) before their parents.
        assert_eq!(
            spans,
            vec![("outer/inner".to_string(), 1), ("outer".to_string(), 0)]
        );
    }

    #[test]
    fn disabled_spans_do_not_touch_the_stack() {
        let _serial = crate::tests_serial();
        {
            let _quiet = Span::enter("never-recorded");
            assert!(STACK.with(|s| s.borrow().is_empty()));
        }
        let sink = Arc::new(MemorySink::new());
        let _guard = crate::install(sink.clone());
        {
            let _a = Span::enter("recorded");
        }
        assert_eq!(
            sink.events()
                .iter()
                .filter(|e| matches!(e, Event::Span { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn sibling_spans_share_a_parent_path() {
        let _serial = crate::tests_serial();
        let sink = Arc::new(MemorySink::new());
        let _guard = crate::install(sink.clone());
        {
            let _p = Span::enter("parent");
            {
                let _a = Span::enter("first");
            }
            {
                let _b = Span::enter_detailed("second", "cell=3".to_string());
            }
        }
        let paths: Vec<String> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Span { path, .. } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(paths, vec!["parent/first", "parent/second", "parent"]);
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let mine = thread_ordinal();
        let theirs = std::thread::spawn(thread_ordinal)
            .join()
            .expect("thread runs to completion");
        assert_ne!(mine, theirs);
        assert_eq!(mine, thread_ordinal(), "ordinal is stable per thread");
    }
}
