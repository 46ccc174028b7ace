//! `commorder-obs`: zero-dependency structured telemetry for the
//! commorder workspace.
//!
//! The crate provides three things:
//!
//! 1. **Span timers** ([`Span`], [`span!`]) — RAII guards measuring a
//!    named phase. Per-thread nesting produces `/`-joined paths such as
//!    `exec.job/grid.job/grid.reorder`.
//! 2. **Metrics** ([`counter!`], [`gauge!`], [`observe!`]) — named
//!    counters, gauges, and histogram observations declared once in
//!    [`names::METRICS`].
//! 3. **Sinks** ([`JsonlSink`], [`MemorySink`], [`Registry`]) — pluggable
//!    event consumers installed process-wide with [`install`].
//!
//! Telemetry is a strict *sidecar*: with no sink installed every
//! instrumentation point is a single relaxed atomic load, and the
//! deterministic outputs of the workspace (e.g.
//! `ExperimentResult::render_json`) are byte-identical whether telemetry
//! is on or off — a golden test in the workspace root enforces this.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use commorder_obs as obs;
//!
//! let registry = Arc::new(obs::Registry::new());
//! let guard = obs::install(registry.clone());
//! {
//!     let _span = obs::span!("demo.work");
//!     obs::counter!("exec.jobs", 1);
//! }
//! drop(guard); // uninstall: telemetry is disabled again
//! assert_eq!(registry.counter("exec.jobs"), 1);
//! assert_eq!(registry.span("demo.work").map(|s| s.count), Some(1));
//! ```

// `unsafe` exists in exactly one place: the `obs-alloc` counting
// global allocator must implement `GlobalAlloc`. With the feature off
// the crate still forbids unsafe code outright.
#![cfg_attr(not(feature = "obs-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "obs-alloc", deny(unsafe_code))]
#![deny(clippy::expect_used, clippy::panic)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

#[cfg(feature = "obs-alloc")]
pub mod alloc;
pub mod event;
pub mod names;
pub mod registry;
pub mod sink;
pub mod span;

pub use event::Event;
pub use names::{MetricInfo, MetricKind, SpanInfo, METRICS, SPANS};
pub use registry::{AllocStat, Histogram, Registry, SpanStat};
pub use sink::{JsonlSink, MemorySink, Sink};
pub use span::{thread_ordinal, Span};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn sinks() -> &'static Mutex<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide telemetry epoch: span `start_ns` values count from
/// this instant. Fixed at the first [`install`] call.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether at least one sink is installed.
///
/// Instrumentation points check this before doing any work; the cost of
/// disabled telemetry is this single relaxed atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Delivers an event to every installed sink. No-op while disabled.
pub fn emit(event: &Event) {
    if !enabled() {
        return;
    }
    let sinks = sinks().lock().unwrap_or_else(PoisonError::into_inner);
    for sink in sinks.iter() {
        sink.record(event);
    }
}

/// Installs `sink` process-wide and enables telemetry.
///
/// The sink immediately receives an [`Event::Meta`] header. Keep the
/// returned guard alive for the duration of the measured region;
/// dropping it removes the sink (and disables telemetry once no sinks
/// remain). Multiple sinks may be installed at once — every event goes
/// to all of them.
pub fn install(sink: Arc<dyn Sink>) -> SinkGuard {
    epoch(); // pin the epoch no later than the first install
    sink.record(&Event::Meta { version: 1 });
    let mut sinks = sinks().lock().unwrap_or_else(PoisonError::into_inner);
    sinks.push(sink.clone());
    ENABLED.store(true, Ordering::Relaxed);
    SinkGuard { sink }
}

/// Uninstalls its sink on drop; see [`install`].
#[must_use = "dropping the guard uninstalls the sink; bind it to a name"]
pub struct SinkGuard {
    sink: Arc<dyn Sink>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut sinks = sinks().lock().unwrap_or_else(PoisonError::into_inner);
        let target = Arc::as_ptr(&self.sink).cast::<()>();
        if let Some(pos) = sinks
            .iter()
            .position(|s| std::ptr::eq(Arc::as_ptr(s).cast::<()>(), target))
        {
            sinks.remove(pos);
        }
        if sinks.is_empty() {
            ENABLED.store(false, Ordering::Relaxed);
        }
    }
}

/// Increments the counter `name` by `delta`. No-op while disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        emit(&Event::Counter { name, delta });
    }
}

/// Samples the gauge `name`. No-op while disabled.
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        emit(&Event::Gauge { name, value });
    }
}

/// Records one histogram observation for `name`. No-op while disabled.
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        emit(&Event::Observe { name, value });
    }
}

/// Opens a [`Span`] for the current scope.
///
/// `span!("name")` times a plain phase; `span!("name", "{}/{}", a, b)`
/// attaches a formatted instance label (the format arguments are only
/// evaluated while telemetry is enabled). Bind the result:
/// `let _span = obs::span!("reorder.rabbit");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($fmt:tt)+) => {
        if $crate::enabled() {
            $crate::Span::enter_detailed($name, format!($($fmt)+))
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Increments a declared counter: `counter!("exec.jobs", 1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

/// Samples a declared gauge: `gauge!("exec.utilization", 0.93)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::gauge_set($name, $value)
    };
}

/// Records a histogram observation:
/// `observe!("exec.queue_wait_seconds", secs)`.
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {
        $crate::observe($name, $value)
    };
}

/// Serializes tests that install global telemetry sinks.
///
/// Sinks are process-wide, so two concurrently running `#[test]`
/// functions that both call [`install`] would observe each other's
/// events. Take this lock first in any such test (works across crates —
/// each integration-test binary is its own process, but unit tests in
/// one binary share the statics).
#[doc(hidden)]
pub fn tests_serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_enables_and_uninstall_disables() {
        let _serial = tests_serial();
        assert!(!enabled());
        let sink = Arc::new(MemorySink::new());
        let guard = install(sink.clone());
        assert!(enabled());
        emit(&Event::Counter {
            name: "exec.jobs",
            delta: 1,
        });
        drop(guard);
        assert!(!enabled());
        // Meta header + counter; nothing after uninstall.
        emit(&Event::Counter {
            name: "exec.jobs",
            delta: 1,
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::Meta { version: 1 });
    }

    #[test]
    fn multiple_sinks_both_receive_events() {
        let _serial = tests_serial();
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(Registry::new());
        let _ga = install(a.clone());
        let _gb = install(b.clone());
        counter_add("exec.jobs", 4);
        assert_eq!(b.counter("exec.jobs"), 4);
        assert!(a.events().iter().any(|e| matches!(
            e,
            Event::Counter {
                name: "exec.jobs",
                delta: 4
            }
        )));
    }

    #[test]
    fn dropping_one_of_two_sinks_keeps_telemetry_enabled() {
        let _serial = tests_serial();
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let ga = install(a);
        let _gb = install(b.clone());
        drop(ga);
        assert!(enabled());
        counter_add("grid.cells", 1);
        assert!(b.events().iter().any(|e| matches!(
            e,
            Event::Counter {
                name: "grid.cells",
                ..
            }
        )));
    }

    #[test]
    fn metric_helpers_are_noops_while_disabled() {
        let _serial = tests_serial();
        counter_add("exec.jobs", 1);
        gauge_set("exec.utilization", 1.0);
        observe("exec.queue_wait_seconds", 0.5);
        let sink = Arc::new(MemorySink::new());
        let _g = install(sink.clone());
        assert_eq!(sink.events().len(), 1, "only the meta header");
    }

    #[test]
    fn span_macro_formats_lazily() {
        let _serial = tests_serial();
        // Disabled: the format arguments must not be evaluated.
        let mut evaluated = false;
        {
            let _s = span!("macro.test", "{}", {
                evaluated = true;
                "x"
            });
        }
        assert!(!evaluated);
        let sink = Arc::new(MemorySink::new());
        let _g = install(sink.clone());
        {
            let _s = span!("macro.test", "{}", {
                evaluated = true;
                "x"
            });
        }
        assert!(evaluated);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            Event::Span { name: "macro.test", detail: Some(d), .. } if d == "x"
        )));
    }
}
