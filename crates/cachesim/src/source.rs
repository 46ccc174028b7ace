//! Replayable trace sources — the streaming backbone of the simulator.
//!
//! At paper scale (1.5M–226M rows) a materialized SpMV trace is billions
//! of [`Access`] records; no consumer may ever hold one. A
//! [`TraceSource`] is a *recipe* for a trace: calling
//! [`TraceSource::replay`] regenerates the identical access sequence on
//! demand, so multi-pass consumers (two-pass Belady) re-derive the trace
//! instead of buffering it, and single-pass consumers ([`LruCache`],
//! [`PlruCache`](crate::plru::PlruCache), classification) never see more
//! than one access at a time.
//!
//! Sources exist for every generator in the workspace:
//!
//! * [`KernelTrace`] — the SpMV/SpMM kernel traces of [`crate::trace`],
//! * [`PagerankTrace`](crate::graph_trace::PagerankTrace) /
//!   [`BfsTrace`](crate::graph_trace::BfsTrace) — the graph-analytics
//!   traces of [`crate::graph_trace`],
//! * [`EllTrace`](crate::format_trace::EllTrace) /
//!   [`SellTrace`](crate::format_trace::SellTrace) — the padded-format
//!   traces of [`crate::format_trace`],
//! * `[Access]` and `Vec<Access>` — in-memory slices for tests.
//!
//! The provided [`TraceSource::collect_trace`] materializer is a test
//! convenience only; `xtask lint` (rule XT0007) rejects it, and
//! full-trace `Vec<Access>` buffers, outside tests and this module.

use commorder_sparse::{traffic::Kernel, CsrMatrix};

use crate::trace::{for_each_access, Access, ExecutionModel};
use crate::LruCache;

/// A replayable stream of cache accesses.
///
/// Implementations must be **deterministic**: every [`replay`] call on
/// the same source must emit the identical sequence (two-pass consumers
/// and the CHK1001/CHK1002 stream-equivalence validators rely on it).
///
/// [`replay`]: TraceSource::replay
pub trait TraceSource {
    /// Exact number of accesses a [`replay`] will emit, when the source
    /// can know it without generating the trace; `None` otherwise.
    ///
    /// [`replay`]: TraceSource::replay
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Emits every access, in trace order, to `sink`.
    fn replay(&self, sink: &mut dyn FnMut(Access));

    /// Materializes the stream — a test convenience; production code
    /// streams via [`replay`](TraceSource::replay) (enforced by `xtask
    /// lint` rule XT0007).
    #[must_use]
    fn collect_trace(&self) -> Vec<Access> {
        let mut v = match self.len_hint() {
            Some(n) => Vec::with_capacity(usize::try_from(n).unwrap_or(0)),
            None => Vec::new(),
        };
        self.replay(&mut |acc| v.push(acc));
        v
    }
}

impl TraceSource for [Access] {
    fn len_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }

    fn replay(&self, sink: &mut dyn FnMut(Access)) {
        for &acc in self {
            sink(acc);
        }
    }
}

impl TraceSource for Vec<Access> {
    fn len_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }

    fn replay(&self, sink: &mut dyn FnMut(Access)) {
        self.as_slice().replay(sink);
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &T {
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn replay(&self, sink: &mut dyn FnMut(Access)) {
        (**self).replay(sink);
    }
}

/// The kernel address trace of [`for_each_access`] as a replayable
/// source: one matrix + kernel + execution model.
#[derive(Debug, Clone, Copy)]
pub struct KernelTrace<'a> {
    a: &'a CsrMatrix,
    kernel: Kernel,
    model: ExecutionModel,
}

impl<'a> KernelTrace<'a> {
    /// A source replaying `kernel` on `a` under `model`.
    #[must_use]
    pub fn new(a: &'a CsrMatrix, kernel: Kernel, model: ExecutionModel) -> Self {
        KernelTrace { a, kernel, model }
    }
}

impl TraceSource for KernelTrace<'_> {
    fn replay(&self, sink: &mut dyn FnMut(Access)) {
        for_each_access(self.a, self.kernel, self.model, sink);
    }
}

/// Streams `source` into a fresh [`LruCache`] and returns the finished
/// stats — the one-liner every analysis binary wants.
#[must_use]
pub fn simulate_lru<S: TraceSource + ?Sized>(
    config: crate::CacheConfig,
    source: &S,
) -> crate::CacheStats {
    let mut cache = LruCache::new(config);
    cache.consume(source);
    cache.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::traffic::Kernel;

    fn sample() -> CsrMatrix {
        CsrMatrix::new(4, 4, vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1], vec![1.0; 4]).unwrap()
    }

    #[test]
    fn kernel_source_matches_direct_generation() {
        let a = sample();
        let direct = crate::trace::collect_trace(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        let source = KernelTrace::new(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        assert_eq!(source.collect_trace(), direct);
        // Replays are deterministic: a second pass emits the same stream.
        assert_eq!(source.collect_trace(), direct);
    }

    #[test]
    fn slice_source_roundtrips_and_hints_its_length() {
        let trace = [Access::read(0), Access::write(64), Access::read(4)];
        let slice: &[Access] = &trace;
        assert_eq!(slice.len_hint(), Some(3));
        assert_eq!(slice.collect_trace(), trace.to_vec());
        let owned = trace.to_vec();
        assert_eq!(owned.len_hint(), Some(3));
        assert_eq!(owned.collect_trace(), trace.to_vec());
        // Blanket reference impl: generic consumers accept &&[Access].
        assert_eq!((&slice).len_hint(), Some(3));
    }

    #[test]
    fn simulate_lru_equals_manual_streaming() {
        let a = sample();
        let source = KernelTrace::new(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        let mut cache = LruCache::new(crate::CacheConfig::test_scale());
        source.replay(&mut |acc| {
            cache.access(acc);
        });
        let manual = cache.finish();
        assert_eq!(
            simulate_lru(crate::CacheConfig::test_scale(), &source),
            manual
        );
    }
}
