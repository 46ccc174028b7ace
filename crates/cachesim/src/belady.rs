//! Belady's optimal (oracular) replacement policy \[8\], used by Fig. 8 to
//! quantify the remaining headroom over LRU: on a miss in a full set, the
//! resident line whose next use lies farthest in the future is evicted.
//!
//! The oracle needs per-access next-use knowledge, but **not** the trace
//! itself: the simulation is two [`TraceSource`] replays. Pass one walks
//! the stream forward and patches a compact per-access next-use array
//! (`u32` entries, promoted to `u64` only past 4 Gi accesses — at most 8
//! bytes per access, the bound the `trace_stream` microbench pins); pass
//! two walks the stream again and evicts by maximum next use. No
//! `Vec<Access>` is ever held. Classification (compulsory, dead lines,
//! write-backs) matches [`LruCache`](crate::LruCache) so the statistics
//! are directly comparable.

use crate::lines::{count_miss, Geometry, LineMap, LineSet, Ways};
use crate::source::TraceSource;
use crate::trace::Access;
use crate::{CacheConfig, CacheStats};

/// Index meaning "never used again".
const NEVER: u64 = u64::MAX;

/// Compact next-use store: one `u32` per access until the trace index
/// space overflows, then one `u64`. The `u32::MAX` slot value is the
/// in-band "never" sentinel (a valid index can never reach it: the store
/// is promoted before the length gets there).
enum NextUses {
    Small(Vec<u32>),
    Large(Vec<u64>),
}

const NEVER_SMALL: u32 = u32::MAX;

impl NextUses {
    fn with_hint(hint: Option<u64>) -> Self {
        match hint {
            Some(n) if n >= u64::from(u32::MAX) => {
                NextUses::Large(Vec::with_capacity(usize::try_from(n).unwrap_or(0)))
            }
            Some(n) => NextUses::Small(Vec::with_capacity(n as usize)),
            None => NextUses::Small(Vec::new()),
        }
    }

    fn promote(&mut self) {
        if let NextUses::Small(v) = self {
            let wide = v
                .iter()
                .map(|&x| {
                    if x == NEVER_SMALL {
                        NEVER
                    } else {
                        u64::from(x)
                    }
                })
                .collect();
            *self = NextUses::Large(wide);
        }
    }

    /// Appends one access whose next use is (so far) "never".
    fn push_never(&mut self) {
        if let NextUses::Small(v) = self {
            if v.len() >= NEVER_SMALL as usize {
                self.promote();
            }
        }
        match self {
            NextUses::Small(v) => v.push(NEVER_SMALL),
            NextUses::Large(v) => v.push(NEVER),
        }
    }

    /// Patches an earlier access's next-use index.
    fn set(&mut self, idx: usize, value: u64) {
        match self {
            // `value` is a trace index below the current length, which
            // `push_never` keeps under the sentinel in the small repr.
            NextUses::Small(v) => v[idx] = value as u32,
            NextUses::Large(v) => v[idx] = value,
        }
    }

    fn get(&self, idx: usize) -> u64 {
        match self {
            NextUses::Small(v) => {
                let x = v[idx];
                if x == NEVER_SMALL {
                    NEVER
                } else {
                    u64::from(x)
                }
            }
            NextUses::Large(v) => v[idx],
        }
    }

    fn len(&self) -> usize {
        match self {
            NextUses::Small(v) => v.len(),
            NextUses::Large(v) => v.len(),
        }
    }

    /// Bytes held by the array — the oracle's whole per-access footprint.
    fn bytes(&self) -> u64 {
        match self {
            NextUses::Small(v) => v.len() as u64 * 4,
            NextUses::Large(v) => v.len() as u64 * 8,
        }
    }
}

/// Pass one: forward replay patching each tag's previous access with the
/// current index (equivalent to the classic backward pass, but it never
/// needs the trace in memory).
fn build_next_uses<S: TraceSource + ?Sized>(source: &S, geometry: &Geometry) -> NextUses {
    let mut next = NextUses::with_hint(source.len_hint());
    let mut last_seen = LineMap::default();
    let mut i = 0u64;
    source.replay(&mut |acc| {
        next.push_never();
        if let Some(prev) = last_seen.replace(geometry.line(acc.addr()), i) {
            next.set(prev as usize, i);
        }
        i += 1;
    });
    next
}

/// Per-access index of the *next* access to the same line (`u64::MAX`
/// when the line is not touched again) — the slice-shaped view used by
/// tests and the CHK1003 monotone-consistency validator.
#[must_use]
pub fn next_use_indices(trace: &[Access], config: &CacheConfig) -> Vec<u64> {
    let next = build_next_uses(trace, &Geometry::new(config));
    (0..trace.len()).map(|i| next.get(i)).collect()
}

/// Simulates `source` under Belady's optimal replacement (two streaming
/// replays; see the module docs).
///
/// While telemetry is enabled, the peak next-use-array footprint is
/// published as the `cachesim.trace.peak_bytes` gauge.
///
/// # Panics
///
/// Panics on a degenerate cache geometry (see
/// [`CacheConfig::num_lines`]).
#[must_use]
pub fn simulate_belady<S: TraceSource + ?Sized>(config: CacheConfig, source: &S) -> CacheStats {
    let geometry = Geometry::new(&config);
    let next = build_next_uses(source, &geometry);
    crate::telemetry::record_trace_peak_bytes(next.bytes());
    let assoc = geometry.assoc;
    let mut ways = Ways::new(&geometry);
    // Next use of each slot's resident (parallel to `ways`).
    let mut next_use = vec![NEVER; geometry.lines()];
    let mut stats = CacheStats {
        line_bytes: config.line_bytes,
        ..CacheStats::default()
    };
    let mut seen = LineSet::default();

    let mut i = 0usize;
    source.replay(&mut |acc| {
        let ni = next.get(i);
        i += 1;
        stats.accesses += 1;
        let write = acc.is_write();
        let line = geometry.line(acc.addr());
        let base = geometry.base(line);
        if let Some(slot) = ways.find(base, line) {
            next_use[slot] = ni;
            ways.touch(slot, write);
            stats.hits += 1;
            return;
        }
        count_miss(&mut stats, seen.insert(line), write);
        let slot = match ways.free_slot(base) {
            Some(slot) => slot,
            None => {
                // The resident used farthest in the future; among ties
                // the last way (the `max_by_key` rule).
                let uses = &next_use[base..base + assoc];
                let mut victim = 0;
                for (w, &u) in uses.iter().enumerate().skip(1) {
                    if u >= uses[victim] {
                        victim = w;
                    }
                }
                let slot = base + victim;
                // Optimal bypass: if the incoming line's next use is
                // farther than every resident's, evict it "immediately":
                // count the fill and a dead line, keep the set intact.
                if ni >= next_use[slot] {
                    stats.evictions += 1;
                    stats.dead_lines += u64::from(ni == NEVER);
                    stats.writebacks += u64::from(write);
                    return;
                }
                ways.evict(slot, &mut stats);
                slot
            }
        };
        ways.fill(slot, line, write);
        next_use[slot] = ni;
    });
    commorder_sparse::debug_validate!(
        i == next.len(),
        "belady replay drifted: pass two saw {i} accesses, pass one {}",
        next.len()
    );
    ways.flush(&mut stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruCache;

    fn read(addr: u64) -> Access {
        Access::read(addr)
    }

    fn tiny() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 128,
            line_bytes: 32,
            associativity: 2,
        }
    }

    #[test]
    fn next_use_links_same_line() {
        let trace = [read(0), read(64), read(4), read(0)];
        let next = next_use_indices(&trace, &tiny());
        assert_eq!(next, vec![2, NEVER, 3, NEVER]);
    }

    #[test]
    fn compact_store_promotes_losslessly() {
        let mut next = NextUses::with_hint(Some(3));
        next.push_never();
        next.push_never();
        next.push_never();
        next.set(0, 2);
        assert!(matches!(next, NextUses::Small(_)));
        assert_eq!(next.bytes(), 3 * 4);
        next.promote();
        assert_eq!(next.get(0), 2);
        assert_eq!(next.get(1), NEVER);
        assert_eq!(next.get(2), NEVER);
        assert_eq!(next.bytes(), 3 * 8);
        next.set(1, u64::from(u32::MAX) + 5);
        assert_eq!(next.get(1), u64::from(u32::MAX) + 5);
    }

    #[test]
    fn small_store_costs_four_bytes_per_access() {
        let trace = [read(0), read(64), read(4), read(0)];
        let next = build_next_uses(&trace[..], &Geometry::new(&tiny()));
        assert_eq!(next.bytes(), 4 * 4);
    }

    #[test]
    fn belady_beats_lru_on_anti_lru_pattern() {
        // Set 0 lines: 0, 64, 128. Pattern engineered so LRU thrashes but
        // the oracle keeps the frequently revisited line resident.
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.push(read(0));
            trace.push(read(64));
            trace.push(read(128));
        }
        let cfg = tiny();
        let mut lru = LruCache::new(cfg);
        for &a in &trace {
            lru.access(a);
        }
        let lru_stats = lru.finish();
        let opt = simulate_belady(cfg, &trace);
        assert!(
            opt.misses() < lru_stats.misses(),
            "belady {} vs lru {}",
            opt.misses(),
            lru_stats.misses()
        );
        // LRU with 2 ways on a cyclic 3-line pattern misses every access.
        assert_eq!(lru_stats.hits, 0);
        assert!(opt.hits > 0);
    }

    #[test]
    fn belady_never_worse_than_lru() {
        // Pseudo-random mixed trace.
        let mut state = 12345u64;
        let mut trace = Vec::new();
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (state >> 33) % 2048;
            trace.push(Access::new(addr, state.is_multiple_of(7)));
        }
        let cfg = tiny();
        let mut lru = LruCache::new(cfg);
        for &a in &trace {
            lru.access(a);
        }
        let lru_stats = lru.finish();
        let opt = simulate_belady(cfg, &trace);
        assert!(opt.misses() <= lru_stats.misses());
        assert_eq!(opt.accesses, lru_stats.accesses);
        // Compulsory misses are policy independent.
        assert_eq!(opt.compulsory_misses, lru_stats.compulsory_misses);
    }

    #[test]
    fn belady_matches_lru_on_streaming() {
        // Pure streaming: both policies take exactly the compulsory misses.
        let trace: Vec<Access> = (0..512).map(|i| read(i * 32)).collect();
        let cfg = tiny();
        let mut lru = LruCache::new(cfg);
        for &a in &trace {
            lru.access(a);
        }
        let lru_stats = lru.finish();
        let opt = simulate_belady(cfg, &trace);
        assert_eq!(opt.misses(), lru_stats.misses());
        assert_eq!(opt.misses(), 512);
    }

    #[test]
    fn streaming_source_matches_slice_source() {
        // The same stats must come out whether the source is an
        // in-memory slice or a regenerating kernel-trace source.
        use crate::source::{KernelTrace, TraceSource};
        use commorder_sparse::traffic::Kernel;
        let a = commorder_sparse::CsrMatrix::new(
            4,
            4,
            vec![0, 1, 3, 4, 4],
            vec![1, 0, 2, 1],
            vec![1.0; 4],
        )
        .unwrap();
        let source = KernelTrace::new(
            &a,
            Kernel::SpmvCsr,
            crate::trace::ExecutionModel::Sequential,
        );
        let collected = source.collect_trace();
        assert_eq!(
            simulate_belady(tiny(), &source),
            simulate_belady(tiny(), &collected)
        );
    }

    #[test]
    fn empty_trace() {
        let empty: &[Access] = &[];
        let s = simulate_belady(tiny(), empty);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.dram_traffic_bytes(), 0);
    }
}
