//! Belady's optimal (oracular) replacement policy \[8\], used by Fig. 8 to
//! quantify the remaining headroom over LRU: on a miss in a full set, the
//! resident line whose next use lies farthest in the future is evicted.
//!
//! The oracle needs per-access next-use knowledge, but **not** the trace
//! itself: the simulation replays a [`TraceSource`]. Pass one takes the
//! access count `n` from [`TraceSource::len_hint`] (or one counting
//! replay), allocates exactly `n` next-use entries (`u32`, or `u64` past
//! 4 Gi accesses — at most 8 bytes per access, the bound the
//! `trace_stream` microbench pins), records each access's dense line
//! ordinal in them, and rewrites the array backward in place into
//! next-use indices. Pass two walks the stream again and evicts by
//! maximum next use. No `Vec<Access>` is ever held. Classification
//! (compulsory, dead lines, write-backs) matches
//! [`LruCache`](crate::LruCache) so the statistics are directly
//! comparable.

use crate::lines::{count_miss, Geometry, LineMap, LineSet, Ways};
use crate::source::TraceSource;
use crate::trace::Access;
use crate::{CacheConfig, CacheStats};

/// One next-use array entry, a trace index: `u32` while the trace is
/// shorter than `u32::MAX` accesses, `u64` beyond. [`NextUse::NEVER`],
/// the type's maximum, lies above every index and means "never used
/// again".
trait NextUse: Copy + Ord + Default {
    const NEVER: Self;

    /// Index `i`, which callers keep below [`NextUse::NEVER`].
    fn from_index(i: usize) -> Self;

    /// The entry as a slice index.
    fn index(self) -> usize;
}

impl NextUse for u32 {
    const NEVER: Self = u32::MAX;

    fn from_index(i: usize) -> Self {
        i as u32
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl NextUse for u64 {
    const NEVER: Self = u64::MAX;

    fn from_index(i: usize) -> Self {
        i as u64
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Pass one: the next-use index of each of the `n` accesses of `source`.
///
/// One replay records each access's line ordinal (the rank of its line
/// in first-touch order) in an array of exactly `n` entries. The ordinal
/// map is then dropped, and one backward sweep rewrites the array in
/// place: each entry swaps its line's ordinal for the line's nearest
/// later position, kept in a table of one entry per distinct line.
///
/// # Panics
///
/// Panics if the replay emits other than `n` accesses.
fn build_next_uses<I: NextUse, S: TraceSource + ?Sized>(
    source: &S,
    geometry: &Geometry,
    n: u64,
) -> Vec<I> {
    let mut next = vec![I::default(); usize::try_from(n).unwrap_or(usize::MAX)];
    let mut ordinals = LineMap::default();
    let mut lines = 0u64;
    let mut i = 0usize;
    source.replay(&mut |acc| {
        let line = geometry.line(acc.addr());
        let ordinal = ordinals.get(line).unwrap_or_else(|| {
            ordinals.replace(line, lines);
            lines += 1;
            lines - 1
        });
        if let Some(slot) = next.get_mut(i) {
            *slot = I::from_index(ordinal as usize);
        }
        i += 1;
    });
    assert_eq!(
        i as u64, n,
        "belady pass one: the replay emitted {i} accesses, the source promised {n}"
    );
    drop(ordinals);
    let mut last = vec![I::NEVER; lines as usize];
    for (i, slot) in next.iter_mut().enumerate().rev() {
        *slot = std::mem::replace(&mut last[slot.index()], I::from_index(i));
    }
    next
}

/// Per-access index of the *next* access to the same line (`u64::MAX`
/// when the line is not touched again) — the slice-shaped view used by
/// tests and the CHK1003 monotone-consistency validator.
#[must_use]
pub fn next_use_indices(trace: &[Access], config: &CacheConfig) -> Vec<u64> {
    build_next_uses(trace, &Geometry::new(config), trace.len() as u64)
}

/// Simulates `source` under Belady's optimal replacement (two streaming
/// replays; see the module docs).
///
/// While telemetry is enabled, the next-use array's footprint is
/// published as the `cachesim.trace.peak_bytes` gauge.
///
/// # Panics
///
/// Panics on a degenerate cache geometry (see
/// [`CacheConfig::num_lines`]), and if a replay of `source` emits other
/// than [`TraceSource::len_hint`] accesses, or a different count than
/// the previous replay.
#[must_use]
pub fn simulate_belady<S: TraceSource + ?Sized>(config: CacheConfig, source: &S) -> CacheStats {
    let n = source.len_hint().unwrap_or_else(|| {
        let mut n = 0u64;
        source.replay(&mut |_| n += 1);
        n
    });
    if n < u64::from(u32::MAX) {
        replay_optimal::<u32, S>(config, source, n)
    } else {
        replay_optimal::<u64, S>(config, source, n)
    }
}

/// Both passes of [`simulate_belady`] over `n` accesses, with next uses
/// stored as `I`.
fn replay_optimal<I: NextUse, S: TraceSource + ?Sized>(
    config: CacheConfig,
    source: &S,
    n: u64,
) -> CacheStats {
    let geometry = Geometry::new(&config);
    let next = build_next_uses::<I, S>(source, &geometry, n);
    crate::telemetry::record_trace_peak_bytes(n * std::mem::size_of::<I>() as u64);
    let assoc = geometry.assoc;
    let mut ways = Ways::new(&geometry);
    // Next use of each slot's resident (parallel to `ways`).
    let mut next_use = vec![I::NEVER; geometry.lines()];
    let mut stats = CacheStats {
        line_bytes: config.line_bytes,
        ..CacheStats::default()
    };
    let mut seen = LineSet::default();

    let mut i = 0usize;
    source.replay(&mut |acc| {
        let ni = next[i];
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
                // the last way (the `max_by_key` rule). The running
                // maximum stays in a register instead of being re-read.
                let uses = &next_use[base..base + assoc];
                let (mut victim, mut farthest) = (0, uses[0]);
                for (w, &u) in uses.iter().enumerate().skip(1) {
                    if u >= farthest {
                        victim = w;
                        farthest = u;
                    }
                }
                // Optimal bypass: if the incoming line's next use is
                // farther than every resident's, evict it "immediately":
                // count the fill and a dead line, keep the set intact.
                if ni >= farthest {
                    stats.evictions += 1;
                    stats.dead_lines += u64::from(ni == I::NEVER);
                    stats.writebacks += u64::from(write);
                    return;
                }
                let slot = base + victim;
                ways.evict(slot, &mut stats);
                slot
            }
        };
        ways.fill(slot, line, write);
        next_use[slot] = ni;
    });
    assert_eq!(
        i,
        next.len(),
        "belady pass two: the replay emitted {i} accesses, pass one {}",
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

    const NEVER: u64 = u64::MAX;

    #[test]
    fn next_use_links_same_line() {
        let trace = [read(0), read(64), read(4), read(0)];
        let next = next_use_indices(&trace, &tiny());
        assert_eq!(next, vec![2, NEVER, 3, NEVER]);
    }

    /// Next uses by definition: the position of the first later access
    /// to the same line.
    fn brute_force_next_uses(trace: &[Access], config: &CacheConfig) -> Vec<u64> {
        let line = |i: usize| trace[i].addr() / u64::from(config.line_bytes);
        (0..trace.len())
            .map(|i| {
                (i + 1..trace.len())
                    .find(|&j| line(j) == line(i))
                    .map_or(NEVER, |j| j as u64)
            })
            .collect()
    }

    /// Random traces over low lines, a band past the initial dense
    /// tables, lines at 2^62 and the top of the address space, plus a
    /// few high-address lines revisited in rounds.
    fn high_address_traces() -> Vec<(CacheConfig, Vec<Access>)> {
        let mut rng = commorder_synth::rng::Rng::new(2024);
        let mut out = Vec::new();
        for line_bytes in [32u32, 48, 64] {
            let config = CacheConfig {
                capacity_bytes: 4 * 2 * u64::from(line_bytes),
                line_bytes,
                associativity: 2,
            };
            let lb = u64::from(line_bytes);
            let top_line = ((1u64 << 63) - 1) / lb;
            for pool in [3, 40, 400] {
                let trace = (0..1 + rng.gen_range(1500))
                    .map(|_| {
                        let k = rng.gen_range(pool);
                        let line = match rng.gen_range(8) {
                            0..=3 => k,
                            4 => 9000 + k * 37,
                            5 | 6 => (1u64 << 62) / lb + k,
                            _ => top_line - k % 4,
                        };
                        let addr = (line * lb + rng.gen_range(lb)).min((1u64 << 63) - 1);
                        Access::new(addr, rng.gen_bool(0.3))
                    })
                    .collect();
                out.push((config, trace));
            }
        }
        let mut rounds = Vec::new();
        for round in 0..20u64 {
            for k in 0..6u64 {
                rounds.push(read((1u64 << 62) + k * 4 * 32 + (round % 3) * 8));
            }
            rounds.push(read((1u64 << 63) - 1));
            rounds.push(Access::write((1u64 << 63) - 32 * (round % 2) - 1));
        }
        out.push((tiny(), rounds));
        out
    }

    #[test]
    fn both_index_widths_match_the_definition() {
        for (config, trace) in high_address_traces() {
            let geometry = Geometry::new(&config);
            let n = trace.len() as u64;
            let want = brute_force_next_uses(&trace, &config);
            let wide: Vec<u64> = build_next_uses(&trace[..], &geometry, n);
            let narrow: Vec<u32> = build_next_uses(&trace[..], &geometry, n);
            assert_eq!(wide, want, "u64 build on {config:?}");
            let widened: Vec<u64> = narrow
                .iter()
                .map(|&x| if x == u32::MAX { NEVER } else { u64::from(x) })
                .collect();
            assert_eq!(widened, want, "u32 build on {config:?}");
        }
    }

    #[test]
    fn small_store_costs_four_bytes_per_access() {
        let trace = [read(0), read(64), read(4), read(0)];
        let next: Vec<u32> = build_next_uses(&trace[..], &Geometry::new(&tiny()), 4);
        assert_eq!(next.capacity() * std::mem::size_of::<u32>(), 4 * 4);
    }

    /// A slice source whose `len_hint` is off by the given count.
    struct MisHinted(Vec<Access>, i64);

    impl TraceSource for MisHinted {
        fn len_hint(&self) -> Option<u64> {
            Some((self.0.len() as u64).saturating_add_signed(self.1))
        }

        fn replay(&self, sink: &mut dyn FnMut(Access)) {
            self.0.replay(sink);
        }
    }

    #[test]
    #[should_panic(expected = "emitted 3 accesses, the source promised 4")]
    fn a_short_replay_fails_loudly() {
        let _ = simulate_belady(tiny(), &MisHinted(vec![read(0), read(64), read(0)], 1));
    }

    #[test]
    #[should_panic(expected = "emitted 3 accesses, the source promised 2")]
    fn a_long_replay_fails_loudly() {
        let _ = simulate_belady(tiny(), &MisHinted(vec![read(0), read(64), read(0)], -1));
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
