//! Belady's optimal (oracular) replacement policy \[8\], used by Fig. 8 to
//! quantify the remaining headroom over LRU: on a miss in a full set, the
//! resident line whose next use lies farthest in the future is evicted.
//!
//! The oracle needs per-access next-use knowledge, but **not** the trace
//! itself: the simulation replays a [`TraceSource`]. Pass one takes the
//! access count `n` from [`TraceSource::len_hint`] (or one counting
//! replay), allocates exactly `n` next-use entries (`u32`, or `u64` past
//! 4 Gi accesses — at most 8 bytes per access), records each access's
//! dense line ordinal in them, and rewrites the array backward in place
//! into next-use indices; the ordinal count is the compulsory-miss
//! count. The line → ordinal table stores ordinals at the same width
//! (they are below the distinct-line count, at most `n`). When the
//! source states its extent ([`TraceSource::extent_hint`]) in at most
//! `n` lines, the table is allocated once at that many lines and never
//! grows; otherwise it grows within the line tables' memory bound. With
//! a stated extent, pass one holds at most the entry width times `n`
//! plus the extent's lines — the bound `tests/trace_peak.rs` pins.
//! Pass two tags each resident with its next use, the index of its
//! line's next access, so access `i` hits exactly the way tagged `i` (an
//! empty way holds `u64::MAX`, a dead line `u64::MAX - 1`); a miss in a
//! full set evicts the largest tag. No `Vec<Access>` is ever held.
//! Classification matches [`LruCache`](crate::LruCache) so the
//! statistics are directly comparable.

use crate::lines::{count_miss, Geometry, LineMap, LineValue, Ways};
use crate::source::TraceSource;
use crate::trace::Access;
use crate::{CacheConfig, CacheStats};

/// Way tag of a resident never used again: above every access index and
/// below the empty way's tag, `u64::MAX`.
const NEVER_TAG: u64 = u64::MAX - 1;

/// One next-use array entry, a trace index: `u32` while the trace is
/// shorter than `u32::MAX` accesses, `u64` beyond. [`NextUse::NEVER`],
/// the type's maximum, lies above every index and means "never used
/// again". Line ordinals are stored at the same width.
trait NextUse: LineValue + Into<u64> {
    const NEVER: Self = Self::ABSENT;

    /// Index `i`, which callers keep below [`NextUse::NEVER`].
    fn from_index(i: usize) -> Self;

    /// The entry as a `u64`, with "never" as [`NEVER_TAG`].
    fn widen(self) -> u64 {
        let wide = self.into();
        if wide == Self::NEVER.into() {
            NEVER_TAG
        } else {
            wide
        }
    }
}

impl NextUse for u32 {
    fn from_index(i: usize) -> Self {
        i as u32
    }
}

impl NextUse for u64 {
    fn from_index(i: usize) -> Self {
        i as u64
    }
}

/// Pass one: the next-use index of each of the `n` accesses of `source`,
/// and the number of distinct lines they touch.
///
/// One replay records each access's line ordinal (the rank of its line
/// in first-touch order) in an array of exactly `n` entries. The ordinal
/// map is then dropped, and one backward sweep rewrites the array in
/// place: each entry swaps its line's ordinal for the line's nearest
/// later position, kept in a table of one entry per distinct line.
///
/// While telemetry is enabled, the bytes this pass holds at once — the
/// array plus the larger of the ordinal map and the sweep's table, at
/// their allocated lengths — are published as the
/// `cachesim.trace.peak_bytes` gauge.
///
/// # Panics
///
/// Panics if the replay emits other than `n` accesses.
fn build_next_uses<I: NextUse, S: TraceSource + ?Sized>(
    source: &S,
    geometry: &Geometry,
    n: u64,
) -> (Vec<I>, u64) {
    let mut next = vec![I::default(); usize::try_from(n).unwrap_or(usize::MAX)];
    let mut ordinals = match source.extent_hint().map(|end| geometry.lines_below(end)) {
        // At most one entry per access: the map never outgrows `next`.
        Some(extent) if extent <= n => LineMap::<I>::with_lines(extent as usize),
        _ => LineMap::default(),
    };
    let mut lines = 0u64;
    let mut i = 0usize;
    source.replay(&mut |acc| {
        let line = geometry.line(acc.addr());
        let ordinal = ordinals.get(line).unwrap_or_else(|| {
            let ordinal = I::from_index(lines as usize);
            ordinals.replace(line, ordinal);
            lines += 1;
            ordinal
        });
        if let Some(slot) = next.get_mut(i) {
            *slot = ordinal;
        }
        i += 1;
    });
    assert_eq!(
        i as u64, n,
        "belady pass one: the replay emitted {i} accesses, the source promised {n}"
    );
    let width = std::mem::size_of::<I>() as u64;
    let table = ordinals.heap_bytes().max(lines * width);
    crate::telemetry::record_trace_peak_bytes(n * width + table);
    drop(ordinals);
    let mut last = vec![I::NEVER; lines as usize];
    for (i, slot) in next.iter_mut().enumerate().rev() {
        *slot = std::mem::replace(&mut last[slot.widen() as usize], I::from_index(i));
    }
    (next, lines)
}

/// Per-access index of the *next* access to the same line (`u64::MAX`
/// when the line is not touched again) — the slice-shaped view used by
/// tests and the CHK1003 monotone-consistency validator.
#[must_use]
pub fn next_use_indices(trace: &[Access], config: &CacheConfig) -> Vec<u64> {
    build_next_uses(trace, &Geometry::new(config), trace.len() as u64).0
}

/// Simulates `source` under Belady's optimal replacement (two streaming
/// replays; see the module docs).
///
/// While telemetry is enabled, pass one's footprint — the next-use
/// array and the line tables beside it — is published as the
/// `cachesim.trace.peak_bytes` gauge.
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
    let (next, lines) = build_next_uses::<I, S>(source, &geometry, n);
    let mut ways = Ways::new(&geometry);
    let mut stats = CacheStats {
        line_bytes: config.line_bytes,
        compulsory_misses: lines,
        ..CacheStats::default()
    };

    let mut i = 0usize;
    source.replay(&mut |acc| {
        let (now, ni) = (i as u64, next[i].widen());
        i += 1;
        stats.accesses += 1;
        let write = acc.is_write();
        let set = geometry.set(geometry.line(acc.addr()));
        if let Some(slot) = ways.find(set, now) {
            ways.touch(set, slot, write);
            ways.retag(slot, ni);
            stats.hits += 1;
            return;
        }
        count_miss(&mut stats, false, write);
        let slot = match ways.free_slot(set) {
            Some(slot) => slot,
            None => {
                // The resident used farthest in the future, ties to the last
                // way (the `max_by_key` rule); the maximum stays in a register.
                let tags = ways.set_tags(set);
                let (mut victim, mut farthest) = (0, tags[0]);
                for (w, &t) in tags.iter().enumerate().skip(1) {
                    if t >= farthest {
                        victim = w;
                        farthest = t;
                    }
                }
                // Optimal bypass: if the incoming line's next use is
                // farther than every resident's, evict it "immediately":
                // count the fill and a dead line, keep the set intact.
                if ni >= farthest {
                    stats.evictions += 1;
                    stats.dead_lines += u64::from(ni == NEVER_TAG);
                    stats.writebacks += u64::from(write);
                    return;
                }
                let slot = set * geometry.assoc + victim;
                ways.evict(slot, &mut stats);
                slot
            }
        };
        ways.fill(set, slot, ni, write);
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
    use crate::source::{simulate_lru, KernelTrace};
    use crate::trace::ExecutionModel;
    use commorder_sparse::{traffic::Kernel, CsrMatrix};

    const NEVER: u64 = u64::MAX;

    fn read(addr: u64) -> Access {
        Access::read(addr)
    }

    /// `sets` sets of `ways` ways of `line_bytes` each.
    fn config(sets: u64, ways: u32, line_bytes: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: sets * u64::from(ways * line_bytes),
            line_bytes,
            associativity: ways,
        }
    }

    /// Two sets of two 32-byte ways: lines 0, 2 and 4 share set 0.
    fn tiny() -> CacheConfig {
        config(2, 2, 32)
    }

    /// Reads of the given 32-byte lines.
    fn reads(lines: &[u64]) -> Vec<Access> {
        lines.iter().map(|&line| read(line * 32)).collect()
    }

    /// Belady on `trace` with both next-use widths, which must agree.
    fn belady(config: CacheConfig, trace: &[Access]) -> CacheStats {
        let n = trace.len() as u64;
        let narrow = replay_optimal::<u32, _>(config, trace, n);
        let wide = replay_optimal::<u64, _>(config, trace, n);
        assert_eq!(wide, narrow, "{config:?}");
        narrow
    }

    /// Hits, fills, evictions and dead lines of reads of `lines` under
    /// Belady.
    fn outcome(config: CacheConfig, lines: &[u64]) -> [u64; 4] {
        let s = belady(config, &reads(lines));
        [s.hits, s.fills, s.evictions, s.dead_lines]
    }

    #[test]
    fn next_use_links_same_line() {
        let trace = [read(0), read(64), read(4), read(0)];
        assert_eq!(next_use_indices(&trace, &tiny()), vec![2, NEVER, 3, NEVER]);
        // The `u32` store costs four bytes per access.
        let (next, lines): (Vec<u32>, _) = build_next_uses(&trace[..], &Geometry::new(&tiny()), 4);
        let bytes = next.capacity() * std::mem::size_of::<u32>();
        assert_eq!((bytes, lines), (4 * 4, 2));
    }

    #[test]
    fn hits_the_last_touched_way() {
        let s = belady(tiny(), &[read(0), read(4), Access::write(8)]);
        assert_eq!([s.hits, s.fill_misses, s.writebacks], [2, 1, 1]);
    }

    #[test]
    fn hits_a_way_after_the_last_touched_one_moved() {
        // Each hit finds its line in the way its set did not touch last.
        assert_eq!(outcome(tiny(), &[0, 2, 0, 2]), [2, 2, 0, 0]);
    }

    #[test]
    fn a_bypassed_line_misses_again() {
        // Line 4 is next used after lines 0 and 2, so it bypasses set 0;
        // it misses again at its last use, and that bypass is dead.
        assert_eq!(outcome(tiny(), &[0, 2, 4, 0, 2, 4]), [2, 4, 2, 1]);
    }

    #[test]
    fn direct_mapped_and_fully_associative_sets() {
        let lines = [0, 1, 4, 8, 1, 8, 4, 0];
        // Four one-way sets: lines 0, 4 and 8 evict each other in set 0.
        assert_eq!(outcome(config(4, 1, 32), &lines), [2, 6, 4, 4]);
        // One three-way set: line 8 evicts line 0, whose return bypasses.
        assert_eq!(outcome(config(1, 3, 32), &lines), [3, 5, 2, 2]);
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
                out.push((config(4, 2, line_bytes), trace));
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
            let (wide, _): (Vec<u64>, _) = build_next_uses(&trace[..], &geometry, n);
            let (narrow, _): (Vec<u32>, _) = build_next_uses(&trace[..], &geometry, n);
            assert_eq!(wide, want, "u64 build on {config:?}");
            let narrow: Vec<u64> = narrow.into_iter().map(NextUse::widen).collect();
            assert_eq!(narrow, want.iter().map(|x| x.widen()).collect::<Vec<_>>());
            assert_eq!(belady(config, &trace), simulate_belady(config, &trace));
        }
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
        let trace = reads(&[0, 2, 4].repeat(50));
        let lru = simulate_lru(tiny(), &trace);
        let opt = belady(tiny(), &trace);
        assert!(opt.misses() < lru.misses(), "belady {opt:?} vs lru {lru:?}");
        // LRU with 2 ways on a cyclic 3-line pattern misses every access.
        assert_eq!(lru.hits, 0);
    }

    #[test]
    fn belady_never_worse_than_lru() {
        // Pseudo-random mixed trace.
        let mut state = 12345u64;
        let trace: Vec<Access> = (0..5000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Access::new((state >> 33) % 2048, state.is_multiple_of(7))
            })
            .collect();
        let lru = simulate_lru(tiny(), &trace);
        let opt = belady(tiny(), &trace);
        assert!(opt.misses() <= lru.misses());
        assert_eq!(opt.accesses, lru.accesses);
        // Compulsory misses are policy independent.
        assert_eq!(opt.compulsory_misses, lru.compulsory_misses);
    }

    #[test]
    fn belady_matches_lru_on_streaming() {
        // Pure streaming: both policies take exactly the compulsory misses.
        let trace = reads(&(0..512).collect::<Vec<_>>());
        let lru = simulate_lru(tiny(), &trace);
        assert_eq!((belady(tiny(), &trace).misses(), lru.misses()), (512, 512));
    }

    #[test]
    fn streaming_source_matches_slice_source() {
        // The same stats must come out whether the source is an
        // in-memory slice or a regenerating kernel-trace source.
        let a = CsrMatrix::new(4, 4, vec![0, 1, 3, 4, 4], vec![1, 0, 2, 1], vec![1.0; 4]).unwrap();
        let source = KernelTrace::new(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
        let collected = source.collect_trace();
        assert_eq!(belady(tiny(), &collected), simulate_belady(tiny(), &source));
    }

    #[test]
    fn empty_trace() {
        let s = belady(tiny(), &[]);
        assert_eq!((s.accesses, s.dram_traffic_bytes()), (0, 0));
    }
}
