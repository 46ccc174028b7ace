use crate::lines::{
    count_eviction, count_flush, count_miss, Geometry, LineSet, DIRTY, INVALID, REUSED,
};
use crate::trace::Access;
use crate::CacheConfig;

/// Counters collected by a cache simulation.
///
/// All traffic figures are in bytes; `dram_traffic_bytes` is the quantity
/// every paper figure normalizes to compulsory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Read misses that fetched a line from DRAM.
    pub fill_misses: u64,
    /// Write misses (allocated without fetch; see crate docs).
    pub write_alloc_misses: u64,
    /// Misses to never-before-seen lines (compulsory \[22\]).
    pub compulsory_misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evicted (or end-of-run) lines that were never re-referenced after
    /// fill — the paper's "dead lines" \[18\], \[25\] (Table III).
    pub dead_lines: u64,
    /// Dirty lines written back to DRAM (at eviction or flush).
    pub writebacks: u64,
    /// Total lines ever filled or allocated.
    pub fills: u64,
    /// Line size used, for traffic conversion.
    pub line_bytes: u32,
}

impl CacheStats {
    /// DRAM traffic in bytes: read fills plus write-backs.
    #[must_use]
    pub fn dram_traffic_bytes(&self) -> u64 {
        (self.fill_misses + self.writebacks) * u64::from(self.line_bytes)
    }

    /// Hit rate over all accesses (0 when no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Fraction of filled lines that died unreferenced (Table III's
    /// "% of dead lines inserted into the cache").
    #[must_use]
    pub fn dead_line_fraction(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.dead_lines as f64 / self.fills as f64
        }
    }

    /// Total misses (read fills + write allocations).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.fill_misses + self.write_alloc_misses
    }
}

/// Result of a single [`LruCache::access_detailed`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Byte address of a line evicted to make room (line-aligned), with
    /// its dirty flag — `None` when no eviction occurred.
    pub evicted: Option<(u64, bool)>,
}

/// Set-associative cache with true-LRU replacement.
///
/// Models the A6000 L2 at sector granularity. Feed it [`Access`]es via
/// [`LruCache::access`], then call [`LruCache::finish`] to flush dirty
/// lines and collect the final [`CacheStats`].
///
/// Each set keeps its ways in recency order: way 0 holds the most
/// recently used line, the last valid way the least recently used one,
/// and empty ways form a suffix. A hit on way 0, the common case on
/// kernel traces, is one compare and one flag OR. A hit on a deeper way
/// shifts the ways above it down by one and moves the line to way 0. A
/// miss evicts the last way if the set is full, shifts the set down by
/// one and fills way 0. The victim is always the last way: no search.
///
/// Each way also carries its line's *fill slot*: the way it would hold
/// if every fill took the first empty way, then the evicted line's way.
/// [`LruCache::dirty_lines`] drains in that order, so a hierarchy
/// forwards the end-of-run L1 drain in the same order whatever the
/// recency order.
#[derive(Debug, Clone)]
pub struct LruCache {
    config: CacheConfig,
    geometry: Geometry,
    /// Resident line of each way ([`INVALID`] when empty); set `k` owns
    /// ways `k * assoc .. (k + 1) * assoc`, most recent first.
    tags: Vec<u64>,
    /// Per way (parallel to `tags`): the dirty and reused flags in the
    /// low [`SLOT_SHIFT`] bits, and above them the line's fill slot. A
    /// `u64` holds the slot of any `u32` associativity.
    meta: Vec<u64>,
    stats: CacheStats,
    seen_lines: LineSet,
}

/// Bits of a `meta` word below the fill slot: the way flags.
const SLOT_SHIFT: u32 = 2;
/// Mask of the way flags within a `meta` word.
const FLAGS: u64 = (1 << SLOT_SHIFT) - 1;

impl LruCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry (see [`CacheConfig::num_lines`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let geometry = Geometry::new(&config);
        LruCache {
            config,
            geometry,
            tags: vec![INVALID; geometry.lines()],
            meta: vec![0; geometry.lines()],
            stats: CacheStats {
                line_bytes: config.line_bytes,
                ..CacheStats::default()
            },
            seen_lines: LineSet::default(),
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Simulates one access; returns `true` on a hit.
    pub fn access(&mut self, access: Access) -> bool {
        self.access_detailed(access).hit
    }

    /// Streams every access of `source` through the cache — the
    /// single-pass consumer of the workspace's replayable trace sources
    /// (nothing is buffered).
    pub fn consume<S: crate::source::TraceSource + ?Sized>(&mut self, source: &S) {
        source.replay(&mut |acc| {
            self.access(acc);
        });
    }

    /// Simulates one access, also reporting any eviction it caused —
    /// needed by multi-level hierarchies to forward write-backs.
    #[inline]
    pub fn access_detailed(&mut self, access: Access) -> AccessOutcome {
        self.stats.accesses += 1;
        let write = access.is_write();
        let dirty = u64::from(if write { DIRTY } else { 0 });
        let line = self.geometry.line(access.addr());
        let base = self.geometry.base(line);
        let end = base + self.geometry.assoc;
        let tags = &mut self.tags[base..end];
        let meta = &mut self.meta[base..end];

        if tags[0] == line {
            meta[0] |= u64::from(REUSED) | dirty;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        if let Some(w) = tags.iter().skip(1).position(|&t| t == line) {
            // Most promotions move one or two ways, where an element loop
            // beats a `copy_within` call.
            let hit = meta[w + 1];
            for i in (0..=w).rev() {
                tags[i + 1] = tags[i];
                meta[i + 1] = meta[i];
            }
            tags[0] = line;
            meta[0] = hit | u64::from(REUSED) | dirty;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        count_miss(&mut self.stats, self.seen_lines.insert(line), write);
        let last = tags.len() - 1;
        // The fill slot is the one the line would take if every fill went
        // to the first empty way, then to the LRU line's slot: the count of
        // valid ways while the set has room, the victim's slot after that.
        let (kept, slot, evicted) = if tags[last] == INVALID {
            let valid = tags.iter().position(|&t| t == INVALID).unwrap_or(last);
            (valid, valid as u64, None)
        } else {
            let victim = meta[last];
            let dirty = count_eviction(&mut self.stats, (victim & FLAGS) as u8);
            let addr = self.geometry.addr(tags[last]);
            (last, victim >> SLOT_SHIFT, Some((addr, dirty)))
        };
        // A miss on a full set shifts every way: `copy_within`'s vector
        // copy beats the element loop there.
        tags.copy_within(..kept, 1);
        meta.copy_within(..kept, 1);
        tags[0] = line;
        meta[0] = slot << SLOT_SHIFT | dirty;
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Flushes the cache (write-backs for dirty lines, dead-line
    /// accounting for never-reused residents) and returns the statistics.
    #[must_use]
    pub fn finish(mut self) -> CacheStats {
        for (&tag, &meta) in self.tags.iter().zip(&self.meta) {
            if tag != INVALID {
                count_flush(&mut self.stats, (meta & FLAGS) as u8);
            }
        }
        self.stats
    }

    /// Statistics so far, without flushing.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line-aligned byte addresses of all currently resident dirty lines
    /// (what a flush would write back) — used by multi-level hierarchies
    /// to forward the final L1 drain into the L2. Sets come in order, and
    /// each set's lines in fill-slot order, not recency order.
    #[must_use]
    pub fn dirty_lines(&self) -> Vec<u64> {
        let assoc = self.geometry.assoc;
        let mut out = Vec::new();
        let mut set = Vec::with_capacity(assoc);
        for (tags, meta) in self.tags.chunks(assoc).zip(self.meta.chunks(assoc)) {
            set.clear();
            set.extend(
                tags.iter()
                    .zip(meta)
                    .filter(|&(&tag, &meta)| tag != INVALID && meta & u64::from(DIRTY) != 0)
                    .map(|(&tag, &meta)| (meta >> SLOT_SHIFT, tag)),
            );
            set.sort_unstable();
            out.extend(set.iter().map(|&(_, line)| self.geometry.addr(line)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(addr: u64) -> Access {
        Access::read(addr)
    }

    fn write(addr: u64) -> Access {
        Access::write(addr)
    }

    fn tiny() -> LruCache {
        // 2 sets x 2 ways x 32B lines = 128 B.
        LruCache::new(CacheConfig {
            capacity_bytes: 128,
            line_bytes: 32,
            associativity: 2,
        })
    }

    #[test]
    fn hit_on_same_line() {
        let mut c = tiny();
        assert!(!c.access(read(0)));
        assert!(c.access(read(4)));
        assert!(c.access(read(31)));
        let s = c.finish();
        assert_eq!(s.hits, 2);
        assert_eq!(s.fill_misses, 1);
        assert_eq!(s.compulsory_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0, 64, 128 (stride = sets * line = 64).
        c.access(read(0));
        c.access(read(64));
        c.access(read(0)); // 0 now MRU
        c.access(read(128)); // evicts 64
        assert!(c.access(read(0)), "0 must survive");
        assert!(!c.access(read(64)), "64 must have been evicted");
    }

    /// One set of four 32-byte ways: every line maps to it.
    fn one_set() -> LruCache {
        LruCache::new(CacheConfig {
            capacity_bytes: 4 * 32,
            line_bytes: 32,
            associativity: 4,
        })
    }

    #[test]
    fn deep_hit_promotes_and_leaves_the_old_mru_evictable() {
        let mut c = one_set();
        for line in 0..4u64 {
            c.access(read(line * 32)); // recency: 3, 2, 1, 0
        }
        assert!(c.access(read(0)), "line 0 sits in the deepest way");
        // Recency 0, 3, 2, 1: misses evict 1, 2, then 3, the old MRU.
        let victims: Vec<_> = (4..7u64)
            .map(|line| c.access_detailed(read(line * 32)).evicted)
            .collect();
        assert_eq!(
            victims,
            [Some((32, false)), Some((64, false)), Some((96, false))]
        );
        assert!(c.access(read(0)), "the promoted line outlives the old MRU");
        let victim = c.access_detailed(read(7 * 32)).evicted;
        assert_eq!(victim, Some((128, false)), "line 4 is now the LRU");
    }

    #[test]
    fn dirty_lines_drain_in_fill_slot_order() {
        let mut c = one_set();
        for line in 0..4u64 {
            c.access(write(line * 32)); // slots 0..4
        }
        c.access(write(4 * 32)); // evicts line 0, refills slot 0
        c.access(read(5 * 32)); // evicts line 1, refills slot 1 clean
        c.access(write(2 * 32)); // line 2 becomes the MRU

        // Recency order is 2, 5, 4, 3; slot order 4, 5, 2, 3; 5 is clean.
        assert_eq!(c.dirty_lines(), [4 * 32, 2 * 32, 3 * 32]);
        let s = c.finish();
        assert_eq!(
            s.writebacks,
            2 + 3,
            "two dirty victims, three dirty residents"
        );
    }

    #[test]
    fn compulsory_vs_capacity_classification() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(64));
        c.access(read(128)); // evicts 0
        c.access(read(0)); // capacity miss, not compulsory
        let s = c.finish();
        assert_eq!(s.compulsory_misses, 3);
        assert_eq!(s.fill_misses, 4);
    }

    #[test]
    fn dead_lines_counted_on_eviction_and_at_end() {
        let mut c = tiny();
        c.access(read(0)); // never reused
        c.access(read(64)); // reused below
        c.access(read(64));
        c.access(read(128)); // evicts 0 (LRU), 0 is dead
        let s = c.finish();
        // 0 died at eviction; 128 dies at end; 64 was reused.
        assert_eq!(s.dead_lines, 2);
        assert!((s.dead_line_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn writes_allocate_without_fetch_and_write_back() {
        let mut c = tiny();
        c.access(write(0));
        c.access(write(4)); // same line, hit
        let s = c.finish();
        assert_eq!(s.fill_misses, 0, "write miss must not fetch");
        assert_eq!(s.write_alloc_misses, 1);
        assert_eq!(s.writebacks, 1, "dirty line flushed at end");
        assert_eq!(s.dram_traffic_bytes(), 32);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = tiny();
        c.access(write(0));
        c.access(read(64));
        c.access(read(128)); // evicts dirty 0
        let s = c.stats();
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn read_then_write_marks_dirty() {
        let mut c = tiny();
        c.access(read(0));
        c.access(write(0)); // hit, marks dirty
        let s = c.finish();
        assert_eq!(s.hits, 1);
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn traffic_formula() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(read(i * 32));
        }
        let s = c.finish();
        assert_eq!(s.dram_traffic_bytes(), 8 * 32);
        assert_eq!(s.misses(), 8);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn empty_stats_ratios_are_zero_not_nan() {
        // Zero accesses / zero fills (e.g. an empty trace) must yield
        // well-defined ratios, never NaN.
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.dead_line_fraction(), 0.0);
        assert!(s.hit_rate().is_finite());
        assert!(s.dead_line_fraction().is_finite());
        // A cache that saw no accesses finishes to the same empty stats.
        let fresh = tiny().finish();
        assert_eq!(fresh.hit_rate(), 0.0);
        assert_eq!(fresh.dead_line_fraction(), 0.0);
    }

    #[test]
    fn streaming_fits_exactly_in_compulsory() {
        // Sequential sweep over 1 KiB with a 128 B cache: every line
        // fetched exactly once -> traffic == compulsory.
        let mut c = tiny();
        for addr in (0..1024u64).step_by(4) {
            c.access(read(addr));
        }
        let s = c.finish();
        assert_eq!(s.fill_misses, 32);
        assert_eq!(s.compulsory_misses, 32);
        assert_eq!(s.hits, 256 - 32);
    }
}
