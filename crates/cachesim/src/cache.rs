use crate::lines::{count_miss, Geometry, LineSet, Ways, INVALID};
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
#[derive(Debug, Clone)]
pub struct LruCache {
    config: CacheConfig,
    geometry: Geometry,
    ways: Ways,
    /// Per-slot recency stamp (parallel to `ways`); larger = more
    /// recently used, 0 = never filled.
    stamps: Vec<u64>,
    stats: CacheStats,
    seen_lines: LineSet,
    clock: u64,
}

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
            ways: Ways::new(&geometry),
            stamps: vec![0; geometry.lines()],
            stats: CacheStats {
                line_bytes: config.line_bytes,
                ..CacheStats::default()
            },
            seen_lines: LineSet::default(),
            clock: 0,
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
        self.clock += 1;
        self.stats.accesses += 1;
        let write = access.is_write();
        let line = self.geometry.line(access.addr());
        let assoc = self.geometry.assoc;
        let base = self.geometry.base(line);

        if let Some(slot) = self.ways.find(base, line) {
            self.stamps[slot] = self.clock;
            self.ways.touch(slot, write);
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        count_miss(&mut self.stats, self.seen_lines.insert(line), write);
        // Victim: the first minimum stamp. Empty ways carry stamp 0 and
        // valid ones a distinct stamp >= 1, so this is the first empty
        // way while one exists, and the true-LRU way after that.
        let stamps = &self.stamps[base..base + assoc];
        let mut victim = 0;
        for (w, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < stamps[victim] {
                victim = w;
            }
        }
        let slot = base + victim;
        let evicted = (self.ways.tags[slot] != INVALID).then(|| {
            let (old, dirty) = self.ways.evict(slot, &mut self.stats);
            (self.geometry.addr(old), dirty)
        });
        self.ways.fill(slot, line, write);
        self.stamps[slot] = self.clock;
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Flushes the cache (write-backs for dirty lines, dead-line
    /// accounting for never-reused residents) and returns the statistics.
    #[must_use]
    pub fn finish(mut self) -> CacheStats {
        self.ways.flush(&mut self.stats);
        self.stats
    }

    /// Statistics so far, without flushing.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line-aligned byte addresses of all currently resident dirty lines
    /// (what a flush would write back) — used by multi-level hierarchies
    /// to forward the final L1 drain into the L2.
    #[must_use]
    pub fn dirty_lines(&self) -> Vec<u64> {
        self.ways
            .dirty_lines()
            .map(|line| self.geometry.addr(line))
            .collect()
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
