//! Tree-PLRU (pseudo-LRU) replacement — what real hardware builds
//! instead of true LRU (true LRU needs `log2(ways!)` bits per set;
//! tree-PLRU needs `ways − 1`).
//!
//! The paper models the A6000 L2 as LRU ("closely models"); this module
//! lets the `ablation_cache` family check that conclusions survive the
//! difference between the model and a hardware-realistic policy.
//!
//! Statistics match [`LruCache`](crate::LruCache) field-for-field so the
//! two simulators are directly comparable.

use crate::lines::{count_miss, Geometry, LineSet, Ways};
use crate::trace::Access;
use crate::{CacheConfig, CacheStats};

/// Set-associative cache with tree-PLRU replacement.
///
/// Associativity must be a power of two (the PLRU tree is complete).
#[derive(Debug, Clone)]
pub struct PlruCache {
    geometry: Geometry,
    ways: Ways,
    /// Per-set PLRU tree bits (`assoc - 1` internal nodes, bit = which
    /// half was used less recently: 0 = left half is colder).
    tree: Vec<bool>,
    assoc: usize,
    stats: CacheStats,
    seen: LineSet,
}

impl PlruCache {
    /// Creates an empty PLRU cache.
    ///
    /// # Panics
    ///
    /// Panics if associativity is not a power of two, or on a degenerate
    /// geometry (see [`CacheConfig::num_lines`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.associativity.is_power_of_two(),
            "tree-PLRU needs power-of-two associativity"
        );
        let geometry = Geometry::new(&config);
        let sets = config.num_sets();
        PlruCache {
            geometry,
            ways: Ways::new(&geometry),
            tree: vec![false; sets * (config.associativity as usize - 1).max(1)],
            assoc: config.associativity as usize,
            stats: CacheStats {
                line_bytes: config.line_bytes,
                ..CacheStats::default()
            },
            seen: LineSet::default(),
        }
    }

    /// Walks the PLRU tree toward the cold leaf of `set`.
    fn victim_of(&self, set: usize) -> usize {
        if self.assoc == 1 {
            return 0;
        }
        let bits = &self.tree[set * (self.assoc - 1)..(set + 1) * (self.assoc - 1)];
        let mut node = 0usize; // root
        loop {
            let go_right = bits[node];
            let child = 2 * node + 1 + usize::from(go_right);
            if child >= self.assoc - 1 {
                // Leaf level: leaf index = child - (assoc - 1).
                return child - (self.assoc - 1);
            }
            node = child;
        }
    }

    /// Flips the tree bits along `way`'s path so the path points *away*
    /// from it (marking it most-recently used).
    fn touch(&mut self, set: usize, way: usize) {
        if self.assoc == 1 {
            return;
        }
        let base = set * (self.assoc - 1);
        // Walk up from the leaf.
        let mut node = way + (self.assoc - 1); // leaf's tree index
        while node > 0 {
            let parent = (node - 1) / 2;
            let is_right_child = node == 2 * parent + 2;
            // Point the parent at the *other* half.
            self.tree[base + parent] = !is_right_child;
            node = parent;
        }
    }

    /// Simulates one access; returns `true` on a hit.
    pub fn access(&mut self, access: Access) -> bool {
        self.stats.accesses += 1;
        let write = access.is_write();
        let line = self.geometry.line(access.addr());
        let set = self.geometry.set(line);
        let base = set * self.assoc;
        if let Some(slot) = self.ways.find(set, line) {
            self.ways.touch(set, slot, write);
            self.stats.hits += 1;
            self.touch(set, slot - base);
            return true;
        }
        count_miss(&mut self.stats, self.seen.insert(line), write);
        let slot = match self.ways.free_slot(set) {
            Some(slot) => slot,
            None => {
                let slot = base + self.victim_of(set);
                self.ways.evict(slot, &mut self.stats);
                slot
            }
        };
        self.ways.fill(set, slot, line, write);
        self.touch(set, slot - base);
        false
    }

    /// Streams every access of `source` through the cache (mirror of
    /// [`LruCache::consume`](crate::LruCache::consume)).
    pub fn consume<S: crate::source::TraceSource + ?Sized>(&mut self, source: &S) {
        source.replay(&mut |acc| {
            self.access(acc);
        });
    }

    /// Flushes and returns the statistics (mirror of
    /// [`LruCache::finish`](crate::LruCache::finish)).
    #[must_use]
    pub fn finish(mut self) -> CacheStats {
        self.ways.flush(&mut self.stats);
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruCache;

    fn read(addr: u64) -> Access {
        Access::read(addr)
    }

    fn cfg(ways: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: u64::from(ways) * 32,
            line_bytes: 32,
            associativity: ways,
        }
    }

    #[test]
    fn hits_on_resident_lines() {
        let mut c = PlruCache::new(cfg(4));
        assert!(!c.access(read(0)));
        assert!(c.access(read(0)));
        assert!(c.access(read(16)));
        let s = c.finish();
        assert_eq!(s.hits, 2);
        assert_eq!(s.fill_misses, 1);
    }

    #[test]
    fn plru_equals_lru_for_two_ways() {
        // With 2 ways tree-PLRU and true LRU are the same policy.
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let trace: Vec<Access> = (0..2000)
            .map(|_| Access::new((next() % 8) * 32, next() % 5 == 0))
            .collect();
        let mut plru = PlruCache::new(cfg(2));
        let mut lru = LruCache::new(cfg(2));
        for &a in &trace {
            assert_eq!(plru.access(a), lru.access(a));
        }
        assert_eq!(plru.finish(), lru.finish());
    }

    #[test]
    fn plru_misses_close_to_lru_for_wider_sets() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let trace: Vec<Access> = (0..20_000).map(|_| read((next() % 24) * 32)).collect();
        let mut plru = PlruCache::new(cfg(16));
        let mut lru = LruCache::new(cfg(16));
        for &a in &trace {
            plru.access(a);
            lru.access(a);
        }
        let (p, l) = (plru.finish(), lru.finish());
        let ratio = p.misses() as f64 / l.misses() as f64;
        assert!(
            (0.8..=1.3).contains(&ratio),
            "plru {} vs lru {} (ratio {ratio})",
            p.misses(),
            l.misses()
        );
    }

    #[test]
    fn victim_walk_covers_all_ways() {
        // Filling a set then repeatedly missing must cycle through
        // victims without panicking and keep exactly `ways` resident.
        let mut c = PlruCache::new(cfg(8));
        for i in 0..64u64 {
            c.access(read(i * 32));
        }
        let s = c.finish();
        assert_eq!(s.fills, 64);
        assert_eq!(s.evictions, 64 - 8);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let _ = PlruCache::new(CacheConfig {
            capacity_bytes: 96,
            line_bytes: 32,
            associativity: 3,
        });
    }
}
