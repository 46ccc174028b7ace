//! Three-C miss classification (Hill & Smith \[22\], the paper's citation
//! for compulsory misses): **compulsory** (first touch), **capacity**
//! (would also miss in a fully-associative LRU cache of equal size), and
//! **conflict** (hits fully-associative but misses set-associative).
//!
//! The paper only needs the compulsory class (its traffic floor); this
//! module adds the capacity/conflict split as an analysis tool — e.g.
//! checking that reordering's wins come from shrinking the *working set*
//! (capacity misses) rather than from accidental set-index effects.

use crate::lines::{Geometry, LineMap, LineSet, INVALID};
use crate::source::TraceSource;
use crate::{CacheConfig, LruCache};

/// Miss counts by Three-C class, plus totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissClasses {
    /// Accesses observed.
    pub accesses: u64,
    /// Hits in the set-associative cache.
    pub hits: u64,
    /// First-touch misses.
    pub compulsory: u64,
    /// Misses the fully-associative cache also takes (beyond compulsory).
    pub capacity: u64,
    /// Misses only the set-associative cache takes.
    pub conflict: u64,
}

impl MissClasses {
    /// Total misses across the three classes.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }
}

/// End of the recency list.
const NIL: usize = usize::MAX;

/// Fully-associative LRU of `capacity` lines: a doubly linked recency
/// list over line slots plus a line → slot index. Index entries of
/// evicted lines are left stale and caught by checking the slot's line.
struct FullyAssociative {
    /// Resident line per slot (`INVALID` until first filled).
    lines: Vec<u64>,
    /// Neighbour toward the least recently used end.
    older: Vec<usize>,
    /// Neighbour toward the most recently used end.
    newer: Vec<usize>,
    /// Least recently used slot.
    lru: usize,
    /// Most recently used slot.
    mru: usize,
    /// Slots filled so far.
    filled: usize,
    slot_of: LineMap,
}

impl FullyAssociative {
    fn new(capacity: usize) -> Self {
        FullyAssociative {
            lines: vec![INVALID; capacity],
            older: vec![NIL; capacity],
            newer: vec![NIL; capacity],
            lru: NIL,
            mru: NIL,
            filled: 0,
            slot_of: LineMap::default(),
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (older, newer) = (self.older[slot], self.newer[slot]);
        match older {
            NIL => self.lru = newer,
            o => self.newer[o] = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.older[n] = older,
        }
    }

    fn push_mru(&mut self, slot: usize) {
        self.older[slot] = self.mru;
        self.newer[slot] = NIL;
        match self.mru {
            NIL => self.lru = slot,
            m => self.newer[m] = slot,
        }
        self.mru = slot;
    }

    /// Returns `true` on hit.
    fn access(&mut self, line: u64) -> bool {
        if let Some(slot) = self.slot_of.get(line) {
            let slot = slot as usize;
            if self.lines[slot] == line {
                self.unlink(slot);
                self.push_mru(slot);
                return true;
            }
        }
        let slot = if self.filled < self.lines.len() {
            self.filled += 1;
            self.filled - 1
        } else {
            let victim = self.lru;
            self.unlink(victim);
            victim
        };
        self.lines[slot] = line;
        self.push_mru(slot);
        self.slot_of.replace(line, slot as u64);
        false
    }
}

/// Classifies every miss of `source`'s stream on the given geometry
/// (single forward replay; nothing is buffered).
///
/// # Panics
///
/// Panics on a degenerate geometry (see [`CacheConfig::num_lines`]).
#[must_use]
pub fn classify<S: TraceSource + ?Sized>(config: CacheConfig, source: &S) -> MissClasses {
    let geometry = Geometry::new(&config);
    let mut set_assoc = LruCache::new(config);
    let mut full = FullyAssociative::new(geometry.lines());
    let mut seen = LineSet::default();
    let mut out = MissClasses::default();
    source.replay(&mut |acc| {
        out.accesses += 1;
        let line = geometry.line(acc.addr());
        let sa_hit = set_assoc.access(acc);
        let fa_hit = full.access(line);
        if sa_hit {
            out.hits += 1;
            return;
        }
        if seen.insert(line) {
            out.compulsory += 1;
        } else if fa_hit {
            out.conflict += 1;
        } else {
            out.capacity += 1;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Access;

    fn read(line: u64) -> Access {
        Access::read(line * 32)
    }

    fn cfg(sets: u64, ways: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: sets * u64::from(ways) * 32,
            line_bytes: 32,
            associativity: ways,
        }
    }

    #[test]
    fn streaming_is_pure_compulsory() {
        let trace: Vec<Access> = (0..64).map(read).collect();
        let c = classify(cfg(2, 2), &trace);
        assert_eq!(c.compulsory, 64);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn cyclic_overflow_is_capacity() {
        // 8 distinct lines cycled through a 4-line cache: every revisit
        // misses in both organizations.
        let mut trace = Vec::new();
        for _ in 0..5 {
            for l in 0..8 {
                trace.push(read(l));
            }
        }
        let c = classify(cfg(1, 4), &trace); // fully-assoc 4 lines
        assert_eq!(c.compulsory, 8);
        assert_eq!(c.conflict, 0);
        assert_eq!(c.capacity, 32);
    }

    #[test]
    fn same_set_collisions_are_conflict() {
        // 2 sets x 1 way (direct mapped, 2 lines). Lines 0 and 2 collide
        // in set 0 while the fully-associative twin (2 lines) holds both.
        let trace = vec![read(0), read(2), read(0), read(2), read(0)];
        let c = classify(cfg(2, 1), &trace);
        assert_eq!(c.compulsory, 2);
        assert_eq!(c.conflict, 3);
        assert_eq!(c.capacity, 0);
    }

    #[test]
    fn classes_partition_the_misses() {
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let trace: Vec<Access> = (0..3000).map(|_| read(next() % 64)).collect();
        let config = cfg(4, 2);
        let c = classify(config, &trace);
        // Cross-check totals against a plain LRU run.
        let mut lru = LruCache::new(config);
        for &a in &trace {
            lru.access(a);
        }
        let stats = lru.finish();
        assert_eq!(c.misses(), stats.misses());
        assert_eq!(c.hits, stats.hits);
        assert_eq!(c.compulsory, stats.compulsory_misses);
        assert_eq!(c.accesses, 3000);
    }
}
