//! Differential test: the line-indexed LRU (with its end-of-run drain
//! order and the two-level hierarchy built on it), PLRU, Belady and
//! Three-C classifier against a straightforward reference simulator (an
//! array-of-structs `Way` per set, `valid` flags, and `HashSet`/`HashMap`
//! line tables).
//!
//! Random traces mix low addresses with addresses at and above 2^62 and
//! up to the largest one an `Access` can carry, so they also show that
//! no table of the simulator is sized by the largest address.

use std::collections::{HashMap, HashSet};

use commorder_cachesim::belady::simulate_belady;
use commorder_cachesim::classify::{classify, MissClasses};
use commorder_cachesim::hierarchy::{CacheHierarchy, HierarchyStats};
use commorder_cachesim::plru::PlruCache;
use commorder_cachesim::{Access, AccessOutcome, CacheConfig, CacheStats, LruCache};
use commorder_check::propcheck::{run_cases, DEFAULT_CASES};
use commorder_synth::rng::Rng;

/// The simulator as a plain set-associative model.
mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        tag: u64,
        stamp: u64,
        next_use: u64,
        dirty: bool,
        reuses: u32,
        valid: bool,
    }

    fn sets(config: &CacheConfig) -> usize {
        config.num_sets()
    }

    fn split(config: &CacheConfig, addr: u64) -> (usize, u64) {
        let line = addr / u64::from(config.line_bytes);
        ((line % sets(config) as u64) as usize, line)
    }

    fn new_stats(config: &CacheConfig) -> CacheStats {
        CacheStats {
            line_bytes: config.line_bytes,
            ..CacheStats::default()
        }
    }

    fn count_miss(stats: &mut CacheStats, seen: &mut HashSet<u64>, tag: u64, write: bool) {
        if seen.insert(tag) {
            stats.compulsory_misses += 1;
        }
        if write {
            stats.write_alloc_misses += 1;
        } else {
            stats.fill_misses += 1;
        }
        stats.fills += 1;
    }

    fn flush(ways: &[Way], stats: &mut CacheStats) {
        for w in ways.iter().filter(|w| w.valid) {
            stats.writebacks += u64::from(w.dirty);
            stats.dead_lines += u64::from(w.reuses == 0);
        }
    }

    fn evict(w: &Way, stats: &mut CacheStats) {
        stats.evictions += 1;
        stats.dead_lines += u64::from(w.reuses == 0);
        stats.writebacks += u64::from(w.dirty);
    }

    pub(crate) struct Lru {
        config: CacheConfig,
        ways: Vec<Way>,
        stats: CacheStats,
        seen: HashSet<u64>,
        clock: u64,
    }

    impl Lru {
        pub(crate) fn new(config: CacheConfig) -> Self {
            Lru {
                config,
                ways: vec![Way::default(); config.num_lines()],
                stats: new_stats(&config),
                seen: HashSet::new(),
                clock: 0,
            }
        }

        pub(crate) fn access(&mut self, acc: Access) -> AccessOutcome {
            self.clock += 1;
            self.stats.accesses += 1;
            let assoc = self.config.associativity as usize;
            let (set, tag) = split(&self.config, acc.addr());
            let ways = &mut self.ways[set * assoc..(set + 1) * assoc];
            if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.stamp = self.clock;
                w.reuses += 1;
                w.dirty |= acc.is_write();
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    evicted: None,
                };
            }
            count_miss(&mut self.stats, &mut self.seen, tag, acc.is_write());
            let mut evicted = None;
            let victim = match ways.iter().position(|w| !w.valid) {
                Some(i) => i,
                None => {
                    let i = ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.stamp)
                        .expect("associativity > 0")
                        .0;
                    evict(&ways[i], &mut self.stats);
                    evicted = Some((
                        ways[i].tag * u64::from(self.config.line_bytes),
                        ways[i].dirty,
                    ));
                    i
                }
            };
            ways[victim] = Way {
                tag,
                stamp: self.clock,
                dirty: acc.is_write(),
                valid: true,
                ..Way::default()
            };
            AccessOutcome {
                hit: false,
                evicted,
            }
        }

        /// Resident dirty lines in slot order: each fill takes the first
        /// empty way, then the LRU victim's way.
        pub(crate) fn dirty_lines(&self) -> Vec<u64> {
            self.ways
                .iter()
                .filter(|w| w.valid && w.dirty)
                .map(|w| w.tag * u64::from(self.config.line_bytes))
                .collect()
        }

        pub(crate) fn finish(mut self) -> CacheStats {
            flush(&self.ways, &mut self.stats);
            self.stats
        }
    }

    /// An L1 + L2 stack of reference LRUs with the hierarchy's
    /// forwarding: dirty L1 victims are written into L2, L1 read misses
    /// read L2, and at the end L1's dirty lines drain into L2.
    pub(crate) fn hierarchy(l1: CacheConfig, l2: CacheConfig, trace: &[Access]) -> HierarchyStats {
        let mut upper = Lru::new(l1);
        let mut lower = Lru::new(l2);
        for &acc in trace {
            let outcome = upper.access(acc);
            if let Some((addr, true)) = outcome.evicted {
                lower.access(Access::write(addr));
            }
            if !outcome.hit && !acc.is_write() {
                lower.access(acc);
            }
        }
        for addr in upper.dirty_lines() {
            lower.access(Access::write(addr));
        }
        HierarchyStats {
            l1: upper.finish(),
            l2: lower.finish(),
        }
    }

    pub(crate) struct Plru {
        config: CacheConfig,
        ways: Vec<Way>,
        tree: Vec<bool>,
        stats: CacheStats,
        seen: HashSet<u64>,
    }

    impl Plru {
        pub(crate) fn new(config: CacheConfig) -> Self {
            let assoc = config.associativity as usize;
            Plru {
                config,
                ways: vec![Way::default(); config.num_lines()],
                tree: vec![false; sets(&config) * (assoc - 1).max(1)],
                stats: new_stats(&config),
                seen: HashSet::new(),
            }
        }

        fn victim_of(&self, set: usize) -> usize {
            let assoc = self.config.associativity as usize;
            if assoc == 1 {
                return 0;
            }
            let bits = &self.tree[set * (assoc - 1)..(set + 1) * (assoc - 1)];
            let mut node = 0;
            loop {
                let child = 2 * node + 1 + usize::from(bits[node]);
                if child >= assoc - 1 {
                    return child - (assoc - 1);
                }
                node = child;
            }
        }

        fn touch(&mut self, set: usize, way: usize) {
            let assoc = self.config.associativity as usize;
            if assoc == 1 {
                return;
            }
            let base = set * (assoc - 1);
            let mut node = way + (assoc - 1);
            while node > 0 {
                let parent = (node - 1) / 2;
                self.tree[base + parent] = node != 2 * parent + 2;
                node = parent;
            }
        }

        pub(crate) fn access(&mut self, acc: Access) -> bool {
            self.stats.accesses += 1;
            let assoc = self.config.associativity as usize;
            let (set, tag) = split(&self.config, acc.addr());
            let base = set * assoc;
            if let Some(w) =
                (0..assoc).find(|&w| self.ways[base + w].valid && self.ways[base + w].tag == tag)
            {
                let slot = &mut self.ways[base + w];
                slot.reuses += 1;
                slot.dirty |= acc.is_write();
                self.stats.hits += 1;
                self.touch(set, w);
                return true;
            }
            count_miss(&mut self.stats, &mut self.seen, tag, acc.is_write());
            let w = match (0..assoc).find(|&w| !self.ways[base + w].valid) {
                Some(w) => w,
                None => {
                    let w = self.victim_of(set);
                    evict(&self.ways[base + w], &mut self.stats);
                    w
                }
            };
            self.ways[base + w] = Way {
                tag,
                dirty: acc.is_write(),
                valid: true,
                ..Way::default()
            };
            self.touch(set, w);
            false
        }

        pub(crate) fn finish(mut self) -> CacheStats {
            flush(&self.ways, &mut self.stats);
            self.stats
        }
    }

    pub(crate) fn belady(config: CacheConfig, trace: &[Access]) -> CacheStats {
        const NEVER: u64 = u64::MAX;
        let mut next = vec![NEVER; trace.len()];
        let mut last_seen: HashMap<u64, usize> = HashMap::new();
        for (i, acc) in trace.iter().enumerate() {
            let (_, tag) = split(&config, acc.addr());
            if let Some(prev) = last_seen.insert(tag, i) {
                next[prev] = i as u64;
            }
        }
        let assoc = config.associativity as usize;
        let mut ways = vec![
            Way {
                next_use: NEVER,
                ..Way::default()
            };
            config.num_lines()
        ];
        let mut stats = new_stats(&config);
        let mut seen = HashSet::new();
        for (acc, &ni) in trace.iter().zip(&next) {
            stats.accesses += 1;
            let (set, tag) = split(&config, acc.addr());
            let slice = &mut ways[set * assoc..(set + 1) * assoc];
            if let Some(w) = slice.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.next_use = ni;
                w.reuses += 1;
                w.dirty |= acc.is_write();
                stats.hits += 1;
                continue;
            }
            count_miss(&mut stats, &mut seen, tag, acc.is_write());
            let victim = match slice.iter().position(|w| !w.valid) {
                Some(i) => i,
                None => {
                    let i = slice
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, w)| w.next_use)
                        .expect("associativity > 0")
                        .0;
                    if ni >= slice[i].next_use {
                        stats.evictions += 1;
                        stats.dead_lines += u64::from(ni == NEVER);
                        stats.writebacks += u64::from(acc.is_write());
                        continue;
                    }
                    evict(&slice[i], &mut stats);
                    i
                }
            };
            slice[victim] = Way {
                tag,
                next_use: ni,
                dirty: acc.is_write(),
                valid: true,
                ..Way::default()
            };
        }
        flush(&ways, &mut stats);
        stats
    }

    pub(crate) fn classify(config: CacheConfig, trace: &[Access]) -> MissClasses {
        let mut set_assoc = Lru::new(config);
        // Fully-associative LRU: most recent at the back.
        let mut recency: Vec<u64> = Vec::new();
        let capacity = config.num_lines();
        let mut seen = HashSet::new();
        let mut out = MissClasses::default();
        for &acc in trace {
            out.accesses += 1;
            let line = acc.addr() / u64::from(config.line_bytes);
            let sa_hit = set_assoc.access(acc).hit;
            let fa_hit = match recency.iter().position(|&l| l == line) {
                Some(pos) => {
                    recency.remove(pos);
                    true
                }
                None => {
                    if recency.len() == capacity {
                        recency.remove(0);
                    }
                    false
                }
            };
            recency.push(line);
            if sa_hit {
                out.hits += 1;
            } else if seen.insert(line) {
                out.compulsory += 1;
            } else if fa_hit {
                out.conflict += 1;
            } else {
                out.capacity += 1;
            }
        }
        out
    }
}

/// Geometries covering associativity 1, 2 and 16, power-of-two and
/// non-power-of-two set counts, and 32-, 48- and 64-byte lines.
fn configs() -> Vec<CacheConfig> {
    let mut out = Vec::new();
    for line_bytes in [32u32, 64, 48] {
        for associativity in [1u32, 2, 16] {
            for sets in [1u64, 3, 4, 6, 8] {
                out.push(CacheConfig {
                    capacity_bytes: sets * u64::from(associativity) * u64::from(line_bytes),
                    line_bytes,
                    associativity,
                });
            }
        }
    }
    out
}

/// A random trace over four line families: low lines, a mid band past
/// the simulator's initial dense tables, lines at 2^62 and the top of
/// the address space. `pool` lines per family keep reuse frequent.
fn arb_trace(rng: &mut Rng, line_bytes: u32, pool: u64) -> Vec<Access> {
    let lb = u64::from(line_bytes);
    let top_line = ((1u64 << 63) - 1) / lb;
    let len = 1 + rng.gen_range(1500) as usize;
    (0..len)
        .map(|_| {
            let k = rng.gen_range(pool);
            let line = match rng.gen_range(8) {
                0..=3 => k,
                4 => 9000 + k * 37,
                5 | 6 => (1u64 << 62) / lb + k,
                _ => top_line - k % 4,
            };
            let addr = line * lb + rng.gen_range(lb);
            Access::new(addr.min((1u64 << 63) - 1), rng.gen_bool(0.3))
        })
        .collect()
}

fn assert_all_policies_match(config: CacheConfig, trace: &[Access]) {
    let mut lru = LruCache::new(config);
    let mut lru_ref = reference::Lru::new(config);
    for (i, &acc) in trace.iter().enumerate() {
        assert_eq!(
            lru.access_detailed(acc),
            lru_ref.access(acc),
            "LRU outcome of access {i} ({acc:?}) on {config:?}"
        );
    }
    assert_eq!(
        lru.dirty_lines(),
        lru_ref.dirty_lines(),
        "LRU drain order on {config:?}"
    );
    assert_eq!(lru.finish(), lru_ref.finish(), "LRU stats on {config:?}");

    if config.associativity.is_power_of_two() {
        let mut plru = PlruCache::new(config);
        let mut plru_ref = reference::Plru::new(config);
        for (i, &acc) in trace.iter().enumerate() {
            assert_eq!(
                plru.access(acc),
                plru_ref.access(acc),
                "PLRU outcome of access {i} on {config:?}"
            );
        }
        assert_eq!(plru.finish(), plru_ref.finish(), "PLRU stats on {config:?}");
    }

    assert_eq!(
        simulate_belady(config, trace),
        reference::belady(config, trace),
        "Belady stats on {config:?}"
    );
    assert_eq!(
        classify(config, trace),
        reference::classify(config, trace),
        "miss classes on {config:?}"
    );
}

#[test]
fn every_policy_matches_the_reference_on_random_traces() {
    for config in configs() {
        let lines = config.num_lines() as u64;
        let name = format!(
            "reference-{}b-{}w-{}s",
            config.line_bytes,
            config.associativity,
            config.num_sets()
        );
        run_cases(&name, DEFAULT_CASES / 4, |rng| {
            let pool = 1 + rng.gen_range(3 * lines);
            let trace = arb_trace(rng, config.line_bytes, pool);
            assert_all_policies_match(config, &trace);
        });
    }
}

#[test]
fn hierarchy_matches_a_stack_of_reference_lrus() {
    // Each geometry of `configs()` as the L1 over a larger L2 with the
    // same line size: the drain at the end forwards L1's dirty lines in
    // fill-slot order, so it also pins that order.
    for l1 in configs() {
        let l2 = CacheConfig {
            capacity_bytes: l1.capacity_bytes * 4,
            associativity: 4,
            ..l1
        };
        let name = format!(
            "reference-hierarchy-{}b-{}w-{}s",
            l1.line_bytes,
            l1.associativity,
            l1.num_sets()
        );
        run_cases(&name, DEFAULT_CASES / 8, |rng| {
            let pool = 1 + rng.gen_range(6 * l1.num_lines() as u64);
            let trace = arb_trace(rng, l1.line_bytes, pool);
            let mut h = CacheHierarchy::new(l1, l2);
            for &acc in &trace {
                h.access(acc);
            }
            assert_eq!(
                h.finish(),
                reference::hierarchy(l1, l2, &trace),
                "hierarchy stats for L1 {l1:?}"
            );
        });
    }
}

#[test]
fn full_a6000_geometry_matches_the_reference() {
    // 12,288 sets: the set index is a division, not a mask. A pool of a
    // few sets' worth of lines per set keeps evictions frequent.
    let config = CacheConfig::a6000();
    run_cases("reference-a6000", 4, |rng| {
        let trace: Vec<Access> = (0..20_000)
            .map(|_| {
                let set = rng.gen_range(8);
                let round = rng.gen_range(24);
                let line = set + round * 12_288 + rng.gen_range(2) * (1u64 << 57);
                Access::new(line * 32 + rng.gen_range(32), rng.gen_bool(0.3))
            })
            .collect();
        assert_all_policies_match(config, &trace);
    });
}

#[test]
fn a_few_lines_at_high_addresses_match_the_reference() {
    let config = CacheConfig {
        capacity_bytes: 4 * 2 * 32,
        line_bytes: 32,
        associativity: 2,
    };
    let mut trace = Vec::new();
    for round in 0..20u64 {
        for k in 0..6u64 {
            let addr = (1u64 << 62) + k * 4 * 32 + (round % 3) * 8;
            trace.push(Access::new(addr, round % 4 == 0));
        }
        trace.push(Access::read((1u64 << 63) - 1));
        trace.push(Access::write((1u64 << 63) - 32 * (round % 2) - 1));
    }
    assert_all_policies_match(config, &trace);
    let stats = simulate_belady(config, &trace);
    assert_eq!(stats.compulsory_misses, 8);
    assert_eq!(stats.accesses, trace.len() as u64);
}

#[test]
fn lines_past_the_initial_tables_match_the_reference() {
    // Lines 600,000+ lie past the first-touch bitmap's reach while few
    // lines are recorded, so their first touches spill. After the low
    // sweep, line 700,000 grows the bitmap over them (migrating the
    // spill), and the revisits must still count as seen.
    let config = CacheConfig {
        capacity_bytes: 4 * 2 * 32,
        line_bytes: 32,
        associativity: 2,
    };
    let far: Vec<Access> = (0..50u64)
        .map(|k| Access::read((600_000 + k * 1_000) * 32))
        .collect();
    let mut trace = far.clone();
    trace.extend((0..3_000u64).map(|line| Access::new(line * 32, line % 5 == 0)));
    trace.push(Access::read(700_000 * 32));
    trace.extend(far);
    assert_all_policies_match(config, &trace);
    assert_eq!(simulate_belady(config, &trace).compulsory_misses, 3_051);
}

#[test]
fn dense_low_traces_match_the_reference() {
    // Every line below a bound, first touches in scrambled order: the
    // dense tables grow over lines the spill already holds.
    let config = CacheConfig {
        capacity_bytes: 8 * 4 * 32,
        line_bytes: 32,
        associativity: 4,
    };
    run_cases("reference-dense-low", 8, |rng| {
        let span = 1 + rng.gen_range(40_000);
        let mut trace: Vec<Access> = (0..span).map(|l| Access::read(l * 32)).collect();
        rng.shuffle(&mut trace);
        let extra: Vec<Access> = (0..2000)
            .map(|_| Access::new(rng.gen_range(span) * 32, rng.gen_bool(0.2)))
            .collect();
        trace.extend(extra);
        assert_all_policies_match(config, &trace);
    });
}
