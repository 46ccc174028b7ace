//! Line indexing shared by every replacement policy ([`LruCache`],
//! [`PlruCache`], [`simulate_belady`] and [`classify`]).
//!
//! Three pieces, each paid once per access on the replay path:
//!
//! * [`Geometry`] — the address → line → set split, with the line shift
//!   and set mask (or divisor, for non-power-of-two set counts such as
//!   the full A6000's 12,288 sets) computed once at construction;
//! * [`Ways`] — the residents of [`PlruCache`] and [`simulate_belady`]
//!   as a struct of arrays: one `u64` tag per way with an [`INVALID`]
//!   sentinel (PLRU tags a resident with its line, Belady with the index
//!   of its line's next access), one flag byte (dirty, reused) per way,
//!   each resident kept in the way it was filled into, and per set the
//!   way it touched or filled last. [`Ways::find`] compares that way
//!   before it scans the set: on the `soc-rmat-xl` SpMV trace 72.7% of
//!   Belady's hits land there. PLRU's tree bits live in a parallel array
//!   it owns. [`LruCache`] keeps its own recency-ordered ways instead
//!   (see its docs) and shares only the flag bits and their accounting;
//! * [`LineSet`] / [`LineMap`] — dense over line indices. [`LineSet`]
//!   records first touches (compulsory misses) for [`LruCache`],
//!   [`PlruCache`] and [`classify`]; Belady takes its count from its
//!   first pass instead. [`LineMap`] holds line-keyed `u32` or `u64`
//!   values ([`LineValue`]): Belady's line ordinals, at its next-use
//!   entry width, and the fully-associative twin's `u64` slot in
//!   [`classify`].
//!
//! **Memory bound.** An [`Access`](crate::Access) may carry any address
//! below 2^63, so no table may be sized by the largest line. The dense
//! part of a table covers lines `0..n` (every `ArrayLayout` trace is
//! dense from address 0) and only grows, in power-of-two steps, while its
//! size stays within [`DENSE_BASE_BYTES`] plus [`DENSE_BYTES_PER_LINE`]
//! per distinct line recorded. A line beyond that goes to one
//! open-addressing spill table (Fibonacci hashing, at most 7/8 full, so
//! its capacity stays within about 2.3 slots per line it ever held), and
//! spilled lines migrate into the dense part when it grows over them, so
//! every line lives in exactly one place. A [`LineMap`] may instead be
//! sized once ([`LineMap::with_lines`]) from a source's stated extent
//! ([`TraceSource::extent_hint`](crate::source::TraceSource::extent_hint)),
//! which its caller caps at one line per access: Belady's ordinal table
//! then never grows and never outgrows its next-use array.
//!
//! [`LruCache`]: crate::LruCache
//! [`PlruCache`]: crate::plru::PlruCache
//! [`simulate_belady`]: crate::belady::simulate_belady
//! [`classify`]: crate::classify::classify

use crate::{CacheConfig, CacheStats};

/// Tag of an invalid way, and the empty key of the spill table. Lines
/// are `addr / line_bytes` with `addr < 2^63`, so no real line (and no
/// tag the policies store) reaches it.
pub(crate) const INVALID: u64 = u64::MAX;

/// Dense-table size every table may use regardless of lines recorded.
pub(crate) const DENSE_BASE_BYTES: usize = 64 * 1024;

/// Dense-table bytes allowed per distinct line recorded.
pub(crate) const DENSE_BYTES_PER_LINE: usize = 128;

/// The per-access address split of one cache geometry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    line_bytes: u64,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    sets: u64,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    /// Ways per set.
    pub(crate) assoc: usize,
}

impl Geometry {
    /// Validates `config` (see [`CacheConfig::num_lines`]) and
    /// precomputes its split.
    pub(crate) fn new(config: &CacheConfig) -> Self {
        let lines = config.num_lines();
        let assoc = config.associativity as usize;
        let sets = (lines / assoc) as u64;
        let line_bytes = u64::from(config.line_bytes);
        Geometry {
            line_bytes,
            line_shift: line_bytes
                .is_power_of_two()
                .then(|| line_bytes.trailing_zeros()),
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            assoc,
        }
    }

    /// Total ways across all sets.
    pub(crate) fn lines(&self) -> usize {
        self.sets as usize * self.assoc
    }

    /// Line index of a byte address.
    #[inline]
    pub(crate) fn line(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.line_bytes,
        }
    }

    /// Number of lines that cover addresses `0..end`.
    pub(crate) fn lines_below(&self, end: u64) -> u64 {
        if end == 0 {
            0
        } else {
            self.line(end - 1) + 1
        }
    }

    /// Index of the set holding `line`.
    #[inline]
    pub(crate) fn set(&self, line: u64) -> usize {
        (match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        }) as usize
    }

    /// First way slot of the set holding `line`.
    #[inline]
    pub(crate) fn base(&self, line: u64) -> usize {
        self.set(line) * self.assoc
    }

    /// Line-aligned byte address of `line`.
    pub(crate) fn addr(&self, line: u64) -> u64 {
        line * self.line_bytes
    }
}

/// Way flag: the resident line has been written.
pub(crate) const DIRTY: u8 = 1;
/// Way flag: the resident line has hit since its fill.
pub(crate) const REUSED: u8 = 2;

/// Counts the eviction of a resident with way `flags` (eviction, dead
/// line if never reused, write-back if dirty); returns its dirty flag.
#[inline]
pub(crate) fn count_eviction(stats: &mut CacheStats, flags: u8) -> bool {
    let dirty = flags & DIRTY != 0;
    stats.evictions += 1;
    stats.dead_lines += u64::from(flags & REUSED == 0);
    stats.writebacks += u64::from(dirty);
    dirty
}

/// End-of-run accounting of a resident with way `flags`: a write-back if
/// dirty, a dead line if never reused.
#[inline]
pub(crate) fn count_flush(stats: &mut CacheStats, flags: u8) {
    stats.writebacks += u64::from(flags & DIRTY != 0);
    stats.dead_lines += u64::from(flags & REUSED == 0);
}

/// Resident lines of every set, struct-of-arrays: `tags[s]` is the tag
/// in way slot `s` ([`INVALID`] when empty), `flags[s]` its dirty and
/// reused bits, and `last[k]` the slot set `k` touched or filled last.
/// Set `k` owns slots `k * assoc .. (k + 1) * assoc`.
///
/// A tag is whatever names a resident to its policy, unique within its
/// set: [`PlruCache`] stores the line, [`simulate_belady`] the index of
/// the line's next access. Both fill the first free way and never
/// invalidate one, so the valid ways of a set are always a prefix of it.
#[derive(Debug, Clone)]
pub(crate) struct Ways {
    tags: Vec<u64>,
    flags: Vec<u8>,
    last: Vec<usize>,
    assoc: usize,
}

impl Ways {
    pub(crate) fn new(geometry: &Geometry) -> Self {
        let lines = geometry.lines();
        let assoc = geometry.assoc;
        Ways {
            tags: vec![INVALID; lines],
            flags: vec![0; lines],
            last: (0..lines).step_by(assoc).collect(),
            assoc,
        }
    }

    /// The tags of `set`, way by way.
    #[inline]
    pub(crate) fn set_tags(&self, set: usize) -> &[u64] {
        &self.tags[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Slot of the resident tagged `tag` in `set`, if any. The set's
    /// last-touched way is compared before the set is scanned. The scan
    /// has no early exit: a tag occurs at most once per set, and a
    /// branch-free pass measured faster than `position` on Belady's
    /// scanned hits, which land in any way.
    #[inline]
    pub(crate) fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let last = self.last[set];
        if self.tags[last] == tag {
            return Some(last);
        }
        let mut hit = usize::MAX;
        for (w, &t) in self.set_tags(set).iter().enumerate() {
            if t == tag {
                hit = w;
            }
        }
        (hit != usize::MAX).then(|| set * self.assoc + hit)
    }

    /// First empty slot of `set`; `None` once the set is full (its last
    /// way valid — valid ways form a prefix).
    #[inline]
    pub(crate) fn free_slot(&self, set: usize) -> Option<usize> {
        let tags = self.set_tags(set);
        if tags[self.assoc - 1] != INVALID {
            return None;
        }
        let base = set * self.assoc;
        tags.iter().position(|&t| t == INVALID).map(|w| base + w)
    }

    /// A hit on `slot` of `set`, which becomes the set's last-touched way.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, slot: usize, write: bool) {
        self.flags[slot] |= REUSED | if write { DIRTY } else { 0 };
        self.last[set] = slot;
    }

    /// Replaces the tag of `slot`'s resident.
    #[inline]
    pub(crate) fn retag(&mut self, slot: usize, tag: u64) {
        self.tags[slot] = tag;
    }

    /// Places a resident tagged `tag` in `slot` of `set` as a fresh fill;
    /// the slot becomes the set's last-touched way.
    #[inline]
    pub(crate) fn fill(&mut self, set: usize, slot: usize, tag: u64, write: bool) {
        self.tags[slot] = tag;
        self.flags[slot] = if write { DIRTY } else { 0 };
        self.last[set] = slot;
    }

    /// Counts the eviction of `slot`'s resident (see [`count_eviction`]).
    /// The caller overwrites the slot.
    #[inline]
    pub(crate) fn evict(&self, slot: usize, stats: &mut CacheStats) {
        count_eviction(stats, self.flags[slot]);
    }

    /// End-of-run flush: write-backs for dirty residents, dead lines for
    /// never-reused ones.
    pub(crate) fn flush(&self, stats: &mut CacheStats) {
        for (&tag, &flags) in self.tags.iter().zip(&self.flags) {
            if tag != INVALID {
                count_flush(stats, flags);
            }
        }
    }
}

/// Miss accounting every policy shares: compulsory on first touch, then
/// a fetch (read) or a no-fetch allocation (write), and one fill.
#[inline]
pub(crate) fn count_miss(stats: &mut CacheStats, first_touch: bool, write: bool) {
    stats.compulsory_misses += u64::from(first_touch);
    if write {
        stats.write_alloc_misses += 1;
    } else {
        stats.fill_misses += 1;
    }
    stats.fills += 1;
}

/// Length the dense part of a table (`entry_bytes`-wide entries) should
/// grow to so that it covers entry `need`, or `None` when that would
/// exceed the memory bound for `recorded` distinct lines. Growth is to
/// a power of two at least double the current length, so a table grows
/// (and migrates its spill) at most `log2` times.
fn dense_growth(current: usize, need: u64, recorded: u64, entry_bytes: usize) -> Option<usize> {
    let budget = usize::try_from(recorded)
        .unwrap_or(usize::MAX)
        .saturating_mul(DENSE_BYTES_PER_LINE)
        .saturating_add(DENSE_BASE_BYTES)
        / entry_bytes;
    let need = usize::try_from(need).ok()?.checked_add(1)?;
    let target = need
        .max(current.saturating_mul(2))
        .checked_next_power_of_two()?;
    (target <= budget).then_some(target)
}

/// The set of lines seen so far: a bitmap over lines `0..64 * bits.len()`
/// plus the spill for lines beyond it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineSet {
    bits: Vec<u64>,
    spill: Spill<u64>,
    len: u64,
}

impl LineSet {
    /// Records `line`; `true` when it was not seen before.
    #[inline]
    pub(crate) fn insert(&mut self, line: u64) -> bool {
        let word = usize::try_from(line >> 6).ok();
        if let Some(word) = word.and_then(|w| self.bits.get_mut(w)) {
            let mask = 1u64 << (line & 63);
            if *word & mask != 0 {
                return false;
            }
            *word |= mask;
            self.len += 1;
            return true;
        }
        self.insert_beyond(line)
    }

    /// [`LineSet::insert`] for a line past the bitmap: grow the bitmap
    /// over it if the bound allows, otherwise spill.
    #[cold]
    fn insert_beyond(&mut self, line: u64) -> bool {
        if self.spill.get(line).is_some() {
            return false;
        }
        self.len += 1;
        match dense_growth(self.bits.len(), line >> 6, self.len, 8) {
            Some(words) => {
                self.bits.resize(words, 0);
                let bits = &mut self.bits;
                self.spill.drain_below(words as u64 * 64, |spilled, _| {
                    bits[(spilled >> 6) as usize] |= 1 << (spilled & 63);
                });
                self.bits[(line >> 6) as usize] |= 1 << (line & 63);
            }
            None => {
                self.spill.insert(line, 0);
            }
        }
        true
    }
}

/// A value a [`LineMap`] stores: `u32` or `u64`. The type's maximum,
/// [`LineValue::ABSENT`], marks an absent line and is never stored.
pub(crate) trait LineValue: Copy + Eq + Default + std::fmt::Debug {
    /// The absent marker.
    const ABSENT: Self;
}

impl LineValue for u32 {
    const ABSENT: Self = u32::MAX;
}

impl LineValue for u64 {
    const ABSENT: Self = u64::MAX;
}

/// A line-keyed map of `V` values (below [`LineValue::ABSENT`]): a dense
/// array over lines `0..dense.len()` plus the spill for lines beyond it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineMap<V = u64> {
    dense: Vec<V>,
    spill: Spill<V>,
    len: u64,
}

impl<V: LineValue> LineMap<V> {
    /// An empty map whose dense part covers lines `0..lines` from the
    /// start, allocated once: it grows only for a line at or beyond
    /// `lines`. The caller bounds `lines` (see the module docs).
    pub(crate) fn with_lines(lines: usize) -> Self {
        LineMap {
            dense: vec![V::ABSENT; lines],
            spill: Spill::default(),
            len: 0,
        }
    }

    /// Bytes the map holds: its dense part and its spill, at their
    /// allocated lengths.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let width = std::mem::size_of::<V>();
        let spill = self.spill.keys.capacity() * 8 + self.spill.vals.capacity() * width;
        (self.dense.capacity() * width + spill) as u64
    }

    /// The value stored for `line`.
    #[inline]
    pub(crate) fn get(&self, line: u64) -> Option<V> {
        match usize::try_from(line).ok().and_then(|i| self.dense.get(i)) {
            Some(&v) => (v != V::ABSENT).then_some(v),
            None => self.spill.get(line),
        }
    }

    /// Stores `value` for `line`, returning the previous value.
    #[inline]
    pub(crate) fn replace(&mut self, line: u64, value: V) -> Option<V> {
        debug_assert_ne!(value, V::ABSENT, "ABSENT marks an absent line");
        let index = usize::try_from(line).ok();
        if let Some(slot) = index.and_then(|i| self.dense.get_mut(i)) {
            let old = std::mem::replace(slot, value);
            if old == V::ABSENT {
                self.len += 1;
                return None;
            }
            return Some(old);
        }
        self.replace_beyond(line, value)
    }

    /// [`LineMap::replace`] for a line past the dense array.
    #[cold]
    fn replace_beyond(&mut self, line: u64, value: V) -> Option<V> {
        if let Some(old) = self.spill.insert_existing(line, value) {
            return Some(old);
        }
        self.len += 1;
        match dense_growth(self.dense.len(), line, self.len, std::mem::size_of::<V>()) {
            Some(len) => {
                self.dense.resize(len, V::ABSENT);
                let dense = &mut self.dense;
                self.spill
                    .drain_below(len as u64, |spilled, v| dense[spilled as usize] = v);
                self.dense[line as usize] = value;
            }
            None => {
                self.spill.insert(line, value);
            }
        }
        None
    }
}

/// Open-addressing `u64 → V` table with linear probing and Fibonacci
/// hashing; keys are lines, [`INVALID`] marks an empty slot. The
/// capacity is zero or a power of two of at least 16, and the table is
/// kept at most 7/8 full.
#[derive(Debug, Clone, Default)]
struct Spill<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
}

/// 2^64 / φ: consecutive lines land far apart.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

impl<V: LineValue> Spill<V> {
    fn home(&self, key: u64) -> usize {
        let shift = 64 - self.keys.len().trailing_zeros();
        (key.wrapping_mul(FIBONACCI) >> shift) as usize
    }

    /// Slot holding `key`, or the empty slot ending its probe run.
    /// Requires a non-empty table.
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.keys[i] != key && self.keys[i] != INVALID {
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, key: u64) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let i = self.probe(key);
        (self.keys[i] == key).then(|| self.vals[i])
    }

    /// Overwrites the value of a present `key`, returning the old one;
    /// `None` (and no change) when `key` is absent.
    fn insert_existing(&mut self, key: u64, value: V) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let i = self.probe(key);
        (self.keys[i] == key).then(|| std::mem::replace(&mut self.vals[i], value))
    }

    /// Inserts or overwrites `key`.
    fn insert(&mut self, key: u64, value: V) {
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.rebuild((self.keys.len() * 2).max(16), 0, |_, _| {});
        }
        let i = self.probe(key);
        if self.keys[i] == INVALID {
            self.keys[i] = key;
            self.len += 1;
        }
        self.vals[i] = value;
    }

    /// Moves every entry with a key below `limit` out to `take`.
    fn drain_below(&mut self, limit: u64, take: impl FnMut(u64, V)) {
        if self.len > 0 {
            self.rebuild(self.keys.len(), limit, take);
        }
    }

    /// Re-inserts every entry into a table of `capacity` slots, handing
    /// keys below `limit` to `take` instead.
    fn rebuild(&mut self, capacity: usize, limit: u64, mut take: impl FnMut(u64, V)) {
        let keys = std::mem::take(&mut self.keys);
        let vals = std::mem::take(&mut self.vals);
        self.keys.resize(capacity, INVALID);
        self.vals.resize(capacity, V::ABSENT);
        self.len = 0;
        for (&key, &value) in keys.iter().zip(&vals) {
            if key == INVALID {
                continue;
            }
            if key < limit {
                take(key, value);
            } else {
                let i = self.probe(key);
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_splits_like_division() {
        for config in [
            CacheConfig::a6000(),
            CacheConfig::test_scale(),
            CacheConfig {
                capacity_bytes: 3 * 48 * 2,
                line_bytes: 48,
                associativity: 2,
            },
        ] {
            let g = Geometry::new(&config);
            let line_bytes = u64::from(config.line_bytes);
            let sets = config.num_sets() as u64;
            for addr in [0, 31, 32, 4095, 1 << 40, (1 << 62) + 77, (1 << 63) - 1] {
                let line = addr / line_bytes;
                assert_eq!(g.line(addr), line);
                assert_eq!(g.set(line) as u64, line % sets);
                assert_eq!(g.addr(line), line * line_bytes);
                assert_eq!(g.lines_below(addr), addr.div_ceil(line_bytes));
            }
            assert_eq!(g.lines(), config.num_lines());
        }
    }

    #[test]
    fn geometry_groups_a_line_and_spreads_consecutive_lines() {
        let g = Geometry::new(&CacheConfig::test_scale());
        assert_eq!(g.line(0), g.line(31));
        assert_ne!(g.line(31), g.line(32));
        assert_eq!(g.set(g.line(32)), g.set(g.line(0)) + 1);
        assert_eq!(g.base(g.line(32)), g.assoc);
    }

    #[test]
    fn line_set_reports_first_touch_only() {
        let mut s = LineSet::default();
        let far = (1u64 << 62) + 7;
        let trace = [0, 5, 1 << 20, far, 5, 0, far, (1 << 58) + 3, 1 << 20];
        let first: Vec<bool> = trace.iter().map(|&line| s.insert(line)).collect();
        assert_eq!(
            first,
            [true, true, true, true, false, false, false, true, false]
        );
        assert_eq!(s.len, 5);
    }

    #[test]
    fn line_set_keeps_far_lines_out_of_the_bitmap() {
        let mut s = LineSet::default();
        for k in 0..1000u64 {
            assert!(s.insert((1 << 62) + k * 977));
        }
        let bound = DENSE_BASE_BYTES + 1000 * DENSE_BYTES_PER_LINE;
        assert!(s.bits.len() * 8 <= bound, "bitmap {} words", s.bits.len());
        assert_eq!(s.spill.len, 1000);
        for k in 0..1000u64 {
            assert!(!s.insert((1 << 62) + k * 977));
        }
    }

    #[test]
    fn spilled_lines_migrate_when_the_bitmap_grows() {
        let mut s = LineSet::default();
        // Line 2^22 is beyond the base bitmap (2^19 lines): it spills.
        let far = 1u64 << 22;
        assert!(s.insert(far));
        assert_eq!(s.spill.len, 1);
        // Enough distinct low lines raise the bound past it.
        for line in 0..8000 {
            s.insert(line * 64);
        }
        assert!(s.insert(far + 1));
        assert!(s.bits.len() as u64 * 64 > far + 1);
        assert_eq!(s.spill.len, 0, "spill migrated into the bitmap");
        assert!(!s.insert(far));
        assert!(!s.insert(far + 1));
    }

    /// Replacement, spill and migration of a `V`-valued map.
    fn line_map_replaces_and_migrates_at<V: LineValue + From<u16> + Into<u64>>() {
        let v = V::from;
        let mut m = LineMap::<V>::default();
        assert_eq!(m.replace(3, v(10)), None);
        assert_eq!(m.replace(3, v(11)), Some(v(10)));
        let far = 1u64 << 40;
        assert_eq!(m.replace(far, v(7)), None);
        assert_eq!(m.get(far), Some(v(7)));
        assert_eq!(m.replace(far, v(8)), Some(v(7)));
        assert_eq!(m.get(far + 1), None);
        let mid = 1u64 << 17;
        assert_eq!(m.replace(mid, v(1)), None);
        for line in 0..20_000u16 {
            m.replace(u64::from(line) * 16, v(line));
        }
        assert_eq!(
            m.get(mid).map(Into::into),
            Some(mid / 16),
            "overwritten in place"
        );
        assert_eq!(m.get(far), Some(v(8)));
        assert_eq!(m.spill.get(far), Some(v(8)), "the far line still spills");
        let width = std::mem::size_of::<V>();
        assert!(m.dense.len() * width <= DENSE_BASE_BYTES + m.len as usize * DENSE_BYTES_PER_LINE);
        assert_eq!(m.get(3), Some(v(11)));
        // The empty marker is never returned as a value.
        for line in (0..400_000).chain([far - 1, far + 1, 1 << 62]) {
            assert_ne!(m.get(line), Some(V::ABSENT), "line {line}");
        }
    }

    #[test]
    fn line_map_replaces_and_migrates() {
        line_map_replaces_and_migrates_at::<u64>();
        line_map_replaces_and_migrates_at::<u32>();
    }

    #[test]
    fn a_map_sized_once_covers_its_lines_without_growing() {
        let mut m = LineMap::<u32>::with_lines(1000);
        assert_eq!(m.heap_bytes(), 4000);
        for line in (0..1000).rev() {
            assert_eq!(m.replace(line, line as u32), None);
        }
        assert_eq!(
            (m.dense.len(), m.spill.len),
            (1000, 0),
            "no growth, no spill"
        );
        assert_eq!(m.get(999), Some(999));
        // A line past the stated extent still finds a place.
        assert_eq!(m.replace(1 << 40, 5), None);
        assert_eq!(m.get(1 << 40), Some(5));
        assert_eq!(m.get(1000), None);
    }

    #[test]
    fn spill_survives_growth_and_drain() {
        let mut s = Spill::default();
        for k in 0..500u64 {
            s.insert(k * 1_000_003, k);
        }
        assert_eq!(s.len, 500);
        assert!(s.keys.len() * 7 >= s.len * 8);
        let mut taken = 0;
        s.drain_below(250 * 1_000_003, |k, v| {
            assert_eq!(k, v * 1_000_003);
            taken += 1;
        });
        assert_eq!(taken, 250);
        assert_eq!(s.len, 250);
        for k in 0..500u64 {
            assert_eq!(s.get(k * 1_000_003), (k >= 250).then_some(k));
        }
    }
}
