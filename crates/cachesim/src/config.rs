/// Geometry of the simulated last-level cache.
///
/// The A6000's L2 serves 32-byte sectors; the simulator models one sector
/// as one line. Associativity follows typical GPU L2 banking (16-way).
///
/// # Example
///
/// ```
/// use commorder_cachesim::CacheConfig;
///
/// let full = CacheConfig::a6000();
/// assert_eq!(full.capacity_bytes, 6 * 1024 * 1024);
/// assert_eq!(full.num_lines(), full.num_sets() * full.associativity as usize);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line (sector) size in bytes.
    pub line_bytes: u32,
    /// Ways per set.
    pub associativity: u32,
}

impl CacheConfig {
    /// The NVIDIA A6000 L2: 6 MB, 32 B sectors, 16-way (Table I).
    #[must_use]
    pub fn a6000() -> Self {
        CacheConfig {
            capacity_bytes: 6 * 1024 * 1024,
            line_bytes: 32,
            associativity: 16,
        }
    }

    /// The scaled-down A6000 L2 the synthetic corpus is calibrated
    /// against: 6 MB / 48 = 128 KiB (see `commorder-synth::corpus` for
    /// the scaling argument).
    #[must_use]
    pub fn a6000_scaled() -> Self {
        CacheConfig {
            capacity_bytes: 128 * 1024,
            line_bytes: 32,
            associativity: 16,
        }
    }

    /// A tiny 8 KiB cache for unit tests and the mini corpus.
    #[must_use]
    pub fn test_scale() -> Self {
        CacheConfig {
            capacity_bytes: 8 * 1024,
            line_bytes: 32,
            associativity: 16,
        }
    }

    /// Number of cache lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero line size, capacity not
    /// a multiple of `line_bytes * associativity`).
    #[must_use]
    pub fn num_lines(&self) -> usize {
        assert!(self.line_bytes > 0, "line size must be positive");
        assert!(self.associativity > 0, "associativity must be positive");
        assert_eq!(
            self.capacity_bytes % u64::from(self.line_bytes * self.associativity),
            0,
            "capacity must be a whole number of sets"
        );
        (self.capacity_bytes / u64::from(self.line_bytes)) as usize
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// See [`CacheConfig::num_lines`].
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.associativity as usize
    }
}

impl Default for CacheConfig {
    /// Defaults to the scaled A6000 configuration used across the
    /// reproduction experiments.
    fn default() -> Self {
        CacheConfig::a6000_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a6000_geometry() {
        let c = CacheConfig::a6000();
        assert_eq!(c.num_lines(), 6 * 1024 * 1024 / 32);
        assert_eq!(c.num_sets(), 6 * 1024 * 1024 / 32 / 16);
        // Every stock geometry is a positive number of whole sets of
        // power-of-two lines.
        for c in [c, CacheConfig::a6000_scaled(), CacheConfig::test_scale()] {
            assert!(c.line_bytes.is_power_of_two(), "{c:?}");
            assert!(c.associativity > 0 && c.capacity_bytes > 0, "{c:?}");
            let set_bytes = u64::from(c.line_bytes) * u64::from(c.associativity);
            assert!(c.capacity_bytes.is_multiple_of(set_bytes), "{c:?}");
        }
    }

    #[test]
    fn scaled_is_exactly_48x_smaller() {
        assert_eq!(
            CacheConfig::a6000().capacity_bytes,
            CacheConfig::a6000_scaled().capacity_bytes * 48
        );
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn rejects_ragged_capacity() {
        let _ = CacheConfig {
            capacity_bytes: 1000,
            line_bytes: 32,
            associativity: 16,
        }
        .num_lines();
    }
}
