//! Counter export: publishes [`CacheStats`] and
//! [`classify::MissClasses`](crate::classify::MissClasses) totals to the
//! `commorder-obs` dispatcher under the declared `cachesim.*` metric
//! names.
//!
//! Simulation code stays telemetry-free; callers that own a finished
//! stats struct (the pipeline, analysis binaries) call these exporters
//! once per simulation. Both are no-ops while telemetry is disabled.

use commorder_obs as obs;

use crate::classify::MissClasses;
use crate::CacheStats;

/// Publishes one finished simulation's [`CacheStats`] as `cachesim.*`
/// counters (accesses, hits, fill/write-alloc/compulsory misses,
/// evictions, dead lines, write-backs, fills, and DRAM bytes).
pub fn record_cache_stats(stats: &CacheStats) {
    if !obs::enabled() {
        return;
    }
    obs::counter!("cachesim.accesses", stats.accesses);
    obs::counter!("cachesim.hits", stats.hits);
    obs::counter!("cachesim.fill_misses", stats.fill_misses);
    obs::counter!("cachesim.write_alloc_misses", stats.write_alloc_misses);
    obs::counter!("cachesim.compulsory_misses", stats.compulsory_misses);
    obs::counter!("cachesim.evictions", stats.evictions);
    obs::counter!("cachesim.dead_lines", stats.dead_lines);
    obs::counter!("cachesim.writebacks", stats.writebacks);
    obs::counter!("cachesim.fills", stats.fills);
    obs::counter!("cachesim.dram_bytes", stats.dram_traffic_bytes());
}

/// Publishes a Three-C classification as `cachesim.miss.*` counters.
pub fn record_miss_classes(classes: &MissClasses) {
    if !obs::enabled() {
        return;
    }
    obs::counter!("cachesim.miss.compulsory", classes.compulsory);
    obs::counter!("cachesim.miss.capacity", classes.capacity);
    obs::counter!("cachesim.miss.conflict", classes.conflict);
}

/// Publishes the peak per-trace buffer footprint of one simulation as
/// the `cachesim.trace.peak_bytes` gauge.
///
/// The two-pass Belady oracle reports what its first pass holds: the
/// compact next-use array (≤ 8 bytes per access) and its line table
/// (`tests/trace_peak.rs` pins the bound). Streaming LRU/PLRU consumers
/// hold no per-access state and record nothing.
pub fn record_trace_peak_bytes(bytes: u64) {
    if !obs::enabled() {
        return;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        obs::gauge!("cachesim.trace.peak_bytes", bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // The only telemetry-installing test in this binary (the obs
    // dispatcher is process-global).
    #[test]
    fn exporters_publish_declared_counters() {
        let _serial = obs::tests_serial();
        let registry = Arc::new(obs::Registry::new());

        // Disabled: exporting must be a silent no-op.
        record_cache_stats(&CacheStats::default());

        let _guard = obs::install(registry.clone());
        let stats = CacheStats {
            accesses: 10,
            hits: 6,
            fill_misses: 3,
            write_alloc_misses: 1,
            compulsory_misses: 4,
            evictions: 2,
            dead_lines: 1,
            writebacks: 2,
            fills: 4,
            line_bytes: 32,
        };
        record_cache_stats(&stats);
        record_miss_classes(&MissClasses {
            accesses: 10,
            hits: 6,
            compulsory: 4,
            capacity: 0,
            conflict: 0,
        });
        assert_eq!(registry.counter("cachesim.accesses"), 10);
        assert_eq!(registry.counter("cachesim.hits"), 6);
        assert_eq!(registry.counter("cachesim.dram_bytes"), (3 + 2) * 32);
        assert_eq!(registry.counter("cachesim.miss.compulsory"), 4);
        assert_eq!(registry.counter("cachesim.miss.conflict"), 0);
        // Every exported name is declared in the obs metric registry.
        for (name, _) in [
            ("cachesim.accesses", 0u64),
            ("cachesim.dram_bytes", 0),
            ("cachesim.miss.capacity", 0),
        ] {
            assert!(obs::names::lookup(name).is_some(), "{name} undeclared");
        }
    }
}
