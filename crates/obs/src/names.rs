//! The metric-name registry.
//!
//! Counter/gauge/histogram names are declared here, once, so that the
//! `CHK09xx` telemetry validators in `commorder-check` can flag typos
//! and undeclared metrics in emitted JSONL streams, and so `profile`
//! output can attach a one-line meaning to every number. A published
//! name never changes meaning: a retired metric loses its row, and its
//! name is never reused.

/// How a metric aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum of non-negative deltas.
    Counter,
    /// Point-in-time sample; last write wins.
    Gauge,
    /// Distribution of raw observations (power-of-two buckets in the
    /// registry sink).
    Histogram,
}

impl MetricKind {
    /// Lowercase stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registry row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricInfo {
    /// The stable metric name, e.g. `cachesim.hits`.
    pub name: &'static str,
    /// How the metric aggregates.
    pub kind: MetricKind,
    /// Measurement unit of the recorded value (e.g. `seconds`, `bytes`).
    /// Mandatory for histograms — percentile exports are meaningless
    /// without one (enforced statically by `commorder-analyze` rule
    /// XT0605).
    pub unit: &'static str,
    /// One-line meaning.
    pub help: &'static str,
}

/// Every declared metric, in name order.
pub const METRICS: &[MetricInfo] = &[
    MetricInfo {
        name: "cachesim.accesses",
        kind: MetricKind::Counter,
        unit: "accesses",
        help: "cache accesses simulated",
    },
    MetricInfo {
        name: "cachesim.compulsory_misses",
        kind: MetricKind::Counter,
        unit: "misses",
        help: "first-touch (compulsory) misses",
    },
    MetricInfo {
        name: "cachesim.dead_lines",
        kind: MetricKind::Counter,
        unit: "lines",
        help: "lines evicted or flushed without a single reuse",
    },
    MetricInfo {
        name: "cachesim.dram_bytes",
        kind: MetricKind::Counter,
        unit: "bytes",
        help: "simulated DRAM traffic in bytes (fills + write-backs)",
    },
    MetricInfo {
        name: "cachesim.evictions",
        kind: MetricKind::Counter,
        unit: "lines",
        help: "lines evicted to make room",
    },
    MetricInfo {
        name: "cachesim.fill_misses",
        kind: MetricKind::Counter,
        unit: "misses",
        help: "read misses that fetched a line from DRAM",
    },
    MetricInfo {
        name: "cachesim.fills",
        kind: MetricKind::Counter,
        unit: "lines",
        help: "lines filled or allocated",
    },
    MetricInfo {
        name: "cachesim.hits",
        kind: MetricKind::Counter,
        unit: "accesses",
        help: "cache hits",
    },
    MetricInfo {
        name: "cachesim.miss.capacity",
        kind: MetricKind::Counter,
        unit: "misses",
        help: "Three-C capacity misses (classify runs only)",
    },
    MetricInfo {
        name: "cachesim.miss.compulsory",
        kind: MetricKind::Counter,
        unit: "misses",
        help: "Three-C compulsory misses (classify runs only)",
    },
    MetricInfo {
        name: "cachesim.miss.conflict",
        kind: MetricKind::Counter,
        unit: "misses",
        help: "Three-C conflict misses (classify runs only)",
    },
    MetricInfo {
        name: "cachesim.trace.peak_bytes",
        kind: MetricKind::Gauge,
        unit: "bytes",
        help: "peak per-trace buffer bytes of the last simulation (0 for streaming LRU)",
    },
    MetricInfo {
        name: "cachesim.write_alloc_misses",
        kind: MetricKind::Counter,
        unit: "misses",
        help: "write misses allocated without fetch",
    },
    MetricInfo {
        name: "cachesim.writebacks",
        kind: MetricKind::Counter,
        unit: "lines",
        help: "dirty lines written back to DRAM",
    },
    MetricInfo {
        name: "exec.jobs",
        kind: MetricKind::Counter,
        unit: "jobs",
        help: "jobs executed by the engine",
    },
    MetricInfo {
        name: "exec.queue_wait_seconds",
        kind: MetricKind::Histogram,
        unit: "seconds",
        help: "per-job seconds between batch submission and job start",
    },
    MetricInfo {
        name: "exec.utilization",
        kind: MetricKind::Gauge,
        unit: "ratio",
        help: "busy_seconds / (threads * wall_seconds) of the last batch",
    },
    MetricInfo {
        name: "grid.cells",
        kind: MetricKind::Counter,
        unit: "cells",
        help: "experiment grid cells simulated",
    },
    MetricInfo {
        name: "pipeline.spgemm_acc_peak",
        kind: MetricKind::Gauge,
        unit: "elements",
        help: "peak SpGEMM accumulator footprint (distinct result columns) of the last simulated execution block",
    },
    MetricInfo {
        name: "reorder.community.merges",
        kind: MetricKind::Counter,
        unit: "merges",
        help: "aggregate merges performed during community detection",
    },
    MetricInfo {
        name: "reorder.community.passes",
        kind: MetricKind::Counter,
        unit: "sweeps",
        help: "global aggregation sweeps performed during community detection",
    },
];

/// Looks up a metric's registry row; `None` for undeclared names.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricInfo> {
    METRICS
        .binary_search_by(|info| info.name.cmp(name))
        .ok()
        .map(|i| &METRICS[i])
}

/// One span-registry row.
///
/// Spans are declared separately from metrics because they never
/// aggregate: a span name keys timed scopes in the JSONL stream, so
/// the only invariant is that every `span!` call site uses a declared
/// name (enforced statically by `commorder-analyze` rule XT0601 and
/// dynamically by the `CHK09xx` validators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanInfo {
    /// The stable span name, e.g. `pipeline.simulate`.
    pub name: &'static str,
    /// One-line meaning.
    pub help: &'static str,
}

/// Every declared span, in name order.
pub const SPANS: &[SpanInfo] = &[
    SpanInfo {
        name: "community.detect",
        help: "full community-detection run over one matrix",
    },
    SpanInfo {
        name: "community.pass",
        help: "one aggregation sweep inside community detection",
    },
    SpanInfo {
        name: "community.symmetrize",
        help: "symmetrizing the input and dropping self-loops ahead of community detection",
    },
    SpanInfo {
        name: "exec.job",
        help: "one job executed by the engine",
    },
    SpanInfo {
        name: "grid.cell",
        help: "one experiment-grid cell (matrix x technique x config)",
    },
    SpanInfo {
        name: "grid.detect",
        help: "the one community detection a grid job shares among the rabbit-family techniques of its matrix",
    },
    SpanInfo {
        name: "grid.job",
        help: "one grid job from dispatch to result",
    },
    SpanInfo {
        name: "grid.permute",
        help: "applying a computed permutation inside a grid job",
    },
    SpanInfo {
        name: "grid.reorder",
        help: "computing a reordering inside a grid job",
    },
    SpanInfo {
        name: "pipeline.model",
        help: "analytic cost-model stage of the pipeline",
    },
    SpanInfo {
        name: "pipeline.simulate",
        help: "cache-simulation stage of the pipeline",
    },
    SpanInfo {
        name: "pipeline.spgemm",
        help: "SpGEMM two-operand simulation (trace + cache + model)",
    },
    SpanInfo {
        name: "pipeline.trace_gen",
        help: "trace-generation stage of the pipeline",
    },
    SpanInfo {
        name: "rabbit.order",
        help: "hierarchy flattening inside rabbit ordering",
    },
    SpanInfo {
        name: "rabbitpp.group",
        help: "hub masking and the stable hub/insular/rest segment partition of the rabbit order",
    },
    SpanInfo {
        name: "rabbitpp.insular",
        help: "insular-node scan over the rabbit community assignment",
    },
    SpanInfo {
        name: "reorder.boba",
        help: "full boba first-touch reordering over one matrix",
    },
    SpanInfo {
        name: "reorder.rabbit",
        help: "full rabbit-order run over one matrix",
    },
    SpanInfo {
        name: "reorder.rabbitpp",
        help: "full rabbit++ run over one matrix: rabbit, insular scan and grouping",
    },
    SpanInfo {
        name: "suite",
        help: "one full suite invocation",
    },
    SpanInfo {
        name: "suite.generate",
        help: "corpus generation ahead of a suite run",
    },
];

/// Looks up a span's registry row; `None` for undeclared names.
#[must_use]
pub fn lookup_span(name: &str) -> Option<&'static SpanInfo> {
    SPANS
        .binary_search_by(|info| info.name.cmp(name))
        .ok()
        .map(|i| &SPANS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_unique_and_documented() {
        for w in METRICS.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
        for info in METRICS {
            assert!(!info.help.is_empty(), "{}", info.name);
            assert!(
                !info.unit.is_empty(),
                "{} must declare a measurement unit",
                info.name
            );
            assert!(
                info.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "{}",
                info.name
            );
        }
    }

    #[test]
    fn span_table_is_sorted_unique_and_documented() {
        for w in SPANS.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
        for info in SPANS {
            assert!(!info.help.is_empty(), "{}", info.name);
            assert!(
                info.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "{}",
                info.name
            );
        }
    }

    #[test]
    fn lookup_span_known_and_unknown() {
        assert_eq!(
            lookup_span("pipeline.simulate").map(|i| i.name),
            Some("pipeline.simulate")
        );
        assert!(lookup_span("pipeline.simulated").is_none());
    }

    #[test]
    fn lookup_known_and_unknown() {
        assert_eq!(
            lookup("exec.jobs").map(|i| i.kind),
            Some(MetricKind::Counter)
        );
        assert_eq!(
            lookup("exec.queue_wait_seconds").map(|i| i.kind),
            Some(MetricKind::Histogram)
        );
        assert!(lookup("exec.steals").is_none());
    }
}
