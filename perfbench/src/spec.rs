//! What the benchmark declares: its workloads, its metrics and the
//! `BENCHMARK.json` manifest rendered from them.
//!
//! The manifest at the repository root is generated from these tables
//! (`perfbench --manifest`), and a test keeps the two byte-identical, so
//! a metric cannot be emitted without being declared or declared
//! without a bound.

use std::fmt::Write as _;

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// How the benchmark is started from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];

/// One workload: a name and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDecl {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it runs and which layer it stresses.
    pub why: &'static str,
}

/// The four workloads, in the order `--list` prints them.
pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "reorder-social",
        why:
            "RABBIT, RABBIT++ and BOBA on a 131k-row R-MAT social graph: community detection does \
              the work, the cache simulator none",
    },
    WorkloadDecl {
        name: "spmv-sim",
        why:
            "LRU and Belady replay of SpMV on that graph in published and RABBIT order, reordered \
              in set-up: the cache simulator does the work",
    },
    WorkloadDecl {
        name: "spgemm-block",
        why: "A*A as Gustavson and cluster-wise SpGEMM into LRU on a 20k-row block matrix: \
              write-heavy two-operand traffic SpMV replay never shows",
    },
    WorkloadDecl {
        name: "paper-suite",
        why:
            "5 standard matrices through the 7 paper techniques and SpMV LRU on a 2-worker engine: \
              what a figure binary costs, GORDER and RABBIT tails included",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughputs, quality).
    Higher,
    /// Smaller is better (times, memory, traffic).
    Lower,
}

impl Better {
    /// Manifest spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric, printed by every untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rep_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "traffic_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Summed self time of the traced spans named like the metric
    /// without its `_s` suffix.
    SelfTime,
    /// Set by the workload from its untraced reps or its outputs.
    Value,
}

/// A per-layer metric, printed by every traced run (0 where the
/// workload does not exercise the layer).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How the value is obtained.
    pub source: Source,
    /// The end-to-end metric it should move, and on which workload.
    pub target: &'static str,
}

impl PerLayer {
    /// The span name a self-time metric sums.
    #[must_use]
    pub fn span(&self) -> Option<&'static str> {
        match self.source {
            Source::SelfTime => self.name.strip_suffix("_s"),
            Source::Value => None,
        }
    }
}

const fn self_time(name: &'static str, target: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Better::Lower,
        source: Source::SelfTime,
        target,
    }
}

const fn value(
    name: &'static str,
    unit: &'static str,
    better: Better,
    target: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Value,
        target,
    }
}

const SUITE_WALL: &str = "rep_s on paper-suite";
const REORDER_WALL: &str = "rep_s on reorder-social";
const ANSWER: &str = "traffic_ratio wherever it is nonzero: any change means the answer changed";

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: &[PerLayer] = &[
    self_time("synth.generate_s", "setup_s on every workload"),
    self_time("sparse.symmetrize_s", REORDER_WALL),
    self_time("sparse.from_order_s", REORDER_WALL),
    self_time(
        "sparse.permute_s",
        "rep_s on paper-suite, setup_s on spmv-sim",
    ),
    self_time("reorder.detect_s", REORDER_WALL),
    self_time("reorder.flatten_s", REORDER_WALL),
    self_time("reorder.detect_t2_s", REORDER_WALL),
    self_time("reorder.flatten_t2_s", REORDER_WALL),
    self_time("reorder.insular_s", REORDER_WALL),
    self_time("reorder.boba_s", REORDER_WALL),
    self_time("reorder.random_s", SUITE_WALL),
    self_time("reorder.original_s", SUITE_WALL),
    self_time("reorder.degsort_s", SUITE_WALL),
    self_time("reorder.dbg_s", SUITE_WALL),
    self_time("reorder.gorder_s", SUITE_WALL),
    self_time(
        "reorder.rabbit_s",
        "rep_s on paper-suite, setup_s on spmv-sim and spgemm-block",
    ),
    self_time(
        "reorder.rabbitpp_s",
        "rep_s on reorder-social and paper-suite",
    ),
    value("reorder.rabbitpp_extra_s", "s", Better::Lower, REORDER_WALL),
    value(
        "reorder.rabbit_medges_per_s",
        "Medges/s",
        Better::Higher,
        REORDER_WALL,
    ),
    value(
        "reorder.rabbitpp_medges_per_s",
        "Medges/s",
        Better::Higher,
        REORDER_WALL,
    ),
    value(
        "reorder.boba_medges_per_s",
        "Medges/s",
        Better::Higher,
        REORDER_WALL,
    ),
    value(
        "reorder.rabbit_t2_medges_per_s",
        "Medges/s",
        Better::Higher,
        REORDER_WALL,
    ),
    value(
        "reorder.modularity",
        "ratio",
        Better::Higher,
        "traffic_ratio on reorder-social",
    ),
    value(
        "reorder.communities",
        "count",
        Better::Lower,
        "traffic_ratio on reorder-social",
    ),
    self_time(
        "cachesim.lru_s",
        "rep_s on spmv-sim, spgemm-block and paper-suite",
    ),
    self_time("cachesim.belady_s", "rep_s on spmv-sim"),
    self_time("cachesim.trace_gen_s", "rep_s on spmv-sim and paper-suite"),
    self_time("cachesim.spgemm_setup_s", "rep_s on spgemm-block"),
    self_time("cachesim.spgemm_trace_gen_s", "rep_s on spgemm-block"),
    value(
        "cachesim.lru_maccesses_per_s",
        "Maccesses/s",
        Better::Higher,
        "rep_s on spmv-sim and spgemm-block",
    ),
    value(
        "cachesim.belady_maccesses_per_s",
        "Maccesses/s",
        Better::Higher,
        "rep_s on spmv-sim",
    ),
    value("cachesim.accesses", "count", Better::Lower, ANSWER),
    value("cachesim.hit_ratio", "ratio", Better::Higher, ANSWER),
    value("cachesim.compulsory_ratio", "ratio", Better::Higher, ANSWER),
    value("cachesim.writebacks", "count", Better::Lower, ANSWER),
    value("cachesim.dram_bytes", "bytes", Better::Lower, ANSWER),
    value("cachesim.acc_peak_row", "elements", Better::Lower, ANSWER),
    value(
        "cachesim.acc_peak_cluster",
        "elements",
        Better::Lower,
        ANSWER,
    ),
    self_time(
        "gpumodel.model_s",
        "nothing: a control that should move no end-to-end metric",
    ),
    self_time("core.simulate_s", SUITE_WALL),
    value("core.job_p50_s", "s", Better::Lower, SUITE_WALL),
    value("core.job_tail_s", "s", Better::Lower, SUITE_WALL),
    value("core.reorder_busy_s", "s", Better::Lower, SUITE_WALL),
    value("core.sim_busy_s", "s", Better::Lower, SUITE_WALL),
    value("exec.utilization", "ratio", Better::Higher, SUITE_WALL),
    value("exec.busy_s", "s", Better::Lower, SUITE_WALL),
    value("exec.queue_wait_tail_s", "s", Better::Lower, SUITE_WALL),
    value("exec.steals", "count", Better::Lower, SUITE_WALL),
    value(
        "trace.overhead_ratio",
        "ratio",
        Better::Lower,
        "nothing: the cost of tracing itself",
    ),
];

fn quoted(items: impl IntoIterator<Item = &'static str>) -> String {
    items
        .into_iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders `BENCHMARK.json`.
#[must_use]
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(COMMAND.iter().copied()));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(PATHS.iter().copied()));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(out, "  \"{key}\": [");
        let n = rows.len();
        for (i, row) in rows.into_iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(out, "    {row}{comma}");
        }
        let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    rows(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.label(),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// Renders the `--list` text: workloads, then metrics with units,
/// directions, bounds and per-layer targets. Nothing runs.
#[must_use]
pub fn list_text() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<15} {}", w.name, w.why);
    }
    out.push_str("end-to-end metrics (name, unit, better, bound):\n");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<14} {:<6} {:<6} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("per-layer metrics (name, unit, better -> moves):\n");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<32} {:<11} {:<6} -> {}",
            m.name,
            m.unit,
            m.better.label(),
            m.target
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn committed_manifest_is_the_rendered_declarations() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "BENCHMARK.json is stale: regenerate it with `perfbench --manifest`"
        );
    }

    #[test]
    fn every_listed_name_is_in_the_manifest_once() {
        let manifest = manifest_json();
        let list = list_text();
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        for name in &names {
            assert!(is_name(name), "{name:?} breaks the name alphabet");
            let entry = format!("\"name\": \"{name}\"");
            assert_eq!(manifest.matches(&entry).count(), 1, "{name} in manifest");
            assert!(list.contains(name), "{name} in --list");
        }
        assert_eq!(manifest.matches("\"name\": ").count(), names.len());
    }

    #[test]
    fn declarations_fit_the_manifest_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(
                is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in PER_LAYER {
            assert!(is_unit(m.unit), "{}", m.name);
            assert!(
                m.source == Source::Value || m.span().is_some(),
                "{}",
                m.name
            );
        }
        assert!(manifest_json().len() <= 64 * 1024);
    }
}
