//! Telemetry is a strict sidecar: installing a sink must never change
//! the experiment report, only add a parallel event stream. This golden
//! test pins that contract end to end — the report JSON is byte
//! identical with and without telemetry at 1 and 4 worker threads, and
//! the captured stream validates clean under the `CHK09xx` auditors
//! while covering every pipeline phase for every grid cell. A second
//! test counts the grid's shared community detections in the stream.
//! Both hold `obs::tests_serial()`, since the sink is process-global.

use std::sync::Arc;

use commorder::obs;
use commorder::prelude::*;
use commorder::synth::corpus;

/// Three mini-corpus matrices x two techniques x two replacement
/// policies on the test-scale platform: small enough for a test, real
/// enough to exercise the reorder, trace-gen, simulate, and model
/// phases down both streaming simulator paths (LRU and two-pass
/// Belady).
fn mini_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale())
        .techniques(vec![Box::new(Original), Box::new(Rabbit::new())])
        .policies(vec![ReplacementPolicy::Lru, ReplacementPolicy::Belady]);
    for entry in corpus::mini().into_iter().take(3) {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    spec
}

#[test]
fn report_json_is_byte_identical_with_and_without_telemetry() {
    let _serial = obs::tests_serial();
    // One job per matrix x technique; one cell per job x policy.
    let jobs = 3 * 2;
    let cells = jobs * 2;

    let baseline = mini_spec()
        .run(&Engine::new(1))
        .expect("valid grid")
        .render_json();

    for threads in [1usize, 4] {
        let sink = Arc::new(MemorySink::new());
        let guard = obs::install(sink.clone());
        let json = mini_spec()
            .run(&Engine::new(threads))
            .expect("valid grid")
            .render_json();
        drop(guard);
        assert_eq!(
            json, baseline,
            "telemetry changed the report at {threads} worker threads"
        );

        // The sidecar stream must satisfy its own invariants: parseable
        // events, exact span nesting, declared metric names.
        let stream = sink.to_jsonl();
        let mut report = commorder::check::CheckReport::new();
        report.extend(commorder::check::check_telemetry(&stream));
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());

        // Every grid cell reports its reorder and all three pipeline
        // phases (trace-gen is explicit when telemetry is on).
        let spans = |name: &str| stream.matches(&format!("\"name\":\"{name}\"")).count();
        assert_eq!(
            spans("grid.job"),
            jobs,
            "one job span per matrix x technique"
        );
        assert_eq!(spans("grid.reorder"), jobs);
        assert_eq!(spans("grid.cell"), cells);
        assert_eq!(spans("pipeline.trace_gen"), cells);
        assert_eq!(spans("pipeline.simulate"), cells);
        assert_eq!(spans("pipeline.model"), cells);
        assert!(stream.contains("\"name\":\"exec.jobs\""));
        assert!(stream.contains("\"name\":\"cachesim.accesses\""));
    }
}

#[test]
fn paper_suite_grid_detects_once_per_matrix() {
    let _serial = obs::tests_serial();
    let entries: Vec<_> = corpus::mini().into_iter().take(2).collect();
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale()).techniques(paper_suite(7));
    for entry in &entries {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    let sink = Arc::new(MemorySink::new());
    let guard = obs::install(sink.clone());
    spec.run(&Engine::new(2)).expect("valid grid");
    drop(guard);

    // RABBIT and RABBIT++ share one detection per matrix; the other five
    // techniques run one job each.
    let stream = sink.to_jsonl();
    let spans = |name: &str| stream.matches(&format!("\"name\":\"{name}\"")).count();
    assert_eq!(spans("grid.detect"), entries.len());
    for entry in &entries {
        let detail = format!("\"name\":\"grid.detect\",\"detail\":\"{}\"", entry.name);
        assert_eq!(stream.matches(&detail).count(), 1, "{}", entry.name);
    }
    assert_eq!(spans("grid.job"), entries.len() * 6);
    assert_eq!(spans("grid.reorder"), entries.len() * 7);
}
