//! Perf-trajectory integration: the `xtask bench` emitter, the
//! `CHK12xx` artifact validators, the regression gate, and the
//! deterministic flamegraph export must agree end to end. The emitter
//! in xtask writes the `commorder-bench.v2` framing and reads it back
//! through `commorder-check` (validator plus flat-object reader), so
//! this cross-crate test is where a drift between the writer and the
//! check layer fails before CI pipes the artifacts through
//! `commorder-cli check`.

use std::sync::Arc;

use commorder::obs;
use commorder::prelude::*;
use commorder::synth::corpus;
use commorder_check::check_bench_artifact;
use xtask::bench::{compare, BenchReport, Machine};

/// A small but fully populated report: two metrics (one per
/// direction), one result fingerprint, a deterministic machine block.
fn sample_report() -> BenchReport {
    let mut r = BenchReport::new("pipeline");
    r.machine = Machine::unknown();
    r.metric(
        "pipeline.lru_accesses_per_second",
        1.5e8,
        "accesses/s",
        true,
    );
    r.metric("pipeline.suite_wall_seconds", 2.25, "seconds", false);
    r.fingerprint("cache.lru", 0x0BAD_F00D_DEAD_BEEF);
    r
}

#[test]
fn emitter_output_passes_the_chk12xx_validators() {
    let full = sample_report().render_json();
    let diags = check_bench_artifact(&full);
    assert!(diags.is_empty(), "emitter vs validator drift: {diags:?}");

    // The empty-fingerprints frame is a distinct shape (`[],` on one
    // line) and must stay valid too — the analyze bench has no
    // result-fingerprint rows.
    let mut bare = BenchReport::new("analyze");
    bare.machine = Machine::unknown();
    bare.metric("analyze.selfhost_seconds", 4.0, "seconds", false);
    let diags = check_bench_artifact(&bare.render_json());
    assert!(
        diags.is_empty(),
        "empty-fingerprint frame rejected: {diags:?}"
    );
}

#[test]
fn render_parse_round_trip_is_byte_identical() {
    // A CPU model carrying the two characters the renderer escapes must
    // survive render -> parse -> render too.
    let mut quoted = sample_report();
    quoted.machine.cpu = "Test \"CPU\" \\ 2".to_string();
    for report in [sample_report(), quoted] {
        let rendered = report.render_json();
        let reparsed = BenchReport::parse(&rendered).expect("own output parses");
        assert_eq!(reparsed, report);
        assert_eq!(reparsed.render_json(), rendered);
    }
}

#[test]
fn validator_flags_schema_and_ordering_corruption() {
    let good = sample_report().render_json();

    let wrong_schema = good.replace("commorder-bench.v2", "commorder-bench.v1");
    assert!(
        check_bench_artifact(&wrong_schema)
            .iter()
            .any(|d| d.code == "CHK1201"),
        "unknown schema version must be a CHK1201 frame error"
    );

    // Renaming the second metric so it sorts before the first breaks
    // the strictly-increasing name order the gate's lookups rely on.
    let out_of_order = good.replace(
        "\"name\":\"pipeline.suite_wall_seconds\"",
        "\"name\":\"a.suite_wall_seconds\"",
    );
    assert!(
        !check_bench_artifact(&out_of_order).is_empty(),
        "out-of-order metric names must be flagged"
    );
}

#[test]
fn gate_passes_self_compare_and_fails_an_injected_regression() {
    let old = sample_report();
    let outcome = compare(&old, &sample_report(), 0.30);
    assert!(outcome.is_pass(), "self-compare regressed: {outcome:?}");

    // Halving a higher-is-better throughput is far outside the 30%
    // band; the gate must name the metric.
    let mut slower = sample_report();
    for m in &mut slower.metrics {
        if m.name == "pipeline.lru_accesses_per_second" {
            m.value /= 2.0;
        }
    }
    let outcome = compare(&old, &slower, 0.30);
    assert!(!outcome.is_pass());
    assert!(
        outcome
            .regressions
            .iter()
            .any(|r| r.contains("pipeline.lru_accesses_per_second")),
        "regression must name the drifted metric: {outcome:?}"
    );
}

#[test]
fn fingerprint_drift_fails_even_with_identical_timings() {
    let old = sample_report();
    let mut drifted = sample_report();
    drifted.fingerprints[0].value ^= 1;
    let outcome = compare(&old, &drifted, 0.30);
    assert!(
        !outcome.is_pass(),
        "a changed result fingerprint is a hard failure, not a timing question"
    );
    assert!(outcome.regressions.iter().any(|r| r.contains("cache.lru")));
}

/// Two mini-corpus matrices x two techniques: enough to populate the
/// span tree through reorder, trace-gen, simulate, and model.
fn mini_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale())
        .techniques(vec![Box::new(Original), Box::new(Rabbit::new())]);
    for entry in corpus::mini().into_iter().take(2) {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    spec
}

#[test]
fn folded_flamegraph_is_byte_identical_across_engine_widths() {
    let _serial = obs::tests_serial();
    let mut folded = Vec::new();
    for threads in [1usize, 4] {
        let registry = Arc::new(obs::Registry::new());
        let guard = obs::install(registry.clone());
        mini_spec().run(&Engine::new(threads)).expect("valid grid");
        drop(guard);
        folded.push(registry.render_folded());
    }
    assert!(!folded[0].is_empty(), "profile produced no folded stacks");
    assert_eq!(
        folded[0], folded[1],
        "folded export must not depend on engine width"
    );
    // Collapsed-stack format: `path;path;leaf <count>` per line, paths
    // sorted so the export is goldenable.
    let lines: Vec<&str> = folded[0].lines().collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "folded stacks must be emitted sorted");
    for line in &lines {
        let (_, count) = line.rsplit_once(' ').expect("`stack count` shape");
        count.parse::<u64>().expect("count column is an integer");
    }
}
