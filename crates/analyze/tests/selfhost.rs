//! Self-hosting test: the analyzer runs over its own workspace — all
//! ten crates, including this one — and must report nothing.
//!
//! This is the same invocation `cargo run -p xtask -- lint` and CI
//! perform; keeping it as a test means `cargo test` alone catches a
//! regression that introduces a finding (or an allowlist entry that
//! stopped matching anything).

use std::path::PathBuf;

use commorder_analyze::{analyze_workspace, AnalyzerConfig};

#[test]
fn workspace_analyzes_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        analyze_workspace(&root, &AnalyzerConfig::default()).expect("workspace must be readable");
    assert!(
        report.findings.is_empty(),
        "self-host findings:\n{}",
        report.render_text()
    );
}

#[test]
fn selfhost_callgraph_meets_resolution_bar() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        analyze_workspace(&root, &AnalyzerConfig::default()).expect("workspace must be readable");
    let g = report
        .callgraph
        .as_ref()
        .expect("self-host emits a call graph");

    // Acceptance bar: ≥96% of resolved intra-workspace call sites bind
    // unambiguously. Receiver typing (fields, params, lets, traits)
    // carries this; a regression in the resolver shows up here first.
    // The bar rose from 0.9 when type-qualified resolution landed —
    // the effect-inference pass leans on these edges, so precision
    // regressions now corrupt effect masks too.
    assert!(g.resolved > 0, "self-host must resolve some call sites");
    let precision = f64::from(g.resolved - g.ambiguous) / f64::from(g.resolved);
    assert!(
        precision >= 0.96,
        "call-graph resolution precision {precision:.3} fell below 0.96 \
         ({} ambiguous of {} resolved)",
        g.ambiguous,
        g.resolved
    );

    // The three seed sets must find their entry points: an empty set
    // means a pass silently checks nothing. Self-host only — fixture
    // workspaces legitimately have empty seed sets.
    assert!(!g.seeds_determinism.is_empty(), "determinism seeds missing");
    assert!(!g.seeds_hotpath.is_empty(), "hot-path seeds missing");
    assert!(!g.seeds_worker.is_empty(), "worker seeds missing");
}

#[test]
fn selfhost_effects_are_inferred_and_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        analyze_workspace(&root, &AnalyzerConfig::default()).expect("workspace must be readable");

    // The effect pass must actually run over the workspace and find
    // effectful functions (an empty table means the scanner broke).
    let fx = report.effects.as_ref().expect("self-host emits effects");
    assert!(fx.rows.len() > 50, "suspiciously few effectful functions");
    assert!(fx.local_bits > 0, "no local effect sources found");
    assert!(
        fx.propagated_bits > 0,
        "no propagation happened: the fixed-point pass is inert"
    );

    // …and the workspace itself must carry zero interprocedural
    // effect findings, with no allowlist escape hatch: the XT10xx
    // rules are scoped so the engine's sanctioned surfaces are
    // excluded structurally, not suppressed entry by entry.
    let effect_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code.starts_with("XT10"))
        .collect();
    assert!(
        effect_findings.is_empty(),
        "self-host effect findings: {effect_findings:?}"
    );
}

#[test]
fn workspace_discovers_all_crates() {
    // The layer table and the tree must agree: every directory under
    // crates/ is declared, so XT0404 can only fire on genuinely new
    // crates.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = AnalyzerConfig::default();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(crates_dir).expect("crates/ must exist") {
        let entry = entry.expect("readable dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            config.layers.contains_key(&name),
            "crate {name:?} is missing from AnalyzerConfig::default().layers"
        );
    }
}
