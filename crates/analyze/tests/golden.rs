//! Golden tests: each seeded-bad fixture workspace must reproduce its
//! findings report byte-for-byte.
//!
//! The fixtures under `fixtures/analyze/` are miniature workspaces that
//! deliberately violate one rule family each; the goldens under
//! `fixtures/analyze/golden/` were frozen from
//! `analyze_workspace(<fixture>, ..).render_json()`. A byte-exact
//! comparison pins message wording, sort order, anchors, and the JSON
//! framing all at once.
//! The structural invariants of the callgraph and effects sections are
//! asserted on the in-memory report in `invariants.rs`.

use std::path::PathBuf;

use commorder_analyze::{analyze_workspace, AnalyzerConfig};

/// Workspace-relative fixture root for `name`.
fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/analyze")
        .join(name)
}

/// Runs the analyzer over the named fixture and compares against its
/// golden, listing a readable diff context on mismatch. Set
/// `COMMORDER_UPDATE_GOLDEN=1` to rewrite the golden instead — the
/// refreeze path used after a deliberate schema or wording change.
fn assert_golden(name: &str) {
    let report = analyze_workspace(&fixture_root(name), &AnalyzerConfig::default())
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let got = report.render_json();
    let golden_path = fixture_root("golden").join(format!("{name}.json"));
    if std::env::var_os("COMMORDER_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&golden_path, &got)
            .unwrap_or_else(|e| panic!("writing golden {}: {e}", golden_path.display()));
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
    assert!(
        got == want,
        "fixture {name} drifted from its golden\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn source_rules_fixture_matches_golden() {
    assert_golden("source_rules");
}

#[test]
fn layering_fixture_matches_golden() {
    assert_golden("layering");
}

#[test]
fn determinism_fixture_matches_golden() {
    assert_golden("determinism");
}

#[test]
fn telemetry_fixture_matches_golden() {
    assert_golden("telemetry");
}

#[test]
fn hotpath_fixture_matches_golden() {
    assert_golden("hotpath");
}

#[test]
fn concurrency_fixture_matches_golden() {
    assert_golden("concurrency");
}

#[test]
fn callgraph_fixture_matches_golden() {
    assert_golden("callgraph");
}

#[test]
fn effects_fixture_matches_golden() {
    assert_golden("effects");
}

#[test]
fn collision_fixture_matches_golden() {
    assert_golden("collision");
}

/// The collision fixture must resolve the typed receiver to exactly
/// one `width`: a bare-name binding would add a false `Coo::width`
/// edge and bump `ambiguous` — the regression the typed resolver
/// exists to prevent. `Csr` also implements a trait method `width`;
/// both `m.width()` and `Csr::width(m)` bind the inherent one, as Rust
/// does.
#[test]
fn collision_fixture_binds_one_method() {
    let report = analyze_workspace(&fixture_root("collision"), &AnalyzerConfig::default())
        .expect("collision fixture analyzes");
    assert!(
        report.findings.is_empty(),
        "collision fixture must be clean"
    );
    let g = report.callgraph.as_ref().expect("call graph present");
    assert_eq!(g.ambiguous, 0, "typed receiver left an ambiguous site");
    let node = |needle: &str| {
        g.nodes
            .iter()
            .position(|n| n.contains(needle))
            .unwrap_or_else(|| panic!("node {needle} missing")) as u32
    };
    let csr = node("Csr::width@11:");
    let shape = node("Csr::width@37:");
    let coo = node("Coo::width");
    for name in ["::reorder@", "::reorder_qualified@"] {
        let caller = node(name);
        let outs: Vec<u32> = g
            .edges
            .iter()
            .filter(|&&(u, _)| u == caller)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(
            outs,
            vec![csr],
            "{name} must bind the inherent Csr::width and nothing else"
        );
    }
    assert!(
        !g.edges.iter().any(|&(_, v)| v == coo || v == shape),
        "a bare-name or trait-method edge resurfaced"
    );
}

#[test]
fn every_code_is_reproduced_by_some_fixture() {
    use std::collections::BTreeSet;

    let mut seen: BTreeSet<String> = BTreeSet::new();
    for name in [
        "source_rules",
        "layering",
        "determinism",
        "telemetry",
        "hotpath",
        "concurrency",
        "callgraph",
        "effects",
        "collision",
    ] {
        let report = analyze_workspace(&fixture_root(name), &AnalyzerConfig::default())
            .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        seen.extend(report.findings.iter().map(|f| f.code.to_string()));
    }
    let missing: Vec<&str> = commorder_analyze::codes::CODE_TABLE
        .iter()
        .copied()
        .filter(|code| !seen.contains(*code))
        .collect();
    assert!(missing.is_empty(), "codes without a fixture: {missing:?}");
}
