//! Golden-file test: the checker's JSON report over the mini synthesis
//! corpus (plus deterministic corruptions of its first matrix) must stay
//! byte-identical. Any change to diagnostic codes, ordering, or the JSON
//! shape shows up as a diff against `tests/golden/mini_corpus.json`.

use commorder_cachesim::Access;
use commorder_check::matrix::{check_csr, check_csr_parts};
use commorder_check::perm::check_permutation_parts;
use commorder_check::trace::check_trace;
use commorder_check::CheckReport;
use commorder_synth::corpus;

const GOLDEN: &str = include_str!("golden/mini_corpus.json");

fn build_report() -> CheckReport {
    let mut report = CheckReport::new();

    // Every mini-corpus matrix must validate clean; any diagnostics it
    // produces land in the report (and would therefore break the golden).
    for entry in corpus::mini() {
        let m = entry.generate().expect("mini corpus generates");
        report.extend(check_csr(&m));
    }

    // Deterministic corruptions exercise one representative code per
    // validator family so the golden pins the exact rendering.
    report.extend(check_csr_parts(
        "corrupt.csr",
        2,
        3,
        &[0, 2, 1],
        &[0, 1],
        None,
    ));
    report.extend(check_permutation_parts("corrupt.perm", &[0, 2, 2], None));
    let trace = [Access::read(6), Access::write(100)];
    report.extend(check_trace(&trace, Some(64), 32));
    report
}

#[test]
fn mini_corpus_json_matches_golden() {
    let got = build_report().render_json();
    if std::env::var_os("COMMORDER_UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mini_corpus.json");
        std::fs::write(path, format!("{}\n", got.trim())).expect("golden file writable");
        return;
    }
    assert_eq!(
        got.trim(),
        GOLDEN.trim(),
        "checker JSON drifted; if intentional, regenerate with \
         COMMORDER_UPDATE_GOLDEN=1 cargo test -p commorder-check --test golden"
    );
}

#[test]
fn mini_corpus_matrices_are_clean() {
    for entry in corpus::mini() {
        let m = entry.generate().expect("mini corpus generates");
        assert!(
            check_csr(&m).is_empty(),
            "corpus entry {} failed validation",
            entry.name
        );
    }
}
