//! Invariants of the call-graph and effects sections, checked on the
//! analyzer's in-memory report.
//!
//! `analyze --json` serializes [`CallGraphReport`] and
//! [`EffectsReport`] verbatim, so every structural fact of those two
//! sections is asserted here on the structs themselves: over the
//! self-host workspace, over every fixture workspace under
//! `fixtures/analyze/`, and against one seeded corruption per invariant
//! family to prove the checker can fail. The report validator in
//! `commorder-check` (`CHK1101`) only pins where the sections open.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use commorder_analyze::model::{CallGraphReport, EffectRow, EffectsReport};
use commorder_analyze::{analyze_workspace, AnalysisReport, AnalyzerConfig};

/// Every invariant the two sections must satisfy, as one message per
/// violation (empty when the report is consistent). A missing section
/// is checked as the empty one the renderer would emit.
fn violations(report: &AnalysisReport) -> Vec<String> {
    let no_graph = CallGraphReport::default();
    let no_effects = EffectsReport::default();
    let g = report.callgraph.as_ref().unwrap_or(&no_graph);
    let fx = report.effects.as_ref().unwrap_or(&no_effects);
    let mut out = Vec::new();
    graph_violations(g, &mut out);
    effect_violations(g, fx, &mut out);
    out
}

/// Id ranges and ordering, SCC shape, condensation acyclicity, and
/// resolution stats of the call graph.
fn graph_violations(g: &CallGraphReport, out: &mut Vec<String>) {
    let n = g.nodes.len();
    if let Some((a, b)) = g.edges.iter().find(|(a, b)| *a.max(b) as usize >= n) {
        out.push(format!("edge ({a},{b}) references a node outside 0..{n}"));
    }
    if g.edges.windows(2).any(|w| w[0] >= w[1]) {
        out.push("edges are not strictly ascending".into());
    }
    let seeds = [
        ("determinism seeds", &g.seeds_determinism),
        ("hotpath seeds", &g.seeds_hotpath),
        ("worker seeds", &g.seeds_worker),
    ];
    for (what, ids) in seeds.into_iter().chain(g.sccs.iter().map(|c| ("scc", c))) {
        if let Some(id) = ids.iter().find(|&&id| id as usize >= n) {
            out.push(format!("{what} reference node {id} outside 0..{n}"));
        }
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            out.push(format!("{what} ids are not strictly ascending"));
        }
    }

    // Component id per node: declared SCCs are `n + k`, every other
    // node is its own singleton.
    let mut comp: Vec<usize> = (0..n).collect();
    for (k, members) in g.sccs.iter().enumerate() {
        if members.is_empty() {
            out.push(format!("scc {k} is empty"));
        }
        for &m in members {
            match comp.get_mut(m as usize) {
                Some(c) if *c == m as usize => *c = n + k,
                Some(_) => out.push(format!("node {m} is in more than one scc")),
                None => {}
            }
        }
    }
    // Kahn's algorithm over the condensation must consume every
    // component; a leftover is a cycle no declared SCC covers.
    let arcs: BTreeSet<(usize, usize)> = g
        .edges
        .iter()
        .filter_map(|&(a, b)| {
            let (ca, cb) = (*comp.get(a as usize)?, *comp.get(b as usize)?);
            (ca != cb).then_some((ca, cb))
        })
        .collect();
    let mut indegree: BTreeMap<usize, usize> = comp.iter().map(|&c| (c, 0)).collect();
    for (_, cb) in &arcs {
        *indegree.entry(*cb).or_default() += 1;
    }
    let mut ready: Vec<usize> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&c, _)| c)
        .collect();
    let mut consumed = 0;
    while let Some(c) = ready.pop() {
        consumed += 1;
        for &(_, cb) in arcs.range((c, 0)..(c + 1, 0)) {
            if let Some(d) = indegree.get_mut(&cb) {
                *d -= 1;
                if *d == 0 {
                    ready.push(cb);
                }
            }
        }
    }
    if consumed != indegree.len() {
        out.push("the condensation is cyclic: a cycle is not covered by any scc".into());
    }

    if u64::from(g.resolved) + u64::from(g.external) != u64::from(g.call_sites) {
        out.push(format!(
            "stats do not add up: resolved {} + external {} != call_sites {}",
            g.resolved, g.external, g.call_sites
        ));
    }
    if g.ambiguous > g.resolved {
        out.push(format!(
            "stats: ambiguous {} exceeds resolved {}",
            g.ambiguous, g.resolved
        ));
    }
}

/// Row shape, witness hops and chains, monotonicity over call edges,
/// and the effect stats.
fn effect_violations(g: &CallGraphReport, fx: &EffectsReport, out: &mut Vec<String>) {
    let n = g.nodes.len();
    let rows: BTreeMap<u32, &EffectRow> = fx.rows.iter().map(|r| (r.node, r)).collect();
    let mask = |node: u32| rows.get(&node).map_or(0, |r| r.mask);
    let edges: BTreeSet<(u32, u32)> = g.edges.iter().copied().collect();
    if fx.rows.windows(2).any(|w| w[0].node >= w[1].node) {
        out.push("effect rows are not strictly ascending by node".into());
    }
    for r in &fx.rows {
        let node = r.node;
        if node as usize >= n {
            out.push(format!("effect row references node {node} outside 0..{n}"));
        }
        if !(1..=63).contains(&r.mask) {
            out.push(format!("node {node}: mask {} is outside 1..=63", r.mask));
        }
        if r.local & !r.mask != 0 {
            out.push(format!(
                "node {node}: local bits {} escape the mask {}",
                r.local, r.mask
            ));
        }
        for (b, &hop) in r.via.iter().enumerate() {
            let bit = 1u32 << b;
            let valid = if r.mask & bit == 0 {
                hop == -1
            } else if r.local & bit != 0 {
                i64::from(hop) == i64::from(node)
            } else {
                u32::try_from(hop).is_ok_and(|h| edges.contains(&(node, h)) && mask(h) & bit != 0)
            };
            if !valid {
                out.push(format!(
                    "node {node}: via[{b}] = {hop} is not a valid witness hop"
                ));
            }
        }
        for b in 0..6 {
            let bit = 1u32 << b;
            if r.mask & bit == 0 {
                continue;
            }
            let mut seen = BTreeSet::new();
            let mut cur = node;
            loop {
                if !seen.insert(cur) {
                    out.push(format!(
                        "node {node}: witness chain for bit {b} revisits {cur}"
                    ));
                    break;
                }
                let Some(row) = rows.get(&cur) else {
                    out.push(format!(
                        "node {node}: witness chain for bit {b} reaches {cur}, which has no row"
                    ));
                    break;
                };
                if row.local & bit != 0 {
                    break;
                }
                let Ok(next) = u32::try_from(row.via[b]) else {
                    out.push(format!(
                        "node {node}: witness chain for bit {b} stops at {cur} before a local source"
                    ));
                    break;
                };
                cur = next;
            }
        }
    }
    for &(a, b) in &g.edges {
        if mask(a) & mask(b) != mask(b) {
            out.push(format!(
                "mask shrinks over edge ({a},{b}): {} does not cover {}",
                mask(a),
                mask(b)
            ));
        }
    }

    let popcount = |bits: fn(&EffectRow) -> u32| -> u64 {
        fx.rows
            .iter()
            .map(|r| u64::from(bits(r).count_ones()))
            .sum()
    };
    let local = popcount(|r| r.local);
    let propagated = popcount(|r| r.mask) - local;
    if fx.functions as usize != n {
        out.push(format!(
            "effect stats: functions {} != {n} nodes",
            fx.functions
        ));
    }
    if u64::from(fx.local_bits) != local || u64::from(fx.propagated_bits) != propagated {
        out.push(format!(
            "effect stats: local/propagated bits {}/{} != row popcounts {local}/{propagated}",
            fx.local_bits, fx.propagated_bits
        ));
    }
}

fn analyze(root: &Path) -> AnalysisReport {
    analyze_workspace(root, &AnalyzerConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/analyze")
}

#[test]
fn selfhost_report_holds_every_invariant() {
    let report = analyze(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let found = violations(&report);
    assert!(
        found.is_empty(),
        "self-host invariant violations: {found:#?}"
    );
}

#[test]
fn every_fixture_report_holds_every_invariant() {
    let mut names: Vec<String> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures/analyze is readable")
        .map(|e| e.expect("readable dir entry"))
        .filter(|e| e.path().is_dir() && e.file_name() != "golden")
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 9, "fixture workspaces: {names:?}");
    for name in names {
        let found = violations(&analyze(&fixtures_dir().join(&name)));
        assert!(found.is_empty(), "fixture {name}: {found:#?}");
    }
}

/// One corruption per invariant family, applied to the `effects`
/// fixture's report (edges `0→1`, `1→2`, `2→7`, `4→5`; node 0 inherits
/// `locks|panics` from 1, which inherits `panics` from 2).
#[test]
fn seeded_corruptions_are_caught() {
    type Corrupt = fn(&mut CallGraphReport, &mut EffectsReport);
    let cases: [(&str, Corrupt); 8] = [
        ("outside 0..", |g, _| g.edges.push((6, 99))),
        ("edges are not strictly ascending", |g, _| {
            g.edges.swap(0, 1)
        }),
        ("condensation is cyclic", |g, _| g.edges.insert(1, (1, 0))),
        ("stats do not add up", |g, _| g.external += 1),
        ("escape the mask", |_, fx| fx.rows[6].local |= 1),
        ("is not a valid witness hop", |_, fx| fx.rows[0].via[2] = 2),
        ("witness chain for bit 2 revisits", |_, fx| {
            fx.rows[1].via[2] = 0
        }),
        ("mask shrinks over edge (0,1)", |_, fx| {
            fx.rows.remove(0);
        }),
    ];
    let base = analyze(&fixtures_dir().join("effects"));
    assert!(violations(&base).is_empty());
    for (expect, corrupt) in cases {
        let mut report = base.clone();
        let (Some(g), Some(fx)) = (report.callgraph.as_mut(), report.effects.as_mut()) else {
            panic!("effects fixture emits both sections");
        };
        corrupt(g, fx);
        let found = violations(&report);
        assert!(
            found.iter().any(|v| v.contains(expect)),
            "corruption expecting {expect:?} yielded {found:#?}"
        );
    }
}
