//! Workspace discovery and pass orchestration.
//!
//! [`analyze_workspace`] walks `crates/*/src` (plus the root package),
//! lexes every file once, derives the structural facts the passes
//! share (test regions, `use` paths, module roles), runs the four
//! analysis passes, applies the allowlist, and returns a sorted
//! [`AnalysisReport`].

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph;
use crate::codes;
use crate::concurrency;
use crate::determinism;
use crate::effects;
use crate::findings::{AnalysisReport, Finding, Severity};
use crate::items;
use crate::layering;
use crate::lexer;
use crate::source_rules::{self, SourceContext};
use crate::telemetry_names;

pub use crate::model::{
    CallGraphReport, CrateData, EdgeAnchor, EffectRow, EffectsReport, FileData, FileRole, ReachNode,
};

/// Analyzer configuration: the declared layer table and
/// workspace-relative special paths.
pub struct AnalyzerConfig {
    /// Crate directory name → layer height. Every edge must go from a
    /// strictly higher layer to a strictly lower one.
    pub layers: BTreeMap<String, u32>,
    /// Workspace-relative path of the allowlist file.
    pub allowlist_rel: String,
    /// Workspace-relative path of the telemetry-name registry.
    pub registry_rel: String,
    /// Crates audited by the concurrency pass (`XT09xx`).
    pub engine_crates: BTreeSet<String>,
    /// Bare function names whose reachability closure is the hot path
    /// for the allocation lint (`XT08xx`).
    pub hot_seed_fns: BTreeSet<String>,
    /// Display names (`Type::fn`) seeding the worker-reachability
    /// rules alongside every `spawn` closure.
    pub worker_seed_fns: BTreeSet<String>,
    /// Bare function names whose reachability closure is the
    /// per-access path for the inferred-allocation rule (`XT1002`) —
    /// the hot seeds minus `reorder`, whose amortized allocation the
    /// paper justifies.
    pub peraccess_seed_fns: BTreeSet<String>,
    /// Crates declared free of I/O effects (`XT1005`).
    pub pure_crates: BTreeSet<String>,
}

impl Default for AnalyzerConfig {
    /// The commorder workspace's declared architecture.
    fn default() -> Self {
        let layers = [
            ("analyze", 0),
            ("obs", 0),
            ("sparse", 0),
            ("cachesim", 1),
            ("exec", 1),
            ("reorder", 2),
            ("synth", 1),
            ("gpumodel", 2),
            ("check", 3),
            ("core", 4),
            ("bench", 5),
            ("root", 5),
            ("xtask", 5),
        ];
        let hot_seeds = [
            "consume",
            "reorder",
            "replay",
            "simulate",
            "simulate_belady",
        ];
        AnalyzerConfig {
            layers: layers.iter().map(|&(n, l)| (n.to_string(), l)).collect(),
            allowlist_rel: "analyze-allowlist.txt".to_string(),
            registry_rel: "crates/obs/src/names.rs".to_string(),
            engine_crates: ["exec".to_string()].into_iter().collect(),
            hot_seed_fns: hot_seeds.iter().map(|&n| n.to_string()).collect(),
            worker_seed_fns: ["Engine::map".to_string()].into_iter().collect(),
            peraccess_seed_fns: ["consume", "replay", "simulate", "simulate_belady"]
                .iter()
                .map(|&n| n.to_string())
                .collect(),
            pure_crates: ["cachesim", "gpumodel", "reorder", "sparse"]
                .iter()
                .map(|&n| n.to_string())
                .collect(),
        }
    }
}

/// Runs all passes over the workspace rooted at `root` and returns the
/// sorted report. `Err` means the root is not an analyzable workspace
/// (unreadable root manifest or `crates/` directory).
pub fn analyze_workspace(root: &Path, config: &AnalyzerConfig) -> Result<AnalysisReport, String> {
    let root_manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read {}: {e}", root.join("Cargo.toml").display()))?;

    let crates = discover(root, &root_manifest)?;
    let mut findings = Vec::new();

    // Manifest opt-ins and per-file source rules.
    for c in &crates {
        let manifest_text = fs::read_to_string(root.join(&c.manifest_rel)).unwrap_or_default();
        if !has_lints_opt_in(&manifest_text) {
            findings.push(Finding::file_scoped(
                codes::MANIFEST_LINTS,
                Severity::Error,
                &c.manifest_rel,
                "crate must opt into the workspace lint table ([lints] workspace = true)"
                    .to_string(),
            ));
        }
        for f in &c.files {
            findings.extend(source_rules::scan(&SourceContext {
                src: &f.src,
                tokens: &f.tokens,
                rel: &f.rel,
                test_ranges: &f.test_ranges,
            }));
        }
    }

    // Layering + cycles.
    let lib_index: BTreeMap<&str, usize> = crates
        .iter()
        .enumerate()
        .map(|(i, c)| (c.lib_name.as_str(), i))
        .collect();
    let crate_edges = collect_crate_edges(&crates, &lib_index);
    findings.extend(layering::check_crates(
        &crates,
        &crate_edges,
        &config.layers,
    ));
    for c in &crates {
        let module_edges = collect_module_edges(c);
        let module_files: BTreeMap<String, String> = c
            .files
            .iter()
            .filter_map(|f| match &f.role {
                FileRole::Module(m) => Some((m.clone(), f.rel.clone())),
                _ => None,
            })
            .fold(BTreeMap::new(), |mut map, (m, rel)| {
                map.entry(m).or_insert(rel);
                map
            });
        findings.extend(layering::check_modules(
            &c.dir_name,
            &module_files,
            &module_edges,
        ));
    }

    // Determinism + telemetry.
    let reach_edges = collect_reach_edges(&crates, &lib_index);
    findings.extend(determinism::check(&crates, &reach_edges));
    findings.extend(telemetry_names::check(&crates, &config.registry_rel));

    // Semantic layer: the engine-file concurrency audit, then the call
    // graph and the effect lattice every call-graph rule filters.
    findings.extend(concurrency::check(&crates, &config.engine_crates));
    let graph = callgraph::build(&crates, &config.hot_seed_fns, &config.worker_seed_fns);
    let fx = effects::compute(&crates, &graph);
    findings.extend(effects::check(
        &crates,
        &graph,
        &fx,
        &config.peraccess_seed_fns,
        &config.engine_crates,
        &config.pure_crates,
    ));

    // Allowlist: suppress justified findings, then report hygiene.
    findings = apply_allowlist(root, &config.allowlist_rel, findings);

    let mut report = AnalysisReport {
        findings,
        callgraph: Some(graph.to_report(&crates)),
        effects: Some(fx.to_report()),
    };
    report.finish();
    Ok(report)
}

/// Returns the allowlist text with the given 1-based lines removed —
/// the mechanical fix for `XT0702` (entries that suppressed nothing).
/// Line numbers come straight from the `XT0702` findings' `line`
/// fields; unknown numbers are ignored.
#[must_use]
pub fn prune_allowlist(text: &str, stale_lines: &BTreeSet<u32>) -> String {
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.lines().enumerate() {
        let line_no = u32::try_from(i + 1).unwrap_or(u32::MAX);
        if stale_lines.contains(&line_no) {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Discovers and lexes the workspace crates without running any pass —
/// the entry point `xtask bench` uses to time the semantic passes in
/// isolation. `Err` mirrors [`analyze_workspace`]'s discovery errors.
pub fn load_crates(root: &Path) -> Result<Vec<CrateData>, String> {
    let root_manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read {}: {e}", root.join("Cargo.toml").display()))?;
    discover(root, &root_manifest)
}

/// `true` when a manifest opts into `[lints] workspace = true`.
fn has_lints_opt_in(manifest: &str) -> bool {
    manifest
        .split("[lints]")
        .nth(1)
        .is_some_and(|after| after.trim_start().starts_with("workspace = true"))
}

/// Discovers and loads every crate under `crates/`, plus the root
/// package when the root manifest declares one.
fn discover(root: &Path, root_manifest: &str) -> Result<Vec<CrateData>, String> {
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();

    let mut crates = Vec::new();
    for dir in &dirs {
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest_rel = format!("crates/{dir_name}/Cargo.toml");
        let manifest_text = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        crates.push(load_crate(
            root,
            dir,
            dir_name,
            manifest_rel,
            &manifest_text,
        ));
    }
    if root_manifest.contains("[package]") {
        crates.push(load_crate(
            root,
            root,
            "root".to_string(),
            "Cargo.toml".to_string(),
            root_manifest,
        ));
    }
    Ok(crates)
}

/// Loads one crate: manifest names, sources, and derived structure.
fn load_crate(
    root: &Path,
    dir: &Path,
    dir_name: String,
    manifest_rel: String,
    manifest_text: &str,
) -> CrateData {
    let package = toml_name(manifest_text, "[package]").unwrap_or_else(|| dir_name.clone());
    let lib_name = toml_name(manifest_text, "[lib]").unwrap_or_else(|| package.replace('-', "_"));

    let mut files = Vec::new();
    for path in rust_sources(&dir.join("src")) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let tokens = lexer::lex(&src);
        let test_ranges = items::test_regions(&src, &tokens);
        let macro_ranges = items::macro_rules_regions(&src, &tokens);
        let uses = items::use_paths(&src, &tokens, &test_ranges);
        let skip: Vec<(usize, usize)> = test_ranges
            .iter()
            .chain(macro_ranges.iter())
            .copied()
            .collect();
        let refs = items::path_refs(&src, &tokens, &skip);
        let (role, is_bin, cycle_source) = classify(&rel);
        files.push(FileData {
            rel,
            role,
            is_bin,
            cycle_source,
            src,
            tokens,
            test_ranges,
            macro_ranges,
            uses,
            refs,
        });
    }

    let modules: BTreeSet<String> = files
        .iter()
        .filter_map(|f| match &f.role {
            FileRole::Module(m) => Some(m.clone()),
            _ => None,
        })
        .collect();
    let mut reexports = BTreeMap::new();
    for f in files.iter().filter(|f| f.role == FileRole::Facade) {
        for u in f.uses.iter().filter(|u| u.is_pub) {
            let segs = strip_crate_prefix(&u.segments);
            if segs.len() >= 2 && modules.contains(segs[0]) {
                if let Some(last) = segs.last() {
                    reexports.insert((*last).to_string(), segs[0].to_string());
                }
            }
        }
    }

    CrateData {
        dir_name,
        lib_name,
        manifest_rel,
        modules,
        reexports,
        files,
    }
}

/// First `name = "…"` value inside the given TOML section, if any.
fn toml_name(manifest: &str, section: &str) -> Option<String> {
    let after = manifest.split(section).nth(1)?;
    for line in after.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            return None; // next section
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                return Some(v.to_string());
            }
        }
    }
    None
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Role, bin-ness, and cycle-source-ness of a file from its path.
fn classify(rel: &str) -> (FileRole, bool, bool) {
    let under_src = rel.split_once("src/").map_or(rel, |(_, after)| after);
    let parts: Vec<&str> = under_src.split('/').collect();
    match parts.as_slice() {
        ["lib.rs"] => (FileRole::Facade, false, false),
        ["main.rs"] => (FileRole::Facade, true, false),
        ["bin", ..] => (FileRole::Bin, true, false),
        [file] => {
            let module = file.trim_end_matches(".rs").to_string();
            (FileRole::Module(module), false, true)
        }
        [dir, .., last] => {
            let cycle_source = *last != "mod.rs";
            (FileRole::Module((*dir).to_string()), false, cycle_source)
        }
        [] => (FileRole::Facade, false, false),
    }
}

/// Drops a leading `crate`/`self` segment.
fn strip_crate_prefix(segments: &[String]) -> Vec<&str> {
    let mut segs: Vec<&str> = segments.iter().map(String::as_str).collect();
    if matches!(segs.first(), Some(&"crate") | Some(&"self")) {
        segs.remove(0);
    }
    segs
}

/// Inter-crate edges from `use` paths and path chains, each with the
/// anchor of its first occurrence.
fn collect_crate_edges(
    crates: &[CrateData],
    lib_index: &BTreeMap<&str, usize>,
) -> BTreeMap<(usize, usize), EdgeAnchor> {
    let mut edges: BTreeMap<(usize, usize), EdgeAnchor> = BTreeMap::new();
    for (ci, c) in crates.iter().enumerate() {
        for f in &c.files {
            let mut note = |head: &str, line: u32, col: u32| {
                if let Some(&di) = lib_index.get(head) {
                    if di != ci {
                        edges.entry((ci, di)).or_insert(EdgeAnchor {
                            file: f.rel.clone(),
                            line,
                            col,
                        });
                    }
                }
            };
            for u in &f.uses {
                if let Some(head) = u.segments.first() {
                    note(head, u.line, u.col);
                }
            }
            for r in &f.refs {
                note(&r.head, r.line, r.col);
            }
        }
    }
    edges
}

/// Resolves an intra-crate reference (`crate::<second>…`) to a
/// top-level module, through the facade re-export map if needed.
fn resolve_module<'a>(c: &'a CrateData, second: Option<&str>) -> Option<&'a str> {
    let s = second?;
    if c.modules.contains(s) {
        return c.modules.get(s).map(String::as_str);
    }
    c.reexports.get(s).map(String::as_str)
}

/// Intra-crate module edges for the cycle graph: facade files are not
/// sources, bins are excluded entirely.
fn collect_module_edges(c: &CrateData) -> BTreeMap<(String, String), EdgeAnchor> {
    let mut edges: BTreeMap<(String, String), EdgeAnchor> = BTreeMap::new();
    for f in &c.files {
        let FileRole::Module(m) = &f.role else {
            continue;
        };
        if !f.cycle_source {
            continue;
        }
        for (segs, line, col) in intra_refs(f) {
            if let Some(target) = resolve_module(c, segs.first().copied()) {
                if target != m {
                    edges
                        .entry((m.clone(), target.to_string()))
                        .or_insert(EdgeAnchor {
                            file: f.rel.clone(),
                            line,
                            col,
                        });
                }
            }
        }
    }
    edges
}

/// `crate::`-rooted references of one file: (segments after `crate`,
/// line, col).
fn intra_refs(f: &FileData) -> Vec<(Vec<&str>, u32, u32)> {
    let mut out = Vec::new();
    for u in &f.uses {
        if matches!(
            u.segments.first().map(String::as_str),
            Some("crate") | Some("self")
        ) {
            let segs: Vec<&str> = u.segments[1..].iter().map(String::as_str).collect();
            if !segs.is_empty() {
                out.push((segs, u.line, u.col));
            }
        }
    }
    for r in &f.refs {
        if r.head == "crate" {
            if let Some(second) = &r.second {
                out.push((vec![second.as_str()], r.line, r.col));
            }
        }
    }
    out
}

/// The determinism reachability graph over `(crate, module)` nodes:
/// intra-crate edges (facades included as sources) plus cross-crate
/// edges resolved through the target's modules and re-exports.
fn collect_reach_edges(
    crates: &[CrateData],
    lib_index: &BTreeMap<&str, usize>,
) -> BTreeSet<(ReachNode, ReachNode)> {
    let mut edges = BTreeSet::new();
    for (ci, c) in crates.iter().enumerate() {
        for f in &c.files {
            if f.is_bin {
                continue;
            }
            let from: ReachNode = match &f.role {
                FileRole::Facade => (ci, None),
                FileRole::Module(m) => (ci, Some(m.clone())),
                FileRole::Bin => continue,
            };
            for (segs, _, _) in intra_refs(f) {
                if let Some(target) = resolve_module(c, segs.first().copied()) {
                    edges.insert((from.clone(), (ci, Some(target.to_string()))));
                }
            }
            let mut cross = |head: &str, second: Option<&str>| {
                if let Some(&di) = lib_index.get(head) {
                    if di != ci {
                        let to = match resolve_module(&crates[di], second) {
                            Some(m) => (di, Some(m.to_string())),
                            None => (di, None),
                        };
                        edges.insert((from.clone(), to));
                    }
                }
            };
            for u in &f.uses {
                if let Some(head) = u.segments.first() {
                    cross(head, u.segments.get(1).map(String::as_str));
                }
            }
            for r in &f.refs {
                cross(&r.head, r.second.as_deref());
            }
            // Crate roots may address their modules with uniform paths
            // (`pub use event::Event;`), so a head naming a module is
            // an intra-crate edge from the facade.
            if f.role == FileRole::Facade {
                for u in &f.uses {
                    if let Some(head) = u.segments.first() {
                        if c.modules.contains(head) {
                            edges.insert((from.clone(), (ci, Some(head.clone()))));
                        }
                    }
                }
                for r in &f.refs {
                    if c.modules.contains(&r.head) {
                        edges.insert((from.clone(), (ci, Some(r.head.clone()))));
                    }
                }
            }
        }
    }
    edges
}

/// Parses and applies the allowlist: findings matching a
/// `(code, file)` entry are suppressed; malformed entries are
/// `XT0701` errors and entries that suppressed nothing are `XT0702`
/// warnings.
fn apply_allowlist(root: &Path, allowlist_rel: &str, findings: Vec<Finding>) -> Vec<Finding> {
    let path = root.join(allowlist_rel);
    let Ok(text) = fs::read_to_string(&path) else {
        return findings; // no allowlist: nothing to apply
    };
    struct Entry {
        line_no: u32,
        code: String,
        file: String,
        used: bool,
    }
    let mut entries = Vec::new();
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = u32::try_from(i + 1).unwrap_or(u32::MAX);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let code = words.next().unwrap_or_default();
        let file = words.next().unwrap_or_default();
        let justification = words.next();
        let code_ok = code.len() == 6
            && code.starts_with("XT")
            && code[2..].chars().all(|ch| ch.is_ascii_digit());
        if !code_ok || file.is_empty() || justification.is_none() {
            out.push(Finding {
                code: codes::ALLOWLIST_MALFORMED,
                severity: Severity::Error,
                file: allowlist_rel.to_string(),
                line: line_no,
                col_start: 1,
                col_end: 1,
                message: format!(
                    "malformed allowlist entry (want `XTnnnn <file> <justification…>`): {line}"
                ),
            });
            continue;
        }
        entries.push(Entry {
            line_no,
            code: code.to_string(),
            file: file.to_string(),
            used: false,
        });
    }
    for f in findings {
        let suppressed = entries
            .iter_mut()
            .find(|e| e.code == f.code && e.file == f.file);
        match suppressed {
            Some(e) => e.used = true,
            None => out.push(f),
        }
    }
    for e in &entries {
        if !e.used {
            out.push(Finding {
                code: codes::ALLOWLIST_UNUSED,
                severity: Severity::Warning,
                file: allowlist_rel.to_string(),
                line: e.line_no,
                col_start: 1,
                col_end: 1,
                message: format!(
                    "allowlist entry suppressed nothing; remove it: {} {}",
                    e.code, e.file
                ),
            });
        }
    }
    out
}
