//! Workspace-wide symbol table and intra-workspace call graph.
//!
//! Built from the same lossless token stream as every other pass — no
//! AST, no type inference. Function items (and worker-closure
//! pseudo-items passed to `spawn`) become nodes; call sites inside
//! their bodies are resolved against the symbol table:
//!
//! * **plain calls** (`helper(…)`) resolve to free functions — same
//!   file, then unique-in-crate, then through the file's `use`
//!   imports, then unique-workspace;
//! * **path calls** (`crate::io::read(…)`, `CsrMatrix::identity(…)`,
//!   `Self::step(…)`) resolve through module and type qualifiers;
//! * **method calls** (`x.replay(…)`) resolve through a receiver
//!   type where the tokens pin one: `self.` uses the caller's `impl`
//!   type, `self.field` goes through the struct field table, a plain
//!   variable receiver through the caller's parameter and `let`
//!   bindings, and a call-chain tail (`Rabbit::new().run(…)`,
//!   `Pipeline::builder(…).kernel(…).build()`) through the declared
//!   return types of the workspace functions along the chain. A typed
//!   receiver binds via the per-type method table (or, when the type
//!   names a trait — `dyn`/`impl`/generic bound — via the trait-impl
//!   table, class-hierarchy-analysis style: edges to *every*
//!   implementor, reported as ambiguous).
//!
//! Method-call edges are keyed by resolved receiver/owner type only —
//! there is **no bare-name fallback**. A receiver the token stream
//! cannot type counts as external rather than growing guessed edges
//! to every same-named method (the `Rabbit::run`/`ExperimentSpec::run`
//! collision class). Call sites that name no workspace function are
//! counted as external — recorded, never guessed. The graph carries
//! three declared seed sets (determinism, hot-path, worker) whose
//! reachability closures scope the rules [`crate::effects`] derives
//! from its effect sources; the serializable projection
//! ([`CallGraphReport`]) is emitted in `analyze --json`; its
//! invariants are asserted in `tests/invariants.rs`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{code_indices, double_colon_at, ident_is, in_ranges, is_punct};
use crate::layering::cyclic_sccs;
use crate::lexer::{Token, TokenKind};
use crate::model::{CallGraphReport, CrateData, FileRole};

/// One function item — or worker-closure pseudo-item — in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning crate in the discovery order.
    pub crate_idx: usize,
    /// Index of the owning file within the crate.
    pub file_idx: usize,
    /// Display name without position: `name`, `Type::name`, or
    /// `parent::{closure}` for worker closures.
    pub name: String,
    /// Bare name used for resolution; `"{closure}"` for closures.
    pub simple: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub impl_type: Option<String>,
    /// The trait an `impl Trait for Type` block implements, when any.
    pub impl_trait: Option<String>,
    /// Byte offset of the `fn` keyword (the signature start).
    pub sig_start: usize,
    /// Byte range of the body (including delimiters).
    pub body: (usize, usize),
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// `true` for `spawn`-closure pseudo-items.
    pub is_closure: bool,
    /// Head type of the declared return type, with `Self` resolved to
    /// the impl type — `fn builder() -> PipelineBuilder` stores
    /// `PipelineBuilder`, `fn new() -> Self` on `Rabbit` stores
    /// `Rabbit`. Drives call-chain receiver typing.
    pub ret_type: Option<String>,
}

/// The assembled graph: nodes, adjacency, seed sets, and site counts.
pub struct CallGraph {
    /// Nodes sorted by (crate, file, line, col).
    pub nodes: Vec<FnNode>,
    /// Adjacency lists (sorted, deduplicated).
    pub adj: Vec<Vec<usize>>,
    /// Determinism seeds: `render_json` functions and `Pipeline`
    /// methods.
    pub seeds_determinism: BTreeSet<usize>,
    /// Hot-path seeds: nodes whose bare name is in the configured set.
    pub seeds_hotpath: BTreeSet<usize>,
    /// Worker seeds: `spawn` closures plus configured entry points.
    pub seeds_worker: BTreeSet<usize>,
    /// Call sites observed in non-test bodies.
    pub call_sites: u32,
    /// Sites with at least one workspace candidate (edges added to
    /// every candidate).
    pub resolved: u32,
    /// Sites naming no workspace function (std/core/external).
    pub external: u32,
    /// Subset of `resolved` with more than one candidate.
    pub ambiguous: u32,
    /// Resolved call-site edges with their source anchors —
    /// `(caller, callee, byte offset, line, col)` of the site's name
    /// token, one entry per (site, candidate) pair in extraction
    /// order. The effect pass anchors its findings here.
    pub site_edges: Vec<(usize, usize, usize, u32, u32)>,
    /// Node ids per (crate, file), for innermost-owner lookups.
    file_nodes: BTreeMap<(usize, usize), Vec<usize>>,
}

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "await", "box", "break", "const", "continue", "dyn", "else", "fn", "for", "if", "impl",
    "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return", "unsafe", "where",
    "while", "yield",
];

/// `true` for names a call site could bind: first char lowercase or
/// `_` (raw-identifier prefixes are stripped first).
fn is_snake(name: &str) -> bool {
    let bare = name.strip_prefix("r#").unwrap_or(name);
    bare.chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// An `impl`/`trait` block: byte range plus the type it attributes.
struct TypeBlock {
    start: usize,
    end: usize,
    name: String,
    /// For `impl Trait for Type`, the trait name.
    trait_name: Option<String>,
}

/// Extracts `impl`/`trait` block ranges with their subject type name.
/// For `impl Trait for Type` the subject is `Type`; generics, `&`,
/// `mut`, and `dyn` are skipped; `where` clauses end name collection.
fn type_blocks(src: &str, tokens: &[Token], code: &[usize]) -> Vec<TypeBlock> {
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let t = &tokens[code[i]];
        let is_impl = ident_is(t, src, "impl");
        let is_trait = ident_is(t, src, "trait");
        if !(is_impl || is_trait) {
            i += 1;
            continue;
        }
        // `impl` may also open `impl Trait` return types; those appear
        // after `->` or inside parens and never reach a `{` at depth 0
        // before `;`/`)`, so the body scan below naturally rejects them
        // when no block opens.
        let mut angle = 0i64;
        let mut before_for: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut j = i + 1;
        let mut open = None;
        while j < code.len() {
            let n = &tokens[code[j]];
            if is_punct(n, src, '<') {
                angle += 1;
            } else if is_punct(n, src, '>') {
                // `->` arrows do not close a generic bracket.
                let arrow = j > 0 && is_punct(&tokens[code[j - 1]], src, '-');
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            } else if angle == 0 {
                if is_punct(n, src, '{') {
                    open = Some(j);
                    break;
                }
                if is_punct(n, src, ';') || is_punct(n, src, '(') {
                    break; // `impl Trait` in type position / malformed
                }
                if ident_is(n, src, "for") {
                    saw_for = true;
                } else if ident_is(n, src, "where") {
                    // Type names in bounds must not win.
                    while j < code.len() && !is_punct(&tokens[code[j]], src, '{') {
                        j += 1;
                    }
                    continue;
                } else if n.kind == TokenKind::Ident
                    && !ident_is(n, src, "dyn")
                    && !ident_is(n, src, "mut")
                {
                    let slot = if saw_for {
                        &mut after_for
                    } else {
                        &mut before_for
                    };
                    *slot = Some(n.text(src).to_string());
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let (name, trait_name) = if saw_for {
            (after_for, before_for)
        } else {
            (before_for, None)
        };
        let end = matching_close(src, tokens, code, open);
        if let Some(name) = name {
            blocks.push(TypeBlock {
                start: t.start,
                end,
                name,
                trait_name,
            });
        }
        // Descend into the block so nested impls are still found.
        i = open + 1;
    }
    blocks
}

/// Byte offset one past the `}` matching the `{` at code index `open`.
fn matching_close(src: &str, tokens: &[Token], code: &[usize], open: usize) -> usize {
    let mut depth = 0i64;
    let mut k = open;
    while k < code.len() {
        let t = &tokens[code[k]];
        if is_punct(t, src, '{') {
            depth += 1;
        } else if is_punct(t, src, '}') {
            depth -= 1;
            if depth == 0 {
                return t.end;
            }
        }
        k += 1;
    }
    src.len()
}

/// What the tokens say about a method call's receiver.
enum Recv {
    /// Literal `self.name(…)`.
    SelfDirect,
    /// `self.field.name(…)` — typed through the struct field table.
    SelfField(String),
    /// `x.name(…)` on a plain variable; the byte offset disambiguates
    /// shadowed `let` bindings.
    Var(String, usize),
    /// `….prev(…).name(…)` — the receiver is a call result; the code
    /// index of its closing `)` lets the resolver walk the chain
    /// through declared return types.
    Chain(usize),
    /// Literals, index results, deep field chains — nothing the token
    /// stream can type.
    Unknown,
}

/// What one call site looks like before resolution.
enum Site {
    /// `name(…)` with no qualifier or receiver.
    Plain { name: String },
    /// `recv.name(…)`.
    Method { name: String, recv: Recv },
    /// `a::b::name(…)`.
    Path { segments: Vec<String> },
}

/// A call site plus the anchor of its name token, for `site_edges`.
struct SiteAt {
    /// The site shape.
    site: Site,
    /// Byte offset of the name token.
    pos: usize,
    /// 1-based line of the name token.
    line: u32,
    /// 1-based column of the name token.
    col: u32,
}

/// Builds the call graph over every non-test `fn` item of the
/// workspace (bin targets excluded, mirroring the module graphs).
#[must_use]
pub fn build(
    crates: &[CrateData],
    hot_seed_fns: &BTreeSet<String>,
    worker_seed_fns: &BTreeSet<String>,
) -> CallGraph {
    let mut nodes: Vec<FnNode> = Vec::new();

    // Type facts come first: return-type parsing prefers known names.
    let facts = collect_type_facts(crates);

    // Phase 1: function items.
    for (ci, c) in crates.iter().enumerate() {
        for (fi, f) in c.files.iter().enumerate() {
            if f.is_bin {
                continue;
            }
            let code = code_indices(&f.tokens);
            let blocks = type_blocks(&f.src, &f.tokens, &code);
            collect_fns(ci, fi, f, &code, &blocks, &facts.known, &mut nodes);
        }
    }
    // Phase 2: worker-closure pseudo-items (need the fns for parents).
    let mut closures = Vec::new();
    for (ci, c) in crates.iter().enumerate() {
        for (fi, f) in c.files.iter().enumerate() {
            if f.is_bin {
                continue;
            }
            let code = code_indices(&f.tokens);
            collect_spawn_closures(ci, fi, f, &code, &nodes, &mut closures);
        }
    }
    nodes.extend(closures);
    nodes.sort_by(|a, b| {
        (a.crate_idx, a.file_idx, a.line, a.col).cmp(&(b.crate_idx, b.file_idx, b.line, b.col))
    });

    let mut file_nodes: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        file_nodes
            .entry((n.crate_idx, n.file_idx))
            .or_default()
            .push(i);
    }

    let mut graph = CallGraph {
        adj: vec![Vec::new(); nodes.len()],
        nodes,
        seeds_determinism: BTreeSet::new(),
        seeds_hotpath: BTreeSet::new(),
        seeds_worker: BTreeSet::new(),
        call_sites: 0,
        resolved: 0,
        external: 0,
        ambiguous: 0,
        site_edges: Vec::new(),
        file_nodes,
    };
    graph.assign_seeds(hot_seed_fns, worker_seed_fns);
    graph.resolve_sites(crates, &facts);
    graph
}

/// Scans one file for `fn` items outside macro bodies and test
/// regions, attributing each to its innermost `impl`/`trait` block.
fn collect_fns(
    ci: usize,
    fi: usize,
    f: &crate::model::FileData,
    code: &[usize],
    blocks: &[TypeBlock],
    known: &BTreeSet<String>,
    nodes: &mut Vec<FnNode>,
) {
    let src = &f.src;
    let tokens = &f.tokens;
    let mut i = 0;
    while i + 1 < code.len() {
        let t = &tokens[code[i]];
        if !ident_is(t, src, "fn")
            || in_ranges(t.start, &f.macro_ranges)
            || in_ranges(t.start, &f.test_ranges)
        {
            i += 1;
            continue;
        }
        let name_tok = &tokens[code[i + 1]];
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // Signature scan: the body is the first `{` at paren/bracket
        // depth 0; a `;` there instead means a bodyless declaration.
        let mut depth = 0i64;
        let mut j = i + 2;
        let mut open = None;
        let mut arrow = None;
        while j < code.len() {
            let n = &tokens[code[j]];
            if is_punct(n, src, '(') || is_punct(n, src, '[') {
                depth += 1;
            } else if is_punct(n, src, ')') || is_punct(n, src, ']') {
                depth -= 1;
            } else if depth == 0 {
                if is_punct(n, src, '{') {
                    open = Some(j);
                    break;
                }
                if is_punct(n, src, ';') {
                    break;
                }
                if arrow.is_none()
                    && is_punct(n, src, '-')
                    && code.get(j + 1).is_some_and(|&k| {
                        is_punct(&tokens[k], src, '>') && n.end == tokens[k].start
                    })
                {
                    arrow = Some(j + 2);
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let end = matching_close(src, tokens, code, open);
        let block = blocks
            .iter()
            .filter(|b| b.start <= t.start && t.start < b.end)
            .min_by_key(|b| b.end - b.start);
        let impl_type = block.map(|b| b.name.clone());
        let impl_trait = block.and_then(|b| b.trait_name.clone());
        let ret_type = arrow.and_then(|a| {
            let to = (a..open)
                .find(|&m| ident_is(&tokens[code[m]], src, "where"))
                .unwrap_or(open);
            if (a..to).any(|m| ident_is(&tokens[code[m]], src, "Self")) {
                impl_type.clone()
            } else {
                type_head(src, tokens, code, a, to, known)
            }
        });
        let simple = name_tok.text(src).to_string();
        let name = match &impl_type {
            Some(ty) => format!("{ty}::{simple}"),
            None => simple.clone(),
        };
        nodes.push(FnNode {
            crate_idx: ci,
            file_idx: fi,
            name,
            simple,
            impl_type,
            impl_trait,
            sig_start: t.start,
            body: (tokens[code[open]].start, end),
            line: name_tok.line,
            col: name_tok.col,
            is_closure: false,
            ret_type,
        });
        i = open + 1; // nested fns are found by continuing inside
    }
}

/// Scans one file for closures passed to `spawn(…)` and records them
/// as pseudo-items owned by their innermost enclosing function.
fn collect_spawn_closures(
    ci: usize,
    fi: usize,
    f: &crate::model::FileData,
    code: &[usize],
    fns: &[FnNode],
    out: &mut Vec<FnNode>,
) {
    let src = &f.src;
    let tokens = &f.tokens;
    let mut i = 0;
    while i + 2 < code.len() {
        let t = &tokens[code[i]];
        if !ident_is(t, src, "spawn")
            || !is_punct(&tokens[code[i + 1]], src, '(')
            || in_ranges(t.start, &f.macro_ranges)
            || in_ranges(t.start, &f.test_ranges)
        {
            i += 1;
            continue;
        }
        // `spawn(` then optionally `move`, then the `|params|` head.
        let mut j = i + 2;
        if j < code.len() && ident_is(&tokens[code[j]], src, "move") {
            j += 1;
        }
        if j >= code.len() || !is_punct(&tokens[code[j]], src, '|') {
            i += 1;
            continue;
        }
        let bar = &tokens[code[j]];
        // The closure extends to the `)` matching spawn's `(`.
        let mut depth = 0i64;
        let mut k = i + 1;
        let mut end = src.len();
        while k < code.len() {
            let n = &tokens[code[k]];
            if is_punct(n, src, '(') || is_punct(n, src, '[') || is_punct(n, src, '{') {
                depth += 1;
            } else if is_punct(n, src, ')') || is_punct(n, src, ']') || is_punct(n, src, '}') {
                depth -= 1;
                if depth == 0 {
                    end = n.end;
                    break;
                }
            }
            k += 1;
        }
        let parent = fns
            .iter()
            .filter(|n| {
                n.crate_idx == ci && n.file_idx == fi && n.body.0 <= t.start && t.start < n.body.1
            })
            .min_by_key(|n| n.body.1 - n.body.0)
            .map_or_else(|| "?".to_string(), |n| n.name.clone());
        out.push(FnNode {
            crate_idx: ci,
            file_idx: fi,
            name: format!("{parent}::{{closure}}"),
            simple: "{closure}".to_string(),
            impl_type: None,
            impl_trait: None,
            sig_start: bar.start,
            body: (bar.start, end),
            line: bar.line,
            col: bar.col,
            is_closure: true,
            ret_type: None,
        });
        i = k.max(i + 1);
    }
}

impl CallGraph {
    /// Innermost node owning byte `pos` of file `(ci, fi)`, if any.
    #[must_use]
    pub fn owner(&self, ci: usize, fi: usize, pos: usize) -> Option<usize> {
        self.file_nodes
            .get(&(ci, fi))?
            .iter()
            .copied()
            .filter(|&n| self.nodes[n].body.0 <= pos && pos < self.nodes[n].body.1)
            .min_by_key(|&n| self.nodes[n].body.1 - self.nodes[n].body.0)
    }

    /// Marks the three seed sets from node names and the configured
    /// entry-point lists.
    fn assign_seeds(
        &mut self,
        hot_seed_fns: &BTreeSet<String>,
        worker_seed_fns: &BTreeSet<String>,
    ) {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.is_closure {
                self.seeds_worker.insert(i);
                continue;
            }
            if n.simple == "render_json" || n.impl_type.as_deref() == Some("Pipeline") {
                self.seeds_determinism.insert(i);
            }
            if hot_seed_fns.contains(&n.simple) {
                self.seeds_hotpath.insert(i);
            }
            if worker_seed_fns.contains(&n.name) {
                self.seeds_worker.insert(i);
            }
        }
    }

    /// Breadth-first closure from `seeds`; `result[n]` is the first
    /// seed (in ascending node order) that reaches `n`, or `None`.
    #[must_use]
    pub fn reachable(&self, seeds: &BTreeSet<usize>) -> Vec<Option<usize>> {
        let mut from: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for &seed in seeds {
            if from[seed].is_some() {
                continue;
            }
            let mut queue = VecDeque::from([seed]);
            from[seed] = Some(seed);
            while let Some(u) = queue.pop_front() {
                for &v in &self.adj[u] {
                    if from[v].is_none() {
                        from[v] = Some(seed);
                        queue.push_back(v);
                    }
                }
            }
        }
        from
    }

    /// The serializable projection consumed by `render_json`.
    #[must_use]
    pub fn to_report(&self, crates: &[CrateData]) -> CallGraphReport {
        let display = |i: usize| {
            let n = &self.nodes[i];
            let file = &crates[n.crate_idx].files[n.file_idx].rel;
            format!("{file}::{}@{}:{}", n.name, n.line, n.col)
        };
        let nodes: Vec<String> = (0..self.nodes.len()).map(display).collect();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (u, outs) in self.adj.iter().enumerate() {
            for &v in outs {
                edges.push((u as u32, v as u32));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut sccs: Vec<Vec<u32>> = cyclic_sccs(self.nodes.len(), &self.adj)
            .into_iter()
            .map(|c| c.into_iter().map(|i| i as u32).collect())
            .collect();
        // Direct self-recursion is a cyclic component of size one.
        let in_scc: BTreeSet<u32> = sccs.iter().flatten().copied().collect();
        for (i, outs) in self.adj.iter().enumerate() {
            if outs.contains(&i) && !in_scc.contains(&(i as u32)) {
                sccs.push(vec![i as u32]);
            }
        }
        sccs.sort();
        let set = |s: &BTreeSet<usize>| s.iter().map(|&i| i as u32).collect();
        CallGraphReport {
            nodes,
            edges,
            seeds_determinism: set(&self.seeds_determinism),
            seeds_hotpath: set(&self.seeds_hotpath),
            seeds_worker: set(&self.seeds_worker),
            sccs,
            call_sites: self.call_sites,
            resolved: self.resolved,
            external: self.external,
            ambiguous: self.ambiguous,
        }
    }

    /// Extracts and resolves every call site, filling `adj` and the
    /// site counters.
    fn resolve_sites(&mut self, crates: &[CrateData], facts: &TypeFacts) {
        let tables = Tables::build(&self.nodes, crates, facts);

        let mut new_edges: Vec<(usize, usize)> = Vec::new();
        let mut sites: u32 = 0;
        let mut resolved: u32 = 0;
        let mut external: u32 = 0;
        let mut ambiguous: u32 = 0;

        for caller in 0..self.nodes.len() {
            let n = &self.nodes[caller];
            let f = &crates[n.crate_idx].files[n.file_idx];
            let code = code_indices(&f.tokens);
            let env = caller_env(n, f, &code, &tables);
            for s in extract_sites(f, &code, self, caller) {
                sites += 1;
                let candidates = match &s.site {
                    Site::Plain { name } => tables.resolve_plain(name, n, f),
                    Site::Method { name, recv } => {
                        tables.resolve_method(name, recv, n, f, &code, &env)
                    }
                    Site::Path { segments } => {
                        tables.resolve_path(segments, n, &self.nodes, crates)
                    }
                };
                if candidates.is_empty() {
                    external += 1;
                } else {
                    resolved += 1;
                    if candidates.len() > 1 {
                        ambiguous += 1;
                    }
                    for c in candidates {
                        new_edges.push((caller, c));
                        self.site_edges.push((caller, c, s.pos, s.line, s.col));
                    }
                }
            }
        }
        // Every spawn closure is also called by its enclosing function.
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_closure {
                let n = &self.nodes[i];
                if let Some(parent) = self.owner_excluding(n.crate_idx, n.file_idx, n.body.0, i) {
                    new_edges.push((parent, i));
                }
            }
        }
        for (u, v) in new_edges {
            self.adj[u].push(v);
        }
        for outs in &mut self.adj {
            outs.sort_unstable();
            outs.dedup();
        }
        self.call_sites = sites;
        self.resolved = resolved;
        self.external = external;
        self.ambiguous = ambiguous;
    }

    /// Innermost node owning `pos`, excluding node `skip`.
    fn owner_excluding(&self, ci: usize, fi: usize, pos: usize, skip: usize) -> Option<usize> {
        self.file_nodes
            .get(&(ci, fi))?
            .iter()
            .copied()
            .filter(|&n| n != skip && self.nodes[n].body.0 <= pos && pos < self.nodes[n].body.1)
            .min_by_key(|&n| self.nodes[n].body.1 - self.nodes[n].body.0)
    }
}

/// Extracts the call sites lexically owned by `caller` from its file.
fn extract_sites(
    f: &crate::model::FileData,
    code: &[usize],
    graph: &CallGraph,
    caller: usize,
) -> Vec<SiteAt> {
    let src = &f.src;
    let tokens = &f.tokens;
    let node = &graph.nodes[caller];
    let (body_start, body_end) = node.body;
    let mut out = Vec::new();
    for (ci, &idx) in code.iter().enumerate() {
        let t = &tokens[idx];
        if t.start < body_start || t.start >= body_end || t.kind != TokenKind::Ident {
            continue;
        }
        if in_ranges(t.start, &f.test_ranges) || in_ranges(t.start, &f.macro_ranges) {
            continue;
        }
        if graph.owner(node.crate_idx, node.file_idx, t.start) != Some(caller) {
            continue;
        }
        // Mid-chain segments were consumed by their chain start.
        if ci >= 2 && double_colon_at(src, tokens, code, ci - 2) {
            continue;
        }
        let prev = ci.checked_sub(1).map(|p| &tokens[code[p]]);
        if let Some(p) = prev {
            if is_punct(p, src, '$') || ident_is(p, src, "fn") || ident_is(p, src, "use") {
                continue;
            }
        }
        let next_is = |off: usize, c: char| {
            code.get(ci + off)
                .is_some_and(|&k| is_punct(&tokens[k], src, c))
        };
        if next_is(1, '!') {
            continue; // macro invocation
        }
        let name = t.text(src).to_string();
        let anchor = |site: Site| SiteAt {
            site,
            pos: t.start,
            line: t.line,
            col: t.col,
        };
        if prev.is_some_and(|p| is_punct(p, src, '.')) {
            if call_paren_after(src, tokens, code, ci + 1) {
                let recv = receiver_shape(src, tokens, code, ci);
                out.push(anchor(Site::Method { name, recv }));
            }
            continue;
        }
        if double_colon_at(src, tokens, code, ci + 1) {
            // Walk the `a::b::c` chain.
            let mut segments = vec![name];
            let mut j = ci;
            while double_colon_at(src, tokens, code, j + 1) {
                let Some(&nk) = code.get(j + 3) else { break };
                let nt = &tokens[nk];
                if nt.kind == TokenKind::Ident {
                    segments.push(nt.text(src).to_string());
                    j += 3;
                } else {
                    break; // `::<` turbofish or `::{` group
                }
            }
            let last_snake = segments.last().is_some_and(|s| is_snake(s));
            if last_snake && segments.len() >= 2 && call_paren_after(src, tokens, code, j + 1) {
                out.push(anchor(Site::Path { segments }));
            }
            continue;
        }
        if next_is(1, '(') && is_snake(&name) && !NON_CALL_KEYWORDS.contains(&name.as_str()) {
            out.push(anchor(Site::Plain { name }));
        }
    }
    out
}

/// `true` when the code tokens at `at` open a call: `(` directly, or a
/// `::<…>` turbofish followed by `(`.
fn call_paren_after(src: &str, tokens: &[Token], code: &[usize], at: usize) -> bool {
    let Some(&k) = code.get(at) else { return false };
    if is_punct(&tokens[k], src, '(') {
        return true;
    }
    // `::<…>(` — the only other call shape.
    if !double_colon_at(src, tokens, code, at) {
        return false;
    }
    let Some(&lt) = code.get(at + 2) else {
        return false;
    };
    if !is_punct(&tokens[lt], src, '<') {
        return false;
    }
    let mut depth = 0i64;
    let mut j = at + 2;
    while j < code.len() {
        let t = &tokens[code[j]];
        if is_punct(t, src, '<') {
            depth += 1;
        } else if is_punct(t, src, '>') {
            let arrow = j > 0 && is_punct(&tokens[code[j - 1]], src, '-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return code
                        .get(j + 1)
                        .is_some_and(|&k| is_punct(&tokens[k], src, '('));
                }
            }
        }
        j += 1;
    }
    false
}

/// Receiver shape of the method ident at code index `ci` (whose
/// preceding code token is the `.`).
fn receiver_shape(src: &str, tokens: &[Token], code: &[usize], ci: usize) -> Recv {
    let Some(r) = ci.checked_sub(2) else {
        return Recv::Unknown;
    };
    let rt = &tokens[code[r]];
    if ident_is(rt, src, "self") {
        return Recv::SelfDirect;
    }
    if is_punct(rt, src, ')') {
        // Call-chain tail: `….prev(…).name(…)` — typed by walking the
        // chain through declared return types at resolution time.
        return Recv::Chain(r);
    }
    if rt.kind != TokenKind::Ident {
        return Recv::Unknown;
    }
    // `path::CONST.m(…)` — path-qualified receivers are not typed.
    if r >= 2 && double_colon_at(src, tokens, code, r - 2) {
        return Recv::Unknown;
    }
    if r >= 1 && is_punct(&tokens[code[r - 1]], src, '.') {
        if r >= 2 && ident_is(&tokens[code[r - 2]], src, "self") {
            return Recv::SelfField(rt.text(src).to_string());
        }
        return Recv::Unknown; // deeper field chains stay untyped
    }
    Recv::Var(rt.text(src).to_string(), rt.start)
}

/// Workspace-wide typing facts for receiver resolution.
struct TypeFacts {
    /// `(crate, struct, field)` → head type ident of the field.
    fields: BTreeMap<(usize, String, String), String>,
    /// Declared trait names.
    traits: BTreeSet<String>,
    /// Declared struct/enum/trait names — used to pick the most
    /// meaningful ident out of a composite type expression.
    known: BTreeSet<String>,
}

/// Scans every non-bin file for `struct`/`enum`/`trait` declarations
/// (pass 1: names) and struct field types (pass 2, which prefers
/// already-known names inside composite types like `Box<dyn Reorder>`).
fn collect_type_facts(crates: &[CrateData]) -> TypeFacts {
    let mut facts = TypeFacts {
        fields: BTreeMap::new(),
        traits: BTreeSet::new(),
        known: BTreeSet::new(),
    };
    for c in crates {
        for f in c.files.iter().filter(|f| !f.is_bin) {
            let src = &f.src;
            let tokens = &f.tokens;
            let code = code_indices(tokens);
            for i in 0..code.len().saturating_sub(1) {
                let t = &tokens[code[i]];
                if in_ranges(t.start, &f.test_ranges) || in_ranges(t.start, &f.macro_ranges) {
                    continue;
                }
                let is_decl = ident_is(t, src, "struct")
                    || ident_is(t, src, "enum")
                    || ident_is(t, src, "trait");
                let name_tok = &tokens[code[i + 1]];
                if is_decl && name_tok.kind == TokenKind::Ident {
                    facts.known.insert(name_tok.text(src).to_string());
                    if ident_is(t, src, "trait") {
                        facts.traits.insert(name_tok.text(src).to_string());
                    }
                }
            }
        }
    }
    for (ci, c) in crates.iter().enumerate() {
        for f in c.files.iter().filter(|f| !f.is_bin) {
            collect_struct_fields(ci, f, &facts.known, &mut facts.fields);
        }
    }
    facts
}

/// Records `field → head type` for every brace-bodied `struct` in one
/// file.
fn collect_struct_fields(
    ci: usize,
    f: &crate::model::FileData,
    known: &BTreeSet<String>,
    fields: &mut BTreeMap<(usize, String, String), String>,
) {
    let src = &f.src;
    let tokens = &f.tokens;
    let code = code_indices(tokens);
    let mut i = 0;
    while i + 1 < code.len() {
        let t = &tokens[code[i]];
        if !ident_is(t, src, "struct")
            || in_ranges(t.start, &f.test_ranges)
            || in_ranges(t.start, &f.macro_ranges)
        {
            i += 1;
            continue;
        }
        let name_tok = &tokens[code[i + 1]];
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let struct_name = name_tok.text(src).to_string();
        // Skip generics to the body `{`; `;`/`(` means unit/tuple.
        let mut angle = 0i64;
        let mut j = i + 2;
        let mut open = None;
        while j < code.len() {
            let n = &tokens[code[j]];
            if is_punct(n, src, '<') {
                angle += 1;
            } else if is_punct(n, src, '>') {
                let arrow = j > 0 && is_punct(&tokens[code[j - 1]], src, '-');
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            } else if angle == 0 {
                if is_punct(n, src, '{') {
                    open = Some(j);
                    break;
                }
                if is_punct(n, src, ';') || is_punct(n, src, '(') {
                    break;
                }
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        // Walk the body at depth 1: `ident :` (single colon) opens a
        // field; its type runs to the `,` or `}` closing the field.
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut k = open;
        while k < code.len() {
            let n = &tokens[code[k]];
            if is_punct(n, src, '{') || is_punct(n, src, '(') || is_punct(n, src, '[') {
                depth += 1;
            } else if is_punct(n, src, '}') || is_punct(n, src, ')') || is_punct(n, src, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if is_punct(n, src, '<') {
                angle += 1;
            } else if is_punct(n, src, '>') {
                let arrow = k > 0 && is_punct(&tokens[code[k - 1]], src, '-');
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            } else if depth == 1
                && angle == 0
                && n.kind == TokenKind::Ident
                && k + 1 < code.len()
                && is_punct(&tokens[code[k + 1]], src, ':')
                && !double_colon_at(src, tokens, &code, k + 1)
            {
                let field = n.text(src).to_string();
                // Type range: after the `:` until the field-closing
                // `,`/`}` at this depth.
                let ty_from = k + 2;
                let mut d2 = 0i64;
                let mut a2 = 0i64;
                let mut m = ty_from;
                while m < code.len() {
                    let tt = &tokens[code[m]];
                    if is_punct(tt, src, '{') || is_punct(tt, src, '(') || is_punct(tt, src, '[') {
                        d2 += 1;
                    } else if is_punct(tt, src, ')') || is_punct(tt, src, ']') {
                        d2 -= 1;
                    } else if is_punct(tt, src, '}') {
                        if d2 == 0 {
                            break;
                        }
                        d2 -= 1;
                    } else if is_punct(tt, src, '<') {
                        a2 += 1;
                    } else if is_punct(tt, src, '>') {
                        let arrow = m > 0 && is_punct(&tokens[code[m - 1]], src, '-');
                        if !arrow && a2 > 0 {
                            a2 -= 1;
                        }
                    } else if d2 == 0 && a2 == 0 && is_punct(tt, src, ',') {
                        break;
                    }
                    m += 1;
                }
                if let Some(ty) = type_head(src, tokens, &code, ty_from, m, known) {
                    fields.insert((ci, struct_name.clone(), field), ty);
                }
                k = m;
                continue;
            }
            k += 1;
        }
        i = open + 1;
    }
}

/// The most meaningful type ident in `code[from..to)`: the first that
/// names a workspace type or trait, else the first uppercase-initial
/// ident — so `Box<dyn Reorder>` yields `Reorder` (known trait) while
/// `Vec<Mutex<usize>>` yields `Vec`.
fn type_head(
    src: &str,
    tokens: &[Token],
    code: &[usize],
    from: usize,
    to: usize,
    known: &BTreeSet<String>,
) -> Option<String> {
    let mut first_upper = None;
    for j in from..to.min(code.len()) {
        let t = &tokens[code[j]];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        if matches!(text, "dyn" | "mut" | "impl" | "const" | "as") {
            continue;
        }
        if known.contains(text) {
            return Some(text.to_string());
        }
        if first_upper.is_none() && text.chars().next().is_some_and(char::is_uppercase) {
            first_upper = Some(text.to_string());
        }
    }
    first_upper
}

/// Variable types visible inside one function: parameters (bound at
/// offset 0) plus `let` bindings at their byte offsets, so shadowing
/// resolves to the latest binding before the use site.
struct TypeEnv {
    bindings: BTreeMap<String, Vec<(usize, String)>>,
}

impl TypeEnv {
    fn lookup(&self, name: &str, pos: usize) -> Option<&str> {
        self.bindings
            .get(name)?
            .iter()
            .rev()
            .find(|(p, _)| *p <= pos)
            .map(|(_, t)| t.as_str())
    }

    fn bind(&mut self, name: &str, pos: usize, ty: String) {
        self.bindings
            .entry(name.to_string())
            .or_default()
            .push((pos, ty));
    }
}

/// Builds the type environment for one caller: generic parameters map
/// to their first bound (`<T: Reorder>` types `T` as the `Reorder`
/// trait), signature parameters bind their head type, and `let`
/// bindings bind an annotated type, the chain-walked type of the
/// right-hand side, or the `Type::` constructor head as a fallback.
fn caller_env(
    node: &FnNode,
    f: &crate::model::FileData,
    code: &[usize],
    tables: &Tables,
) -> TypeEnv {
    let facts = tables.facts;
    let src = &f.src;
    let tokens = &f.tokens;
    let mut env = TypeEnv {
        bindings: BTreeMap::new(),
    };
    let mut generics: BTreeMap<String, Option<String>> = BTreeMap::new();

    if !node.is_closure {
        let sig = code
            .iter()
            .position(|&k| tokens[k].start == node.sig_start)
            .unwrap_or(0);
        let mut j = sig + 2; // past `fn name`
        if code.get(j).is_some_and(|&k| is_punct(&tokens[k], src, '<')) {
            let mut angle = 0i64;
            while j < code.len() {
                let t = &tokens[code[j]];
                if is_punct(t, src, '<') {
                    angle += 1;
                } else if is_punct(t, src, '>') {
                    let arrow = j > 0 && is_punct(&tokens[code[j - 1]], src, '-');
                    if !arrow {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                } else if angle == 1
                    && t.kind == TokenKind::Ident
                    && j > 0
                    && (is_punct(&tokens[code[j - 1]], src, '<')
                        || is_punct(&tokens[code[j - 1]], src, ','))
                {
                    // `T` in `<T: Bound, …>` — capture the first bound.
                    let mut bound = None;
                    if code
                        .get(j + 1)
                        .is_some_and(|&k| is_punct(&tokens[k], src, ':'))
                    {
                        for m in (j + 2)..code.len() {
                            let b = &tokens[code[m]];
                            if b.kind == TokenKind::Ident
                                && b.text(src).chars().next().is_some_and(char::is_uppercase)
                            {
                                bound = Some(b.text(src).to_string());
                                break;
                            }
                            if is_punct(b, src, ',') || is_punct(b, src, '>') {
                                break;
                            }
                        }
                    }
                    generics.insert(t.text(src).to_string(), bound);
                }
                j += 1;
            }
        }
        // Parameter list: `ident :` pairs at paren depth 1.
        if code.get(j).is_some_and(|&k| is_punct(&tokens[k], src, '(')) {
            let mut depth = 0i64;
            let mut angle = 0i64;
            let mut k = j;
            while k < code.len() {
                let t = &tokens[code[k]];
                if is_punct(t, src, '(') || is_punct(t, src, '[') || is_punct(t, src, '{') {
                    depth += 1;
                } else if is_punct(t, src, ')') || is_punct(t, src, ']') || is_punct(t, src, '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if is_punct(t, src, '<') {
                    angle += 1;
                } else if is_punct(t, src, '>') {
                    let arrow = k > 0 && is_punct(&tokens[code[k - 1]], src, '-');
                    if !arrow && angle > 0 {
                        angle -= 1;
                    }
                } else if depth == 1
                    && angle == 0
                    && t.kind == TokenKind::Ident
                    && code
                        .get(k + 1)
                        .is_some_and(|&c| is_punct(&tokens[c], src, ':'))
                    && !double_colon_at(src, tokens, code, k + 1)
                {
                    // Type range: to the `,` at depth 1 / angle 0, or
                    // the parameter list's `)`.
                    let ty_from = k + 2;
                    let mut d2 = depth;
                    let mut a2 = 0i64;
                    let mut m = ty_from;
                    while m < code.len() {
                        let tt = &tokens[code[m]];
                        if is_punct(tt, src, '(')
                            || is_punct(tt, src, '[')
                            || is_punct(tt, src, '{')
                        {
                            d2 += 1;
                        } else if is_punct(tt, src, ')')
                            || is_punct(tt, src, ']')
                            || is_punct(tt, src, '}')
                        {
                            d2 -= 1;
                            if d2 == 0 {
                                break;
                            }
                        } else if is_punct(tt, src, '<') {
                            a2 += 1;
                        } else if is_punct(tt, src, '>') {
                            let arrow = m > 0 && is_punct(&tokens[code[m - 1]], src, '-');
                            if !arrow && a2 > 0 {
                                a2 -= 1;
                            }
                        } else if d2 == 1 && a2 == 0 && is_punct(tt, src, ',') {
                            break;
                        }
                        m += 1;
                    }
                    if let Some(ty) = type_head(src, tokens, code, ty_from, m, &facts.known) {
                        let ty = match generics.get(&ty) {
                            Some(Some(bound)) => Some(bound.clone()),
                            Some(None) => None,
                            None => Some(ty),
                        };
                        if let Some(ty) = ty {
                            env.bind(t.text(src), 0, ty);
                        }
                    }
                    k = m;
                    continue;
                }
                k += 1;
            }
        }
    }

    // `let` bindings inside the body.
    let (body_start, body_end) = node.body;
    for i in 0..code.len() {
        let t = &tokens[code[i]];
        if t.start < body_start || t.start >= body_end {
            continue;
        }
        if !ident_is(t, src, "let") {
            continue;
        }
        let mut k = i + 1;
        if code
            .get(k)
            .is_some_and(|&c| ident_is(&tokens[c], src, "mut"))
        {
            k += 1;
        }
        let Some(&nk) = code.get(k) else { continue };
        let name_tok = &tokens[nk];
        if name_tok.kind != TokenKind::Ident || !is_snake(name_tok.text(src)) {
            continue; // destructuring patterns stay untyped
        }
        let Some(&after) = code.get(k + 1) else {
            continue;
        };
        if is_punct(&tokens[after], src, ':') && !double_colon_at(src, tokens, code, k + 1) {
            // `let x: Type = …` — type runs to the `=` or `;`.
            let ty_from = k + 2;
            let mut m = ty_from;
            let mut d2 = 0i64;
            let mut a2 = 0i64;
            while m < code.len() {
                let tt = &tokens[code[m]];
                if is_punct(tt, src, '(') || is_punct(tt, src, '[') || is_punct(tt, src, '{') {
                    d2 += 1;
                } else if is_punct(tt, src, ')') || is_punct(tt, src, ']') || is_punct(tt, src, '}')
                {
                    d2 -= 1;
                } else if is_punct(tt, src, '<') {
                    a2 += 1;
                } else if is_punct(tt, src, '>') {
                    let arrow = m > 0 && is_punct(&tokens[code[m - 1]], src, '-');
                    if !arrow && a2 > 0 {
                        a2 -= 1;
                    }
                } else if d2 == 0 && a2 == 0 && (is_punct(tt, src, '=') || is_punct(tt, src, ';')) {
                    break;
                }
                m += 1;
            }
            if let Some(ty) = type_head(src, tokens, code, ty_from, m, &facts.known) {
                if !generics.contains_key(&ty) {
                    env.bind(name_tok.text(src), name_tok.start, ty);
                }
            }
        } else if is_punct(&tokens[after], src, '=') {
            // `let x = …;` — the right-hand side is typed through the
            // chain walker when possible (`let b = Pipeline::builder()`
            // types `b` as `PipelineBuilder`), falling back to the
            // uppercase constructor head for struct literals and
            // external constructors (`Vec::new()` stays `Vec`).
            let rhs_from = k + 2;
            let mut d2 = 0i64;
            let mut m = rhs_from;
            let mut last = None;
            while m < code.len() {
                let tt = &tokens[code[m]];
                if is_punct(tt, src, '(') || is_punct(tt, src, '[') || is_punct(tt, src, '{') {
                    d2 += 1;
                } else if is_punct(tt, src, ')') || is_punct(tt, src, ']') || is_punct(tt, src, '}')
                {
                    d2 -= 1;
                    if d2 < 0 {
                        break;
                    }
                } else if d2 == 0 && is_punct(tt, src, ';') {
                    break;
                }
                last = Some(m);
                m += 1;
            }
            let chain_ty = last
                .and_then(|l| value_type(tables, node, f, code, &env, l, 0))
                .filter(|ty| !generics.contains_key(ty));
            if let Some(ty) = chain_ty {
                env.bind(name_tok.text(src), name_tok.start, ty);
            } else if let Some(&rhs) = code.get(rhs_from) {
                let rt = &tokens[rhs];
                if rt.kind == TokenKind::Ident
                    && rt.text(src).chars().next().is_some_and(char::is_uppercase)
                    && !generics.contains_key(rt.text(src))
                {
                    env.bind(name_tok.text(src), name_tok.start, rt.text(src).to_string());
                }
            }
        }
    }
    env
}

/// Symbol-table indices shared by every resolution step. Plain calls
/// can only bind free functions; method calls only `impl`/`trait`
/// methods.
struct Tables<'a> {
    nodes: &'a [FnNode],
    /// `(crate, file, name)` → free functions declared there.
    free_by_file: BTreeMap<(usize, usize, &'a str), Vec<usize>>,
    /// `(crate, name)` → free functions declared there.
    free_by_crate: BTreeMap<(usize, &'a str), Vec<usize>>,
    /// `name` → free functions anywhere in the workspace.
    free_global: BTreeMap<&'a str, Vec<usize>>,
    /// `(impl type, method)` → methods — the only way a method call
    /// binds. Inherent methods shadow same-named trait methods.
    by_type_method: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    /// `(trait, method)` → implementors, plus trait default methods.
    trait_methods: BTreeMap<(String, String), Vec<usize>>,
    /// Crate lib name → crate index.
    lib_index: BTreeMap<&'a str, usize>,
    facts: &'a TypeFacts,
}

impl<'a> Tables<'a> {
    fn build(nodes: &'a [FnNode], crates: &'a [CrateData], facts: &'a TypeFacts) -> Self {
        let mut t = Tables {
            nodes,
            free_by_file: BTreeMap::new(),
            free_by_crate: BTreeMap::new(),
            free_global: BTreeMap::new(),
            by_type_method: BTreeMap::new(),
            trait_methods: BTreeMap::new(),
            lib_index: crates
                .iter()
                .enumerate()
                .map(|(i, c)| (c.lib_name.as_str(), i))
                .collect(),
            facts,
        };
        for (i, n) in nodes.iter().enumerate() {
            if n.is_closure {
                continue;
            }
            match &n.impl_type {
                Some(ty) => {
                    t.by_type_method
                        .entry((ty.as_str(), &n.simple))
                        .or_default()
                        .push(i);
                }
                None => {
                    t.free_by_file
                        .entry((n.crate_idx, n.file_idx, &n.simple))
                        .or_default()
                        .push(i);
                    t.free_by_crate
                        .entry((n.crate_idx, &n.simple))
                        .or_default()
                        .push(i);
                    t.free_global.entry(&n.simple).or_default().push(i);
                }
            }
            if let Some(tr) = &n.impl_trait {
                t.trait_methods
                    .entry((tr.clone(), n.simple.clone()))
                    .or_default()
                    .push(i);
            } else if let Some(ty) = &n.impl_type {
                if facts.traits.contains(ty) {
                    t.trait_methods
                        .entry((ty.clone(), n.simple.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        // Rust binds an inherent method before a trait method of the
        // same name, so where a type has both only the inherent ones bind.
        for c in t.by_type_method.values_mut() {
            if c.iter().any(|&i| nodes[i].impl_trait.is_none()) {
                c.retain(|&i| nodes[i].impl_trait.is_none());
            }
        }
        t
    }

    /// Declared return type of `ty::name` when the workspace has
    /// exactly one such method and its signature declares one.
    fn assoc_ret(&self, ty: &str, name: &str) -> Option<&str> {
        let c = self.by_type_method.get(&(ty, name))?;
        if c.len() == 1 {
            self.nodes[c[0]].ret_type.as_deref()
        } else {
            None
        }
    }

    /// Resolves a plain `name(…)` call to free functions: same file →
    /// unique in crate → through `use` imports → unique in workspace.
    fn resolve_plain(&self, name: &str, caller: &FnNode, f: &crate::model::FileData) -> Vec<usize> {
        if let Some(c) = self
            .free_by_file
            .get(&(caller.crate_idx, caller.file_idx, name))
        {
            if c.len() == 1 {
                return c.clone();
            }
        }
        if let Some(c) = self.free_by_crate.get(&(caller.crate_idx, name)) {
            if c.len() == 1 {
                return c.clone();
            }
        }
        // A `use` whose last segment is the name tells us the crate.
        for u in &f.uses {
            if u.segments.last().map(String::as_str) != Some(name) {
                continue;
            }
            let target = match u.segments.first().map(String::as_str) {
                Some("crate") | Some("self") => Some(caller.crate_idx),
                Some(head) => self.lib_index.get(head).copied(),
                None => None,
            };
            if let Some(k) = target {
                if let Some(c) = self.free_by_crate.get(&(k, name)) {
                    if c.len() == 1 {
                        return c.clone();
                    }
                }
            }
        }
        self.free_global.get(name).cloned().unwrap_or_default()
    }

    /// Resolves a `recv.name(…)` method call against workspace methods.
    ///
    /// A typed receiver (from `self`, the field table, the caller's
    /// type environment, or a call chain walked through declared return
    /// types) binds through the per-type method table; when the type
    /// names a trait (`dyn`/`impl`/generic bound) the trait-impl table
    /// supplies the CHA candidate set instead. A receiver the tokens
    /// cannot type is external — method edges are keyed by resolved
    /// receiver type only, never guessed from the bare name.
    fn resolve_method(
        &self,
        name: &str,
        recv: &Recv,
        caller: &FnNode,
        f: &crate::model::FileData,
        code: &[usize],
        env: &TypeEnv,
    ) -> Vec<usize> {
        let ty: Option<String> = match recv {
            Recv::SelfDirect => caller.impl_type.clone(),
            Recv::SelfField(field) => caller.impl_type.as_ref().and_then(|t| {
                self.facts
                    .fields
                    .get(&(caller.crate_idx, t.clone(), field.clone()))
                    .cloned()
            }),
            Recv::Var(v, pos) => env.lookup(v, *pos).map(str::to_string),
            Recv::Chain(end) => value_type(self, caller, f, code, env, *end, 0),
            Recv::Unknown => None,
        };
        let Some(ty) = ty else {
            return Vec::new();
        };
        if let Some(c) = self.by_type_method.get(&(ty.as_str(), name)) {
            return c.clone();
        }
        if self.facts.traits.contains(&ty) {
            return self
                .trait_methods
                .get(&(ty.clone(), name.to_string()))
                .cloned()
                .unwrap_or_default();
        }
        if matches!(recv, Recv::SelfDirect) {
            // An inherited trait default method: `self.step()` inside
            // `impl Trait for Type` where `step` has no override.
            if let Some(tr) = &caller.impl_trait {
                if let Some(c) = self.trait_methods.get(&(tr.clone(), name.to_string())) {
                    return c.clone();
                }
            }
        }
        Vec::new()
    }

    /// Resolves an `a::b::name(…)` path call: `Self::`/type qualifiers
    /// go through the per-type method table, module qualifiers through
    /// the free-function tables narrowed by the head crate and the
    /// qualifier's module.
    fn resolve_path(
        &self,
        segments: &[String],
        caller: &FnNode,
        nodes: &[FnNode],
        crates: &[CrateData],
    ) -> Vec<usize> {
        let name = segments.last().map(String::as_str).unwrap_or_default();
        let qual = segments
            .get(segments.len().wrapping_sub(2))
            .map(String::as_str)
            .unwrap_or_default();
        if qual == "Self" {
            if let Some(ty) = &caller.impl_type {
                if let Some(c) = self.by_type_method.get(&(ty.as_str(), name)) {
                    return c.clone();
                }
            }
            return Vec::new();
        }
        if qual.chars().next().is_some_and(char::is_uppercase) {
            // Type-qualified associated call: `Vec::new` and friends
            // miss the table and come back external.
            return self
                .by_type_method
                .get(&(qual, name))
                .cloned()
                .unwrap_or_default();
        }
        // Keeps candidates living in the module the qualifier names;
        // for two-segment paths (`crate::step`) the qualifier is the
        // head and no module narrowing applies.
        let in_module = |cands: &[usize]| -> Vec<usize> {
            if qual == "crate" || qual == "self" {
                return cands.to_vec();
            }
            cands
                .iter()
                .copied()
                .filter(|&i| {
                    let n = &nodes[i];
                    matches!(
                        &crates[n.crate_idx].files[n.file_idx].role,
                        FileRole::Module(m) if m == qual
                    )
                })
                .collect()
        };
        let head = segments.first().map(String::as_str).unwrap_or_default();
        let target_crate = match head {
            "crate" | "self" => Some(caller.crate_idx),
            h => self.lib_index.get(h).copied().or_else(|| {
                // `helper::step()` where `helper` is a module of the
                // caller's crate.
                crates[caller.crate_idx]
                    .modules
                    .contains(h)
                    .then_some(caller.crate_idx)
            }),
        };
        if let Some(k) = target_crate {
            let Some(c) = self.free_by_crate.get(&(k, name)) else {
                return Vec::new();
            };
            let filtered = in_module(c);
            if !filtered.is_empty() {
                return filtered;
            }
            if c.len() == 1 {
                // The re-export surface may hide the module; a unique
                // same-crate free function is still an unambiguous
                // match.
                return c.clone();
            }
            return Vec::new();
        }
        // Unknown head (`std::mem::take`): match only when a workspace
        // module named like the qualifier defines the function;
        // anything else is external, never guessed.
        let cands = self.free_global.get(name).cloned().unwrap_or_default();
        in_module(&cands)
    }
}

/// Static type of the value expression ending at code index `end`:
/// `self`, typed variables, `self.field`, tuple-struct constructors,
/// and call results typed through declared return types — so
/// `Pipeline::builder(…).kernel(…)` types as `PipelineBuilder` when
/// `builder` declares that return type and `kernel` returns `Self`.
/// Conservative: any step the tokens cannot type makes the whole
/// expression untyped.
fn value_type(
    tables: &Tables,
    caller: &FnNode,
    f: &crate::model::FileData,
    code: &[usize],
    env: &TypeEnv,
    end: usize,
    depth: usize,
) -> Option<String> {
    if depth > 8 {
        return None;
    }
    let src = &f.src;
    let tokens = &f.tokens;
    let t = &tokens[code[end]];
    if t.kind == TokenKind::Ident {
        if ident_is(t, src, "self") {
            return caller.impl_type.clone();
        }
        if end >= 1 && is_punct(&tokens[code[end - 1]], src, '.') {
            // `self.field` types through the field table; deeper field
            // chains stay untyped.
            if end >= 2 && ident_is(&tokens[code[end - 2]], src, "self") {
                let ty = caller.impl_type.as_ref()?;
                return tables
                    .facts
                    .fields
                    .get(&(caller.crate_idx, ty.clone(), t.text(src).to_string()))
                    .cloned();
            }
            return None;
        }
        if end >= 2 && double_colon_at(src, tokens, code, end - 2) {
            return None; // path-qualified const / enum variant
        }
        return env.lookup(t.text(src), t.start).map(str::to_string);
    }
    if !is_punct(t, src, ')') {
        return None;
    }
    // Walk back to the `(` matching the call's closing `)`.
    let mut d = 0i64;
    let mut k = end;
    loop {
        let tt = &tokens[code[k]];
        if is_punct(tt, src, ')') || is_punct(tt, src, ']') || is_punct(tt, src, '}') {
            d += 1;
        } else if is_punct(tt, src, '(') || is_punct(tt, src, '[') || is_punct(tt, src, '{') {
            d -= 1;
            if d == 0 {
                break;
            }
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    // The callee ident directly before the `(` (turbofish chains are
    // left untyped).
    let m_idx = k.checked_sub(1)?;
    let m_tok = &tokens[code[m_idx]];
    if m_tok.kind != TokenKind::Ident {
        return None;
    }
    let m = m_tok.text(src);
    if NON_CALL_KEYWORDS.contains(&m) {
        return None;
    }
    if m_idx >= 2 && double_colon_at(src, tokens, code, m_idx - 2) {
        // `Q::m(…)` — an associated call on a type qualifier.
        let q_idx = m_idx.checked_sub(3)?;
        let q_tok = &tokens[code[q_idx]];
        if q_tok.kind != TokenKind::Ident {
            return None;
        }
        let qual = q_tok.text(src);
        let ty = if qual == "Self" {
            caller.impl_type.clone()?
        } else if qual.chars().next().is_some_and(char::is_uppercase) {
            qual.to_string()
        } else {
            return None; // module-path free call — not chained through
        };
        return tables.assoc_ret(&ty, m).map(str::to_string);
    }
    if m_idx >= 1 && is_punct(&tokens[code[m_idx - 1]], src, '.') {
        // `expr.m(…)` — recurse on the receiver expression.
        let base_end = m_idx.checked_sub(2)?;
        let base = value_type(tables, caller, f, code, env, base_end, depth + 1)?;
        return tables.assoc_ret(&base, m).map(str::to_string);
    }
    if m.chars().next().is_some_and(char::is_uppercase) {
        // `Foo(…)` — a tuple-struct constructor of a known type.
        return tables.facts.known.contains(m).then(|| m.to_string());
    }
    // Plain free call `m(…)` — a unique workspace target types it.
    let cands = tables.resolve_plain(m, caller, f);
    if cands.len() == 1 {
        return tables.nodes[cands[0]].ret_type.clone();
    }
    None
}
