//! Interprocedural effect inference (`XT1001`–`XT1005`).
//!
//! Every function node of the [`CallGraph`] gets a six-bit effect mask
//! — `allocates`, `locks`, `panics`, `does_io`, `nondeterministic`,
//! `unsafe` — computed in two steps:
//!
//! 1. **Local sources.** One token scan per file records every
//!    lexical effect source with its owning node: container
//!    construction, `.collect()`/`.to_vec()`, `.clone()`/
//!    `.to_owned()`/`.to_string()` and `format!` (allocation),
//!    `.lock()`/`.try_lock()` (locking), the panic-family macros
//!    (`panic!`, `unreachable!`, `todo!`, `unimplemented!`),
//!    filesystem/stream access and the print macros (I/O), hash-order
//!    iteration, clocks, environment reads and thread identity
//!    (nondeterminism), and `unsafe` tokens. The same scan records
//!    `.unwrap()`/`.expect()` calls and slice indexing, which set no
//!    lattice bit and only feed the worker-path rules.
//! 2. **Fixed point.** Masks propagate bottom-up over the SCC
//!    condensation of the call graph: Tarjan emits components
//!    callees-first, every member of a component takes the union of
//!    the component's local bits and all callee masks, so
//!    `mask[caller] ⊇ mask[callee]` holds over every edge — the
//!    monotonicity invariant `tests/invariants.rs` asserts.
//!
//! Each inherited bit carries provenance: `via[u][b]` is the first
//! callee on a *shortest* path from `u` to a local source of bit `b`
//! (the node itself for local bits, `-1` for unset bits), computed by
//! a per-bit multi-source BFS over the reversed graph. Following the
//! `via` next-hops therefore terminates at a local source, which is
//! how [`Effects::witness_path`] prints explanations.
//!
//! Every call-graph rule is a filter over those sources (or over the
//! inferred masks at call sites):
//!
//! * `XT0801`–`XT0804` — an allocation source (construction,
//!   materialization, duplication, `format!`) inside a loop of a
//!   function reachable from a hot-path seed;
//! * `XT0904`/`XT0905` — an `unwrap`/`expect` or indexing source in a
//!   worker-reachable function, workspace-wide;
//! * `XT1001` — a hash-iteration or thread-identity source in a
//!   function reachable from a determinism seed (clock and
//!   environment sources stay with the audited `XT0502`/`XT0503`);
//! * `XT1002` — a call inside a loop of a per-access function whose
//!   callee's inferred mask allocates;
//! * `XT1003` — a panic-family macro in a worker-reachable function
//!   outside the engine crates;
//! * `XT1004` — a lock acquired outside the engine crates in a
//!   worker-reachable function;
//! * `XT1005` — an I/O effect inside (or called into) a crate the
//!   configuration declares pure.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::codes;
use crate::findings::{Finding, Severity};
use crate::items::{
    call_opens, code_indices, double_colon_at, ident_in, ident_is, in_ranges, is_punct, loop_bodies,
};
use crate::lexer::{Token, TokenKind};
use crate::model::{CrateData, EffectRow, EffectsReport};

/// Effect bit: constructs containers or duplicates buffers.
pub const ALLOCATES: u32 = 1;
/// Effect bit: acquires a lock.
pub const LOCKS: u32 = 2;
/// Effect bit: reaches an explicit panic-family macro.
pub const PANICS: u32 = 4;
/// Effect bit: touches the filesystem or the standard streams.
pub const DOES_IO: u32 = 8;
/// Effect bit: observes nondeterministic state (hash iteration order,
/// clocks, the environment, thread identity).
pub const NONDET: u32 = 16;
/// Effect bit: contains an `unsafe` token.
pub const UNSAFE: u32 = 32;

/// JSON names of the six bits, lowest bit first — the `"bits"` array
/// of the report's `"effects"` section.
pub const BIT_NAMES: [&str; 6] = [
    "allocates",
    "locks",
    "panics",
    "does_io",
    "nondeterministic",
    "unsafe",
];

/// Container types whose associated constructors allocate.
const CONTAINERS: &[&str] = &[
    "BTreeMap", "BTreeSet", "Box", "HashMap", "HashSet", "String", "Vec", "VecDeque",
];

/// Allocating associated-function names on [`CONTAINERS`].
const CONSTRUCTORS: &[&str] = &["from", "new", "with_capacity"];

/// What kind of lexical effect source a token matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Container construction: `Vec::new`, `Box::new`, `vec!`, ….
    AllocNew,
    /// Iterator materialization: `.collect()`, `.to_vec()`.
    AllocCollect,
    /// Duplication: `.clone()`, `.to_owned()`, `.to_string()`.
    AllocClone,
    /// `format!`.
    AllocFormat,
    /// `.lock()` / `.try_lock()` acquisition.
    Lock,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// Filesystem access, standard streams, or a print-family macro.
    Io,
    /// Iteration over a `HashMap`/`HashSet` binding (order leaks).
    HashIter,
    /// `Instant::now` / `SystemTime::now`.
    Clock,
    /// `env::var*` / `available_parallelism`.
    EnvRead,
    /// `thread::current`.
    ThreadId,
    /// An `unsafe` token.
    Unsafe,
    /// `.unwrap()` / `.expect()`: a panic site that sets no bit.
    Unwrap,
    /// Slice indexing `expr[…]`: a panic site that sets no bit.
    Index,
}

impl SourceKind {
    /// The lattice bit this source sets (`0` for the worker-path panic
    /// sites, which the lattice does not track).
    #[must_use]
    pub fn bit(self) -> u32 {
        match self {
            SourceKind::AllocNew
            | SourceKind::AllocCollect
            | SourceKind::AllocClone
            | SourceKind::AllocFormat => ALLOCATES,
            SourceKind::Lock => LOCKS,
            SourceKind::PanicMacro => PANICS,
            SourceKind::Io => DOES_IO,
            SourceKind::HashIter
            | SourceKind::Clock
            | SourceKind::EnvRead
            | SourceKind::ThreadId => NONDET,
            SourceKind::Unsafe => UNSAFE,
            SourceKind::Unwrap | SourceKind::Index => 0,
        }
    }
}

/// One lexical effect source inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSource {
    /// What matched.
    pub kind: SourceKind,
    /// Byte offset of the anchor token in its file.
    pub pos: usize,
    /// 1-based line of the anchor token.
    pub line: u32,
    /// 1-based column of the anchor token.
    pub col: u32,
    /// Column one past the anchor token.
    pub col_end: u32,
    /// Human-readable description of the match.
    pub what: String,
}

/// The inferred effect lattice over one call graph.
pub struct Effects {
    /// Lexically-present effect bits per node.
    pub local: Vec<u32>,
    /// Fixed-point effect bits per node (`local` closed over calls).
    pub mask: Vec<u32>,
    /// Witness next-hop per node and bit: the node itself for local
    /// bits, the first callee of a shortest path to a local source for
    /// inherited bits, `-1` for unset bits.
    pub via: Vec<[i32; 6]>,
    /// The local sources per node, in body order.
    pub sources: Vec<Vec<EffectSource>>,
}

/// Computes the effect lattice: scans every node body for local
/// sources, then closes the masks over the call edges and derives the
/// per-bit witness next-hops.
#[must_use]
pub fn compute(crates: &[CrateData], graph: &CallGraph) -> Effects {
    let n = graph.nodes.len();
    let mut sources: Vec<Vec<EffectSource>> = vec![Vec::new(); n];
    let files: BTreeSet<(usize, usize)> = graph
        .nodes
        .iter()
        .map(|node| (node.crate_idx, node.file_idx))
        .collect();
    for (ci, fi) in files {
        scan_file(crates, graph, ci, fi, &mut sources);
    }
    let local: Vec<u32> = sources
        .iter()
        .map(|list| list.iter().fold(0, |m, s| m | s.kind.bit()))
        .collect();
    let mask = propagate(&local, &graph.adj);
    let via = witnesses(&local, &mask, &graph.adj);
    Effects {
        local,
        mask,
        via,
        sources,
    }
}

impl Effects {
    /// The serializable projection consumed by `render_json`: one row
    /// per effectful node plus the stats `tests/invariants.rs` re-derives.
    #[must_use]
    pub fn to_report(&self) -> EffectsReport {
        let mut rows = Vec::new();
        let mut local_bits = 0u32;
        let mut total_bits = 0u32;
        for u in 0..self.mask.len() {
            local_bits += self.local[u].count_ones();
            total_bits += self.mask[u].count_ones();
            if self.mask[u] != 0 {
                rows.push(EffectRow {
                    node: u32::try_from(u).unwrap_or(u32::MAX),
                    mask: self.mask[u],
                    local: self.local[u],
                    via: self.via[u],
                });
            }
        }
        EffectsReport {
            rows,
            functions: u32::try_from(self.mask.len()).unwrap_or(u32::MAX),
            local_bits,
            propagated_bits: total_bits - local_bits,
        }
    }

    /// Node sequence of the shortest witness path from `start` to a
    /// local source of `bit`, following the `via` next-hops. The last
    /// node carries the bit locally.
    #[must_use]
    pub fn witness_path(&self, start: usize, bit: u32) -> Vec<usize> {
        let b = bit.trailing_zeros() as usize;
        let mut path = vec![start];
        let mut u = start;
        // Shortest-path distances strictly decrease along `via`, so the
        // walk is bounded by the node count even on a malformed table.
        for _ in 0..self.mask.len() {
            let v = self.via[u].get(b).copied().unwrap_or(-1);
            if v < 0 || v as usize == u {
                break;
            }
            u = v as usize;
            path.push(u);
        }
        path
    }
}

/// Scans one file's code tokens and attributes every local effect
/// source to its innermost owning node.
fn scan_file(
    crates: &[CrateData],
    graph: &CallGraph,
    ci: usize,
    fi: usize,
    sources: &mut [Vec<EffectSource>],
) {
    let f = &crates[ci].files[fi];
    let src = &f.src;
    let tokens = &f.tokens;
    let code = code_indices(tokens);
    // `let`-bound `HashMap`/`HashSet` variables per owner, recorded as
    // the scan passes their bindings (bindings precede uses).
    let mut hash_vars: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();

    for (k, &idx) in code.iter().enumerate() {
        let t = &tokens[idx];
        // The kind test comes first: owner lookups are the scan's cost.
        let indexing = is_punct(t, src, '[') && k >= 1 && indexes(src, &tokens[code[k - 1]]);
        if !(t.kind == TokenKind::Ident || indexing)
            || in_ranges(t.start, &f.test_ranges)
            || in_ranges(t.start, &f.macro_ranges)
        {
            continue;
        }
        let Some(owner) = graph.owner(ci, fi, t.start) else {
            continue;
        };
        let push =
            |sources: &mut [Vec<EffectSource>], kind: SourceKind, at: &Token, what: String| {
                sources[owner].push(EffectSource {
                    kind,
                    pos: at.start,
                    line: at.line,
                    col: at.col,
                    col_end: at.col + u32::try_from(at.end - at.start).unwrap_or(0),
                    what,
                });
            };
        if indexing {
            push(sources, SourceKind::Index, t, "slice indexing".into());
            continue;
        }
        let word = t.text(src);
        let next_is = |c: char| {
            code.get(k + 1)
                .is_some_and(|&m| is_punct(&tokens[m], src, c))
        };
        if next_is('!') {
            match word {
                "vec" => push(
                    sources,
                    SourceKind::AllocNew,
                    t,
                    "`vec!` construction".into(),
                ),
                "format" => push(sources, SourceKind::AllocFormat, t, "`format!`".into()),
                "panic" | "unreachable" | "todo" | "unimplemented" => {
                    push(sources, SourceKind::PanicMacro, t, format!("`{word}!`"));
                }
                "print" | "println" | "eprint" | "eprintln" => {
                    push(sources, SourceKind::Io, t, format!("`{word}!`"));
                }
                _ => {}
            }
            continue;
        }
        if word == "unsafe" {
            push(sources, SourceKind::Unsafe, t, "`unsafe` block".into());
            continue;
        }
        // Path-shaped sources: `Qual::assoc(…)`.
        if double_colon_at(src, tokens, &code, k + 1)
            && code
                .get(k + 3)
                .is_some_and(|&m| tokens[m].kind == TokenKind::Ident)
        {
            let assoc = tokens[code[k + 3]].text(src);
            if call_opens(src, tokens, &code, k + 4) {
                let what = format!("`{word}::{assoc}`");
                if CONTAINERS.contains(&word) && CONSTRUCTORS.contains(&assoc) {
                    push(sources, SourceKind::AllocNew, t, what);
                } else if matches!(word, "Instant" | "SystemTime") && assoc == "now" {
                    push(sources, SourceKind::Clock, t, what);
                } else if (word == "File" && matches!(assoc, "open" | "create"))
                    || (word == "OpenOptions" && assoc == "new")
                    || word == "fs"
                {
                    push(sources, SourceKind::Io, t, what);
                } else if word == "env" && matches!(assoc, "var" | "var_os" | "vars" | "vars_os") {
                    push(sources, SourceKind::EnvRead, t, what);
                } else if word == "thread" && assoc == "current" {
                    push(sources, SourceKind::ThreadId, t, what);
                }
            }
        }
        let after_dot = k >= 1 && is_punct(&tokens[code[k - 1]], src, '.');
        let opens_call = call_opens(src, tokens, &code, k + 1);
        if after_dot && opens_call {
            let kind = match word {
                "collect" | "to_vec" => SourceKind::AllocCollect,
                "clone" | "to_owned" | "to_string" => SourceKind::AllocClone,
                "lock" | "try_lock" => SourceKind::Lock,
                "expect" | "unwrap" if next_is('(') => SourceKind::Unwrap,
                _ => continue,
            };
            push(sources, kind, t, format!("`.{word}()`"));
            continue;
        }
        if !after_dot && opens_call && word == "available_parallelism" {
            push(
                sources,
                SourceKind::EnvRead,
                t,
                "`available_parallelism`".into(),
            );
            continue;
        }
        if word == "let" {
            if let Some(name) = hash_let_binding(src, tokens, &code, k) {
                hash_vars.entry(owner).or_default().insert(name);
            }
            continue;
        }
        if word == "for" {
            if let Some(vars) = hash_vars.get(&owner) {
                if let Some(var_tok) = for_iterates_hash(src, tokens, &code, k, vars) {
                    let what = format!("`for` iteration over hash-ordered `{}`", var_tok.text(src));
                    push(sources, SourceKind::HashIter, var_tok, what);
                }
            }
        }
    }
}

/// `true` when a `[` after `prev` indexes: `prev` is an identifier (not
/// a keyword that opens an array expression) or a closing `)`/`]`.
fn indexes(src: &str, prev: &Token) -> bool {
    (prev.kind == TokenKind::Ident || is_punct(prev, src, ')') || is_punct(prev, src, ']'))
        && !ident_in(prev, src, &["else", "in", "match", "return"])
}

/// If the `let` at code index `k` binds a `HashMap`/`HashSet` —
/// `let [mut] x: HashMap<…>` or `let [mut] x = HashMap::…` — returns
/// the bound variable name.
fn hash_let_binding(src: &str, tokens: &[Token], code: &[usize], k: usize) -> Option<String> {
    let mut j = k + 1;
    if code
        .get(j)
        .is_some_and(|&m| ident_is(&tokens[m], src, "mut"))
    {
        j += 1;
    }
    let name_tok = &tokens[*code.get(j)?];
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let after = &tokens[*code.get(j + 1)?];
    let ty_at = if is_punct(after, src, ':') {
        // `let x: HashMap<…>` — a single colon, not a `::` path.
        let double = code
            .get(j + 2)
            .is_some_and(|&m| is_punct(&tokens[m], src, ':') && after.end == tokens[m].start);
        if double {
            return None;
        }
        j + 2
    } else if is_punct(after, src, '=') {
        j + 2
    } else {
        return None;
    };
    let head = &tokens[*code.get(ty_at)?];
    ident_in(head, src, &["HashMap", "HashSet"]).then(|| name_tok.text(src).to_string())
}

/// If the `for` loop at code index `k` iterates an expression naming
/// one of `vars` (a hash-bound variable), returns that variable's
/// token. Sorted-drain patterns iterate a `Vec` bound from
/// `.keys().collect()` + `sort`, so they never match here.
fn for_iterates_hash<'a>(
    src: &str,
    tokens: &'a [Token],
    code: &[usize],
    k: usize,
    vars: &BTreeSet<String>,
) -> Option<&'a Token> {
    let mut depth = 0i64;
    let mut j = k + 1;
    let mut saw_in = false;
    while j < code.len() {
        let t = &tokens[code[j]];
        if is_punct(t, src, '(') || is_punct(t, src, '[') {
            depth += 1;
        } else if is_punct(t, src, ')') || is_punct(t, src, ']') {
            depth -= 1;
        } else if depth == 0 {
            if is_punct(t, src, '{') || is_punct(t, src, ';') {
                return None;
            }
            if ident_is(t, src, "in") {
                saw_in = true;
            } else if saw_in && t.kind == TokenKind::Ident && vars.contains(t.text(src)) {
                return Some(t);
            }
        } else if saw_in && t.kind == TokenKind::Ident && vars.contains(t.text(src)) {
            return Some(t);
        }
        j += 1;
    }
    None
}

/// Closes the local masks over the call edges: Tarjan emits SCCs in
/// reverse topological order (callees before callers), so one bottom-up
/// sweep — every member of a component takes the union of the
/// component's bits and all callee masks — reaches the fixed point.
fn propagate(local: &[u32], adj: &[Vec<usize>]) -> Vec<u32> {
    let mut mask = local.to_vec();
    for comp in all_sccs(local.len(), adj) {
        let mut acc = 0u32;
        for &u in &comp {
            acc |= mask[u];
            for &v in &adj[u] {
                acc |= mask[v];
            }
        }
        for &u in &comp {
            mask[u] = acc;
        }
    }
    mask
}

/// Iterative Tarjan over the whole graph, singletons included, in
/// emission order (each component's callees precede it).
fn all_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: u32,
        low: u32,
        on_stack: bool,
        visited: bool,
    }
    let mut state = vec![
        NodeState {
            index: 0,
            low: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0u32;
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if state[start].visited {
            continue;
        }
        frames.push((start, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            if frame.1 == 0 {
                state[v].visited = true;
                state[v].index = next_index;
                state[v].low = next_index;
                next_index += 1;
                state[v].on_stack = true;
                stack.push(v);
            }
            if let Some(&w) = adj[v].get(frame.1) {
                frame.1 += 1;
                if !state[w].visited {
                    frames.push((w, 0));
                } else if state[w].on_stack {
                    state[v].low = state[v].low.min(state[w].index);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let low = state[v].low;
                    state[parent].low = state[parent].low.min(low);
                }
                if state[v].low == state[v].index {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        state[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Derives the witness next-hops: for each bit, a multi-source BFS
/// over the reversed graph measures the distance of every node to the
/// nearest local source, and `via[u]` picks the smallest-indexed
/// callee one step closer — so `via` chains strictly descend and
/// terminate at a local source.
fn witnesses(local: &[u32], mask: &[u32], adj: &[Vec<usize>]) -> Vec<[i32; 6]> {
    let n = local.len();
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, outs) in adj.iter().enumerate() {
        for &v in outs {
            radj[v].push(u);
        }
    }
    let mut via = vec![[-1i32; 6]; n];
    for (b, row) in BIT_NAMES.iter().enumerate() {
        let _ = row;
        let bit = 1u32 << b;
        let mut dist: Vec<Option<u32>> = vec![None; n];
        let mut queue = VecDeque::new();
        for u in 0..n {
            if local[u] & bit != 0 {
                dist[u] = Some(0);
                queue.push_back(u);
            }
        }
        while let Some(u) = queue.pop_front() {
            let next = dist[u].unwrap_or(0) + 1;
            for &c in &radj[u] {
                if dist[c].is_none() {
                    dist[c] = Some(next);
                    queue.push_back(c);
                }
            }
        }
        for u in 0..n {
            if mask[u] & bit == 0 {
                continue;
            }
            if local[u] & bit != 0 {
                via[u][b] = i32::try_from(u).unwrap_or(-1);
                continue;
            }
            let du = dist[u];
            let hop = adj[u]
                .iter()
                .copied()
                .find(|&v| mask[v] & bit != 0 && dist[v].map(|d| d + 1) == du);
            via[u][b] = hop.map_or(-1, |v| i32::try_from(v).unwrap_or(-1));
        }
    }
    via
}

/// Runs the effect-driven findings over the inferred lattice.
#[must_use]
pub fn check(
    crates: &[CrateData],
    graph: &CallGraph,
    effects: &Effects,
    peraccess_seed_fns: &BTreeSet<String>,
    engine_crates: &BTreeSet<String>,
    pure_crates: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut loops = BTreeMap::new();
    alloc_in_hot_loops(crates, graph, effects, &mut loops, &mut findings);
    nondet_on_report_paths(crates, graph, effects, &mut findings);
    alloc_in_peraccess_loops(
        crates,
        graph,
        effects,
        peraccess_seed_fns,
        engine_crates,
        &mut loops,
        &mut findings,
    );
    worker_effects(crates, graph, effects, engine_crates, &mut findings);
    pure_crate_io(crates, graph, effects, pure_crates, &mut findings);
    findings
}

/// Loop-body ranges per node, filled on first use and shared by the
/// loop-scoped rules (`XT0801`–`XT0804`, `XT1002`).
type LoopCache = BTreeMap<usize, Vec<(usize, usize)>>;

/// The loop bodies inside node `u`'s body, from `cache` when present.
fn loops_of<'c>(
    cache: &'c mut LoopCache,
    crates: &[CrateData],
    graph: &CallGraph,
    u: usize,
) -> &'c [(usize, usize)] {
    cache.entry(u).or_insert_with(|| {
        let node = &graph.nodes[u];
        let f = &crates[node.crate_idx].files[node.file_idx];
        loop_bodies(&f.src, &f.tokens, node.body.0, node.body.1)
    })
}

/// Source-anchored finding constructor shared by the rules here.
fn at(code: &'static str, file: &str, s: &EffectSource, message: String) -> Finding {
    Finding {
        code,
        severity: Severity::Error,
        file: file.to_string(),
        line: s.line,
        col_start: s.col,
        col_end: s.col_end,
        message,
    }
}

/// `XT0801`–`XT0804`: allocation sources inside a loop of a function
/// reachable from a hot-path seed, one code per allocation shape.
/// Amortized growth (`push`, `extend`) is not a source, so it is never
/// flagged.
fn alloc_in_hot_loops(
    crates: &[CrateData],
    graph: &CallGraph,
    effects: &Effects,
    loops: &mut LoopCache,
    findings: &mut Vec<Finding>,
) {
    let reached = graph.reachable(&graph.seeds_hotpath);
    for (ni, node) in graph.nodes.iter().enumerate() {
        let Some(seed) = reached[ni] else { continue };
        let file = &crates[node.crate_idx].files[node.file_idx].rel;
        for s in &effects.sources[ni] {
            let code = match s.kind {
                SourceKind::AllocNew => codes::HOT_ALLOC,
                SourceKind::AllocCollect => codes::HOT_COLLECT,
                SourceKind::AllocClone => codes::HOT_CLONE,
                SourceKind::AllocFormat => codes::HOT_FORMAT,
                _ => continue,
            };
            if !in_ranges(s.pos, loops_of(loops, crates, graph, ni)) {
                continue;
            }
            findings.push(at(
                code,
                file,
                s,
                format!(
                    "{} in a loop of `{}`, reachable from hot-path seed `{}`",
                    s.what, node.name, graph.nodes[seed].name
                ),
            ));
        }
    }
}

/// `XT1001`: hash-iteration and thread-identity sources in functions
/// reachable from a determinism seed. Clock and environment sources
/// stay with the module-level `XT0502`/`XT0503` rules.
fn nondet_on_report_paths(
    crates: &[CrateData],
    graph: &CallGraph,
    effects: &Effects,
    findings: &mut Vec<Finding>,
) {
    let reached = graph.reachable(&graph.seeds_determinism);
    for (ni, node) in graph.nodes.iter().enumerate() {
        let Some(seed) = reached[ni] else { continue };
        let file = &crates[node.crate_idx].files[node.file_idx].rel;
        for s in &effects.sources[ni] {
            if !matches!(s.kind, SourceKind::HashIter | SourceKind::ThreadId) {
                continue;
            }
            findings.push(at(
                codes::NONDET_EFFECT,
                file,
                s,
                format!(
                    "{} in `{}`, reachable from determinism seed `{}`: inferred \
                     nondeterministic effect on a report path",
                    s.what, node.name, graph.nodes[seed].name
                ),
            ));
        }
    }
}

/// `XT1002`: a call site inside a loop of a function reachable from a
/// per-access seed whose callee's inferred mask allocates. The local
/// allocation sources are `XT0801`–`XT0804`; this rule is the
/// interprocedural closure over them. Sites whose caller or callee
/// lives in an engine crate are excluded: the engine's job-marshaling
/// buffers are the sanctioned allocation surface of the parallel path,
/// audited separately by the `XT0901`–`XT0903` engine-file rules.
fn alloc_in_peraccess_loops(
    crates: &[CrateData],
    graph: &CallGraph,
    effects: &Effects,
    peraccess_seed_fns: &BTreeSet<String>,
    engine_crates: &BTreeSet<String>,
    loops: &mut LoopCache,
    findings: &mut Vec<Finding>,
) {
    let seeds: BTreeSet<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.is_closure && peraccess_seed_fns.contains(&n.simple))
        .map(|(i, _)| i)
        .collect();
    let reached = graph.reachable(&seeds);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &(u, v, pos, line, col) in &graph.site_edges {
        let Some(seed) = reached[u] else { continue };
        if u == v || effects.mask[v] & ALLOCATES == 0 {
            continue;
        }
        if engine_crates.contains(&crates[graph.nodes[u].crate_idx].dir_name)
            || engine_crates.contains(&crates[graph.nodes[v].crate_idx].dir_name)
        {
            continue;
        }
        if !in_ranges(pos, loops_of(loops, crates, graph, u)) || !seen.insert((u, pos)) {
            continue;
        }
        let node = &graph.nodes[u];
        let f = &crates[node.crate_idx].files[node.file_idx];
        let callee = &graph.nodes[v];
        let path = effects.witness_path(v, ALLOCATES);
        let names: Vec<&str> = path.iter().map(|&i| graph.nodes[i].name.as_str()).collect();
        findings.push(Finding {
            code: codes::HOT_ALLOC_EFFECT,
            severity: Severity::Error,
            file: f.rel.clone(),
            line,
            col_start: col,
            col_end: col + u32::try_from(callee.simple.len()).unwrap_or(0),
            message: format!(
                "call to `{}` (inferred allocation effect; witness: {}) in a loop of `{}`, \
                 reachable from per-access seed `{}`",
                callee.name,
                names.join(" -> "),
                node.name,
                graph.nodes[seed].name
            ),
        });
    }
}

/// Consequence clause shared by the two worker panic-site codes.
const PANICKING_WORKER: &str = "a panicking worker breaks the engine contract";

/// `XT0904`/`XT0905` and `XT1003`/`XT1004`: panic and lock sources in
/// functions reachable from a worker seed. `unwrap`/`expect` and
/// indexing are flagged workspace-wide; panic macros and locks are
/// flagged outside the engine crates only — the engine's own
/// panic-propagation boundary and queue locks are its documented
/// contract, audited by the `XT090x` engine-file rules.
fn worker_effects(
    crates: &[CrateData],
    graph: &CallGraph,
    effects: &Effects,
    engine_crates: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let reached = graph.reachable(&graph.seeds_worker);
    for (ni, node) in graph.nodes.iter().enumerate() {
        let Some(seed) = reached[ni] else { continue };
        let crate_name = &crates[node.crate_idx].dir_name;
        let file = &crates[node.crate_idx].files[node.file_idx].rel;
        let in_engine = engine_crates.contains(crate_name);
        let seed_name = &graph.nodes[seed].name;
        for s in &effects.sources[ni] {
            let (code, names_crate, consequence) = match s.kind {
                SourceKind::Unwrap => (codes::WORKER_PANIC_CALL, false, PANICKING_WORKER),
                SourceKind::Index => (
                    codes::WORKER_INDEXING,
                    false,
                    "an out-of-bounds panic propagates into the engine",
                ),
                SourceKind::PanicMacro if !in_engine => {
                    (codes::WORKER_PANIC_EFFECT, false, PANICKING_WORKER)
                }
                SourceKind::Lock if !in_engine => (
                    codes::WORKER_LOCK_EFFECT,
                    true,
                    "locks outside the engine risk deadlock under the pool",
                ),
                _ => continue,
            };
            let crate_note = if names_crate {
                format!(" (crate `{crate_name}`)")
            } else {
                String::new()
            };
            findings.push(at(
                code,
                file,
                s,
                format!(
                    "{} in `{}`{crate_note}, reachable from worker seed `{seed_name}`: \
                     {consequence}",
                    s.what, node.name
                ),
            ));
        }
    }
}

/// `XT1005`: an I/O effect inside a declared-pure crate — either a
/// local source, or a cross-crate call whose callee's inferred mask
/// does I/O (the witness path names the chain to the source).
fn pure_crate_io(
    crates: &[CrateData],
    graph: &CallGraph,
    effects: &Effects,
    pure_crates: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for (ni, node) in graph.nodes.iter().enumerate() {
        let crate_name = &crates[node.crate_idx].dir_name;
        if !pure_crates.contains(crate_name) {
            continue;
        }
        let file = &crates[node.crate_idx].files[node.file_idx].rel;
        for s in &effects.sources[ni] {
            if s.kind != SourceKind::Io {
                continue;
            }
            findings.push(at(
                codes::PURE_CRATE_IO_EFFECT,
                file,
                s,
                format!(
                    "{} in `{}`: crate `{crate_name}` is declared free of I/O effects",
                    s.what, node.name
                ),
            ));
        }
    }
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &(u, v, pos, line, col) in &graph.site_edges {
        let caller = &graph.nodes[u];
        let crate_name = &crates[caller.crate_idx].dir_name;
        if !pure_crates.contains(crate_name)
            || graph.nodes[v].crate_idx == caller.crate_idx
            || effects.mask[v] & DOES_IO == 0
            || !seen.insert((u, pos))
        {
            continue;
        }
        let callee = &graph.nodes[v];
        let path = effects.witness_path(v, DOES_IO);
        let names: Vec<&str> = path.iter().map(|&i| graph.nodes[i].name.as_str()).collect();
        findings.push(Finding {
            code: codes::PURE_CRATE_IO_EFFECT,
            severity: Severity::Error,
            file: crates[caller.crate_idx].files[caller.file_idx].rel.clone(),
            line,
            col_start: col,
            col_end: col + u32::try_from(callee.simple.len()).unwrap_or(0),
            message: format!(
                "call to `{}` carries an I/O effect into declared-pure crate \
                 `{crate_name}` (witness: {})",
                callee.name,
                names.join(" -> ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagate_closes_over_a_chain() {
        // 0 -> 1 -> 2; only 2 has a local bit.
        let local = vec![0, 0, ALLOCATES];
        let adj = vec![vec![1], vec![2], vec![]];
        let mask = propagate(&local, &adj);
        assert_eq!(mask, vec![ALLOCATES; 3]);
    }

    #[test]
    fn propagate_unions_inside_an_scc() {
        // 0 <-> 1 cycle; 0 locks, 1 panics; 2 calls into the cycle.
        let local = vec![LOCKS, PANICS, 0];
        let adj = vec![vec![1], vec![0], vec![0]];
        let mask = propagate(&local, &adj);
        assert_eq!(mask[0], LOCKS | PANICS);
        assert_eq!(mask[1], LOCKS | PANICS);
        assert_eq!(mask[2], LOCKS | PANICS);
    }

    #[test]
    fn witnesses_pick_the_shortest_hop() {
        // 0 -> 1 -> 3 (source), 0 -> 2 -> 3; both hops are one step
        // from a source at distance 1, so 0 picks the smaller index 1.
        let local = vec![0, 0, 0, DOES_IO];
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let mask = propagate(&local, &adj);
        let via = witnesses(&local, &mask, &adj);
        let b = DOES_IO.trailing_zeros() as usize;
        assert_eq!(via[3][b], 3); // local source points at itself
        assert_eq!(via[1][b], 3);
        assert_eq!(via[0][b], 1);
        // Unset bits stay -1.
        assert_eq!(via[0][LOCKS.trailing_zeros() as usize], -1);
    }

    #[test]
    fn witness_chains_terminate_through_cycles() {
        // 0 <-> 1 cycle, 1 is the source: 0's chain must end at 1.
        let local = vec![0, NONDET];
        let adj = vec![vec![1], vec![0]];
        let mask = propagate(&local, &adj);
        let via = witnesses(&local, &mask, &adj);
        let effects = Effects {
            local,
            mask,
            via,
            sources: vec![Vec::new(), Vec::new()],
        };
        assert_eq!(effects.witness_path(0, NONDET), vec![0, 1]);
        assert_eq!(effects.witness_path(1, NONDET), vec![1]);
    }

    #[test]
    fn report_stats_add_up() {
        let local = vec![0, ALLOCATES, 0];
        let adj = vec![vec![1], vec![], vec![]];
        let mask = propagate(&local, &adj);
        let via = witnesses(&local, &mask, &adj);
        let effects = Effects {
            local,
            mask,
            via,
            sources: vec![Vec::new(), Vec::new(), Vec::new()],
        };
        let report = effects.to_report();
        assert_eq!(report.functions, 3);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.local_bits, 1);
        assert_eq!(report.propagated_bits, 1);
        assert!(report.rows.windows(2).all(|w| w[0].node < w[1].node));
    }
}
