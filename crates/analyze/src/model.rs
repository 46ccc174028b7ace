//! Shared data model for the analysis passes.
//!
//! [`workspace`](crate::workspace) builds these values during
//! discovery; the layering, determinism, and telemetry passes consume
//! them. Keeping the types below every pass (instead of inside
//! `workspace`) keeps the crate's own module graph acyclic — a
//! property the layering pass checks on this very crate when the
//! analyzer self-hosts.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{PathRef, UsePath};
use crate::lexer::Token;

/// Where a file sits in its crate's module tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileRole {
    /// `lib.rs` or `main.rs` at the crate root: re-export surface.
    Facade,
    /// Part of the named top-level module.
    Module(String),
    /// Under `src/bin/`: a standalone entry point.
    Bin,
}

/// One lexed source file plus its derived structural facts.
pub struct FileData {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Module-tree position.
    pub role: FileRole,
    /// `true` for entry points (`main.rs`, `src/bin/*`).
    pub is_bin: bool,
    /// `false` for facade files (`lib.rs`, `main.rs`, `mod.rs`): their
    /// re-exports are surface, not dependencies, so they contribute no
    /// outgoing edges to the module *cycle* graph (they still do in the
    /// determinism reachability graph).
    pub cycle_source: bool,
    /// File contents.
    pub src: String,
    /// Token stream of `src`.
    pub tokens: Vec<Token>,
    /// `#[cfg(test)]` byte ranges.
    pub test_ranges: Vec<(usize, usize)>,
    /// `macro_rules!` body byte ranges.
    pub macro_ranges: Vec<(usize, usize)>,
    /// `use` declarations outside test regions.
    pub uses: Vec<UsePath>,
    /// `a::b` path chains outside test regions and macro bodies.
    pub refs: Vec<PathRef>,
}

/// One workspace crate (or the root package).
pub struct CrateData {
    /// Directory name under `crates/` (`"root"` for the root package);
    /// the key into the layer table.
    pub dir_name: String,
    /// The library name other crates import (`commorder_sparse`).
    pub lib_name: String,
    /// Workspace-relative manifest path.
    pub manifest_rel: String,
    /// Top-level module names.
    pub modules: BTreeSet<String>,
    /// Facade re-exports: exported item name → top-level module.
    pub reexports: BTreeMap<String, String>,
    /// The crate's source files, sorted by path.
    pub files: Vec<FileData>,
}

/// File/line/column a graph edge was first observed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeAnchor {
    /// Workspace-relative path of the referencing file.
    pub file: String,
    /// 1-based line of the reference.
    pub line: u32,
    /// 1-based column of the reference.
    pub col: u32,
}

/// A node of the determinism reachability graph: a crate plus either a
/// top-level module or (`None`) its facade.
pub type ReachNode = (usize, Option<String>);

/// The serializable slice of the call graph emitted in `analyze --json`;
/// `tests/invariants.rs` asserts its invariants on this struct.
///
/// Node strings are `<file>::<name>@<line>:<col>` where `<name>` is the
/// bare function name, `Type::method`, or `parent::{closure}` for
/// worker closures. Edges, seed sets, and SCC members are indices into
/// `nodes`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CallGraphReport {
    /// Display names of the graph nodes, in (file, line, col) order.
    pub nodes: Vec<String>,
    /// Deduplicated caller → callee index pairs, sorted ascending.
    pub edges: Vec<(u32, u32)>,
    /// Determinism seeds: `render_json` functions and `Pipeline`
    /// methods.
    pub seeds_determinism: Vec<u32>,
    /// Hot-path seeds: replay/consume/simulate/reorder entry points.
    pub seeds_hotpath: Vec<u32>,
    /// Worker seeds: closures passed to `spawn` plus `Engine::map`.
    pub seeds_worker: Vec<u32>,
    /// Cyclic strongly connected components (each sorted, ≥ 2 members
    /// or a self-recursive singleton), in first-member order.
    pub sccs: Vec<Vec<u32>>,
    /// Call sites observed in function bodies.
    pub call_sites: u32,
    /// Call sites with at least one workspace candidate (ambiguous
    /// sites are a subset; `resolved + external == call_sites`).
    pub resolved: u32,
    /// Call sites naming no workspace function (std/core/externals).
    pub external: u32,
    /// Call sites matching several workspace candidates; edges go to
    /// all of them (conservative over-approximation).
    pub ambiguous: u32,
}

/// One row of the effects table: a call-graph node with at least one
/// inferred effect bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectRow {
    /// Node index into the call-graph `nodes` array.
    pub node: u32,
    /// Fixed-point effect mask, bit order per
    /// [`crate::effects::BIT_NAMES`].
    pub mask: u32,
    /// Lexically-local subset of `mask`.
    pub local: u32,
    /// Witness next-hop per bit: the node itself for local bits, the
    /// first callee of a shortest path to a local source for inherited
    /// bits, `-1` for unset bits.
    pub via: [i32; 6],
}

/// The serializable slice of the effect lattice emitted in
/// `analyze --json`; `tests/invariants.rs` asserts its invariants on
/// this struct.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EffectsReport {
    /// Rows for every node with a non-zero mask, ascending by node.
    pub rows: Vec<EffectRow>,
    /// Total node count of the underlying call graph.
    pub functions: u32,
    /// Summed popcount of the rows' `local` masks.
    pub local_bits: u32,
    /// Summed popcount of the rows' `mask`s, minus `local_bits`.
    pub propagated_bits: u32,
}
