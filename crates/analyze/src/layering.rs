//! Layering and module-cycle analysis (`XT0402`–`XT0404`).
//!
//! The inter-crate and intra-crate dependency graphs are extracted
//! from `use` declarations and path expressions — not from manifests —
//! so the analysis sees what the code actually references. A declared
//! layer table assigns each crate a height; every edge must point
//! strictly downward, so a crate cycle always carries an `XT0402` edge
//! and needs no pass of its own. Cycles between the top-level modules
//! of one crate are reported per strongly connected component
//! ([`all_sccs`], the one Tarjan the call-graph and effect passes share).

use std::collections::{BTreeMap, BTreeSet};

use crate::codes;
use crate::findings::{Finding, Severity};
use crate::model::{CrateData, EdgeAnchor};

/// Tarjan's strongly-connected-components algorithm, iterative so deep
/// graphs cannot overflow the stack. Returns every component,
/// singletons included, in emission order: each component's successors
/// precede it (reverse topological order).
#[must_use]
pub fn all_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
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
    // Explicit DFS frames: (node, next child position).
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

/// The cyclic components of [`all_sccs`] (size ≥ 2) in the same order,
/// members sorted.
#[must_use]
pub fn cyclic_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    all_sccs(n, adj)
        .into_iter()
        .filter(|comp| comp.len() >= 2)
        .map(|mut comp| {
            comp.sort_unstable();
            comp
        })
        .collect()
}

/// Runs the crate-level checks: every crate must appear in the layer
/// table (`XT0404`) and every edge must point strictly downward
/// (`XT0402`).
#[must_use]
pub fn check_crates(
    crates: &[CrateData],
    edges: &BTreeMap<(usize, usize), EdgeAnchor>,
    layers: &BTreeMap<String, u32>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for c in crates {
        if !layers.contains_key(&c.dir_name) {
            out.push(Finding::file_scoped(
                codes::UNDECLARED_CRATE,
                Severity::Error,
                &c.manifest_rel,
                format!(
                    "crate `{}` is not in the declared layering table; assign it a layer",
                    c.dir_name
                ),
            ));
        }
    }

    for (&(src, dst), anchor) in edges {
        if src == dst {
            continue;
        }
        let (Some(ls), Some(ld)) = (
            layers.get(&crates[src].dir_name),
            layers.get(&crates[dst].dir_name),
        ) else {
            continue; // XT0404 already reported
        };
        if ls <= ld {
            out.push(Finding {
                code: codes::LAYER_VIOLATION,
                severity: Severity::Error,
                file: anchor.file.clone(),
                line: anchor.line,
                col_start: anchor.col,
                col_end: anchor.col,
                message: format!(
                    "layering back-edge: `{}` (layer {}) must not depend on `{}` (layer {})",
                    crates[src].dir_name, ls, crates[dst].dir_name, ld
                ),
            });
        }
    }
    out
}

/// Runs the module-cycle check for one crate (`XT0403`). `modules` maps
/// a module name to a representative file; `edges` holds the anchored
/// module graph with facade files already excluded as sources.
#[must_use]
pub fn check_modules(
    crate_name: &str,
    modules: &BTreeMap<String, String>,
    edges: &BTreeMap<(String, String), EdgeAnchor>,
) -> Vec<Finding> {
    let names: Vec<&String> = modules.keys().collect();
    let index: BTreeMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj = vec![BTreeSet::new(); names.len()];
    for (src, dst) in edges.keys() {
        if let (Some(&s), Some(&d)) = (index.get(src.as_str()), index.get(dst.as_str())) {
            if s != d {
                adj[s].insert(d);
            }
        }
    }
    let adj: Vec<Vec<usize>> = adj.into_iter().map(|s| s.into_iter().collect()).collect();
    let mut out = Vec::new();
    for comp in cyclic_sccs(names.len(), &adj) {
        let members: Vec<&str> = comp.iter().map(|&i| names[i].as_str()).collect();
        let anchor_file = modules.get(members[0]).cloned().unwrap_or_default();
        out.push(Finding::file_scoped(
            codes::MODULE_CYCLE,
            Severity::Error,
            &anchor_file,
            format!(
                "module dependency cycle in crate `{crate_name}`: {}",
                members.join(" -> ")
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_finds_the_cycle_and_skips_singletons() {
        // 0 -> 1 -> 2 -> 0 is a cycle; 3 is a sink.
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let sccs = cyclic_sccs(4, &adj);
        assert_eq!(sccs, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn all_sccs_emits_successors_first() {
        // 0 -> {1, 2} with 1 <-> 2: the cycle closes before its caller.
        let adj = vec![vec![1], vec![2], vec![1]];
        assert_eq!(all_sccs(3, &adj), vec![vec![2, 1], vec![0]]);
    }

    #[test]
    fn tarjan_on_a_dag_is_empty() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        assert!(cyclic_sccs(3, &adj).is_empty());
    }

    #[test]
    fn tarjan_two_cycles() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let sccs = cyclic_sccs(4, &adj);
        assert_eq!(sccs.len(), 2);
        assert!(sccs.contains(&vec![0, 1]));
        assert!(sccs.contains(&vec![2, 3]));
    }
}
