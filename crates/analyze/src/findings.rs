//! Findings and reports produced by the analysis passes.
//!
//! The JSON rendering is compared byte-for-byte against the golden
//! fixtures, so its field order, escaping, and layout are stable.

use std::fmt::Write as _;

use crate::model::{CallGraphReport, EffectsReport};

/// How bad a finding is. Errors fail the lint gate; warnings do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; reported but does not fail the gate.
    Warning,
    /// Policy violation; fails the gate.
    Error,
}

impl Severity {
    /// The lowercase JSON/text label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analysis finding, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable `XT` code from [`crate::codes`].
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line. File-scoped findings use line 1.
    pub line: u32,
    /// 1-based byte column of the anchor token's first byte.
    pub col_start: u32,
    /// 1-based byte column one past the anchor token on its first
    /// line; equals `col_start` for file-scoped findings.
    pub col_end: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding scoped to a whole file rather than a token.
    #[must_use]
    pub fn file_scoped(
        code: &'static str,
        severity: Severity,
        file: &str,
        message: String,
    ) -> Self {
        Finding {
            code,
            severity,
            file: file.to_string(),
            line: 1,
            col_start: 1,
            col_end: 1,
            message,
        }
    }
}

/// An ordered collection of findings with stable rendering.
#[derive(Debug, Default, Clone)]
pub struct AnalysisReport {
    /// The findings, sorted by [`AnalysisReport::finish`].
    pub findings: Vec<Finding>,
    /// The call graph and seed/reachability sets; `None` renders as an
    /// empty graph so the JSON schema never changes shape.
    pub callgraph: Option<CallGraphReport>,
    /// The inferred effect lattice; `None` renders as an empty table
    /// so the JSON schema never changes shape.
    pub effects: Option<EffectsReport>,
}

impl AnalysisReport {
    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Sorts findings into the canonical report order:
    /// (file, line, column, code, message).
    pub fn finish(&mut self) {
        self.findings.sort_by(|a, b| {
            (
                a.file.as_str(),
                a.line,
                a.col_start,
                a.code,
                a.message.as_str(),
            )
                .cmp(&(
                    b.file.as_str(),
                    b.line,
                    b.col_start,
                    b.code,
                    b.message.as_str(),
                ))
        });
    }

    /// Renders the human-readable report, one finding per line plus a
    /// summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}[{}] {}:{}:{}-{}: {}",
                f.severity.label(),
                f.code,
                f.file,
                f.line,
                f.col_start,
                f.col_end,
                f.message
            );
        }
        let _ = writeln!(
            out,
            "analyze: {} error(s), {} warning(s)",
            self.errors(),
            self.warnings()
        );
        out
    }

    /// Renders the machine-readable report: one finding per line so
    /// golden diffs stay reviewable, stable field order, trailing
    /// newline.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"errors\": {},", self.errors());
        let _ = writeln!(out, "  \"warnings\": {},", self.warnings());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col_start\":{},\"col_end\":{},\"message\":\"{}\"}}",
                f.code,
                f.severity.label(),
                escape_json(&f.file),
                f.line,
                f.col_start,
                f.col_end,
                escape_json(&f.message)
            );
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        let empty = CallGraphReport::default();
        render_callgraph(&mut out, self.callgraph.as_ref().unwrap_or(&empty));
        let no_effects = EffectsReport::default();
        render_effects(&mut out, self.effects.as_ref().unwrap_or(&no_effects));
        out.push_str("}\n");
        out
    }
}

/// Renders the `"callgraph"` section: multi-line node and edge arrays
/// (one entry per line, like findings), single-line seed/SCC/stat
/// objects. Byte layout is frozen by the golden fixtures.
fn render_callgraph(out: &mut String, cg: &CallGraphReport) {
    out.push_str("  \"callgraph\": {\n");
    if cg.nodes.is_empty() {
        out.push_str("    \"nodes\": [],\n");
    } else {
        out.push_str("    \"nodes\": [\n");
        for (i, n) in cg.nodes.iter().enumerate() {
            let sep = if i + 1 == cg.nodes.len() { "" } else { "," };
            let _ = writeln!(out, "      \"{}\"{sep}", escape_json(n));
        }
        out.push_str("    ],\n");
    }
    if cg.edges.is_empty() {
        out.push_str("    \"edges\": [],\n");
    } else {
        out.push_str("    \"edges\": [\n");
        for (i, (a, b)) in cg.edges.iter().enumerate() {
            let sep = if i + 1 == cg.edges.len() { "" } else { "," };
            let _ = writeln!(out, "      [{a},{b}]{sep}");
        }
        out.push_str("    ],\n");
    }
    let list = |ids: &[u32]| {
        let mut s = String::new();
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{id}");
        }
        s
    };
    let _ = writeln!(
        out,
        "    \"seeds\": {{\"determinism\":[{}],\"hotpath\":[{}],\"worker\":[{}]}},",
        list(&cg.seeds_determinism),
        list(&cg.seeds_hotpath),
        list(&cg.seeds_worker)
    );
    let mut sccs = String::new();
    for (i, comp) in cg.sccs.iter().enumerate() {
        if i > 0 {
            sccs.push(',');
        }
        let _ = write!(sccs, "[{}]", list(comp));
    }
    let _ = writeln!(out, "    \"sccs\": [{sccs}],");
    let _ = writeln!(
        out,
        "    \"stats\": {{\"call_sites\":{},\"resolved\":{},\"external\":{},\"ambiguous\":{}}}",
        cg.call_sites, cg.resolved, cg.external, cg.ambiguous
    );
    out.push_str("  },\n");
}

/// Renders the `"effects"` section: the bit-name legend, one row per
/// effectful node, and the stats. Byte layout is frozen by the golden
/// fixtures.
fn render_effects(out: &mut String, fx: &EffectsReport) {
    out.push_str("  \"effects\": {\n");
    // The legend matches the effect pass's BIT_NAMES; spelled out
    // literally so the rendering layer stays below the passes in the
    // module graph.
    out.push_str(
        "    \"bits\": [\"allocates\",\"locks\",\"panics\",\"does_io\",\
         \"nondeterministic\",\"unsafe\"],\n",
    );
    if fx.rows.is_empty() {
        out.push_str("    \"rows\": [],\n");
    } else {
        out.push_str("    \"rows\": [\n");
        for (i, r) in fx.rows.iter().enumerate() {
            let sep = if i + 1 == fx.rows.len() { "" } else { "," };
            let via: Vec<String> = r.via.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(
                out,
                "      {{\"node\":{},\"mask\":{},\"local\":{},\"via\":[{}]}}{sep}",
                r.node,
                r.mask,
                r.local,
                via.join(",")
            );
        }
        out.push_str("    ],\n");
    }
    let _ = writeln!(
        out,
        "    \"stats\": {{\"functions\":{},\"effectful\":{},\"local_bits\":{},\"propagated_bits\":{}}}",
        fx.functions,
        fx.rows.len(),
        fx.local_bits,
        fx.propagated_bits
    );
    out.push_str("  }\n");
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        let mut report = AnalysisReport::default();
        report.findings.push(Finding {
            code: "XT0007",
            severity: Severity::Error,
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col_start: 5,
            col_end: 11,
            message: "non-test code must stream traces through TraceSource".to_string(),
        });
        report.findings.push(Finding::file_scoped(
            "XT0201",
            Severity::Error,
            "crates/x/Cargo.toml",
            "crate must opt into the workspace lint table ([lints] workspace = true)".to_string(),
        ));
        report.finish();
        report
    }

    #[test]
    fn finish_sorts_by_file_then_position() {
        let report = sample();
        assert_eq!(report.findings[0].file, "crates/x/Cargo.toml");
        assert_eq!(report.findings[1].file, "crates/x/src/lib.rs");
        assert_eq!(report.errors(), 2);
        assert_eq!(report.warnings(), 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let empty = AnalysisReport::default();
        assert_eq!(
            empty.render_json(),
            concat!(
                "{\n  \"errors\": 0,\n  \"warnings\": 0,\n  \"findings\": [],\n",
                "  \"callgraph\": {\n",
                "    \"nodes\": [],\n",
                "    \"edges\": [],\n",
                "    \"seeds\": {\"determinism\":[],\"hotpath\":[],\"worker\":[]},\n",
                "    \"sccs\": [],\n",
                "    \"stats\": {\"call_sites\":0,\"resolved\":0,\"external\":0,\"ambiguous\":0}\n",
                "  },\n",
                "  \"effects\": {\n",
                "    \"bits\": [\"allocates\",\"locks\",\"panics\",\"does_io\",",
                "\"nondeterministic\",\"unsafe\"],\n",
                "    \"rows\": [],\n",
                "    \"stats\": {\"functions\":0,\"effectful\":0,\"local_bits\":0,",
                "\"propagated_bits\":0}\n",
                "  }\n}\n"
            )
        );
        let json = sample().render_json();
        assert!(json.contains("\"col_start\":5"));
        assert!(json.contains("\"col_end\":11"));
        assert!(json.contains("\n  ],\n  \"callgraph\": {\n"));
        assert!(json.ends_with("  }\n}\n"));
    }

    #[test]
    fn populated_callgraph_renders_one_entry_per_line() {
        let report = AnalysisReport {
            callgraph: Some(CallGraphReport {
                nodes: vec!["a.rs::f@1:1".to_string(), "a.rs::g@2:1".to_string()],
                edges: vec![(0, 1), (1, 0)],
                seeds_determinism: vec![0],
                seeds_hotpath: vec![1],
                seeds_worker: vec![0, 1],
                sccs: vec![vec![0, 1]],
                call_sites: 3,
                resolved: 2,
                external: 1,
                ambiguous: 1,
            }),
            ..AnalysisReport::default()
        };
        let json = report.render_json();
        assert!(json
            .contains("    \"nodes\": [\n      \"a.rs::f@1:1\",\n      \"a.rs::g@2:1\"\n    ],\n"));
        assert!(json.contains("    \"edges\": [\n      [0,1],\n      [1,0]\n    ],\n"));
        assert!(json
            .contains("    \"seeds\": {\"determinism\":[0],\"hotpath\":[1],\"worker\":[0,1]},\n"));
        assert!(json.contains("    \"sccs\": [[0,1]],\n"));
        assert!(json.contains(
            "    \"stats\": {\"call_sites\":3,\"resolved\":2,\"external\":1,\"ambiguous\":1}\n"
        ));
        assert!(json.contains("    \"stats\": {\"call_sites\":3,"));
        assert!(json.contains("\n  },\n  \"effects\": {\n"));
    }

    #[test]
    fn populated_effects_render_one_row_per_line() {
        let report = AnalysisReport {
            effects: Some(crate::model::EffectsReport {
                rows: vec![
                    crate::model::EffectRow {
                        node: 0,
                        mask: 5,
                        local: 4,
                        via: [1, -1, 0, -1, -1, -1],
                    },
                    crate::model::EffectRow {
                        node: 1,
                        mask: 1,
                        local: 1,
                        via: [1, -1, -1, -1, -1, -1],
                    },
                ],
                functions: 3,
                local_bits: 2,
                propagated_bits: 1,
            }),
            ..AnalysisReport::default()
        };
        let json = report.render_json();
        assert!(json.contains(
            "    \"rows\": [\n      {\"node\":0,\"mask\":5,\"local\":4,\"via\":[1,-1,0,-1,-1,-1]},\n      {\"node\":1,\"mask\":1,\"local\":1,\"via\":[1,-1,-1,-1,-1,-1]}\n    ],\n"
        ));
        assert!(json.contains(
            "    \"stats\": {\"functions\":3,\"effectful\":2,\"local_bits\":2,\"propagated_bits\":1}\n"
        ));
        assert!(json.ends_with("  }\n}\n"));
    }

    #[test]
    fn text_report_has_summary_line() {
        let text = sample().render_text();
        assert!(text.contains("error[XT0007] crates/x/src/lib.rs:3:5-11:"));
        assert!(text.ends_with("analyze: 2 error(s), 0 warning(s)\n"));
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
