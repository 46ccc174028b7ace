//! Validator for analyzer findings reports (`CHK1101`).
//!
//! `cargo run -p xtask -- lint --json` and `commorder-cli analyze
//! --source --json` emit a findings report with a fixed, line-oriented
//! shape (one finding object per line, sorted, with header counts).
//! CI pipes that report through this validator before trusting it, so
//! a half-written file, a schema drift between analyzer versions, or a
//! hand-edited report fails loudly instead of silently gating nothing.
//! The `callgraph` and `effects` sections after the findings are
//! checked for framing only; their invariants are asserted where the
//! analyzer holds them as structs.
//!
//! Like the other ingest paths the parser is deliberately lenient:
//! every violation becomes a [`Diagnostic`] and validation continues
//! where the frame allows, so one pass lists every problem.

use crate::codes;
use crate::diag::{Diagnostic, Location};
use crate::telemetry::{parse_flat_object, Json};

/// The exact key sequence of one finding object.
const FINDING_KEYS: [&str; 7] = [
    "code",
    "severity",
    "file",
    "line",
    "col_start",
    "col_end",
    "message",
];

/// Validates `contents` as an analyzer findings report; every schema
/// violation is reported as a `CHK1101` error.
#[must_use]
pub fn check_analyze_report(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let lines: Vec<&str> = contents.lines().collect();

    if lines.first().map(|l| l.trim()) != Some("{") {
        out.push(frame_error(0, "report must open with a lone '{'".into()));
        return out;
    }
    let declared_errors = parse_count_line(lines.get(1).copied(), "errors", 1, &mut out);
    let declared_warnings = parse_count_line(lines.get(2).copied(), "warnings", 2, &mut out);

    let findings_open = lines.get(3).copied().unwrap_or("");
    let mut finding_rows: Vec<(usize, &str)> = Vec::new();
    let after_findings;
    if findings_open.trim() == "\"findings\": []," {
        after_findings = 4;
    } else if findings_open.trim() == "\"findings\": [" {
        let mut i = 4;
        while i < lines.len() && lines[i].trim() != "]," {
            finding_rows.push((i, lines[i]));
            i += 1;
        }
        if lines.get(i).map(|l| l.trim()) != Some("],") {
            out.push(frame_error(
                i,
                "findings array is not closed with '],'".into(),
            ));
        }
        after_findings = i + 1;
    } else {
        out.push(frame_error(
            3,
            format!(
                "expected a findings array, found {:?}",
                findings_open.trim()
            ),
        ));
        return out;
    }
    check_sections(&lines, after_findings, &mut out);

    let mut tally_errors: u64 = 0;
    let mut tally_warnings: u64 = 0;
    // Sort key of the previous finding: (file, line, col_start, code, message).
    let mut prev_key: Option<(String, u64, u64, String, String)> = None;
    let last_row = finding_rows.len().saturating_sub(1);
    for (seq, &(line_no, raw)) in finding_rows.iter().enumerate() {
        let trimmed = raw.trim();
        let object = match (seq < last_row, trimmed.strip_suffix(',')) {
            (true, Some(stripped)) => stripped,
            (true, None) => {
                out.push(frame_error(
                    line_no,
                    "finding line is missing its trailing comma".into(),
                ));
                trimmed
            }
            (false, Some(_)) => {
                out.push(frame_error(
                    line_no,
                    "last finding line must not end with a comma".into(),
                ));
                trimmed.trim_end_matches(',')
            }
            (false, None) => trimmed,
        };
        let fields = match parse_flat_object(object) {
            Ok(fields) => fields,
            Err(e) => {
                out.push(frame_error(line_no, format!("unparsable finding: {e}")));
                continue;
            }
        };
        if let Some(key) = check_finding(&fields, line_no, &mut out) {
            match key.3.as_str() {
                "error" => tally_errors += 1,
                _ => tally_warnings += 1,
            }
            let order = (key.0, key.1, key.2, key.4, key.5);
            if let Some(prev) = &prev_key {
                if *prev > order {
                    out.push(frame_error(
                        line_no,
                        "findings are not sorted by (file, line, col_start, code, message)".into(),
                    ));
                }
            }
            prev_key = Some(order);
        }
    }

    if let Some(declared) = declared_errors {
        if declared != tally_errors {
            out.push(frame_error(
                1,
                format!("header declares {declared} error(s) but the list has {tally_errors}"),
            ));
        }
    }
    if let Some(declared) = declared_warnings {
        if declared != tally_warnings {
            out.push(frame_error(
                2,
                format!("header declares {declared} warning(s) but the list has {tally_warnings}"),
            ));
        }
    }
    out
}

/// A `CHK1101` error anchored at 0-based report line `line`.
fn frame_error(line: usize, message: String) -> Diagnostic {
    Diagnostic::error(
        codes::ANALYZE_SCHEMA,
        Location::at("report line", line as u64 + 1),
        message,
    )
}

/// Pins the frame of the `callgraph` and `effects` sections that follow
/// the findings: `"callgraph": {` opens at `start`, `"effects": {` opens
/// right after the call graph's `  },` close, and the report ends with a
/// lone `}`. Their contents are asserted on the analyzer's in-memory
/// report (`commorder-analyze`'s `tests/invariants.rs`), not re-parsed.
fn check_sections(lines: &[&str], start: usize, out: &mut Vec<Diagnostic>) {
    let opens = |i: usize, name: &str| {
        lines.get(i).map(|l| l.trim()) == Some(format!("\"{name}\": {{").as_str())
    };
    if !opens(start, "callgraph") {
        out.push(frame_error(
            start,
            format!(
                "expected a '\"callgraph\": {{' section, found {:?}",
                lines.get(start).copied().unwrap_or("").trim()
            ),
        ));
        return;
    }
    if !(start + 1..lines.len()).any(|i| lines[i - 1] == "  }," && opens(i, "effects")) {
        out.push(frame_error(
            start,
            "callgraph section is not closed and followed by an '\"effects\": {' section".into(),
        ));
        return;
    }
    if lines.last() != Some(&"}") {
        out.push(frame_error(
            lines.len().saturating_sub(1),
            "report must close with '}'".into(),
        ));
    }
}

/// Parses a `"name": N,` header line; reports and returns `None` when
/// malformed.
fn parse_count_line(
    line: Option<&str>,
    name: &str,
    line_no: usize,
    out: &mut Vec<Diagnostic>,
) -> Option<u64> {
    let fail = |out: &mut Vec<Diagnostic>| {
        out.push(frame_error(
            line_no,
            format!("expected a '\"{name}\": <count>,' header line"),
        ));
        None
    };
    let Some(line) = line else { return fail(out) };
    let rest = match line.trim().strip_prefix(&format!("\"{name}\": ")) {
        Some(rest) => rest,
        None => return fail(out),
    };
    match rest.strip_suffix(',').unwrap_or(rest).parse::<u64>() {
        Ok(n) => Some(n),
        Err(_) => fail(out),
    }
}

/// Validates one parsed finding object; returns its sort-relevant
/// fields `(file, line, col_start, severity, code, message)` when the
/// shape is usable, `None` when too broken to order.
fn check_finding(
    fields: &[(String, Json)],
    line_no: usize,
    out: &mut Vec<Diagnostic>,
) -> Option<(String, u64, u64, String, String, String)> {
    let loc = || Location::at("report line", line_no as u64 + 1);
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != FINDING_KEYS {
        out.push(Diagnostic::error(
            codes::ANALYZE_SCHEMA,
            loc(),
            format!("finding keys must be exactly {FINDING_KEYS:?}, found {keys:?}"),
        ));
        return None;
    }
    let strs: Vec<Option<&str>> = fields
        .iter()
        .map(|(_, v)| match v {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let nums: Vec<Option<u64>> = fields
        .iter()
        .map(|(_, v)| match v {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 4_294_967_295.0 => {
                Some(*n as u64)
            }
            _ => None,
        })
        .collect();
    let mut broken = false;
    let bad = |message: String, out: &mut Vec<Diagnostic>| {
        out.push(Diagnostic::error(codes::ANALYZE_SCHEMA, loc(), message));
    };

    let code = strs[0].unwrap_or_default();
    if code.len() != 6 || !code.starts_with("XT") || !code[2..].bytes().all(|b| b.is_ascii_digit())
    {
        bad(format!("code {code:?} does not match XTnnnn"), out);
        broken = true;
    }
    let severity = strs[1].unwrap_or_default();
    if severity != "error" && severity != "warning" {
        bad(
            format!("severity {severity:?} must be \"error\" or \"warning\""),
            out,
        );
        broken = true;
    }
    let file = strs[2].unwrap_or_default();
    if file.is_empty() || file.contains('\\') {
        bad(
            format!("file {file:?} must be non-empty with '/' separators"),
            out,
        );
        broken = true;
    }
    let line = nums[3];
    let col_start = nums[4];
    let col_end = nums[5];
    if line.is_none_or(|n| n == 0) {
        bad("line must be a positive integer".into(), out);
        broken = true;
    }
    if col_start.is_none_or(|n| n == 0) {
        bad("col_start must be a positive integer".into(), out);
        broken = true;
    }
    match (col_start, col_end) {
        (Some(s), Some(e)) if e >= s => {}
        _ => {
            bad("col_end must be an integer >= col_start".into(), out);
            broken = true;
        }
    }
    let message = strs[6].unwrap_or_default();
    if message.is_empty() {
        bad("message must be non-empty".into(), out);
        broken = true;
    }
    if broken {
        return None;
    }
    Some((
        file.to_string(),
        line.unwrap_or(1),
        col_start.unwrap_or(1),
        severity.to_string(),
        code.to_string(),
        message.to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The empty callgraph + effects sections every report now carries.
    const SECTION: &str = concat!(
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
        "  }\n",
    );

    fn clean() -> String {
        format!("{{\n  \"errors\": 0,\n  \"warnings\": 0,\n  \"findings\": [],\n{SECTION}}}\n")
    }

    fn one_finding() -> String {
        format!(
            concat!(
                "{{\n  \"errors\": 1,\n  \"warnings\": 0,\n  \"findings\": [\n",
                "    {{\"code\":\"XT0007\",\"severity\":\"error\",\"file\":\"crates/a/src/lib.rs\",",
                "\"line\":3,\"col_start\":5,\"col_end\":11,\"message\":\"collect_trace( outside the trace shims\"}}\n",
                "  ],\n{SECTION}}}\n"
            ),
            SECTION = SECTION
        )
    }

    #[test]
    fn clean_reports_pass() {
        assert!(check_analyze_report(&clean()).is_empty());
        assert!(check_analyze_report(&one_finding()).is_empty());
    }

    #[test]
    fn missing_callgraph_section_is_flagged() {
        let stream = clean().replace(SECTION, "");
        let diags = check_analyze_report(&stream);
        assert!(diags
            .iter()
            .any(|d| d.code == codes::ANALYZE_SCHEMA && d.message.contains("callgraph")));
    }

    #[test]
    fn report_truncated_inside_the_callgraph_is_flagged() {
        let full = clean();
        let cut = full.find("    \"sccs\"").expect("sccs line present");
        let diags = check_analyze_report(&full[..cut]);
        assert!(diags
            .iter()
            .any(|d| d.code == codes::ANALYZE_SCHEMA && d.message.contains("effects")));
        let unclosed = full.strip_suffix("}\n").expect("report ends with '}'");
        let diags = check_analyze_report(unclosed);
        assert!(diags.iter().any(|d| d.message.contains("close with '}'")));
    }

    #[test]
    fn header_count_mismatch_is_flagged() {
        let stream = one_finding().replace("\"errors\": 1", "\"errors\": 2");
        let diags = check_analyze_report(&stream);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::ANALYZE_SCHEMA);
        assert!(diags[0].message.contains("declares 2 error(s)"));
    }

    #[test]
    fn bad_code_severity_and_columns_are_flagged() {
        let stream = one_finding()
            .replace("XT0007", "CHK007")
            .replace("\"severity\":\"error\"", "\"severity\":\"fatal\"")
            .replace("\"col_end\":11", "\"col_end\":2");
        let diags = check_analyze_report(&stream);
        let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("does not match XTnnnn")));
        assert!(messages.iter().any(|m| m.contains("\"fatal\"")));
        assert!(messages.iter().any(|m| m.contains("col_end")));
        // The broken finding drops out of the tally, so the header
        // count disagrees too.
        assert!(messages.iter().any(|m| m.contains("declares 1 error(s)")));
    }

    #[test]
    fn unsorted_findings_are_flagged() {
        let second = "    {\"code\":\"XT0001\",\"severity\":\"error\",\"file\":\"crates/a/src/a.rs\",\"line\":1,\"col_start\":1,\"col_end\":2,\"message\":\"x\"}";
        let stream = one_finding()
            .replace("\"errors\": 1", "\"errors\": 2")
            .replace("\"}\n  ]", &format!("\"}},\n{second}\n  ]"));
        let diags = check_analyze_report(&stream);
        assert!(diags.iter().any(|d| d.message.contains("not sorted")));
    }

    #[test]
    fn truncated_frame_is_flagged() {
        let stream = "{\n  \"errors\": 0,\n";
        let diags = check_analyze_report(stream);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == codes::ANALYZE_SCHEMA));
    }
}
