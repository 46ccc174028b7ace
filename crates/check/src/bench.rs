//! Validators for unified bench artifacts and profile invariants
//! (`CHK12xx`).
//!
//! `xtask bench` writes one `BENCH_<name>.json` artifact per bench at
//! the repository root with a fixed, line-oriented shape (schema
//! `commorder-bench.v2`): header lines, a one-line machine object,
//! then `fingerprints` and `metrics` arrays with one object per line.
//! CI pipes every artifact through [`check_bench_artifact`] before the
//! regression gate trusts it, so a half-written file or a schema drift
//! fails loudly instead of silently gating nothing.
//!
//! The sibling `CHK1203` self-time audit lives in
//! [`crate::telemetry::check_self_time`] next to the span aggregation
//! that feeds it.

use crate::codes;
use crate::diag::{Diagnostic, Location};
use crate::telemetry::{parse_flat_object, Json};

/// The schema discriminator every v2 artifact declares on line 2.
pub const SCHEMA_V2: &str = "commorder-bench.v2";

/// The exact key sequence of the one-line machine object.
const MACHINE_KEYS: [&str; 4] = ["cpu", "threads", "mem_total_kb", "fingerprint"];
/// The exact key sequence of one fingerprint row.
const FINGERPRINT_KEYS: [&str; 2] = ["name", "value"];
/// The exact key sequence of one metric row.
const METRIC_KEYS: [&str; 4] = ["name", "value", "unit", "higher_is_better"];

fn frame_error(line: usize, message: String) -> Diagnostic {
    Diagnostic::error(
        codes::BENCH_SCHEMA,
        Location::at("artifact line", line as u64 + 1),
        message,
    )
}

fn metric_error(line: usize, message: String) -> Diagnostic {
    Diagnostic::error(
        codes::BENCH_METRIC,
        Location::at("artifact line", line as u64 + 1),
        message,
    )
}

/// A 16-digit lowercase hex string (the FNV-1a fingerprint encoding).
fn is_hex16(s: &str) -> bool {
    s.len() == 16
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// Parses a `"key": "<string>",` header line; reports and returns
/// `None` when malformed.
fn parse_header_str(
    lines: &[&str],
    idx: usize,
    key: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<String> {
    let fail = |out: &mut Vec<Diagnostic>| {
        out.push(frame_error(
            idx,
            format!("expected a '\"{key}\": \"<value>\",' header line"),
        ));
        None
    };
    let Some(body) = lines
        .get(idx)
        .map(|l| l.trim())
        .and_then(|l| l.strip_suffix(','))
    else {
        return fail(out);
    };
    match parse_flat_object(&format!("{{{body}}}")) {
        Ok(fields) => match fields.as_slice() {
            [(k, Json::Str(v))] if k == key => Some(v.clone()),
            _ => fail(out),
        },
        Err(_) => fail(out),
    }
}

/// Validates the one-line `"machine": {...},` object on line 4.
fn check_machine_line(lines: &[&str], idx: usize, out: &mut Vec<Diagnostic>) {
    let Some(body) = lines
        .get(idx)
        .map(|l| l.trim())
        .and_then(|l| l.strip_prefix("\"machine\": "))
        .and_then(|l| l.strip_suffix(','))
    else {
        out.push(frame_error(
            idx,
            "expected a one-line '\"machine\": {...},' object".into(),
        ));
        return;
    };
    let fields = match parse_flat_object(body) {
        Ok(fields) => fields,
        Err(e) => {
            out.push(frame_error(idx, format!("unparsable machine object: {e}")));
            return;
        }
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != MACHINE_KEYS {
        out.push(frame_error(
            idx,
            format!("machine keys must be exactly {MACHINE_KEYS:?}, found {keys:?}"),
        ));
        return;
    }
    if !matches!(&fields[0].1, Json::Str(s) if !s.is_empty()) {
        out.push(frame_error(
            idx,
            "machine cpu must be a non-empty string".into(),
        ));
    }
    for slot in [1usize, 2] {
        let (name, value) = &fields[slot];
        let ok = matches!(value, Json::Num(v) if v.fract() == 0.0 && *v >= 1.0 && v.is_finite());
        if !ok {
            out.push(frame_error(
                idx,
                format!("machine {name} must be a positive integer, got {value:?}"),
            ));
        }
    }
    if !matches!(&fields[3].1, Json::Str(s) if is_hex16(s)) {
        out.push(frame_error(
            idx,
            "machine fingerprint must be 16 lowercase hex digits".into(),
        ));
    }
}

/// Collects the rows of a `"name": [` ... `]` section opening at
/// `start`; returns `(rows, line index after the section)`. The close
/// bracket carries a trailing comma iff `trailing_comma` (the metrics
/// array is the last section of the artifact and has none).
fn parse_array_section<'a>(
    lines: &[&'a str],
    start: usize,
    name: &str,
    trailing_comma: bool,
    out: &mut Vec<Diagnostic>,
) -> (Vec<(usize, &'a str)>, usize) {
    let comma = if trailing_comma { "," } else { "" };
    let open = lines.get(start).map(|l| l.trim()).unwrap_or("");
    if open == format!("\"{name}\": []{comma}") {
        return (Vec::new(), start + 1);
    }
    if open != format!("\"{name}\": [") {
        out.push(frame_error(
            start,
            format!("expected a {name} array, found {open:?}"),
        ));
        return (Vec::new(), start);
    }
    let close = format!("]{comma}");
    let mut rows = Vec::new();
    let mut i = start + 1;
    while i < lines.len() && lines[i].trim() != close {
        rows.push((i, lines[i]));
        i += 1;
    }
    if lines.get(i).map(|l| l.trim()) != Some(close.as_str()) {
        out.push(frame_error(
            i,
            format!("{name} array is not closed with '{close}'"),
        ));
    }
    (rows, i + 1)
}

/// Strips the row-separating comma (present on every row but the last)
/// and parses the remaining object; `None` when unparsable.
fn parse_row(
    seq: usize,
    last: usize,
    line_no: usize,
    raw: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<Vec<(String, Json)>> {
    let trimmed = raw.trim();
    let object = match (seq < last, trimmed.strip_suffix(',')) {
        (true, Some(stripped)) => stripped,
        (true, None) => {
            out.push(frame_error(
                line_no,
                "row is missing its trailing comma".into(),
            ));
            trimmed
        }
        (false, Some(_)) => {
            out.push(frame_error(
                line_no,
                "last row must not end with a comma".into(),
            ));
            trimmed.trim_end_matches(',')
        }
        (false, None) => trimmed,
    };
    match parse_flat_object(object) {
        Ok(fields) => Some(fields),
        Err(e) => {
            out.push(frame_error(line_no, format!("unparsable row: {e}")));
            None
        }
    }
}

/// Validates one `{"name":..., "value":"<hex16>"}` fingerprint row;
/// returns the name when usable for the sortedness check.
fn check_fingerprint_row(
    fields: &[(String, Json)],
    line_no: usize,
    out: &mut Vec<Diagnostic>,
) -> Option<String> {
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != FINGERPRINT_KEYS {
        out.push(frame_error(
            line_no,
            format!("fingerprint keys must be exactly {FINGERPRINT_KEYS:?}, found {keys:?}"),
        ));
        return None;
    }
    let name = match &fields[0].1 {
        Json::Str(s) if !s.is_empty() => s.clone(),
        other => {
            out.push(frame_error(
                line_no,
                format!("fingerprint name must be a non-empty string, got {other:?}"),
            ));
            return None;
        }
    };
    if !matches!(&fields[1].1, Json::Str(s) if is_hex16(s)) {
        out.push(frame_error(
            line_no,
            format!("fingerprint {name:?} value must be 16 lowercase hex digits"),
        ));
    }
    Some(name)
}

/// Validates one metric row; returns the name when usable for the
/// sortedness check.
fn check_metric_row(
    fields: &[(String, Json)],
    line_no: usize,
    out: &mut Vec<Diagnostic>,
) -> Option<String> {
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != METRIC_KEYS {
        out.push(metric_error(
            line_no,
            format!("metric keys must be exactly {METRIC_KEYS:?}, found {keys:?}"),
        ));
        return None;
    }
    let name = match &fields[0].1 {
        Json::Str(s) if !s.is_empty() => s.clone(),
        other => {
            out.push(metric_error(
                line_no,
                format!("metric name must be a non-empty string, got {other:?}"),
            ));
            return None;
        }
    };
    if !matches!(&fields[1].1, Json::Num(v) if v.is_finite()) {
        out.push(metric_error(
            line_no,
            format!("metric {name:?} value must be a finite number"),
        ));
    }
    if !matches!(&fields[2].1, Json::Str(s) if !s.is_empty()) {
        out.push(metric_error(
            line_no,
            format!("metric {name:?} unit must be a non-empty string"),
        ));
    }
    if !matches!(&fields[3].1, Json::Bool(_)) {
        out.push(metric_error(
            line_no,
            format!("metric {name:?} higher_is_better must be a boolean"),
        ));
    }
    Some(name)
}

/// Reports rows whose names are not strictly increasing (which also
/// catches duplicates); `code` distinguishes fingerprint (`CHK1201`)
/// from metric (`CHK1202`) rows.
fn check_sorted_unique(names: &[(usize, String)], code: &'static str, out: &mut Vec<Diagnostic>) {
    for w in names.windows(2) {
        if w[0].1 >= w[1].1 {
            out.push(Diagnostic::error(
                code,
                Location::at("artifact line", w[1].0 as u64 + 1),
                format!(
                    "row names must be sorted and unique: {:?} follows {:?}",
                    w[1].1, w[0].1
                ),
            ));
        }
    }
}

/// Validates `contents` as a `commorder-bench.v2` artifact; framing and
/// fingerprint violations are `CHK1201` errors, metric-row violations
/// are `CHK1202`.
#[must_use]
pub fn check_bench_artifact(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let lines: Vec<&str> = contents.lines().collect();
    if lines.first().map(|l| l.trim()) != Some("{") {
        out.push(frame_error(0, "artifact must open with a lone '{'".into()));
        return out;
    }
    if let Some(schema) = parse_header_str(&lines, 1, "schema", &mut out) {
        if schema != SCHEMA_V2 {
            out.push(frame_error(
                1,
                format!("schema must be {SCHEMA_V2:?}, found {schema:?}"),
            ));
        }
    }
    if let Some(bench) = parse_header_str(&lines, 2, "bench", &mut out) {
        if bench.is_empty() {
            out.push(frame_error(2, "bench name must be non-empty".into()));
        }
    }
    check_machine_line(&lines, 3, &mut out);

    let (fp_rows, after_fp) = parse_array_section(&lines, 4, "fingerprints", true, &mut out);
    let mut fp_names = Vec::new();
    let fp_last = fp_rows.len().saturating_sub(1);
    for (seq, &(line_no, raw)) in fp_rows.iter().enumerate() {
        if let Some(fields) = parse_row(seq, fp_last, line_no, raw, &mut out) {
            if let Some(name) = check_fingerprint_row(&fields, line_no, &mut out) {
                fp_names.push((line_no, name));
            }
        }
    }
    check_sorted_unique(&fp_names, codes::BENCH_SCHEMA, &mut out);

    let (metric_rows, after_metrics) =
        parse_array_section(&lines, after_fp, "metrics", false, &mut out);
    if metric_rows.is_empty() {
        out.push(frame_error(
            after_fp,
            "metrics list is empty — an artifact must report at least one metric".into(),
        ));
    }
    let mut metric_names = Vec::new();
    let metric_last = metric_rows.len().saturating_sub(1);
    for (seq, &(line_no, raw)) in metric_rows.iter().enumerate() {
        if let Some(fields) = parse_row(seq, metric_last, line_no, raw, &mut out) {
            if let Some(name) = check_metric_row(&fields, line_no, &mut out) {
                metric_names.push((line_no, name));
            }
        }
    }
    check_sorted_unique(&metric_names, codes::BENCH_METRIC, &mut out);

    if lines.get(after_metrics).map(|l| l.trim()) != Some("}") {
        out.push(frame_error(
            after_metrics,
            "artifact must close with '}'".into(),
        ));
    } else if lines.len() > after_metrics + 1 {
        out.push(frame_error(
            after_metrics + 1,
            "trailing lines after the closing '}'".into(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::CheckReport;

    fn report(contents: &str) -> CheckReport {
        let mut r = CheckReport::new();
        r.extend(check_bench_artifact(contents));
        r
    }

    fn clean() -> String {
        concat!(
            "{\n",
            "  \"schema\": \"commorder-bench.v2\",\n",
            "  \"bench\": \"pipeline\",\n",
            "  \"machine\": {\"cpu\":\"Test CPU\",\"threads\":8,\"mem_total_kb\":16000000,",
            "\"fingerprint\":\"00112233aabbccdd\"},\n",
            "  \"fingerprints\": [\n",
            "    {\"name\":\"cache.lru\",\"value\":\"0123456789abcdef\"},\n",
            "    {\"name\":\"cache.plru\",\"value\":\"fedcba9876543210\"}\n",
            "  ],\n",
            "  \"metrics\": [\n",
            "    {\"name\":\"pipeline.lru_accesses_per_second\",\"value\":1.5e8,",
            "\"unit\":\"accesses/s\",\"higher_is_better\":true},\n",
            "    {\"name\":\"pipeline.suite_wall_seconds\",\"value\":1.25,",
            "\"unit\":\"seconds\",\"higher_is_better\":false}\n",
            "  ]\n",
            "}\n",
        )
        .to_string()
    }

    #[test]
    fn clean_artifacts_pass() {
        let r = report(&clean());
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
        let empty_fp = clean().replace(
            concat!(
                "  \"fingerprints\": [\n",
                "    {\"name\":\"cache.lru\",\"value\":\"0123456789abcdef\"},\n",
                "    {\"name\":\"cache.plru\",\"value\":\"fedcba9876543210\"}\n",
                "  ],\n",
            ),
            "  \"fingerprints\": [],\n",
        );
        let r = report(&empty_fp);
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn wrong_schema_is_chk1201() {
        let r = report(&clean().replace("commorder-bench.v2", "commorder-bench.v9"));
        assert_eq!(r.codes(), vec![codes::BENCH_SCHEMA]);
    }

    #[test]
    fn bad_machine_object_is_chk1201() {
        let missing_key = clean().replace("\"threads\":8,", "");
        let r = report(&missing_key);
        assert!(
            r.codes().contains(&codes::BENCH_SCHEMA),
            "{}",
            r.render_text()
        );
        let bad_fp = clean().replace("00112233aabbccdd", "NOT-HEX");
        let r = report(&bad_fp);
        assert!(
            r.codes().contains(&codes::BENCH_SCHEMA),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn unsorted_fingerprints_are_chk1201() {
        let swapped = clean()
            .replace("cache.lru", "zz.tmp")
            .replace("cache.plru", "cache.lru")
            .replace("zz.tmp", "cache.plru");
        let r = report(&swapped);
        assert_eq!(r.codes(), vec![codes::BENCH_SCHEMA]);
        assert!(r.render_text().contains("sorted and unique"));
    }

    #[test]
    fn invalid_metric_rows_are_chk1202() {
        let bad_value = clean().replace("\"value\":1.25", "\"value\":null");
        let r = report(&bad_value);
        assert_eq!(r.codes(), vec![codes::BENCH_METRIC]);
        let bad_flag = clean().replace("\"higher_is_better\":true", "\"higher_is_better\":1");
        let r = report(&bad_flag);
        assert_eq!(r.codes(), vec![codes::BENCH_METRIC]);
        let empty_unit = clean().replace("\"unit\":\"seconds\"", "\"unit\":\"\"");
        let r = report(&empty_unit);
        assert_eq!(r.codes(), vec![codes::BENCH_METRIC]);
    }

    #[test]
    fn duplicate_metric_names_are_chk1202() {
        let dup = clean().replace(
            "pipeline.suite_wall_seconds",
            "pipeline.lru_accesses_per_second",
        );
        let r = report(&dup);
        assert_eq!(r.codes(), vec![codes::BENCH_METRIC]);
        assert!(r.render_text().contains("sorted and unique"));
    }

    #[test]
    fn empty_metrics_are_chk1201() {
        let empty = clean().replace(
            concat!(
                "  \"metrics\": [\n",
                "    {\"name\":\"pipeline.lru_accesses_per_second\",\"value\":1.5e8,",
                "\"unit\":\"accesses/s\",\"higher_is_better\":true},\n",
                "    {\"name\":\"pipeline.suite_wall_seconds\",\"value\":1.25,",
                "\"unit\":\"seconds\",\"higher_is_better\":false}\n",
                "  ]\n",
            ),
            "  \"metrics\": []\n",
        );
        let r = report(&empty);
        assert_eq!(r.codes(), vec![codes::BENCH_SCHEMA]);
        assert!(r.render_text().contains("at least one metric"));
    }

    #[test]
    fn truncated_frame_is_flagged() {
        let r = report("{\n  \"schema\": \"commorder-bench.v2\",\n");
        assert!(!r.is_clean());
        assert!(r.codes().contains(&codes::BENCH_SCHEMA));
    }
}
