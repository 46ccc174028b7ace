//! Lenient fixture ingestion for `commorder-cli check`.
//!
//! Unlike the strict readers in `commorder_sparse::io` (which refuse
//! malformed input with a single error), these parsers accept anything
//! token-shaped and hand the raw arrays to the validators, so a corrupted
//! fixture yields the *full list* of `CHK` findings instead of stopping
//! at the first parse failure. Unreadable lines become parse diagnostics
//! in the same report.
//!
//! Supported extensions:
//!
//! * `.mtx` — Matrix Market coordinate files (1-based `row col [value]`
//!   entries, audited as COO against the declared dimensions),
//! * `.csr` — raw CSR dump: `n_rows n_cols`, then one line each for
//!   `row_offsets`, `col_indices`, `values` (values line optional),
//! * `.perm` — one `new_id` per line (`new_ids[old] = new`),
//! * `.trace` — one access per line, `R <addr>` or `W <addr>` (decimal or
//!   `0x` hex); optional directives `@line <bytes>` and `@end <bytes>`
//!   set the sector size and the exclusive address bound,
//! * `.json` — an `xtask bench` artifact, audited by the `CHK12xx`
//!   bench-artifact validator in [`crate::bench`]; any other JSON
//!   fails its schema check,
//! * `.jsonl` — a `commorder-obs` telemetry stream, audited by the
//!   `CHK09xx` validators in [`crate::telemetry`].

use commorder_cachesim::Access;

use crate::diag::{CheckReport, Diagnostic, Location};
use crate::matrix::{check_coo_parts, check_csr_parts};
use crate::perm::check_permutation_parts;
use crate::trace::check_trace;

/// Parse-failure diagnostics share one pseudo-code: the file never
/// reached the structural validators at that line.
pub const PARSE_CODE: &str = "CHK0001";

fn parse_error(line_no: usize, message: String) -> Diagnostic {
    Diagnostic::error(PARSE_CODE, Location::at("line", line_no as u64), message)
}

/// A file validator: the file's contents in, its findings out.
pub type Validator = fn(&str) -> Vec<Diagnostic>;

/// Every file kind `check` audits: its extension and its validator.
pub const ROUTES: [(&str, Validator); 6] = [
    ("mtx", check_mtx),
    ("csr", check_csr_dump),
    ("perm", check_perm_file),
    ("trace", check_trace_file),
    ("json", crate::bench::check_bench_artifact),
    ("jsonl", crate::telemetry::check_telemetry),
];

/// Audits file `contents` according to the extension of `name` (one of
/// [`ROUTES`]); an unknown extension yields a single parse diagnostic.
#[must_use]
pub fn check_file_contents(name: &str, contents: &str) -> CheckReport {
    let ext = name.rsplit('.').next().unwrap_or("").to_ascii_lowercase();
    let mut report = CheckReport::new();
    report.extend(match ROUTES.iter().find(|&&(known, _)| known == ext) {
        Some((_, validate)) => validate(contents),
        None => {
            let known = ROUTES.map(|(known, _)| known).join(", ");
            let message = format!("unknown fixture extension {ext:?} (expected one of {known})");
            vec![parse_error(0, message)]
        }
    });
    report
}

/// Data lines of the file: `(1-based line number, trimmed text)` with
/// blanks and `comment`-prefixed lines removed.
fn data_lines<'a>(contents: &'a str, comment: &str) -> impl Iterator<Item = (usize, &'a str)> {
    let comment = comment.to_string();
    contents
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(move |(_, l)| !l.is_empty() && !l.starts_with(&comment))
}

fn check_mtx(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut entries: Vec<(u32, u32, f32)> = Vec::new();
    let mut dims: Option<(u64, u64, u64)> = None;
    for (line_no, line) in data_lines(contents, "%") {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match dims {
            None => {
                // First data line: `n_rows n_cols nnz`.
                let parsed: Option<Vec<u64>> = fields.iter().map(|f| f.parse().ok()).collect();
                match parsed {
                    Some(v) if v.len() == 3 => dims = Some((v[0], v[1], v[2])),
                    _ => {
                        out.push(parse_error(
                            line_no,
                            format!("expected size line `n_rows n_cols nnz`, got {line:?}"),
                        ));
                        return out;
                    }
                }
            }
            Some(_) => {
                // Entry line: `row col [value]`, 1-based.
                let r = fields.first().and_then(|f| f.parse::<u64>().ok());
                let c = fields.get(1).and_then(|f| f.parse::<u64>().ok());
                let v = match fields.get(2) {
                    Some(f) => f.parse::<f32>().ok(),
                    None => Some(1.0),
                };
                match (r, c, v) {
                    (Some(r), Some(c), Some(v)) if r >= 1 && c >= 1 && fields.len() <= 3 => {
                        // Saturate to keep out-of-range coordinates
                        // representable: the bounds validators report them.
                        let clip = |x: u64| u32::try_from(x - 1).unwrap_or(u32::MAX);
                        entries.push((clip(r), clip(c), v));
                    }
                    _ => out.push(parse_error(
                        line_no,
                        format!("expected entry `row col [value]` (1-based), got {line:?}"),
                    )),
                }
            }
        }
    }
    let Some((n_rows, n_cols, nnz)) = dims else {
        out.push(parse_error(0, "no size line found".to_string()));
        return out;
    };
    let held = entries.len();
    if held as u64 != nnz {
        let message = format!("header declares {nnz} entries, file holds {held}");
        out.push(Diagnostic::warning(
            PARSE_CODE,
            Location::whole("mtx"),
            message,
        ));
    }
    out.extend(check_coo_parts("mtx.entries", n_rows, n_cols, &entries));
    out
}

/// The whitespace-separated `T`s of one line; each field that does not
/// parse becomes a diagnostic ("expected `what`").
fn parse_line<T: std::str::FromStr>(
    (line_no, line): (usize, &str),
    what: &str,
    out: &mut Vec<Diagnostic>,
) -> Vec<T> {
    line.split_whitespace()
        .filter_map(|f| match f.parse::<T>() {
            Ok(v) => Some(v),
            Err(_) => {
                out.push(parse_error(line_no, format!("expected {what}, got {f:?}")));
                None
            }
        })
        .collect()
}

fn check_csr_dump(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut lines = data_lines(contents, "#");
    let Some((line_no, dims)) = lines.next() else {
        out.push(parse_error(0, "empty CSR dump".to_string()));
        return out;
    };
    let dims: Vec<u64> = dims
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let [n_rows, n_cols] = dims[..] else {
        out.push(parse_error(
            line_no,
            "expected dimension line `n_rows n_cols`".to_string(),
        ));
        return out;
    };
    // A `CsrMatrix` indexes rows and columns with `u32`.
    if n_rows.max(n_cols) > u64::from(u32::MAX) {
        out.push(parse_error(
            line_no,
            format!("dimensions {n_rows} x {n_cols} exceed the u32 index range"),
        ));
        return out;
    }
    let Some(offsets_line) = lines.next() else {
        out.push(parse_error(0, "missing row_offsets line".to_string()));
        return out;
    };
    let row_offsets = parse_line(offsets_line, "integer", &mut out);
    let Some(cols_line) = lines.next() else {
        out.push(parse_error(0, "missing col_indices line".to_string()));
        return out;
    };
    let col_indices = parse_line(cols_line, "integer", &mut out);
    let values: Option<Vec<f32>> = lines.next().map(|line| parse_line(line, "value", &mut out));
    out.extend(check_csr_parts(
        "csr",
        n_rows,
        n_cols,
        &row_offsets,
        &col_indices,
        values.as_deref(),
    ));
    out
}

fn check_perm_file(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut new_ids = Vec::new();
    for (line_no, line) in data_lines(contents, "#") {
        match line.parse::<u32>() {
            Ok(v) => new_ids.push(v),
            Err(_) => out.push(parse_error(
                line_no,
                format!("expected one new id per line, got {line:?}"),
            )),
        }
    }
    out.extend(check_permutation_parts("permutation", &new_ids, None));
    out
}

fn check_trace_file(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut trace: Vec<Access> = Vec::new();
    let mut line_bytes = 32u32;
    let mut end: Option<u64> = None;
    let parse_addr = |f: &str| {
        f.strip_prefix("0x").map_or_else(
            || f.parse::<u64>().ok(),
            |hex| u64::from_str_radix(hex, 16).ok(),
        )
    };
    for (line_no, line) in data_lines(contents, "#") {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["@line", v] => match v.parse() {
                Ok(v) => line_bytes = v,
                Err(_) => out.push(parse_error(line_no, format!("bad @line value {v:?}"))),
            },
            ["@end", v] => match parse_addr(v) {
                Some(v) => end = Some(v),
                None => out.push(parse_error(line_no, format!("bad @end value {v:?}"))),
            },
            [op @ ("R" | "W" | "r" | "w"), addr] => match parse_addr(addr) {
                // Bit 63 is the packed read/write tag of `Access`; an
                // address using it cannot be represented and would alias
                // the write flag, so reject it at parse time.
                Some(addr) if addr >= 1 << 63 => out.push(parse_error(
                    line_no,
                    format!("address {addr:#x} uses bit 63, reserved for the write tag"),
                )),
                Some(addr) => trace.push(Access::new(addr, op.eq_ignore_ascii_case("w"))),
                None => out.push(parse_error(line_no, format!("bad address {addr:?}"))),
            },
            _ => out.push(parse_error(
                line_no,
                format!("expected `R <addr>` or `W <addr>`, got {line:?}"),
            )),
        }
    }
    out.extend(check_trace(&trace, end, line_bytes));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes;

    #[test]
    fn clean_mtx_round_trips() {
        let mtx = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n2 3 -4.5\n";
        let r = check_file_contents("good.mtx", mtx);
        assert!(r.is_clean(), "{}", r.render_text());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn mtx_out_of_bounds_entry_reports_coo_codes() {
        let mtx = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n9 1 1.0\n";
        let r = check_file_contents("bad.mtx", mtx);
        assert!(
            r.codes().contains(&codes::COO_ROW_BOUNDS),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn mtx_entry_count_mismatch_warns() {
        let mtx = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n";
        let r = check_file_contents("short.mtx", mtx);
        assert!(r.is_clean());
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn csr_dump_non_monotone_offsets_is_chk0103() {
        let dump = "# corrupted\n2 3\n0 2 1\n0 1\n1.0 1.0\n";
        let r = check_file_contents("bad.csr", dump);
        assert!(
            r.codes().contains(&codes::OFFSETS_MONOTONE),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn clean_csr_dump_without_values() {
        let dump = "2 3\n0 1 2\n0 2\n";
        let r = check_file_contents("ok.csr", dump);
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn csr_dump_dimensions_beyond_u32_are_parse_errors() {
        let r = check_file_contents("hostile_dims.csr", "18446744073709551615 1\nx\nx\n");
        assert_eq!(r.codes(), vec![PARSE_CODE], "{}", r.render_text());
        // Clean at any declared width, but no `CsrMatrix` has 2^32 columns.
        let r = check_file_contents("wide.csr", "1 4294967296\n0 1\n4294967295\n");
        assert_eq!(r.codes(), vec![PARSE_CODE], "{}", r.render_text());
    }

    #[test]
    fn perm_file_duplicate_target_is_chk0402() {
        let r = check_file_contents("bad.perm", "# old -> new\n1\n1\n0\n");
        assert_eq!(r.codes(), vec![codes::PERM_DUPLICATE]);
    }

    #[test]
    fn trace_file_misaligned_is_chk0601() {
        let r = check_file_contents("bad.trace", "@line 32\nR 0x0\nW 0x1e\n");
        assert!(
            r.codes().contains(&codes::TRACE_ALIGN),
            "{}",
            r.render_text()
        );
        assert!(
            r.codes().contains(&codes::TRACE_SECTOR),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn trace_file_end_directive_bounds_accesses() {
        let r = check_file_contents("oob.trace", "@end 64\nR 0x40\n");
        assert_eq!(r.codes(), vec![codes::TRACE_BOUNDS]);
    }

    #[test]
    fn bench_artifacts_route_to_the_bench_validator() {
        let truncated = "{\n  \"schema\": \"commorder-bench.v2\",\n";
        // Every `.json` is read as a bench artifact, so a findings
        // report fails the bench schema.
        let lint = "{\n  \"errors\": 0,\n  \"warnings\": 0,\n  \"findings\": [],\n  \"callgraph\": {}\n}\n";
        for (name, contents) in [("BENCH_pipeline.json", truncated), ("lint.json", lint)] {
            let r = check_file_contents(name, contents);
            assert!(!r.is_clean(), "{name}");
            assert!(
                r.codes().iter().all(|c| c.starts_with("CHK12")),
                "{name}: {}",
                r.render_text()
            );
        }
    }

    #[test]
    fn jsonl_files_route_to_the_telemetry_validators() {
        let stream = "{\"type\":\"meta\",\"version\":1}\n\
                      {\"type\":\"counter\",\"name\":\"no.such.metric\",\"delta\":1}\n";
        let r = check_file_contents("run.jsonl", stream);
        assert_eq!(r.codes(), vec![codes::TELEM_METRIC], "{}", r.render_text());
    }

    #[test]
    fn unparseable_lines_become_parse_diagnostics() {
        let r = check_file_contents("junk.perm", "one\n2\n");
        assert!(r.codes().contains(&PARSE_CODE));
        let r = check_file_contents("data.unknown", "whatever");
        assert!(!r.is_clean());
    }
}
