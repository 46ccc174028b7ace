//! Structured diagnostics: the record every validator emits, plus the
//! human-readable and JSON reporters.
//!
//! Validators never panic on malformed data — they describe each
//! violation as a [`Diagnostic`] with a stable `CHK` code so tools (and
//! golden-file tests) can match on findings across releases.

use std::fmt;

use commorder_obs::event::json_string;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth surfacing, never wrong by itself.
    Info,
    /// Suspicious but not invariant-breaking (e.g. duplicate COO entry,
    /// which construction would merge by summing).
    Warning,
    /// A structural invariant is broken; downstream results would be
    /// garbage.
    Error,
}

impl Severity {
    /// Lowercase label used by both reporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where in the checked object a finding points.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Location {
    /// Dotted path of the checked object/array, e.g. `csr.row_offsets`,
    /// `permutation`, `trace`.
    pub object: String,
    /// Offending position within the object, when one exists.
    pub index: Option<u64>,
}

impl Location {
    /// Location with an offending index.
    #[must_use]
    pub fn at(object: &str, index: u64) -> Self {
        Location {
            object: object.to_string(),
            index: Some(index),
        }
    }

    /// Location describing the object as a whole.
    #[must_use]
    pub fn whole(object: &str) -> Self {
        Location {
            object: object.to_string(),
            index: None,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{i}]", self.object),
            None => f.write_str(&self.object),
        }
    }
}

/// One validator finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`CHK0101`, ...); see [`crate::codes`].
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Human-readable description carrying the offending values.
    pub message: String,
    /// Where the finding points.
    pub location: Location,
}

impl Diagnostic {
    /// Error-severity diagnostic.
    #[must_use]
    pub fn error(code: &'static str, location: Location, message: String) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message,
            location,
        }
    }

    /// Warning-severity diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, location: Location, message: String) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message,
            location,
        }
    }

    /// Info-severity diagnostic.
    #[must_use]
    pub fn info(code: &'static str, location: Location, message: String) -> Self {
        Diagnostic {
            code,
            severity: Severity::Info,
            message,
            location,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// The outcome of running one or more validators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Every finding, in validator emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Empty (clean) report.
    #[must_use]
    pub fn new() -> Self {
        CheckReport::default()
    }

    /// Absorbs the findings of one validator run.
    pub fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when no finding reaches error severity.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Distinct codes present, sorted (handy for asserting fixtures).
    #[must_use]
    pub fn codes(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Human-readable report: one line per finding plus a summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} finding(s) total\n",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        ));
        out
    }

    /// Machine-readable report: stable-key JSON, one object per finding.
    ///
    /// Shape: `{"errors": E, "warnings": W, "diagnostics": [{"code": ...,
    /// "severity": ..., "object": ..., "index": N|null, "message": ...}]}`.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":\"{}\",\"object\":{},\"index\":{},\"message\":{}}}",
                json_string(d.code),
                d.severity.label(),
                json_string(&d.location.object),
                d.location
                    .index
                    .map_or_else(|| "null".to_string(), |i| i.to_string()),
                json_string(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckReport {
        let mut r = CheckReport::new();
        r.extend(vec![
            Diagnostic::error(
                "CHK0101",
                Location::at("csr.row_offsets", 3),
                "offsets must be non-decreasing".to_string(),
            ),
            Diagnostic::warning(
                "CHK0204",
                Location::whole("coo"),
                "duplicate coordinate".to_string(),
            ),
        ]);
        r
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert!(CheckReport::new().is_clean());
        assert_eq!(r.codes(), vec!["CHK0101", "CHK0204"]);
    }

    #[test]
    fn text_report_lines() {
        let text = sample().render_text();
        assert!(
            text.contains("error[CHK0101] csr.row_offsets[3]:"),
            "{text}"
        );
        assert!(text.contains("warning[CHK0204] coo:"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"errors\":1,\"warnings\":1,"), "{json}");
        assert!(json.contains("\"index\":3"), "{json}");
        assert!(json.contains("\"index\":null"), "{json}");
        let mut r = CheckReport::new();
        r.extend(vec![Diagnostic::info(
            "CHK0000",
            Location::whole("x"),
            "quote \" backslash \\ newline \n".to_string(),
        )]);
        let j = r.render_json();
        assert!(j.contains("quote \\\" backslash \\\\ newline \\n"), "{j}");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
