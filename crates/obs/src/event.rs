//! The telemetry event model and its JSONL encoding.
//!
//! Every observation the workspace emits — a completed span, a counter
//! increment, a gauge sample, a raw histogram observation — is one
//! [`Event`]. Sinks receive events by reference and decide how to
//! persist or aggregate them; [`Event::to_jsonl`] is the canonical
//! single-line JSON encoding consumed by `commorder-cli check` and any
//! external tooling.

/// One telemetry observation.
///
/// Field meanings are stable: downstream tooling (the `CHK09xx`
/// validators, the `profile` subcommand) matches on the JSONL keys this
/// enum encodes to, so variants and fields are append-only.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Stream header, recorded once per sink at install time.
    Meta {
        /// Telemetry schema version (currently 1).
        version: u32,
    },
    /// A completed span: a named phase that ran on one thread.
    Span {
        /// Ordinal of the emitting thread (process-unique, dense).
        thread: u64,
        /// Nesting depth on that thread (0 = no enclosing span).
        depth: u64,
        /// `/`-joined names of the enclosing spans plus this one, e.g.
        /// `exec.job/grid.job/grid.reorder`.
        path: String,
        /// The span's own name (the last `path` segment).
        name: &'static str,
        /// Free-form instance label (e.g. `matrix/technique`); spans
        /// aggregate by `path`, details distinguish hot instances.
        detail: Option<String>,
        /// Start time in nanoseconds since the telemetry epoch.
        start_ns: u64,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
    },
    /// A monotonic counter increment.
    Counter {
        /// Registered metric name (see [`crate::names`]).
        name: &'static str,
        /// Non-negative increment.
        delta: u64,
    },
    /// A point-in-time gauge sample (last write wins).
    Gauge {
        /// Registered metric name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// One raw histogram observation (aggregated by the registry sink
    /// into power-of-two buckets).
    Observe {
        /// Registered metric name.
        name: &'static str,
        /// Observed value (seconds for `*_seconds` metrics).
        value: f64,
    },
    /// Heap-allocation totals attributed to one completed span (emitted
    /// only when the `obs-alloc` counting allocator is installed).
    Alloc {
        /// `/`-joined span path the allocations occurred under.
        path: String,
        /// Allocation calls (alloc + realloc) during the span, on the
        /// span's own thread.
        count: u64,
        /// Bytes requested by those calls.
        bytes: u64,
    },
}

impl Event {
    /// Encodes the event as one line of JSON (no trailing newline).
    ///
    /// Keys are emitted in a fixed order; `detail` is omitted when
    /// absent. Non-finite floats encode as `null` (JSON has no NaN).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        match self {
            Event::Meta { version } => {
                format!("{{\"type\":\"meta\",\"version\":{version}}}")
            }
            Event::Span {
                thread,
                depth,
                path,
                name,
                detail,
                start_ns,
                dur_ns,
            } => {
                let detail = match detail {
                    Some(d) => format!(",\"detail\":{}", json_string(d)),
                    None => String::new(),
                };
                format!(
                    "{{\"type\":\"span\",\"thread\":{thread},\"depth\":{depth},\
                     \"path\":{},\"name\":{}{detail},\"start_ns\":{start_ns},\
                     \"dur_ns\":{dur_ns}}}",
                    json_string(path),
                    json_string(name),
                )
            }
            Event::Counter { name, delta } => format!(
                "{{\"type\":\"counter\",\"name\":{},\"delta\":{delta}}}",
                json_string(name)
            ),
            Event::Gauge { name, value } => format!(
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                json_string(name),
                json_f64(*value)
            ),
            Event::Observe { name, value } => format!(
                "{{\"type\":\"observe\",\"name\":{},\"value\":{}}}",
                json_string(name),
                json_f64(*value)
            ),
            Event::Alloc { path, count, bytes } => format!(
                "{{\"type\":\"alloc\",\"path\":{},\"count\":{count},\"bytes\":{bytes}}}",
                json_string(path)
            ),
        }
    }
}

/// JSON string literal with minimal escaping.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic JSON number: shortest-round-trip `Display` for finite
/// values, `null` otherwise.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_encodes_all_fields() {
        let e = Event::Span {
            thread: 3,
            depth: 1,
            path: "exec.job/grid.job".to_string(),
            name: "grid.job",
            detail: Some("web/RABBIT".to_string()),
            start_ns: 10,
            dur_ns: 25,
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"span\",\"thread\":3,\"depth\":1,\
             \"path\":\"exec.job/grid.job\",\"name\":\"grid.job\",\
             \"detail\":\"web/RABBIT\",\"start_ns\":10,\"dur_ns\":25}"
        );
    }

    #[test]
    fn detail_is_omitted_when_absent() {
        let e = Event::Span {
            thread: 0,
            depth: 0,
            path: "suite.run".to_string(),
            name: "suite.run",
            detail: None,
            start_ns: 0,
            dur_ns: 1,
        };
        assert!(!e.to_jsonl().contains("detail"));
    }

    #[test]
    fn metric_events_encode() {
        assert_eq!(
            Event::Counter {
                name: "exec.steals",
                delta: 7
            }
            .to_jsonl(),
            "{\"type\":\"counter\",\"name\":\"exec.steals\",\"delta\":7}"
        );
        assert_eq!(
            Event::Gauge {
                name: "exec.utilization",
                value: 0.5
            }
            .to_jsonl(),
            "{\"type\":\"gauge\",\"name\":\"exec.utilization\",\"value\":0.5}"
        );
        assert_eq!(
            Event::Observe {
                name: "exec.queue_wait_seconds",
                value: f64::NAN
            }
            .to_jsonl(),
            "{\"type\":\"observe\",\"name\":\"exec.queue_wait_seconds\",\"value\":null}"
        );
        assert_eq!(
            Event::Meta { version: 1 }.to_jsonl(),
            "{\"type\":\"meta\",\"version\":1}"
        );
        assert_eq!(
            Event::Alloc {
                path: "exec.job/grid.cell".to_string(),
                count: 12,
                bytes: 4096,
            }
            .to_jsonl(),
            "{\"type\":\"alloc\",\"path\":\"exec.job/grid.cell\",\"count\":12,\"bytes\":4096}"
        );
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_f64_is_null_when_not_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
