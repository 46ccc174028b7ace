//! Validators for `commorder-obs` telemetry JSONL streams (`CHK09xx`).
//!
//! The stream format is defined by `commorder_obs::Event::to_jsonl`: one
//! flat JSON object per line carrying a `"type"` discriminator (`meta`,
//! `span`, `counter`, `gauge`, `observe`, `alloc`). Like the other ingest paths,
//! the parser here is deliberately lenient — a corrupted line becomes a
//! diagnostic and validation continues — so a truncated or hand-edited
//! stream yields the full finding list.
//!
//! Span events are emitted when a span **ends**, so within one thread
//! children always precede their parents and end timestamps never
//! regress. Nesting is therefore validated with a pending-interval pass
//! per thread: a span at depth `d` adopts every pending span at depth
//! `d + 1`, which must lie inside it (exact integer-nanosecond
//! containment — child and parent timestamps derive from the same clock
//! read) and extend its `/`-joined path by exactly one segment. A
//! pending span at depth `d + 2` or deeper at that point has no
//! enclosing parent and is a structural violation; spans still pending
//! at end of stream are reported as truncation warnings.

use std::collections::BTreeMap;
use std::ops::Bound;

use commorder_obs::{names, MetricKind};

use crate::codes;
use crate::diag::{Diagnostic, Location};

/// A value in a flat (non-nested) JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A JSON string.
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                want as char,
                self.pos - 1,
                b as char
            )),
            None => Err(format!("expected {:?}, found end of line", want as char)),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut buf = Vec::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => buf.push(b'"'),
                    Some(b'\\') => buf.push(b'\\'),
                    Some(b'/') => buf.push(b'/'),
                    Some(b'n') => buf.push(b'\n'),
                    Some(b'r') => buf.push(b'\r'),
                    Some(b't') => buf.push(b'\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            code = code * 16 + d;
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?;
                        let mut utf8 = [0u8; 4];
                        buf.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) => buf.push(b),
            }
        }
        String::from_utf8(buf).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-ASCII number".to_string())?;
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?}"))
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'n') => {
                for want in b"null" {
                    self.expect(*want)?;
                }
                Ok(Json::Null)
            }
            Some(b't') => {
                for want in b"true" {
                    self.expect(*want)?;
                }
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                for want in b"false" {
                    self.expect(*want)?;
                }
                Ok(Json::Bool(false))
            }
            Some(b'-' | b'0'..=b'9') => Ok(Json::Num(self.parse_number()?)),
            Some(b'{' | b'[') => Err("nested values are not part of the event format".to_string()),
            other => Err(format!("expected a value, found {other:?}")),
        }
    }
}

/// Parses one line as a flat JSON object (string keys; string, number,
/// boolean, or `null` values — the full value set `Event::to_jsonl`,
/// analyzer findings and the bench artifacts emit). This is the
/// workspace's one JSON reader: every consumer reads one-line objects.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut cur = Cursor::new(line);
    cur.skip_ws();
    cur.expect(b'{')?;
    let mut fields = Vec::new();
    cur.skip_ws();
    if cur.peek() == Some(b'}') {
        cur.bump();
    } else {
        loop {
            cur.skip_ws();
            let key = cur.parse_string()?;
            cur.skip_ws();
            cur.expect(b':')?;
            let value = cur.parse_value()?;
            fields.push((key, value));
            cur.skip_ws();
            match cur.bump() {
                Some(b',') => {}
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    cur.skip_ws();
    if cur.peek().is_some() {
        return Err("trailing bytes after the closing brace".to_string());
    }
    Ok(fields)
}

/// One parsed span event, reduced to what the nesting pass needs.
struct SpanRec {
    line: u64,
    depth: u64,
    path: String,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct ThreadState {
    /// Ended spans at depth ≥ 1 still waiting for their parent to end.
    pending: Vec<SpanRec>,
    last_end: u64,
}

/// Fields of one event with diagnostics-producing typed accessors.
struct EventFields<'a> {
    fields: Vec<(String, Json)>,
    line: u64,
    out: &'a mut Vec<Diagnostic>,
}

impl EventFields<'_> {
    fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn field_error(&mut self, code: &'static str, message: String) {
        self.out.push(Diagnostic::error(
            code,
            Location::at("telemetry", self.line),
            message,
        ));
    }

    fn req_str(&mut self, key: &str) -> Option<String> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            Some(other) => {
                self.field_error(
                    codes::TELEM_FIELD,
                    format!("field {key:?} must be a string, got {other:?}"),
                );
                None
            }
            None => {
                self.field_error(codes::TELEM_FIELD, format!("missing field {key:?}"));
                None
            }
        }
    }

    fn req_u64(&mut self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Json::Num(v)) => {
                let v = *v;
                if v < 0.0 {
                    self.field_error(
                        codes::TELEM_VALUE,
                        format!("field {key:?} must be non-negative, got {v}"),
                    );
                    None
                } else if !v.is_finite() || v.fract() != 0.0 {
                    self.field_error(
                        codes::TELEM_FIELD,
                        format!("field {key:?} must be an unsigned integer, got {v}"),
                    );
                    None
                } else {
                    // Representable exactly for every duration the sinks
                    // emit (f64 is exact through 2^53 ns ≈ 104 days).
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    Some(v as u64)
                }
            }
            Some(other) => {
                self.field_error(
                    codes::TELEM_FIELD,
                    format!("field {key:?} must be a number, got {other:?}"),
                );
                None
            }
            None => {
                self.field_error(codes::TELEM_FIELD, format!("missing field {key:?}"));
                None
            }
        }
    }

    /// Number field where `null` encodes a non-finite value (the
    /// `Event::to_jsonl` convention); returns `NaN` for `null`.
    fn req_num(&mut self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(v)) => Some(*v),
            Some(Json::Null) => Some(f64::NAN),
            Some(other) => {
                self.field_error(
                    codes::TELEM_FIELD,
                    format!("field {key:?} must be a number, got {other:?}"),
                );
                None
            }
            None => {
                self.field_error(codes::TELEM_FIELD, format!("missing field {key:?}"));
                None
            }
        }
    }
}

/// Looks up `name` in the metric registry and checks the declared kind.
fn check_metric(name: &str, expected: MetricKind, line: u64, out: &mut Vec<Diagnostic>) {
    match names::lookup(name) {
        None => out.push(Diagnostic::error(
            codes::TELEM_METRIC,
            Location::at("telemetry", line),
            format!("metric {name:?} is not declared in the commorder-obs registry"),
        )),
        Some(info) if info.kind != expected => out.push(Diagnostic::error(
            codes::TELEM_METRIC,
            Location::at("telemetry", line),
            format!(
                "metric {name:?} is declared as a {}, but this event is a {}",
                info.kind.label(),
                expected.label()
            ),
        )),
        Some(_) => {}
    }
}

/// Feeds one ended span into the per-thread nesting pass.
fn nest_span(rec: SpanRec, thread: u64, st: &mut ThreadState, out: &mut Vec<Diagnostic>) {
    if rec.end_ns < st.last_end {
        out.push(Diagnostic::error(
            codes::TELEM_NESTING,
            Location::at("telemetry", rec.line),
            format!(
                "thread {thread}: span {:?} ends at {} ns, before the previously \
                 reported end {} ns (spans are emitted in end order)",
                rec.path, rec.end_ns, st.last_end
            ),
        ));
    }
    st.last_end = st.last_end.max(rec.end_ns);
    let pending = std::mem::take(&mut st.pending);
    for p in pending {
        if p.depth == rec.depth + 1 {
            // `rec` is the parent that encloses `p`.
            if p.start_ns < rec.start_ns || p.end_ns > rec.end_ns {
                out.push(Diagnostic::error(
                    codes::TELEM_NESTING,
                    Location::at("telemetry", p.line),
                    format!(
                        "thread {thread}: child span {:?} [{}, {}] ns escapes its \
                         parent {:?} [{}, {}] ns",
                        p.path, p.start_ns, p.end_ns, rec.path, rec.start_ns, rec.end_ns
                    ),
                ));
            }
            if !p
                .path
                .strip_prefix(rec.path.as_str())
                .is_some_and(|rest| rest.starts_with('/'))
            {
                out.push(Diagnostic::error(
                    codes::TELEM_NESTING,
                    Location::at("telemetry", p.line),
                    format!(
                        "thread {thread}: child span path {:?} does not extend its \
                         parent path {:?}",
                        p.path, rec.path
                    ),
                ));
            }
        } else if p.depth > rec.depth {
            // Depth ≥ rec.depth + 2: its parent should have ended (and
            // been reported) before this shallower span did.
            out.push(Diagnostic::error(
                codes::TELEM_NESTING,
                Location::at("telemetry", p.line),
                format!(
                    "thread {thread}: span {:?} at depth {} has no enclosing parent \
                     at depth {}",
                    p.path,
                    p.depth,
                    p.depth - 1
                ),
            ));
        } else {
            // Shallower or same depth: still waiting for its own parent.
            st.pending.push(p);
        }
    }
    if rec.depth > 0 {
        st.pending.push(rec);
    }
}

/// Audits a telemetry JSONL stream; every finding carries a `CHK09xx`
/// code and points at the offending 1-based line.
#[must_use]
pub fn check_telemetry(contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut threads: BTreeMap<u64, ThreadState> = BTreeMap::new();
    let mut saw_meta = false;
    // Per-path inclusive-duration aggregates feeding the CHK1203
    // self-time invariant at end of stream.
    let mut path_totals: BTreeMap<String, u64> = BTreeMap::new();
    for (i, raw) in contents.lines().enumerate() {
        let line_no = (i + 1) as u64;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let fields = match parse_flat_object(line) {
            Ok(f) => f,
            Err(e) => {
                out.push(Diagnostic::error(
                    codes::TELEM_PARSE,
                    Location::at("telemetry", line_no),
                    e,
                ));
                continue;
            }
        };
        let mut ev = EventFields {
            fields,
            line: line_no,
            out: &mut out,
        };
        let Some(kind) = ev.req_str("type") else {
            continue;
        };
        match kind.as_str() {
            "meta" => {
                if ev.req_u64("version").is_some() {
                    saw_meta = true;
                }
            }
            "span" => {
                let thread = ev.req_u64("thread");
                let depth = ev.req_u64("depth");
                let path = ev.req_str("path");
                let name = ev.req_str("name");
                let start_ns = ev.req_u64("start_ns");
                let dur_ns = ev.req_u64("dur_ns");
                if let Some(Json::Num(_) | Json::Null) = ev.get("detail") {
                    ev.field_error(
                        codes::TELEM_FIELD,
                        "field \"detail\" must be a string when present".to_string(),
                    );
                }
                let (Some(thread), Some(depth), Some(path), Some(name), Some(start), Some(dur)) =
                    (thread, depth, path, name, start_ns, dur_ns)
                else {
                    continue;
                };
                let mut consistent = true;
                let separators = path.matches('/').count() as u64;
                if separators != depth {
                    consistent = false;
                    out.push(Diagnostic::error(
                        codes::TELEM_PATH,
                        Location::at("telemetry", line_no),
                        format!(
                            "span path {path:?} has {separators} separator(s) but \
                             declares depth {depth}"
                        ),
                    ));
                }
                if path.rsplit('/').next() != Some(name.as_str()) {
                    consistent = false;
                    out.push(Diagnostic::error(
                        codes::TELEM_PATH,
                        Location::at("telemetry", line_no),
                        format!("span name {name:?} is not the last segment of path {path:?}"),
                    ));
                }
                // An inconsistent span cannot be positioned in the tree;
                // keep it out of the nesting pass so one bad line does
                // not cascade into spurious CHK0905 findings.
                if !consistent {
                    continue;
                }
                let total = path_totals.entry(path.clone()).or_insert(0);
                *total = total.saturating_add(dur);
                let rec = SpanRec {
                    line: line_no,
                    depth,
                    path,
                    start_ns: start,
                    end_ns: start.saturating_add(dur),
                };
                nest_span(rec, thread, threads.entry(thread).or_default(), &mut out);
            }
            "counter" => {
                let name = ev.req_str("name");
                let _delta = ev.req_u64("delta");
                if let Some(name) = name {
                    check_metric(&name, MetricKind::Counter, line_no, &mut out);
                }
            }
            "gauge" | "observe" => {
                let name = ev.req_str("name");
                let value = ev.req_num("value");
                let observe = kind == "observe";
                if let Some(v) = value {
                    if !v.is_finite() || (observe && v < 0.0) {
                        out.push(Diagnostic::error(
                            codes::TELEM_VALUE,
                            Location::at("telemetry", line_no),
                            format!(
                                "{kind} value must be finite{}, got {v}",
                                if observe { " and non-negative" } else { "" }
                            ),
                        ));
                    }
                }
                if let Some(name) = name {
                    let expected = if observe {
                        MetricKind::Histogram
                    } else {
                        MetricKind::Gauge
                    };
                    check_metric(&name, expected, line_no, &mut out);
                }
            }
            "alloc" => {
                let _path = ev.req_str("path");
                let _count = ev.req_u64("count");
                let _bytes = ev.req_u64("bytes");
            }
            other => out.push(Diagnostic::error(
                codes::TELEM_TYPE,
                Location::at("telemetry", line_no),
                format!(
                    "unknown event type {other:?} (expected meta, span, counter, \
                     gauge, observe, or alloc)"
                ),
            )),
        }
    }
    for (thread, st) in &threads {
        for rec in &st.pending {
            out.push(Diagnostic::warning(
                codes::TELEM_NESTING,
                Location::at("telemetry", rec.line),
                format!(
                    "thread {thread}: span {:?} at depth {} never enclosed by a \
                     parent before end of stream (truncated capture?)",
                    rec.path, rec.depth
                ),
            ));
        }
    }
    if !saw_meta {
        out.push(Diagnostic::info(
            codes::TELEM_FIELD,
            Location::whole("telemetry"),
            "stream carries no meta event (was the sink installed via obs::install?)".to_string(),
        ));
    }
    // With all spans aggregated per path, the exclusive-self-time
    // invariant must hold: a path's direct children cannot account for
    // more inclusive time than the path itself.
    let aggregates: Vec<(String, u64)> = path_totals.into_iter().collect();
    out.extend(check_self_time("telemetry", &aggregates));
    out
}

/// Audits the exclusive-self-time invariant over per-path inclusive
/// span aggregates `(path, total_ns)` (`CHK1203`).
///
/// For every path present as a parent, the summed inclusive time of
/// its *direct* children (one `/`-segment deeper) must not exceed the
/// parent's own inclusive time: child intervals nest inside parent
/// instances on the same thread, and sibling intervals are disjoint.
/// Paths whose parent is absent from the aggregate (e.g. a truncated
/// capture) are skipped rather than guessed at. Duplicate paths in the
/// input are summed.
#[must_use]
pub fn check_self_time(object: &str, spans: &[(String, u64)]) -> Vec<Diagnostic> {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, ns) in spans {
        let t = totals.entry(path.as_str()).or_insert(0);
        *t = t.saturating_add(*ns);
    }
    let mut out = Vec::new();
    for (&parent, &parent_ns) in &totals {
        let prefix = format!("{parent}/");
        // Descendant paths are contiguous from the prefix onward in a
        // lexicographic map; direct children add exactly one segment.
        let children_ns = totals
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(p, _)| p.starts_with(prefix.as_str()))
            .filter(|(p, _)| !p[prefix.len()..].contains('/'))
            .fold(0u64, |acc, (_, ns)| acc.saturating_add(*ns));
        if children_ns > parent_ns {
            out.push(Diagnostic::error(
                codes::SELF_TIME,
                Location::whole(object),
                format!(
                    "span path {parent:?}: direct children account for {children_ns} ns, \
                     more than the parent's inclusive {parent_ns} ns"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use commorder_obs as obs;

    use super::*;
    use crate::diag::{CheckReport, Severity};

    fn report(contents: &str) -> CheckReport {
        let mut r = CheckReport::new();
        r.extend(check_telemetry(contents));
        r
    }

    /// A capture from the real sinks validates clean — spans nested two
    /// deep, every declared metric kind exercised.
    #[test]
    fn real_capture_is_clean() {
        let _serial = obs::tests_serial();
        let sink = Arc::new(obs::MemorySink::new());
        let guard = obs::install(sink.clone());
        {
            let _root = obs::span!("suite");
            {
                let _mid = obs::span!("suite.generate", "m{}", 0);
                let _leaf = obs::span!("pipeline.model");
            }
            obs::counter!("exec.jobs", 3);
            obs::gauge!("exec.utilization", 0.75);
            obs::observe!("exec.queue_wait_seconds", 0.002);
        }
        drop(guard);
        let r = report(&sink.to_jsonl());
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn junk_line_is_parse_error() {
        let r = report("{\"type\":\"meta\",\"version\":1}\nnot json\n{\"type\":[1]}\n");
        assert_eq!(r.codes(), vec![codes::TELEM_PARSE]);
        assert_eq!(r.error_count(), 2);
    }

    #[test]
    fn missing_and_mistyped_fields_are_chk0902() {
        let r = report(
            "{\"type\":\"counter\",\"delta\":1}\n\
             {\"type\":\"span\",\"thread\":\"zero\"}\n",
        );
        assert!(
            r.codes().contains(&codes::TELEM_FIELD),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn unknown_event_type_is_chk0903() {
        let r = report("{\"type\":\"metric\",\"name\":\"exec.jobs\"}\n");
        assert!(
            r.codes().contains(&codes::TELEM_TYPE),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn negative_and_nonfinite_values_are_chk0904() {
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"start_ns\":0,\"dur_ns\":-5}\n\
             {\"type\":\"observe\",\"name\":\"exec.queue_wait_seconds\",\"value\":-0.5}\n\
             {\"type\":\"gauge\",\"name\":\"exec.utilization\",\"value\":null}\n",
        );
        assert_eq!(r.codes(), vec![codes::TELEM_VALUE]);
        assert_eq!(r.error_count(), 3);
    }

    #[test]
    fn child_escaping_parent_is_chk0905() {
        // Child [5, 250] ends inside the stream before its parent
        // [0, 100] but extends past the parent's end.
        let r = report(
            "{\"type\":\"span\",\"thread\":0,\"depth\":1,\"path\":\"a/b\",\"name\":\"b\",\
             \"start_ns\":5,\"dur_ns\":245}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"start_ns\":0,\"dur_ns\":100}\n",
        );
        assert!(
            r.codes().contains(&codes::TELEM_NESTING),
            "{}",
            r.render_text()
        );
        assert!(!r.is_clean());
    }

    #[test]
    fn regressing_end_times_are_chk0905() {
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"start_ns\":100,\"dur_ns\":100}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"b\",\"name\":\"b\",\
             \"start_ns\":0,\"dur_ns\":50}\n",
        );
        assert_eq!(r.codes(), vec![codes::TELEM_NESTING]);
    }

    #[test]
    fn orphan_depths_error_and_truncation_warns() {
        // Depth-2 span adopted by nobody when the depth-0 root arrives:
        // error. Depth-1 span with no root by end of stream: warning.
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":2,\"path\":\"a/b/c\",\"name\":\"c\",\
             \"start_ns\":0,\"dur_ns\":10}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"start_ns\":0,\"dur_ns\":100}\n\
             {\"type\":\"span\",\"thread\":1,\"depth\":1,\"path\":\"x/y\",\"name\":\"y\",\
             \"start_ns\":0,\"dur_ns\":10}\n",
        );
        assert_eq!(r.codes(), vec![codes::TELEM_NESTING]);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn sibling_threads_nest_independently() {
        // Identical paths on different threads never adopt each other.
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":1,\"path\":\"a/b\",\"name\":\"b\",\
             \"start_ns\":0,\"dur_ns\":10}\n\
             {\"type\":\"span\",\"thread\":1,\"depth\":1,\"path\":\"a/b\",\"name\":\"b\",\
             \"start_ns\":500,\"dur_ns\":10}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"start_ns\":0,\"dur_ns\":20}\n\
             {\"type\":\"span\",\"thread\":1,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"start_ns\":490,\"dur_ns\":30}\n",
        );
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn unregistered_metric_and_kind_mismatch_are_chk0906() {
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"counter\",\"name\":\"exec.jbos\",\"delta\":1}\n\
             {\"type\":\"gauge\",\"name\":\"exec.jobs\",\"value\":1.0}\n\
             {\"type\":\"observe\",\"name\":\"exec.utilization\",\"value\":0.5}\n",
        );
        assert_eq!(r.codes(), vec![codes::TELEM_METRIC]);
        assert_eq!(r.error_count(), 3);
    }

    #[test]
    fn path_depth_name_mismatches_are_chk0907() {
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":2,\"path\":\"a/b\",\"name\":\"b\",\
             \"start_ns\":0,\"dur_ns\":10}\n\
             {\"type\":\"span\",\"thread\":1,\"depth\":1,\"path\":\"a/b\",\"name\":\"c\",\
             \"start_ns\":0,\"dur_ns\":10}\n",
        );
        assert_eq!(r.codes(), vec![codes::TELEM_PATH]);
        assert_eq!(r.error_count(), 2);
    }

    #[test]
    fn missing_meta_is_informational_only() {
        let r = report("{\"type\":\"counter\",\"name\":\"exec.jobs\",\"delta\":1}\n");
        assert!(r.is_clean());
        assert_eq!(r.codes(), vec![codes::TELEM_FIELD]);
        assert_eq!(r.diagnostics[0].severity, Severity::Info);
    }

    #[test]
    fn escaped_details_round_trip() {
        let r = report(
            "{\"type\":\"meta\",\"version\":1}\n\
             {\"type\":\"span\",\"thread\":0,\"depth\":0,\"path\":\"a\",\"name\":\"a\",\
             \"detail\":\"quote \\\" tab \\t unicode \\u00e9\",\
             \"start_ns\":0,\"dur_ns\":10}\n",
        );
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn self_time_invariant_holds_for_valid_aggregates() {
        let spans = vec![
            ("run".to_string(), 100u64),
            ("run/a".to_string(), 30),
            ("run/a/deep".to_string(), 25),
            ("run/b".to_string(), 20),
        ];
        assert!(check_self_time("t", &spans).is_empty());
    }

    #[test]
    fn self_time_violation_is_chk1203() {
        let spans = vec![
            ("run".to_string(), 100u64),
            ("run/a".to_string(), 70),
            ("run/b".to_string(), 60),
        ];
        let diags = check_self_time("t", &spans);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::SELF_TIME);
        assert!(diags[0].message.contains("130 ns"));
    }

    #[test]
    fn self_time_ignores_lookalike_siblings_and_orphans() {
        // "run.x" sorts between "run" and "run/" but is no child; an
        // orphan chain without its parent is skipped, not guessed at.
        let spans = vec![
            ("run".to_string(), 10u64),
            ("run.x".to_string(), 500),
            ("gone/child".to_string(), 400),
        ];
        assert!(check_self_time("t", &spans).is_empty());
    }

    #[test]
    fn self_time_sums_duplicate_paths() {
        let spans = vec![
            ("run".to_string(), 50u64),
            ("run/a".to_string(), 40),
            ("run/a".to_string(), 40),
        ];
        let diags = check_self_time("t", &spans);
        assert_eq!(diags.len(), 1, "duplicates sum to 80 > 50");
    }
}
