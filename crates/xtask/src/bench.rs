//! The unified bench report model behind `xtask bench`.
//!
//! Every bench run produces one [`BenchReport`] per bench (`analyze`,
//! `reorder`, `pipeline`) and [`BenchReport::render_json`] writes it as
//! a `BENCH_<name>.json` artifact at the repository root using the
//! line-oriented `commorder-bench.v2` framing that
//! `commorder-check::bench` freezes: header lines, a one-line machine
//! object, then sorted `fingerprints` and `metrics` arrays with one
//! object per line. The framing is deliberately rigid so CI can
//! validate artifacts byte-by-byte (`CHK1201`/`CHK1202`) and so
//! `git diff` over committed artifacts stays line-per-fact readable.
//!
//! [`BenchReport::parse`] (in [`crate::artifact`]) reads artifacts
//! back through the check layer. [`compare`] implements the
//! tolerance-banded regression gate: throughput metrics may not drop,
//! cost metrics may not grow, and result fingerprints may not drift at
//! all.

use std::fmt::Write as _;

use commorder_obs::event::json_string;

/// Schema discriminator written on line 2 of every v2 artifact.
pub const SCHEMA_V2: &str = "commorder-bench.v2";

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice; the workspace-standard result fingerprint.
#[must_use]
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over a `u32` slice (little-endian), used to fingerprint
/// permutations without materialising a byte buffer.
#[must_use]
pub fn fnv1a_u32s(values: &[u32]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &v in values {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// FNV-1a over a `u64` slice (little-endian), used to fingerprint
/// cache-simulation counter vectors.
#[must_use]
pub fn fnv1a_u64s(values: &[u64]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &v in values {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// One measured quantity: a named scalar with a unit and a direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, e.g. `reorder.boba.t8.medges_per_second`.
    pub name: String,
    /// The measured value; must be finite.
    pub value: f64,
    /// Unit label, e.g. `seconds` or `Medges/s`; must be non-empty.
    pub unit: String,
    /// `true` for throughputs (a drop is a regression), `false` for
    /// costs such as wall time or peak RSS (a rise is a regression).
    pub higher_is_better: bool,
}

/// One result fingerprint: an FNV-1a hash of a deterministic output,
/// compared exactly (any drift is a correctness failure, not noise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Dotted fingerprint name, e.g. `permutation.rabbit`.
    pub name: String,
    /// The 64-bit FNV-1a value.
    pub value: u64,
}

/// Identity of the machine a bench ran on; recorded so `--compare` can
/// warn when two artifacts were captured on different hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// CPU model string (from `/proc/cpuinfo`), or `"unknown"`.
    pub cpu: String,
    /// Available hardware parallelism; at least 1.
    pub threads: u64,
    /// Total system memory in kB (from `/proc/meminfo`); at least 1.
    pub mem_total_kb: u64,
}

impl Machine {
    /// Probes the current machine; every field degrades to a benign
    /// placeholder when `/proc` is unavailable.
    #[must_use]
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_string())
                })
            })
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let threads = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let mem_total_kb = std::fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("MemTotal:")
                        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                })
            })
            .unwrap_or(0)
            .max(1);
        Machine {
            cpu,
            threads,
            mem_total_kb,
        }
    }

    /// Placeholder identity, the same one [`Machine::detect`] reports on
    /// a host without `/proc`. Never triggers a hardware-drift warning
    /// in [`compare`].
    #[must_use]
    pub fn unknown() -> Self {
        Machine {
            cpu: "unknown".to_string(),
            threads: 1,
            mem_total_kb: 1,
        }
    }

    /// FNV-1a over the identity fields; two runs on the same hardware
    /// configuration produce the same fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = self.cpu.clone().into_bytes();
        bytes.extend_from_slice(&self.threads.to_le_bytes());
        bytes.extend_from_slice(&self.mem_total_kb.to_le_bytes());
        fnv1a_bytes(&bytes)
    }
}

/// One bench's full result set: identity plus sorted fingerprint and
/// metric rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench name (`analyze`, `reorder`, `pipeline`).
    pub bench: String,
    /// Machine the run was captured on.
    pub machine: Machine,
    /// Result fingerprints, compared exactly by [`compare`].
    pub fingerprints: Vec<Fingerprint>,
    /// Measured metrics, compared within a tolerance band.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// Creates an empty report for `bench` on the detected machine.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            machine: Machine::detect(),
            fingerprints: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric row (sorted at render time).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, higher_is_better: bool) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
            higher_is_better,
        });
    }

    /// Appends a fingerprint row (sorted at render time).
    pub fn fingerprint(&mut self, name: &str, value: u64) {
        self.fingerprints.push(Fingerprint {
            name: name.to_string(),
            value,
        });
    }

    /// Renders the exact `commorder-bench.v2` framing the check layer
    /// validates: rows sorted by name, one object per line, trailing
    /// comma on every row but the last.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut fingerprints = self.fingerprints.clone();
        fingerprints.sort_by(|a, b| a.name.cmp(&b.name));
        let mut metrics = self.metrics.clone();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));

        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA_V2}\",");
        let _ = writeln!(out, "  \"bench\": {},", json_string(&self.bench));
        let _ = writeln!(
            out,
            "  \"machine\": {{\"cpu\":{},\"threads\":{},\"mem_total_kb\":{},\"fingerprint\":\"{:016x}\"}},",
            json_string(&self.machine.cpu),
            self.machine.threads,
            self.machine.mem_total_kb,
            self.machine.fingerprint(),
        );
        if fingerprints.is_empty() {
            out.push_str("  \"fingerprints\": [],\n");
        } else {
            out.push_str("  \"fingerprints\": [\n");
            for (i, fp) in fingerprints.iter().enumerate() {
                let comma = if i + 1 < fingerprints.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "    {{\"name\":{},\"value\":\"{:016x}\"}}{comma}",
                    json_string(&fp.name),
                    fp.value,
                );
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"metrics\": [\n");
        for (i, m) in metrics.iter().enumerate() {
            let comma = if i + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\":{},\"value\":{},\"unit\":{},\"higher_is_better\":{}}}{comma}",
                json_string(&m.name),
                m.value,
                json_string(&m.unit),
                m.higher_is_better,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Outcome of comparing a new bench report against a baseline.
#[derive(Debug, Default)]
pub struct CompareOutcome {
    /// Hard failures: tolerance-band breaches, fingerprint drift, or
    /// metrics that disappeared. Any entry fails the gate.
    pub regressions: Vec<String>,
    /// Soft notices: hardware drift, unit changes, new metrics.
    pub warnings: Vec<String>,
}

impl CompareOutcome {
    /// `true` when the gate passes (warnings do not fail it).
    #[must_use]
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `new` against the `old` baseline with a relative
/// `tolerance` band (e.g. `0.30` allows 30% noise).
///
/// Result fingerprints are compared exactly — drift means the bench
/// computed a *different answer*, which no tolerance excuses. Metrics
/// regress when a throughput falls below `old * (1 - tolerance)` or a
/// cost rises above `old * (1 + tolerance)`. A metric present in the
/// baseline but missing from the new report is a regression (coverage
/// must not silently shrink); the reverse is a warning. Hardware
/// drift (differing machine fingerprints) is a warning because it
/// invalidates the comparison rather than the code.
#[must_use]
pub fn compare(old: &BenchReport, new: &BenchReport, tolerance: f64) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    let bench = &new.bench;
    if old.machine.cpu != "unknown"
        && new.machine.cpu != "unknown"
        && old.machine.fingerprint() != new.machine.fingerprint()
    {
        out.warnings.push(format!(
            "{bench}: machine changed ({} / {} threads -> {} / {} threads); \
             metric deltas may reflect hardware, not code",
            old.machine.cpu, old.machine.threads, new.machine.cpu, new.machine.threads,
        ));
    }
    for fp in &old.fingerprints {
        match new.fingerprints.iter().find(|n| n.name == fp.name) {
            Some(n) if n.value != fp.value => out.regressions.push(format!(
                "{bench}: result fingerprint {} drifted: {:016x} -> {:016x} \
                 (the bench computed a different answer)",
                fp.name, fp.value, n.value,
            )),
            Some(_) => {}
            None => out.warnings.push(format!(
                "{bench}: baseline fingerprint {} is absent from the new report",
                fp.name
            )),
        }
    }
    for m in &old.metrics {
        let Some(n) = new.metrics.iter().find(|n| n.name == m.name) else {
            out.regressions.push(format!(
                "{bench}: metric {} disappeared from the new report",
                m.name
            ));
            continue;
        };
        if n.unit != m.unit {
            out.warnings.push(format!(
                "{bench}: metric {} changed unit ({} -> {}); skipping the band check",
                m.name, m.unit, n.unit
            ));
            continue;
        }
        let regressed = if n.higher_is_better {
            n.value < m.value * (1.0 - tolerance)
        } else {
            n.value > m.value * (1.0 + tolerance)
        };
        if regressed {
            let direction = if n.higher_is_better { "fell" } else { "rose" };
            out.regressions.push(format!(
                "{bench}: metric {} {direction} beyond the {:.0}% band: {} -> {} {}",
                m.name,
                tolerance * 100.0,
                m.value,
                n.value,
                m.unit,
            ));
        }
    }
    for n in &new.metrics {
        if !old.metrics.iter().any(|m| m.name == n.name) {
            out.warnings
                .push(format!("{bench}: new metric {} has no baseline", n.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport {
            bench: "pipeline".to_string(),
            machine: Machine {
                cpu: "Test CPU".to_string(),
                threads: 8,
                mem_total_kb: 16_000_000,
            },
            fingerprints: Vec::new(),
            metrics: Vec::new(),
        };
        r.fingerprint("cache.plru", 0xfedc_ba98_7654_3210);
        r.fingerprint("cache.lru", 0x0123_4567_89ab_cdef);
        r.metric("pipeline.suite_wall_seconds", 1.25, "seconds", false);
        r.metric(
            "pipeline.lru_accesses_per_second",
            150_000_000.0,
            "accesses/s",
            true,
        );
        r
    }

    #[test]
    fn render_sorts_rows_and_round_trips() {
        let report = sample();
        let json = report.render_json();
        // Rows must come out sorted regardless of insertion order.
        let lru = json.find("cache.lru").expect("lru fingerprint rendered");
        let plru = json.find("cache.plru").expect("plru fingerprint rendered");
        assert!(lru < plru);
        let parsed = BenchReport::parse(&json).expect("round trip");
        assert_eq!(parsed.bench, "pipeline");
        assert_eq!(parsed.machine.cpu, "Test CPU");
        assert_eq!(parsed.fingerprints.len(), 2);
        assert_eq!(parsed.fingerprints[0].name, "cache.lru");
        assert_eq!(parsed.fingerprints[0].value, 0x0123_4567_89ab_cdef);
        assert_eq!(parsed.metrics.len(), 2);
        assert_eq!(parsed.metrics[0].name, "pipeline.lru_accesses_per_second");
        assert!((parsed.metrics[0].value - 150_000_000.0).abs() < 1e-6);
        assert!(parsed.metrics[0].higher_is_better);
        assert!(!parsed.metrics[1].higher_is_better);
    }

    #[test]
    fn control_characters_in_the_cpu_line_are_escaped() {
        let mut report = sample();
        report.machine.cpu = "Test\tCPU \"x\" \\ y".to_string();
        let json = report.render_json();
        assert!(
            json.contains("\"cpu\":\"Test\\tCPU \\\"x\\\" \\\\ y\""),
            "{json}"
        );
        // `parse` rejects any artifact the CHK12xx validators flag.
        let parsed = BenchReport::parse(&json).expect("round trip");
        assert_eq!(parsed.machine.cpu, report.machine.cpu);
    }

    #[test]
    fn render_handles_empty_fingerprints() {
        let mut report = sample();
        report.fingerprints.clear();
        let json = report.render_json();
        assert!(json.contains("\"fingerprints\": [],"));
        let parsed = BenchReport::parse(&json).expect("round trip");
        assert!(parsed.fingerprints.is_empty());
        assert_eq!(parsed.metrics.len(), 2);
    }

    #[test]
    fn non_finite_metric_values_are_clamped() {
        let mut report = sample();
        report.metric("pipeline.bad", f64::INFINITY, "x/s", true);
        let parsed = BenchReport::parse(&report.render_json()).expect("round trip");
        let bad = parsed
            .metrics
            .iter()
            .find(|m| m.name == "pipeline.bad")
            .expect("clamped metric present");
        assert_eq!(bad.value, 0.0);
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = sample();
        let outcome = compare(&report, &report, 0.30);
        assert!(outcome.is_pass(), "{:?}", outcome.regressions);
        assert!(outcome.warnings.is_empty(), "{:?}", outcome.warnings);
    }

    #[test]
    fn tolerance_band_flags_real_regressions_only() {
        let old = sample();
        let mut new = sample();
        // 20% throughput drop sits inside a 30% band.
        new.metrics[1].value = 120_000_000.0;
        assert!(compare(&old, &new, 0.30).is_pass());
        // 50% drop breaches it.
        new.metrics[1].value = 75_000_000.0;
        let outcome = compare(&old, &new, 0.30);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("fell"));
        // A cost metric regresses upward, not downward.
        let mut slower = sample();
        slower.metrics[0].value = 0.1; // wall time improved: fine
        assert!(compare(&old, &slower, 0.30).is_pass());
        slower.metrics[0].value = 10.0;
        let outcome = compare(&old, &slower, 0.30);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("rose"));
    }

    #[test]
    fn fingerprint_drift_is_a_hard_failure() {
        let old = sample();
        let mut new = sample();
        new.fingerprints[0].value ^= 1;
        let outcome = compare(&old, &new, 0.30);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("different answer"));
    }

    #[test]
    fn disappearing_metrics_fail_and_new_metrics_warn() {
        let old = sample();
        let mut new = sample();
        new.metrics.remove(0);
        new.metric("pipeline.fresh", 1.0, "x", true);
        let outcome = compare(&old, &new, 0.30);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("disappeared"));
        assert!(outcome.warnings.iter().any(|w| w.contains("no baseline")));
    }

    #[test]
    fn machine_drift_warns_without_failing() {
        let old = sample();
        let mut new = sample();
        new.machine.threads = 64;
        let outcome = compare(&old, &new, 0.30);
        assert!(outcome.is_pass());
        assert!(outcome.warnings.iter().any(|w| w.contains("machine")));
    }

    #[test]
    fn unsupported_schemas_are_rejected() {
        assert!(BenchReport::parse("{\n  \"schema\": \"mystery.v7\"\n}\n").is_err());
        assert!(BenchReport::parse("not json at all").is_err());
    }

    #[test]
    fn fnv_helpers_agree_on_byte_identity() {
        // The u32/u64 walkers must match the byte walker over the same
        // little-endian encoding, so fingerprints are representation
        // independent.
        let words = [0xDEAD_BEEFu32, 7, 0];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a_u32s(&words), fnv1a_bytes(&bytes));
        let quads = [0x0123_4567_89AB_CDEFu64, 1];
        let bytes: Vec<u8> = quads.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a_u64s(&quads), fnv1a_bytes(&bytes));
    }

    #[test]
    fn machine_detect_produces_a_renderable_identity() {
        let m = Machine::detect();
        assert!(!m.cpu.is_empty());
        assert!(m.threads >= 1);
        assert!(m.mem_total_kb >= 1);
        // Fingerprint is stable for equal identities.
        assert_eq!(m.fingerprint(), m.clone().fingerprint());
    }
}
