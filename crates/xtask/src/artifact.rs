//! Reading `commorder-bench.v2` artifacts back into [`BenchReport`]s.
//!
//! The reader goes through the check layer: an artifact the `CHK12xx`
//! validators reject is an error, and each one-line object is read with
//! `parse_flat_object`, the workspace's one JSON reader. It lives apart
//! from [`crate::bench`] because the renderer's output never depends on
//! it, so the determinism lint's closure over `render_json` stays out
//! of the check crate.

use commorder::check::{check_bench_artifact, parse_flat_object, Json, Severity};

use crate::bench::{BenchReport, Fingerprint, Machine, Metric};

impl BenchReport {
    /// Parses a `commorder-bench.v2` artifact. Any error the `CHK12xx`
    /// validators raise rejects it, so the rows read below are known to
    /// carry the exact key sequences the renderer writes.
    pub fn parse(contents: &str) -> Result<Self, String> {
        let diags = check_bench_artifact(contents);
        if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
            return Err(d.to_string());
        }
        // The frame is fixed once validated: the bench header on line 3,
        // the machine object on line 4, then one row object per line.
        let lines: Vec<&str> = contents
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .collect();
        let header = |i: usize| lines.get(i).copied().unwrap_or_default();
        let bench = match parse_flat_object(&format!("{{{}}}", header(2)))?.as_slice() {
            [(_, Json::Str(name))] => name.clone(),
            other => return Err(format!("bad bench header {other:?}")),
        };
        let machine_object = header(3).strip_prefix("\"machine\": ").unwrap_or_default();
        let machine = match parse_flat_object(machine_object)?.as_slice() {
            [(_, Json::Str(cpu)), (_, Json::Num(threads)), (_, Json::Num(mem)), _] => Machine {
                cpu: cpu.clone(),
                threads: *threads as u64,
                mem_total_kb: *mem as u64,
            },
            other => return Err(format!("bad machine object {other:?}")),
        };
        let mut fingerprints = Vec::new();
        let mut metrics = Vec::new();
        for line in lines.iter().skip(4).filter(|l| l.starts_with("{\"")) {
            match parse_flat_object(line)?.as_slice() {
                [(_, Json::Str(name)), (_, Json::Str(hex))] => fingerprints.push(Fingerprint {
                    name: name.clone(),
                    value: u64::from_str_radix(hex, 16).map_err(|e| e.to_string())?,
                }),
                [(_, Json::Str(name)), (_, Json::Num(value)), (_, Json::Str(unit)), (_, Json::Bool(up))] =>
                {
                    metrics.push(Metric {
                        name: name.clone(),
                        value: *value,
                        unit: unit.clone(),
                        higher_is_better: *up,
                    });
                }
                other => return Err(format!("bad row {other:?}")),
            }
        }
        Ok(BenchReport {
            bench,
            machine,
            fingerprints,
            metrics,
        })
    }
}
