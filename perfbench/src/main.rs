//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! numbers for community reordering and cache simulation.
//!
//! # Running
//!
//! From the repository root (the manifest `BENCHMARK.json` names the
//! same command):
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload spmv-sim --seed 3 --seconds 20 --trace 0
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --list
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! cargo test --release -q --manifest-path perfbench/Cargo.toml
//! python3 perfbench/spread.py --runs 10 --out set1.json
//! ```
//!
//! The package has a workspace of its own, so the repository's
//! `cargo test --workspace` does not run its tests; the last line does,
//! including a smoke run of every workload on mini-tier inputs.
//! `spread.py` runs the manifest's command over ten seeds per workload
//! and reports each end-to-end metric's quartile spread against its
//! bound.
//!
//! One process runs one workload. `--seed 0` (the default) generates the
//! corpus entries with their published seeds; any other `N` regenerates
//! every input with `entry.seed ^ N * 0x9E3779B97F4A7C15`. Techniques
//! always get seed `0xC0DE`. A run sets up its inputs five times, then
//! repeats the workload's timed calls in a closed loop — each call
//! starts when the previous one returns — until `--seconds` would be
//! exceeded (at least one rep). Only
//! `paper-suite` and the 2-thread RABBIT row use threads, never more
//! than two and never more than the host's cores. No environment
//! variable is read and no telemetry sink is installed.
//!
//! Stdout carries a header with the host facts, one line per metric
//! with its unit and sample count, the result fingerprints, any
//! failures, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. The exit
//! code is 0 only when every operation succeeded; metrics are printed
//! either way.
//!
//! # Workloads
//!
//! * `reorder-social` — RABBIT, RABBIT++, BOBA (ten calls per rep, one
//!   is too short to time) and, on two cores, 2-thread RABBIT on
//!   `soc-rmat-xl` (131,072 rows, ~1.9M entries, one giant component,
//!   so connectivity sharding cannot help). Community detection is most
//!   of the time and the cache simulator none of it, so a reorder-layer
//!   change shows here and a cache-simulator change must not.
//! * `spmv-sim` — the same graph published and in RABBIT order, SpMV-CSR
//!   through `Pipeline::simulate` with LRU and with Belady on the 128 KiB
//!   scaled L2. RABBIT and the permutation run in set-up; the simulator
//!   does nearly all the timed work on a miss-heavy trace whose line set
//!   is many times the cache.
//! * `spgemm-block` — `A·A` on a 20,480-row version of `opt-block-512`
//!   as Gustavson and cluster-wise SpGEMM traces into LRU, with the
//!   RABBIT assignment from set-up. The same LRU layer under
//!   write-heavy, two-operand traffic: an LRU change that helps
//!   read-only SpMV but costs writes shows here.
//! * `paper-suite` — five standard matrices (every tenth entry) through
//!   the seven `paper_suite` techniques with SpMV LRU via
//!   `ExperimentSpec::run` on a 2-worker engine: what a figure binary
//!   costs. Small working sets dilute any one layer's gain, and GORDER
//!   and RABBIT jobs set the tail.
//!
//! # Metrics
//!
//! End to end, every workload:
//!
//! * `setup_s` and `rep_s` — median set-up and rep time, each scaled to
//!   the reference host's speed by the calibration kernel timed around
//!   it (see `calib.rs`: on the measuring host, a shared virtual
//!   machine, this cut the seed-to-seed spread by a third to a half).
//!   The raw medians and the calibration are printed as a `#` line.
//!   Set-up is input generation plus set-up-time reordering.
//! * `peak_heap_mb` — peak live heap above the benchmark's own, the
//!   larger of the median set-up peak and the median rep peak, from a
//!   counting allocator (`heap.rs`; peak RSS moved by up to a third
//!   between identical runs there).
//! * `traffic_ratio` — the deterministic quality number later fast
//!   paths must keep: DRAM over compulsory bytes of SpMV LRU in RABBIT
//!   order (`reorder-social`, `spmv-sim`), of cluster-wise SpGEMM
//!   (`spgemm-block`), and the geomean over the RABBIT++ cells
//!   (`paper-suite`).
//!
//! Failed operations are the JSON's `failed` count, not a metric.
//! `--list` prints every metric with its bound or with the end-to-end
//! metric and workload it should move; `perfbench/RESULTS.md` holds the
//! measured spreads behind the bounds. Per-layer times and rates are raw
//! seconds.
//!
//! # Reading the trace
//!
//! `--trace 1` runs the timed reps untraced, then one more rep in which
//! every call is split into its public sub-calls, each inside a span:
//! RABBIT into `reorder.detect`, `reorder.flatten` and
//! `sparse.from_order`; `Pipeline::simulate` into a counting
//! `cachesim.trace_gen` replay, `cachesim.lru` or `cachesim.belady` and
//! `gpumodel.model`; each suite job into its reorder, `sparse.permute`
//! and simulate calls. Standalone calls only the traced rep makes
//! (`sparse.symmetrize`, `reorder.insular`, the counting replays) are
//! marked `extra`. Every split path must reproduce the untraced
//! fingerprints, or the run fails. The first set-up is traced too
//! (`synth.generate`, set-up reorders). Spans go to `--spans PATH`
//! (default `.bench_out/spans-<workload>.jsonl`), one JSON object per
//! line: `workload`, `id`, `parent`, `name`, `start_ns`, `end_ns`,
//! `extra`. A per-layer `_s` metric is the summed self time of the
//! spans of that name — duration minus what child spans cover — so a
//! parent never counts its children twice. `trace.overhead_ratio` is
//! the traced rep's serial-equivalent time without extra calls over
//! the untraced median, minus one.

use std::path::PathBuf;
use std::process::ExitCode;

mod calib;
mod heap;
mod ops;
mod spec;
mod stats;
mod trace;
mod workloads;

use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, summarize, Summary};
use workloads::{execute, Outcome, PaperSuite, Plan, ReorderSocial, SpgemmBlock, SpmvSim};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;

/// Parsed command line of a measuring run.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

enum Command {
    List,
    Manifest,
    Run(Args),
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut spans = None;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--manifest" => return Ok(Command::Manifest),
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required (see --list)")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?} (see --list)"));
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
    }))
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Command::List) => {
            print!("{}", spec::list_text());
            ExitCode::SUCCESS
        }
        Ok(Command::Manifest) => {
            print!("{}", spec::manifest_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => measure(&args),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the named workload; `None` when its corpus entries are missing.
fn run_workload(name: &str, plan: &Plan) -> Option<Outcome> {
    Some(match name {
        "reorder-social" => execute(&ReorderSocial::standard(cores())?, plan),
        "spmv-sim" => execute(&SpmvSim::standard()?, plan),
        "spgemm-block" => execute(&SpgemmBlock::standard()?, plan),
        _ => execute(&PaperSuite::standard(cores()), plan),
    })
}

fn measure(args: &Args) -> ExitCode {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host cpu=\"{}\" available_parallelism={} mem_total=\"{}\"",
        proc_field("/proc/cpuinfo", "model name").unwrap_or_default(),
        cores(),
        proc_field("/proc/meminfo", "MemTotal").unwrap_or_default(),
    );
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        setups: SETUPS,
        trace: args.trace,
    };
    let Some(mut outcome) = run_workload(&args.workload, &plan) else {
        eprintln!(
            "perfbench: the corpus lacks an entry {} needs",
            args.workload
        );
        return ExitCode::FAILURE;
    };
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_out/spans-{}.jsonl", args.workload)));
        let jsonl = trace::render_jsonl(&args.workload, &outcome.spans);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, jsonl));
        outcome
            .run
            .ops
            .call(&format!("write spans to {}", path.display()), written);
        println!("# spans: {} -> {}", outcome.spans.len(), path.display());
    }

    let metrics = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    for (name, value, unit, summary) in &metrics {
        println!(
            "metric {name} = {value} {unit}{}",
            describe(summary.as_ref())
        );
        if !value.is_finite() {
            outcome.run.ops.require(&format!("{name} is finite"), false);
        }
    }
    for (name, value) in outcome.run.ops.fingerprints() {
        println!("fingerprint {name} = {value:016x}");
    }
    let ops = &outcome.run.ops;
    for failure in ops.failures() {
        println!("failure {failure}");
    }
    let failed = ops.failures().len();
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        ops.attempted().max(1),
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Row = (&'static str, f64, &'static str, Option<Summary>);

/// ` (n=…, q1=…, q3=…, pNN=…)` for sampled metrics.
fn describe(summary: Option<&Summary>) -> String {
    summary.map_or_else(String::new, |s| {
        let tail = s
            .tail
            .map_or_else(String::new, |(p, v)| format!(", p{p}={v}"));
        format!(" (n={}, q1={}, q3={}{tail})", s.n, s.q1, s.q3)
    })
}

fn end_to_end(out: &Outcome) -> Vec<Row> {
    let walls: Vec<f64> = out.reps.iter().map(|r| r.wall).collect();
    // The calibration after the last set-up also precedes the first rep.
    let rep_calib = out.calib_s.get(out.setup_s.len()..).unwrap_or_default();
    println!(
        "# raw medians: setup {} s, rep {} s; calibration {} s (reference {} s)",
        median(&out.setup_s),
        median(&walls),
        median(&out.calib_s),
        calib::REFERENCE_S
    );
    END_TO_END
        .iter()
        .map(|m| {
            let summary = match m.name {
                "setup_s" => summarize(&calib::normalize(&out.setup_s, &out.calib_s)),
                "rep_s" => summarize(&calib::normalize(&walls, rep_calib)),
                _ => None,
            };
            let value = match m.name {
                "peak_heap_mb" => median(&out.setup_heap_mib).max(median(&out.rep_heap_mib)),
                "traffic_ratio" => out.run.traffic_ratio.unwrap_or(0.0),
                _ => summary.map_or(0.0, |s| s.median),
            };
            // Quartiles of fewer than four samples say little.
            if let Some(s) = summary.filter(|s| s.n >= 4 && s.unsteady_for(m.bound)) {
                eprintln!(
                    "perfbench: {} is unsteady in this run: quartile spread {:.1}% of the median \
                     exceeds a third of its {}% bound",
                    m.name,
                    s.spread() * 100.0,
                    m.bound * 100.0
                );
            }
            (m.name, value, m.unit, summary)
        })
        .collect()
}

fn per_layer(out: &Outcome) -> Vec<Row> {
    let self_times = trace::self_time_by_name(&out.spans);
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.span() {
                Some(span) => self_times.get(span),
                None => out.run.layer.get(m.name),
            };
            (m.name, value.copied().unwrap_or(0.0), m.unit, None)
        })
        .collect()
}

/// The value after `key` on the first line of `file` that starts with
/// it (`/proc/cpuinfo`, `/proc/meminfo`).
fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file).ok()?.lines().find_map(|l| {
        l.strip_prefix(key)
            .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_string())
    })
}
