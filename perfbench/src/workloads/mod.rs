//! The workloads and the harness that runs one of them.
//!
//! Each workload takes its inputs as parameters (corpus entries, GPU,
//! worker count), so the same code runs the benchmark-size inputs from
//! `main` and the mini-tier inputs of the smoke test. A run is: several
//! set-ups, closed-loop timed reps until the run's seconds are spent,
//! and, when tracing, one more rep with every call split into its
//! public sub-calls under spans.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use commorder::cachesim::belady::simulate_belady;
use commorder::cachesim::source::{simulate_lru, KernelTrace};
use commorder::cachesim::{CacheStats, TraceSource};
use commorder::check::{check_csr, check_permutation};
use commorder::sparse::{CsrMatrix, Permutation, SparseError};
use commorder::synth::CorpusEntry;
use commorder::{KernelRun, Pipeline, ReplacementPolicy};

use crate::calib::Calibration;
use crate::heap;
use crate::ops::{permutation_fingerprint, Ops};
use crate::stats::median;
use crate::trace::{Recorder, Span};

mod reorder;
mod spgemm;
mod spmv;
mod suite;

pub use reorder::ReorderSocial;
pub use spgemm::SpgemmBlock;
pub use spmv::SpmvSim;
pub use suite::PaperSuite;

/// Seed handed to every technique (`ReorderContext`, `paper_suite`);
/// fixed so only the inputs vary with `--seed`.
pub const TECHNIQUE_SEED: u64 = 0xC0DE;

/// Timing of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepTime {
    /// Wall seconds of the rep's timed calls.
    pub wall: f64,
    /// Serial-equivalent seconds (summed job time on a parallel
    /// engine; the wall time otherwise) — what the traced rep's
    /// overhead is measured against.
    pub busy: f64,
}

impl RepTime {
    /// A rep whose calls all ran on the calling thread.
    #[must_use]
    pub fn serial(started: Instant) -> Self {
        let wall = started.elapsed().as_secs_f64();
        RepTime { wall, busy: wall }
    }
}

/// What a run accumulates besides rep times.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations, failures and fingerprints.
    pub ops: Ops,
    /// Seconds (or other samples) per timed call name.
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values set by the workload.
    pub layer: BTreeMap<&'static str, f64>,
    /// The end-to-end quality metric, set from the first rep's outputs.
    pub traffic_ratio: Option<f64>,
}

impl Run {
    /// Times `f` and records its seconds under `call`.
    pub fn time<R>(&mut self, call: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.sample(call, started.elapsed().as_secs_f64());
        out
    }

    /// Records one sample under `call`.
    pub fn sample(&mut self, call: &'static str, value: f64) {
        self.calls.entry(call).or_default().push(value);
    }

    /// Median of the samples recorded under `call` (0 when none).
    #[must_use]
    pub fn median(&self, call: &str) -> f64 {
        self.calls.get(call).map_or(0.0, |v| median(v))
    }

    /// Sets a per-layer value to `count / median(call) / 1e6` — a
    /// throughput in millions per second.
    pub fn rate(&mut self, metric: &'static str, count: f64, call: &str) {
        let seconds = self.median(call);
        if seconds > 0.0 {
            self.layer.insert(metric, count / seconds / 1e6);
        }
    }

    /// Sets the cache counters from the simulations of one rep, once.
    pub fn cache_counts(&mut self, all: &[CacheStats]) {
        if self.layer.contains_key("cachesim.accesses") {
            return;
        }
        let sum = |f: fn(&CacheStats) -> u64| all.iter().map(f).sum::<u64>() as f64;
        let (accesses, hits, misses) = (sum(|s| s.accesses), sum(|s| s.hits), sum(|s| s.misses()));
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.layer.insert("cachesim.accesses", accesses);
        self.layer
            .insert("cachesim.hit_ratio", ratio(hits, accesses));
        self.layer.insert(
            "cachesim.compulsory_ratio",
            ratio(sum(|s| s.compulsory_misses), misses),
        );
        self.layer
            .insert("cachesim.writebacks", sum(|s| s.writebacks));
        self.layer
            .insert("cachesim.dram_bytes", sum(CacheStats::dram_traffic_bytes));
    }

    /// Audits a permutation produced for an `n`-row matrix and pins its
    /// fingerprint under `permutation.<name>`.
    pub fn permutation(
        &mut self,
        name: &str,
        result: Result<Permutation, SparseError>,
        n: u32,
    ) -> Option<Permutation> {
        let p = self.ops.call(&format!("reorder {name}"), result)?;
        self.ops.check(
            &format!("permutation {name}"),
            check_permutation(&p, Some(u64::from(n))),
        );
        self.ops.pin(
            &format!("permutation.{name}"),
            permutation_fingerprint(p.as_slice()),
        );
        Some(p)
    }
}

/// One workload: set-up, timed rep, traced rep.
pub trait Workload {
    /// Inputs the timed reps run on.
    type Input;

    /// Generates the inputs from `seed` (0 = corpus seeds as published)
    /// and does the set-up-time work; `rec` is set for the one traced
    /// set-up.
    fn setup(&self, seed: u64, rec: Option<&Recorder>, run: &mut Run) -> Option<Self::Input>;

    /// One closed-loop rep: the timed calls, then the audit of their
    /// outputs (untimed).
    fn rep(&self, input: &Self::Input, run: &mut Run) -> RepTime;

    /// The rep again with each call split into its public sub-calls,
    /// every output pinned against the untimed rep's fingerprints.
    fn traced_rep(&self, input: &Self::Input, rec: &Recorder, run: &mut Run);

    /// Per-layer values derived from the untraced reps.
    fn summarize(&self, input: &Self::Input, run: &mut Run);

    /// Threads the timed reps keep busy (the calibration width).
    fn threads(&self) -> usize {
        1
    }
}

/// How long and how to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Input seed (0 = as published).
    pub seed: u64,
    /// Seconds of timed reps; at least one rep always runs.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Run the traced rep and collect spans.
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Timing of each timed rep.
    pub reps: Vec<RepTime>,
    /// Calibration seconds: one before the first set-up, then one after
    /// every set-up and every rep (see [`crate::calib::normalize`]).
    pub calib_s: Vec<f64>,
    /// Peak live heap MiB above the run's baseline, per set-up.
    pub setup_heap_mib: Vec<f64>,
    /// Peak live heap MiB above the run's baseline, per rep.
    pub rep_heap_mib: Vec<f64>,
    /// Operations, samples and per-layer values.
    pub run: Run,
    /// Spans of the traced set-up and rep (empty untraced).
    pub spans: Vec<Span>,
}

/// Runs `f`, turning a panic into a failed operation.
fn guarded<R>(run: &mut Run, what: &str, f: impl FnOnce(&mut Run) -> R) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(|| f(run))) {
        Ok(out) => Some(out),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            run.ops.abort(format!("{what} panicked: {message}"));
            None
        }
    }
}

/// Runs workload `w` under `plan`.
pub fn execute<W: Workload>(w: &W, plan: &Plan) -> Outcome {
    let rec = Recorder::default();
    let calibration = Calibration::shared();
    let mut out = Outcome::default();
    let run = &mut out.run;
    let calibrate = |calib_s: &mut Vec<f64>| calib_s.push(calibration.measure(w.threads()));
    // Heap held by the benchmark itself (calibration chain, recorder).
    let baseline = heap::live_bytes();
    let above = |peak: usize| peak.saturating_sub(baseline) as f64 / f64::from(1 << 20);

    calibrate(&mut out.calib_s);
    let mut input = None;
    for i in 0..plan.setups.max(1) {
        // Drop the previous inputs first so the peak holds one set.
        drop(input.take());
        let traced = (plan.trace && i == 0).then_some(&rec);
        heap::take_peak();
        let started = Instant::now();
        input = guarded(run, "setup", |run| w.setup(plan.seed, traced, run)).flatten();
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.setup_heap_mib.push(above(heap::take_peak()));
        calibrate(&mut out.calib_s);
    }
    let Some(input) = input else {
        return out;
    };

    let started = Instant::now();
    loop {
        heap::take_peak();
        let Some(rep) = guarded(run, "rep", |run| w.rep(&input, run)) else {
            break;
        };
        out.reps.push(rep);
        out.rep_heap_mib.push(above(heap::take_peak()));
        calibrate(&mut out.calib_s);
        // Stop before a rep would overrun the run's seconds.
        if started.elapsed().as_secs_f64() + rep.wall > plan.seconds {
            break;
        }
    }
    guarded(run, "summary", |run| w.summarize(&input, run));

    if plan.trace {
        let setup_spans = rec.spans().last().map_or(0, |s| s.id);
        guarded(run, "traced rep", |run| w.traced_rep(&input, &rec, run));
        out.spans = rec.spans();
        let busy = median(&out.reps.iter().map(|r| r.busy).collect::<Vec<_>>());
        let traced = traced_busy(out.spans.iter().filter(|s| s.id > setup_spans));
        if busy > 0.0 {
            run.layer
                .insert("trace.overhead_ratio", traced / busy - 1.0);
        }
    }
    out
}

/// Serial-equivalent seconds of a traced rep's calls: the top-level
/// spans the untraced rep also makes, minus the extra calls nested in
/// them. Extra calls never nest in extra calls.
fn traced_busy<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans
        .map(|s| match (s.parent, s.extra) {
            (None, false) => s.seconds(),
            (Some(_), true) => -s.seconds(),
            _ => 0.0,
        })
        .sum()
}

/// The corpus entry with its seed mixed with `seed` (0 keeps it).
#[must_use]
pub fn reseeded(entry: &CorpusEntry, seed: u64) -> CorpusEntry {
    let mut entry = entry.clone();
    entry.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    entry
}

/// Runs `f` under a span named `name` when `rec` is set.
fn traced<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(None, name, |_| f()),
        None => f(),
    }
}

/// Generates `entry` under `seed` and audits the matrix.
fn generate(
    entry: &CorpusEntry,
    seed: u64,
    rec: Option<&Recorder>,
    run: &mut Run,
) -> Option<CsrMatrix> {
    let entry = reseeded(entry, seed);
    let m = traced(rec, "synth.generate", || entry.generate());
    let m = run.ops.call(&format!("generate {}", entry.name), m)?;
    run.ops.check(&format!("csr {}", entry.name), check_csr(&m));
    Some(m)
}

/// Replays `source` only to count its accesses: the cost of generating
/// the trace with no cache behind it.
fn count_accesses(source: &impl TraceSource) -> u64 {
    let mut n = 0u64;
    source.replay(&mut |_| n += 1);
    std::hint::black_box(n)
}

/// `Pipeline::simulate` of a one-operand kernel split into its public
/// sub-calls: a counting replay of the trace (extra), the replacement
/// policy, then the run-time model.
fn simulate_split(
    pipeline: &Pipeline,
    m: &CsrMatrix,
    rec: &Recorder,
    parent: Option<u64>,
) -> KernelRun {
    rec.span(parent, "core.simulate", |id| {
        let source = KernelTrace::new(m, pipeline.kernel(), pipeline.model());
        rec.extra(Some(id), "cachesim.trace_gen", |_| count_accesses(&source));
        let l2 = pipeline.gpu().l2;
        let stats = match pipeline.policy() {
            ReplacementPolicy::Lru => {
                rec.span(Some(id), "cachesim.lru", |_| simulate_lru(l2, &source))
            }
            ReplacementPolicy::Belady => rec.span(Some(id), "cachesim.belady", |_| {
                simulate_belady(l2, &source)
            }),
        };
        rec.span(Some(id), "gpumodel.model", |_| {
            pipeline.run_from_stats(m, stats)
        })
    })
}

/// Checks the counter invariants every simulation satisfies: hits and
/// misses add up to the accesses, and every distinct line is filled at
/// least once.
fn audit_stats(run: &mut Run, what: &str, s: &CacheStats) {
    run.ops.require(
        &format!("{what}: hits + misses = accesses"),
        s.hits + s.misses() == s.accesses,
    );
    run.ops.require(
        &format!("{what}: fills >= compulsory misses"),
        s.fills >= s.compulsory_misses,
    );
}

/// [`audit_stats`] plus a finite, positive traffic ratio.
fn audit_run(run: &mut Run, what: &str, k: &KernelRun) {
    audit_stats(run, what, &k.stats);
    run.ops.require(
        &format!("{what}: traffic ratio is finite and positive"),
        k.traffic_ratio.is_finite() && k.traffic_ratio > 0.0,
    );
}

#[cfg(test)]
mod tests;
