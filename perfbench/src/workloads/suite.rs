//! `paper-suite`: the paper's technique set over a corpus subset.

use std::time::Instant;

use commorder::check::check_permutation;
use commorder::exec::Engine;
use commorder::gpumodel::GpuSpec;
use commorder::reorder::{paper_suite, ReorderContext};
use commorder::sparse::SparseError;
use commorder::synth::{corpus, CorpusEntry};
use commorder::{ExperimentResult, ExperimentSpec, Pipeline, RunRecord};

use super::{audit_run, generate, simulate_split, RepTime, Run, Workload, TECHNIQUE_SEED};
use crate::ops::{fnv1a, permutation_fingerprint, run_fingerprint};
use crate::stats::{geomean, summarize};
use crate::trace::Recorder;

/// `ExperimentSpec::run` of the seven `paper_suite` techniques with
/// SpMV-CSR and LRU, one job per (matrix, technique) on an engine.
#[derive(Debug, Clone)]
pub struct PaperSuite {
    /// The matrices.
    pub entries: Vec<CorpusEntry>,
    /// Simulated platform.
    pub gpu: GpuSpec,
    /// Engine workers.
    pub threads: usize,
}

impl PaperSuite {
    /// The benchmark-size workload: every tenth standard-tier entry
    /// (`soc-rmat-32k`, `web-stackex`, `road-grid-64k`,
    /// `circuit-messy`, `kb-patents`) on at most two workers.
    #[must_use]
    pub fn standard(cores: usize) -> Self {
        PaperSuite {
            entries: corpus::standard().into_iter().step_by(10).collect(),
            gpu: GpuSpec::a6000_scaled(),
            threads: cores.clamp(1, 2),
        }
    }
}

/// Span name of a `paper_suite` technique's reorder call.
fn reorder_span(technique: &str) -> &'static str {
    match technique {
        "RANDOM" => "reorder.random",
        "ORIGINAL" => "reorder.original",
        "DEGSORT" => "reorder.degsort",
        "DBG" => "reorder.dbg",
        "GORDER" => "reorder.gorder",
        "RABBIT" => "reorder.rabbit",
        "RABBIT++" => "reorder.rabbitpp",
        _ => "reorder.other",
    }
}

/// Pins every permutation and every simulated cell, in grid order, as
/// two combined fingerprints.
fn pin_grid<'a>(
    run: &mut Run,
    permutations: impl Iterator<Item = &'a [u32]>,
    cells: impl Iterator<Item = u64>,
) {
    let perms: Vec<u64> = permutations.map(permutation_fingerprint).collect();
    run.ops.pin(
        "suite.permutations",
        fnv1a(perms.iter().flat_map(|v| v.to_le_bytes())),
    );
    let cells: Vec<u64> = cells.collect();
    run.ops.pin(
        "suite.cells",
        fnv1a(cells.iter().flat_map(|v| v.to_le_bytes())),
    );
}

impl Workload for PaperSuite {
    type Input = ExperimentSpec;

    fn setup(&self, seed: u64, rec: Option<&Recorder>, run: &mut Run) -> Option<ExperimentSpec> {
        let mut spec = ExperimentSpec::new(self.gpu).techniques(paper_suite(TECHNIQUE_SEED));
        for entry in &self.entries {
            let m = generate(entry, seed, rec, run)?;
            spec = spec.matrix_in_group(entry.name, entry.domain.label(), m);
        }
        Some(spec)
    }

    fn rep(&self, spec: &ExperimentSpec, run: &mut Run) -> RepTime {
        let engine = Engine::new(self.threads);
        let started = Instant::now();
        let result = spec.run(&engine);
        let wall = started.elapsed().as_secs_f64();
        let Some(result) = run.ops.call("suite", result) else {
            return RepTime { wall, busy: wall };
        };
        audit(spec, &result, run);
        RepTime {
            wall,
            busy: result.stats.busy_seconds,
        }
    }

    fn traced_rep(&self, spec: &ExperimentSpec, rec: &Recorder, run: &mut Run) {
        let engine = Engine::new(self.threads);
        let pipeline = Pipeline::new(spec.gpu);
        let n_techniques = spec.techniques.len();
        let jobs: Vec<(usize, usize)> = (0..spec.matrices.len())
            .flat_map(|mi| (0..n_techniques).map(move |ti| (mi, ti)))
            .collect();
        // The same job body as `ExperimentSpec::run`, one span per call.
        let (outputs, _) = engine.run_with_stats(jobs, |_, (mi, ti)| {
            let m = &spec.matrices[mi].matrix;
            let technique = spec.techniques[ti].as_ref();
            rec.span(None, "core.job", |job| {
                let cx = ReorderContext::new(&engine, spec.reorder_seed);
                let p = rec.span(Some(job), reorder_span(technique.name()), |_| {
                    technique.reorder_with(m, &cx)
                })?;
                let reordered =
                    rec.span(Some(job), "sparse.permute", |_| m.permute_symmetric(&p))?;
                let k = simulate_split(&pipeline, &reordered, rec, Some(job));
                Ok::<_, SparseError>((p, k))
            })
        });
        let mut done = Vec::with_capacity(outputs.len());
        for out in outputs {
            done.extend(run.ops.call("suite job", out.value));
        }
        if done.len() == spec.matrices.len() * n_techniques {
            pin_grid(
                run,
                done.iter().map(|(p, _)| p.as_slice()),
                done.iter().map(|(_, k)| run_fingerprint(k)),
            );
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn summarize(&self, _: &ExperimentSpec, run: &mut Run) {
        let jobs = run.calls.get("job").map(|v| summarize(v));
        if let Some(Some(jobs)) = jobs {
            run.layer.insert("core.job_p50_s", jobs.median);
            if let Some((_, tail)) = jobs.tail {
                run.layer.insert("core.job_tail_s", tail);
            }
        }
        if let Some(Some(wait)) = run.calls.get("queue_wait").map(|v| summarize(v)) {
            if let Some((_, tail)) = wait.tail {
                run.layer.insert("exec.queue_wait_tail_s", tail);
            }
        }
        for (metric, call) in [
            ("core.reorder_busy_s", "reorder_busy"),
            ("core.sim_busy_s", "sim_busy"),
            ("exec.utilization", "utilization"),
            ("exec.busy_s", "busy"),
            ("exec.steals", "steals"),
        ] {
            let value = run.median(call);
            run.layer.insert(metric, value);
        }
    }
}

/// Audits one grid result and records its scheduling samples.
fn audit(spec: &ExperimentSpec, result: &ExperimentResult, run: &mut Run) {
    run.ops.require(
        "one record per grid cell",
        result.records.len() == spec.grid_len(),
    );
    for (mi, row) in result.permutations.iter().enumerate() {
        let n = spec.matrices[mi].matrix.n_rows();
        for (ti, p) in row.iter().enumerate() {
            let name = format!("{}/{}", result.matrices[mi].0, result.techniques[ti]);
            run.ops.check(
                &format!("permutation {name}"),
                check_permutation(p, Some(u64::from(n))),
            );
        }
    }
    for r in &result.records {
        let name = format!(
            "{}/{}",
            result.matrices[r.matrix].0, result.techniques[r.technique]
        );
        audit_run(run, &name, &r.run);
        // One kernel, model and policy: each record is one job.
        run.sample("job", r.reorder_seconds + r.sim_seconds);
        run.sample("queue_wait", r.queue_seconds);
    }
    run.ops
        .pin("suite.report", fnv1a(result.render_json().into_bytes()));
    pin_grid(
        run,
        result.permutations.iter().flatten().map(|p| p.as_slice()),
        result.records.iter().map(|r| run_fingerprint(&r.run)),
    );
    let sum = |f: fn(&RunRecord) -> f64| result.records.iter().map(f).sum::<f64>();
    run.sample("reorder_busy", sum(|r| r.reorder_seconds));
    run.sample("sim_busy", sum(|r| r.sim_seconds));
    run.sample("utilization", result.stats.utilization());
    run.sample("busy", result.stats.busy_seconds);
    run.sample("steals", result.stats.steals as f64);

    if run.traffic_ratio.is_none() {
        let rabbitpp: Vec<f64> = result
            .records
            .iter()
            .filter(|r| result.techniques[r.technique] == "RABBIT++")
            .map(|r| r.run.traffic_ratio)
            .collect();
        run.ops.require(
            "RABBIT++ ran on every matrix",
            rabbitpp.len() == spec.matrices.len(),
        );
        run.traffic_ratio = Some(geomean(&rabbitpp));
        let stats: Vec<_> = result.records.iter().map(|r| r.run.stats).collect();
        run.cache_counts(&stats);
    }
}
