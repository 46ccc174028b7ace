//! `spmv-sim`: SpMV cache simulation in published and RABBIT order.

use std::time::Instant;

use commorder::check::check_csr;
use commorder::exec::Engine;
use commorder::gpumodel::GpuSpec;
use commorder::reorder::{Rabbit, ReorderContext, Reordering};
use commorder::sparse::CsrMatrix;
use commorder::synth::{corpus, CorpusEntry};
use commorder::{KernelRun, Pipeline, ReplacementPolicy};

use super::{audit_run, generate, simulate_split, traced, RepTime, Run, Workload, TECHNIQUE_SEED};
use crate::ops::run_fingerprint;
use crate::trace::Recorder;

/// LRU and Belady through `Pipeline::simulate` on both orders of one
/// matrix; RABBIT and the permutation run in set-up.
#[derive(Debug, Clone)]
pub struct SpmvSim {
    /// The matrix, simulated as published and in RABBIT order.
    pub entry: CorpusEntry,
    /// Simulated platform.
    pub gpu: GpuSpec,
}

impl SpmvSim {
    /// The benchmark-size workload: `soc-rmat-xl` on the 128 KiB L2,
    /// 6.2M accesses per trace, about a quarter of them misses.
    #[must_use]
    pub fn standard() -> Option<Self> {
        Some(SpmvSim {
            entry: corpus::standard()
                .into_iter()
                .find(|e| e.name == "soc-rmat-xl")?,
            gpu: GpuSpec::a6000_scaled(),
        })
    }

    fn pipelines(&self) -> [(&'static str, Pipeline); 2] {
        let with = |policy| {
            Pipeline::builder(self.gpu)
                .policy(policy)
                .build()
                .expect("the built-in GPU specs are valid")
        };
        [
            ("lru", with(ReplacementPolicy::Lru)),
            ("belady", with(ReplacementPolicy::Belady)),
        ]
    }
}

/// The published matrix and its RABBIT reordering.
#[derive(Debug)]
pub struct Orders {
    published: CsrMatrix,
    rabbit: CsrMatrix,
}

impl Orders {
    fn each(&self) -> [(&'static str, &CsrMatrix); 2] {
        [("published", &self.published), ("rabbit", &self.rabbit)]
    }
}

impl Workload for SpmvSim {
    type Input = Orders;

    fn setup(&self, seed: u64, rec: Option<&Recorder>, run: &mut Run) -> Option<Orders> {
        let published = generate(&self.entry, seed, rec, run)?;
        let serial = Engine::serial();
        let p = traced(rec, "reorder.rabbit", || {
            Rabbit::new().reorder_with(&published, &ReorderContext::new(&serial, TECHNIQUE_SEED))
        });
        let p = run.permutation("rabbit", p, published.n_rows())?;
        let rabbit = traced(rec, "sparse.permute", || published.permute_symmetric(&p));
        let rabbit = run.ops.call("permute rabbit", rabbit)?;
        run.ops.check("csr rabbit order", check_csr(&rabbit));
        Some(Orders { published, rabbit })
    }

    fn rep(&self, input: &Orders, run: &mut Run) -> RepTime {
        let pipelines = self.pipelines();
        let started = Instant::now();
        let mut runs: Vec<(String, KernelRun)> = Vec::with_capacity(4);
        for (order, m) in input.each() {
            for (policy, pipeline) in &pipelines {
                let k = run.time(policy, || pipeline.simulate(m));
                runs.push((format!("{policy}.{order}"), k));
            }
        }
        let time = RepTime::serial(started);

        for (name, k) in &runs {
            audit_run(run, name, k);
            run.ops.pin(&format!("run.{name}"), run_fingerprint(k));
        }
        // Same matrix entries in either order, so the same trace length;
        // Belady's optimal replacement never misses more than LRU.
        let accesses = runs[0].1.stats.accesses;
        run.ops.require(
            "every trace has the same length",
            runs.iter().all(|(_, k)| k.stats.accesses == accesses),
        );
        for pair in runs.chunks(2) {
            run.ops.require(
                &format!("belady misses <= lru misses ({})", pair[0].0),
                pair[1].1.stats.misses() <= pair[0].1.stats.misses(),
            );
        }
        if run.traffic_ratio.is_none() {
            run.traffic_ratio = Some(runs[2].1.traffic_ratio);
            let stats: Vec<_> = runs.iter().map(|(_, k)| k.stats).collect();
            run.cache_counts(&stats);
        }
        time
    }

    fn traced_rep(&self, input: &Orders, rec: &Recorder, run: &mut Run) {
        for (order, m) in input.each() {
            for (policy, pipeline) in &self.pipelines() {
                let k = simulate_split(pipeline, m, rec, None);
                run.ops
                    .pin(&format!("run.{policy}.{order}"), run_fingerprint(&k));
            }
        }
    }

    fn summarize(&self, _: &Orders, run: &mut Run) {
        if let Some(&accesses) = run.layer.get("cachesim.accesses") {
            // The counters sum one rep's four traces, which the rep
            // checked are of equal length.
            let per_trace = accesses / 4.0;
            run.rate("cachesim.lru_maccesses_per_s", per_trace, "lru");
            run.rate("cachesim.belady_maccesses_per_s", per_trace, "belady");
        }
    }
}
