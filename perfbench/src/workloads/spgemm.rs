//! `spgemm-block`: SpGEMM cache simulation, row-wise and cluster-wise.

use std::time::Instant;

use commorder::cachesim::source::simulate_lru;
use commorder::cachesim::SpGemmTrace;
use commorder::check::check_assignment;
use commorder::gpumodel::GpuSpec;
use commorder::reorder::Rabbit;
use commorder::sparse::traffic::Kernel;
use commorder::sparse::CsrMatrix;
use commorder::synth::generators::PlantedPartition;
use commorder::synth::{corpus, CorpusEntry, GeneratorSpec};

use super::{audit_stats, count_accesses, generate, traced, RepTime, Run, Workload};
use crate::ops::stats_fingerprint;
use crate::trace::Recorder;

/// `A·A` as a Gustavson and a cluster-wise trace, each streamed into
/// LRU; the RABBIT community assignment is computed in set-up.
#[derive(Debug, Clone)]
pub struct SpgemmBlock {
    /// The block matrix `A`.
    pub entry: CorpusEntry,
    /// Simulated platform.
    pub gpu: GpuSpec,
}

impl SpgemmBlock {
    /// The benchmark-size workload: `opt-block-512` scaled from 65,536
    /// to 20,480 rows with the same 128-row blocks, degree, mixing,
    /// seed and scrambled publish order: about 15M accesses per trace,
    /// so a rep fits the run several times over. At 16,384 rows the
    /// distinct-line count sat on a hash-set doubling point of the
    /// simulator, and the peak heap jumped by half between seeds; here
    /// it is about 25% clear of the nearest one.
    #[must_use]
    pub fn standard() -> Option<Self> {
        let mut entry = corpus::standard()
            .into_iter()
            .find(|e| e.name == "opt-block-512")?;
        entry.name = "opt-block-20k";
        entry.spec =
            GeneratorSpec::PlantedPartition(PlantedPartition::uniform(20_480, 160, 12.0, 0.02));
        Some(SpgemmBlock {
            entry,
            gpu: GpuSpec::a6000_scaled(),
        })
    }
}

/// The matrix and its RABBIT community assignment.
#[derive(Debug)]
pub struct Clustered {
    a: CsrMatrix,
    assignment: Vec<u32>,
}

const KERNELS: [(&str, Kernel); 2] = [
    ("gustavson", Kernel::SpGemmGustavson),
    ("cluster", Kernel::SpGemmClusterWise),
];

impl Clustered {
    fn trace(&self, kernel: Kernel) -> Result<SpGemmTrace<'_>, commorder::sparse::SparseError> {
        SpGemmTrace::new(&self.a, &self.a, kernel, Some(&self.assignment))
    }
}

impl Workload for SpgemmBlock {
    type Input = Clustered;

    fn setup(&self, seed: u64, rec: Option<&Recorder>, run: &mut Run) -> Option<Clustered> {
        let a = generate(&self.entry, seed, rec, run)?;
        let r = traced(rec, "reorder.rabbit", || Rabbit::new().run(&a));
        let r = run.ops.call("rabbit", r)?;
        let n = a.n_rows();
        run.permutation("rabbit", Ok(r.permutation), n);
        let communities = u32::try_from(r.dendrogram.community_count()).unwrap_or(u32::MAX);
        run.ops.check(
            "rabbit assignment",
            check_assignment(&r.assignment, u64::from(n), communities),
        );
        Some(Clustered {
            a,
            assignment: r.assignment,
        })
    }

    fn rep(&self, input: &Clustered, run: &mut Run) -> RepTime {
        let l2 = self.gpu.l2;
        let started = Instant::now();
        let mut runs = Vec::with_capacity(2);
        for (name, kernel) in KERNELS {
            let trace = run.time("spgemm_setup", || input.trace(kernel));
            let Some(trace) = run.ops.call(name, trace) else {
                continue;
            };
            let stats = run.time("lru", || simulate_lru(l2, &trace));
            runs.push((name, trace.accumulator_peak(), stats));
        }
        let time = RepTime::serial(started);

        for (name, peak, stats) in &runs {
            audit_stats(run, name, stats);
            run.ops
                .pin(&format!("cache.spgemm.{name}"), stats_fingerprint(stats));
            run.ops.pin(&format!("acc_peak.{name}"), *peak);
        }
        if let [(_, row_peak, gus), (_, cluster_peak, cw)] = runs[..] {
            // Cluster-wise execution reorders whole rows: same accesses,
            // same compulsory misses, only the reuse moves.
            run.ops.require(
                "cluster-wise keeps the access multiset",
                gus.accesses == cw.accesses && gus.compulsory_misses == cw.compulsory_misses,
            );
            if run.traffic_ratio.is_none() {
                let compulsory =
                    Kernel::SpGemmClusterWise.compulsory_bytes_pair(&input.a, &input.a);
                if let Some(compulsory) = run.ops.call("compulsory bytes", compulsory) {
                    run.traffic_ratio = Some(cw.dram_traffic_bytes() as f64 / compulsory as f64);
                }
                run.cache_counts(&[gus, cw]);
                run.layer.insert("cachesim.acc_peak_row", row_peak as f64);
                run.layer
                    .insert("cachesim.acc_peak_cluster", cluster_peak as f64);
            }
        }
        time
    }

    fn traced_rep(&self, input: &Clustered, rec: &Recorder, run: &mut Run) {
        let l2 = self.gpu.l2;
        for (name, kernel) in KERNELS {
            let trace = rec.span(None, "cachesim.spgemm_setup", |_| input.trace(kernel));
            let Some(trace) = run.ops.call(name, trace) else {
                continue;
            };
            rec.extra(None, "cachesim.spgemm_trace_gen", |_| {
                count_accesses(&trace)
            });
            let stats = rec.span(None, "cachesim.lru", |_| simulate_lru(l2, &trace));
            run.ops
                .pin(&format!("cache.spgemm.{name}"), stats_fingerprint(&stats));
        }
    }

    fn summarize(&self, _: &Clustered, run: &mut Run) {
        if let Some(&accesses) = run.layer.get("cachesim.accesses") {
            // Both traces have the rep-checked same length.
            run.rate("cachesim.lru_maccesses_per_s", accesses / 2.0, "lru");
        }
    }
}
