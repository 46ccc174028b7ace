//! `reorder-social`: the reorderers on a social graph.

use std::time::Instant;

use commorder::check::check_assignment;
use commorder::exec::Engine;
use commorder::gpumodel::GpuSpec;
use commorder::reorder::community::{self, Dendrogram};
use commorder::reorder::{quality, Boba, Rabbit, RabbitPlusPlus, ReorderContext, Reordering};
use commorder::sparse::{ops, CsrMatrix, Permutation, SparseError};
use commorder::synth::{corpus, CorpusEntry};
use commorder::Pipeline;

use super::{audit_run, generate, RepTime, Run, Workload, TECHNIQUE_SEED};
use crate::trace::Recorder;

/// RABBIT and RABBIT++ at one thread, BOBA repeated (one call is too
/// short to time alone), and RABBIT at two threads where the host has
/// two cores; every permutation must match across reps and threads.
#[derive(Debug, Clone)]
pub struct ReorderSocial {
    /// The graph.
    pub entry: CorpusEntry,
    /// BOBA calls per rep.
    pub boba_calls: usize,
    /// Also run RABBIT on a 2-worker engine.
    pub two_threads: bool,
    /// Platform of the traffic-ratio simulation of the RABBIT order.
    pub gpu: GpuSpec,
}

impl ReorderSocial {
    /// The benchmark-size workload: `soc-rmat-xl` (131,072 rows, about
    /// 1.9M stored entries), one giant component.
    #[must_use]
    pub fn standard(cores: usize) -> Option<Self> {
        Some(ReorderSocial {
            entry: corpus::standard()
                .into_iter()
                .find(|e| e.name == "soc-rmat-xl")?,
            boba_calls: 10,
            two_threads: cores >= 2,
            gpu: GpuSpec::a6000_scaled(),
        })
    }
}

/// RABBIT split into its public sub-calls: detection, dendrogram
/// flattening (DFS order and community assignment), then the
/// permutation. Returns the permutation and the dendrogram's
/// assignment.
fn rabbit_split(
    m: &CsrMatrix,
    engine: &Engine,
    rec: &Recorder,
    names: [&'static str; 3],
) -> Result<(Permutation, Dendrogram, Vec<u32>), SparseError> {
    rec.span(None, names[0], |id| {
        let dendrogram = rec.span(Some(id), names[1], |_| {
            community::detect_with(m, Rabbit::new().detection, engine)
        })?;
        let (order, assignment) = rec.span(Some(id), names[2], |_| {
            (dendrogram.dfs_order_with(engine), dendrogram.assignment())
        });
        let permutation = rec.span(Some(id), "sparse.from_order", |_| {
            Permutation::from_order(&order)
        })?;
        Ok((permutation, dendrogram, assignment))
    })
}

impl Workload for ReorderSocial {
    type Input = CsrMatrix;

    fn setup(&self, seed: u64, rec: Option<&Recorder>, run: &mut Run) -> Option<CsrMatrix> {
        generate(&self.entry, seed, rec, run)
    }

    fn rep(&self, m: &CsrMatrix, run: &mut Run) -> RepTime {
        let serial = Engine::serial();
        let cx = ReorderContext::new(&serial, TECHNIQUE_SEED);
        let pair = Engine::new(2);
        let cx2 = ReorderContext::new(&pair, TECHNIQUE_SEED);

        let started = Instant::now();
        let rabbit = run.time("rabbit", || Rabbit::new().reorder_with(m, &cx));
        let rabbitpp = run.time("rabbitpp", || RabbitPlusPlus::new().reorder_with(m, &cx));
        let boba: Vec<_> = run.time("boba", || {
            (0..self.boba_calls)
                .map(|_| Boba.reorder_with(m, &cx))
                .collect()
        });
        let rabbit_t2 = self
            .two_threads
            .then(|| run.time("rabbit_t2", || Rabbit::new().reorder_with(m, &cx2)));
        let time = RepTime::serial(started);

        let n = m.n_rows();
        let rabbit = run.permutation("rabbit", rabbit, n);
        run.permutation("rabbit++", rabbitpp, n);
        for p in boba {
            run.permutation("boba", p, n);
        }
        if let Some(p) = rabbit_t2 {
            // Same name as the 1-thread run: the pin makes any
            // thread-count dependence a failure.
            run.permutation("rabbit", p, n);
        }
        if run.traffic_ratio.is_none() {
            if let Some(p) = rabbit {
                if let Some(reordered) = run.ops.call("permute rabbit", m.permute_symmetric(&p)) {
                    let k = Pipeline::new(self.gpu).simulate(&reordered);
                    audit_run(run, "rabbit order lru", &k);
                    run.traffic_ratio = Some(k.traffic_ratio);
                }
            }
        }
        time
    }

    fn traced_rep(&self, m: &CsrMatrix, rec: &Recorder, run: &mut Run) {
        let serial = Engine::serial();
        let n = m.n_rows();
        let names = ["reorder.rabbit", "reorder.detect", "reorder.flatten"];
        let split = run
            .ops
            .call("rabbit split", rabbit_split(m, &serial, rec, names));
        let sym = rec.extra(None, "sparse.symmetrize", |_| ops::symmetrize(m));
        let sym = run.ops.call("symmetrize", sym);
        let rabbitpp = rec.span(None, "reorder.rabbitpp", |_| {
            RabbitPlusPlus::new().run_with(m, &serial)
        });
        let rabbitpp = run.ops.call("rabbit++", rabbitpp);
        for _ in 0..self.boba_calls {
            let p = rec.span(None, "reorder.boba", |_| {
                Boba.reorder_with(m, &ReorderContext::new(&serial, TECHNIQUE_SEED))
            });
            run.permutation("boba", p, n);
        }
        if self.two_threads {
            let names = [
                "reorder.rabbit_t2",
                "reorder.detect_t2",
                "reorder.flatten_t2",
            ];
            let split = rabbit_split(m, &Engine::new(2), rec, names);
            run.permutation("rabbit", split.map(|(p, _, _)| p), n);
        }

        let Some((permutation, dendrogram, assignment)) = split else {
            return;
        };
        run.permutation("rabbit", Ok(permutation), n);
        let communities = dendrogram.community_count();
        run.ops.check(
            "rabbit assignment",
            check_assignment(
                &assignment,
                u64::from(n),
                u32::try_from(communities).unwrap_or(u32::MAX),
            ),
        );
        run.layer.insert("reorder.communities", communities as f64);
        if let Some(rpp) = rabbitpp {
            run.permutation("rabbit++", Ok(rpp.permutation), n);
            let insular = rec.extra(None, "reorder.insular", |_| {
                quality::insular_nodes_with(m, &assignment, &serial)
            });
            if let Some(insular) = run.ops.call("insular nodes", insular) {
                run.ops.require(
                    "standalone insular mask = RABBIT++'s",
                    insular == rpp.insular,
                );
            }
        }
        if let Some(sym) = sym {
            let q = quality::modularity(&ops::remove_self_loops(&sym), &assignment);
            if let Some(q) = run.ops.call("modularity", q) {
                run.layer.insert("reorder.modularity", q);
            }
        }
    }

    fn summarize(&self, m: &CsrMatrix, run: &mut Run) {
        let nnz = m.nnz() as f64;
        run.rate("reorder.rabbit_medges_per_s", nnz, "rabbit");
        run.rate("reorder.rabbitpp_medges_per_s", nnz, "rabbitpp");
        run.rate("reorder.rabbit_t2_medges_per_s", nnz, "rabbit_t2");
        run.rate(
            "reorder.boba_medges_per_s",
            nnz * self.boba_calls as f64,
            "boba",
        );
        let extra = run.median("rabbitpp") - run.median("rabbit");
        run.layer.insert("reorder.rabbitpp_extra_s", extra);
    }
}
