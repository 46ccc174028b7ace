//! Smoke test: every workload on mini-tier inputs, one rep, with and
//! without tracing.

use commorder::gpumodel::GpuSpec;
use commorder::synth::{corpus, CorpusEntry};

use super::*;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::self_times;

fn mini(name: &str) -> CorpusEntry {
    corpus::mini()
        .into_iter()
        .find(|e| e.name == name)
        .expect("mini corpus entry")
}

fn plan(trace: bool) -> Plan {
    Plan {
        seed: 5,
        seconds: 0.0,
        setups: 1,
        trace,
    }
}

/// Runs `w` untraced and traced; checks the emitted metrics and spans
/// and returns the per-layer values by name.
fn smoke<W: Workload>(w: &W) -> BTreeMap<&'static str, f64> {
    let out = execute(w, &plan(false));
    assert_eq!(out.run.ops.failures(), &[] as &[String]);
    assert_eq!(out.reps.len(), 1, "zero seconds still runs one rep");
    let e2e = crate::end_to_end(&out);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (name, value, _, _) in &e2e {
        // The heap counter is process-wide and tests run in parallel, so
        // another test's frees can hide this run's peak.
        let positive = *value > 0.0 || *name == "peak_heap_mb";
        assert!(value.is_finite() && positive, "{name} = {value}");
    }

    let out = execute(w, &plan(true));
    assert_eq!(out.run.ops.failures(), &[] as &[String]);
    assert!(out.run.ops.attempted() > 0);
    let layer = crate::per_layer(&out);
    assert_eq!(layer.len(), PER_LAYER.len());
    for (name, value, _, _) in &layer {
        assert!(value.is_finite(), "{name} = {value}");
    }
    assert!(out.run.layer.contains_key("trace.overhead_ratio"));

    // Children run serially inside their parent, so their self times
    // fit in its duration.
    let own = self_times(&out.spans);
    for parent in &out.spans {
        let children: f64 = out
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .map(|s| own[&s.id])
            .sum();
        assert!(children <= parent.seconds() + 1e-9, "{}", parent.name);
        assert!(own[&parent.id] >= 0.0);
    }
    assert!(out.spans.iter().any(|s| s.name == "synth.generate"));
    layer.into_iter().map(|(n, v, _, _)| (n, v)).collect()
}

#[test]
fn reorder_social_on_mini_rmat() {
    let layer = smoke(&ReorderSocial {
        entry: mini("mini-rmat"),
        boba_calls: 2,
        two_threads: true,
        gpu: GpuSpec::test_scale(),
    });
    for busy in ["reorder.detect_s", "reorder.detect_t2_s", "reorder.boba_s"] {
        assert!(layer[busy] > 0.0, "{busy}");
    }
    assert!(layer["reorder.modularity"] > 0.0);
    assert!(layer["reorder.rabbit_t2_medges_per_s"] > 0.0);
    assert_eq!(layer["cachesim.lru_s"], 0.0, "no cache simulation is timed");
}

#[test]
fn spmv_sim_on_mini_rmat() {
    let layer = smoke(&SpmvSim {
        entry: mini("mini-rmat"),
        gpu: GpuSpec::test_scale(),
    });
    for busy in ["cachesim.lru_s", "cachesim.belady_s", "reorder.rabbit_s"] {
        assert!(layer[busy] > 0.0, "{busy}");
    }
    assert!(layer["cachesim.belady_maccesses_per_s"] > 0.0);
    assert_eq!(
        layer["reorder.detect_s"], 0.0,
        "RABBIT is not split in set-up"
    );
}

#[test]
fn spgemm_block_on_mini_sbm() {
    let layer = smoke(&SpgemmBlock {
        entry: mini("mini-sbm"),
        gpu: GpuSpec::test_scale(),
    });
    assert!(layer["cachesim.spgemm_setup_s"] > 0.0);
    assert!(layer["cachesim.writebacks"] > 0.0, "SpGEMM writes C");
    assert!(layer["cachesim.acc_peak_cluster"] >= layer["cachesim.acc_peak_row"]);
}

#[test]
fn paper_suite_on_three_mini_matrices() {
    let layer = smoke(&PaperSuite {
        entries: ["mini-rmat", "mini-sbm", "mini-grid"].map(mini).to_vec(),
        gpu: GpuSpec::test_scale(),
        threads: 2,
    });
    for busy in ["reorder.gorder_s", "sparse.permute_s", "cachesim.lru_s"] {
        assert!(layer[busy] > 0.0, "{busy}");
    }
    // 21 jobs: the median has 10 samples beyond it, so a tail exists.
    assert!(layer["core.job_tail_s"] >= layer["core.job_p50_s"]);
    assert!(layer["exec.utilization"] > 0.0);
}

#[test]
fn seed_zero_keeps_the_published_inputs() {
    let entry = mini("mini-rmat");
    assert_eq!(reseeded(&entry, 0), entry);
    assert_ne!(reseeded(&entry, 1).seed, entry.seed);
}
