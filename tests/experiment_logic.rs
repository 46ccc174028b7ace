//! Library-level regression tests for the experiment binaries' core
//! computations, on tiny deterministic inputs — so a refactor that breaks
//! an experiment's logic fails `cargo test`, not just a human reading
//! its output.

use commorder::prelude::*;
use commorder::reorder::quality::{self, adjusted_rand_index};
use commorder::sparse::ops;
use commorder::synth::corpus;

fn webhub() -> CsrMatrix {
    corpus::mini()
        .into_iter()
        .find(|e| e.name == "mini-webhub")
        .expect("mini corpus entry exists")
        .generate()
        .expect("generates")
}

#[test]
fn fig3_logic_insularity_buckets_and_sorting() {
    // The fig3 binary sorts by insularity and splits at 0.95; verify the
    // split helper and the per-matrix quantities it feeds.
    let pairs = [(0.99, 1.1), (0.5, 2.0), (0.97, 1.2), (0.3, 3.0)];
    let split = InsularitySplit::from_pairs(&pairs);
    assert!((split.high - 1.15).abs() < 1e-12);
    assert!((split.low - 2.5).abs() < 1e-12);
    assert!((split.all - 1.825).abs() < 1e-12);
}

#[test]
fn fig6_logic_masked_insular_submatrix_is_near_compulsory() {
    // The fig6 binary masks to insular-incident entries, applies the
    // insular-grouped order, and expects ~compulsory traffic.
    let m = webhub();
    let cfg = RabbitPlusPlusConfig {
        group_insular: true,
        hub_policy: HubPolicy::None,
    };
    let result = RabbitPlusPlus::with_config(cfg).run(&m).expect("square");
    let masked = ops::mask_incident(&m, &result.insular).expect("validated");
    assert!(masked.nnz() > 0, "web matrix has insular structure");
    assert!(masked.nnz() < m.nnz(), "mask removes hub-incident entries");
    let reordered = masked
        .permute_symmetric(&result.permutation)
        .expect("validated");
    let run = Pipeline::new(GpuSpec::test_scale()).simulate(&reordered);
    assert!(
        run.traffic_ratio < 1.35,
        "insular sub-matrix should be near compulsory, got {}",
        run.traffic_ratio
    );
}

#[test]
fn table2_logic_design_space_labels_and_extremes() {
    // Table2 iterates the design space; RABBIT++ must not be the worst
    // configuration on a hub-heavy matrix, and HUBSORT without insular
    // grouping must not be the best.
    let m = webhub();
    let pipeline = Pipeline::new(GpuSpec::test_scale());
    let mut results = Vec::new();
    for config in RabbitPlusPlusConfig::design_space() {
        let eval = pipeline
            .evaluate(&m, &RabbitPlusPlus::with_config(config))
            .expect("square");
        results.push((config.label(), eval.run.time_ratio));
    }
    assert_eq!(results.len(), 6);
    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty")
        .0
        .clone();
    let worst = results
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty")
        .0
        .clone();
    assert_ne!(
        worst, "RABBIT+HUBGROUP (insular grouped)",
        "RABBIT++ must not be the worst config: {results:?}"
    );
    assert_ne!(
        best, "RABBIT+HUBSORT",
        "bare HUBSORT must not win (paper Table II): {results:?}"
    );
}

#[test]
fn fig9_logic_amortization_consistency() {
    // Amortization iterations = preprocess / per-iteration saving; the
    // gpumodel helper must agree with the hand computation the binary
    // relies on.
    let gpu = GpuSpec::test_scale();
    let (n, nnz) = (10_000u64, 100_000u64);
    let c = Kernel::SpmvCsr.compulsory_bytes(n, nnz);
    let iters = gpu
        .amortization_iterations(Kernel::SpmvCsr, n, nnz, 0.5, 2 * c, c)
        .expect("improvement exists");
    let saving = gpu.estimate_time(Kernel::SpmvCsr, n, nnz, 2 * c)
        - gpu.estimate_time(Kernel::SpmvCsr, n, nnz, c);
    assert!((iters - 0.5 / saving).abs() < 1e-9);
}

#[test]
fn extended_suite_logic_locality_ranks_match_traffic_ranks() {
    // The extended suite claims the simulator-free scorecard ranks
    // techniques like the simulator; verify on one matrix for the
    // extreme pair (RANDOM vs RABBIT).
    use commorder::reorder::locality::LocalityScore;
    let m = webhub();
    let pipeline = Pipeline::new(GpuSpec::test_scale());
    let mut measured = Vec::new();
    for technique in [&RandomOrder::new(3) as &dyn Reordering, &Rabbit::new()] {
        let perm = technique.reorder(&m).expect("square");
        let reordered = m.permute_symmetric(&perm).expect("validated");
        let traffic = pipeline.simulate(&reordered).traffic_ratio;
        let score = LocalityScore::measure(&reordered, 64);
        measured.push((traffic, score.windowed_reuse));
    }
    let (random, rabbit) = (&measured[0], &measured[1]);
    assert!(rabbit.0 < random.0, "simulator: rabbit beats random");
    assert!(rabbit.1 > random.1, "scorecard: rabbit beats random");
}

#[test]
fn detection_quality_on_every_mini_community_matrix() {
    // ARI against planted structure where ground truth is known: the
    // mini SBM is generated community-sorted before scrambling, so the
    // planted blocks are index ranges of the unscrambled matrix.
    let entry = corpus::mini()
        .into_iter()
        .find(|e| e.name == "mini-sbm")
        .expect("mini corpus entry exists");
    let tidy = entry.spec.generate(entry.seed).expect("generates");
    let detected = Rabbit::new().run(&tidy).expect("square").assignment;
    let planted: Vec<u32> = (0..tidy.n_rows())
        .map(|v| v / (tidy.n_rows() / 32))
        .collect();
    let ari = adjusted_rand_index(&detected, &planted).expect("equal lengths");
    assert!(
        ari > 0.7,
        "detection should recover planted blocks: ari = {ari}"
    );
}

#[test]
fn quality_metrics_agree_on_detected_structure() {
    // Modularity, insularity and insular fraction must tell one story.
    let m = webhub();
    let r = Rabbit::new().run(&m).expect("square");
    let sym = ops::symmetrize(&m).expect("square");
    let q = quality::modularity(&sym, &r.assignment).expect("validated");
    let ins = quality::insularity(&m, &r.assignment).expect("validated");
    let frac = quality::insular_fraction(&m, &r.assignment).expect("validated");
    assert!(q > 0.3, "web matrix has community structure: Q = {q}");
    assert!(ins > 0.5, "insularity = {ins}");
    assert!(frac > 0.0 && frac < 1.0, "insular fraction = {frac}");
}
