//! The execution engine's determinism guarantee, end to end: the
//! experiment report is a pure function of the [`ExperimentSpec`] — the
//! worker count, scheduling order and grid declaration order must never
//! leak into the results.

use commorder::prelude::*;
use commorder::synth::corpus;
use commorder_check::propcheck::run_cases;

/// A small real grid: the first three mini-corpus matrices x four
/// techniques on the test-scale platform.
fn mini_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(GpuSpec::test_scale()).techniques(vec![
        Box::new(RandomOrder::new(7)),
        Box::new(Original),
        Box::new(Rabbit::new()),
        Box::new(RabbitPlusPlus::new()),
    ]);
    for entry in corpus::mini().into_iter().take(3) {
        let matrix = entry.generate().expect("mini corpus generates");
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    spec
}

#[test]
fn report_json_is_byte_identical_for_1_2_and_8_threads() {
    let reference = mini_spec()
        .run(&Engine::new(1))
        .expect("valid grid")
        .render_json();
    for threads in [2usize, 8] {
        let json = mini_spec()
            .run(&Engine::new(threads))
            .expect("valid grid")
            .render_json();
        assert_eq!(
            json, reference,
            "report JSON diverged at {threads} worker threads"
        );
    }
    // The report must carry data and never scheduling observability.
    assert!(reference.contains("\"records\""));
    assert!(!reference.contains("seconds"));
    assert!(!reference.contains("worker"));
}

#[test]
fn record_values_and_permutations_match_across_thread_counts() {
    let reference = mini_spec().run(&Engine::new(1)).expect("valid grid");
    let wide = mini_spec().run(&Engine::new(8)).expect("valid grid");
    assert_eq!(reference.records.len(), wide.records.len());
    for (a, b) in reference.records.iter().zip(&wide.records) {
        assert_eq!(
            (a.matrix, a.technique, a.kernel),
            (b.matrix, b.technique, b.kernel)
        );
        assert_eq!(a.run, b.run);
    }
    assert_eq!(reference.permutations, wide.permutations);
}

#[test]
fn grid_declaration_order_never_affects_per_run_stats() {
    // Propcheck: submit the same cells in a shuffled axis order and
    // verify every (matrix, technique) cell reports identical stats —
    // jobs must not observe each other through scheduling.
    let techniques: &[fn() -> Box<dyn Reordering>] = &[
        || Box::new(RandomOrder::new(7)),
        || Box::new(Original),
        || Box::new(Rabbit::new()),
        || Box::new(RabbitPlusPlus::new()),
    ];
    let entries: Vec<_> = corpus::mini().into_iter().take(3).collect();
    let matrices: Vec<(String, CsrMatrix)> = entries
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.generate().expect("mini corpus generates"),
            )
        })
        .collect();

    let run_order = |matrix_order: &[usize], technique_order: &[usize]| -> ExperimentResult {
        let mut spec = ExperimentSpec::new(GpuSpec::test_scale());
        for &mi in matrix_order {
            spec = spec.matrix(matrices[mi].0.clone(), matrices[mi].1.clone());
        }
        for &ti in technique_order {
            spec = spec.technique(techniques[ti]());
        }
        spec.run(&Engine::new(4)).expect("valid grid")
    };
    let reference = run_order(&[0, 1, 2], &[0, 1, 2, 3]);

    run_cases("grid-order-invariance", 6, |rng| {
        // A random permutation of each axis (Fisher–Yates on indices).
        let shuffle = |n: usize, rng: &mut commorder::synth::rng::Rng| -> Vec<usize> {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            order
        };
        let matrix_order = shuffle(matrices.len(), rng);
        let technique_order = shuffle(techniques.len(), rng);
        let shuffled = run_order(&matrix_order, &technique_order);

        for (smi, &mi) in matrix_order.iter().enumerate() {
            for (sti, &ti) in technique_order.iter().enumerate() {
                let got = shuffled.run_for(smi, sti);
                let want = reference.run_for(mi, ti);
                assert_eq!(
                    got.run, want.run,
                    "cell ({}, {}) changed under grid order {matrix_order:?} x {technique_order:?}",
                    matrices[mi].0, reference.techniques[ti],
                );
                assert_eq!(
                    shuffled.permutations[smi][sti], reference.permutations[mi][ti],
                    "permutation for ({}, {}) changed under reordering of the grid",
                    matrices[mi].0, reference.techniques[ti],
                );
            }
        }
    });
}

/// The record lines of a rendered report, in record order.
fn record_lines(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|line| line.trim_start().starts_with("{\"matrix\""))
        .map(|line| line.trim_end_matches(','))
        .collect()
}

#[test]
fn shared_detection_grid_matches_one_spec_per_technique() {
    // The grid derives all seven RABBIT-family techniques below from one
    // detection per matrix; running each alone, with its own detection,
    // must give the same cells and permutations.
    let family = || -> Vec<Box<dyn Reordering>> {
        let mut techniques: Vec<Box<dyn Reordering>> = RabbitPlusPlusConfig::design_space()
            .into_iter()
            .map(|config| Box::new(RabbitPlusPlus::with_config(config)) as Box<dyn Reordering>)
            .collect();
        techniques.push(Box::new(Rabbit::new()));
        techniques
    };
    let with_matrices = |mut spec: ExperimentSpec| {
        for entry in corpus::mini().into_iter().take(3) {
            let matrix = entry.generate().expect("mini corpus generates");
            spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
        }
        spec
    };
    let engine = Engine::new(2);
    let shared = with_matrices(ExperimentSpec::new(GpuSpec::test_scale()).techniques(family()))
        .run(&engine)
        .expect("valid grid");
    assert_eq!(shared.stats.jobs, 3, "one job per matrix");
    let shared_json = shared.render_json();
    let shared_lines = record_lines(&shared_json);
    let n_techniques = shared.techniques.len();
    for (ti, technique) in family().into_iter().enumerate() {
        let alone = with_matrices(ExperimentSpec::new(GpuSpec::test_scale()).technique(technique))
            .run(&engine)
            .expect("valid grid");
        let alone_json = alone.render_json();
        for (mi, line) in record_lines(&alone_json).into_iter().enumerate() {
            assert_eq!(shared_lines[mi * n_techniques + ti], line);
            assert_eq!(shared.permutations[mi][ti], alone.permutations[mi][0]);
        }
    }
}

/// The compile-time Send/Sync audit backing the engine: everything a
/// job closure captures must cross threads.
#[test]
fn experiment_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LruCache>();
    assert_send_sync::<CacheStats>();
    assert_send_sync::<CacheConfig>();
    assert_send_sync::<ExecutionModel>();
    assert_send_sync::<commorder::cachesim::Access>();
    assert_send_sync::<Pipeline>();
    assert_send_sync::<Box<dyn Reordering>>();
    assert_send_sync::<ExperimentResult>();
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineStats>();
}
