//! Property-based tests for the reordering crate: every technique yields
//! a bijection on arbitrary graphs, community metrics respect their
//! bounds, and RABBIT++'s segment layout laws hold.
//!
//! Driven by the offline `commorder_check::propcheck` harness.

use commorder_check::propcheck::{
    arb_csr, arb_graph, arb_mirrored, brute_union, run_cases, DEFAULT_CASES,
};
use commorder_exec::Engine;
use commorder_reorder::{
    community::{detect, DetectionConfig},
    quality, Bisection, Boba, Dbg, DegSort, FlatCommunity, Gorder, HubGroup, HubPolicy, HubSort,
    LabelPropagation, Original, Rabbit, RabbitPlusPlus, RabbitPlusPlusConfig, RandomOrder, Rcm,
    RcmPlusPlus, ReorderContext, Reordering, SlashBurn,
};
use commorder_sparse::{ops, CsrMatrix, SparseError};
use commorder_synth::corpus;

fn all_techniques() -> Vec<Box<dyn Reordering>> {
    vec![
        Box::new(Original),
        Box::new(RandomOrder::new(7)),
        Box::new(DegSort),
        Box::new(Dbg::default()),
        Box::new(HubSort),
        Box::new(HubGroup),
        Box::new(Rcm),
        Box::new(Gorder::default()),
        Box::new(Rabbit::new()),
        Box::new(RabbitPlusPlus::new()),
        Box::new(SlashBurn::default()),
        Box::new(Bisection::default()),
        Box::new(LabelPropagation::default()),
        Box::new(FlatCommunity::new(11)),
        Box::new(Boba),
        Box::new(RcmPlusPlus::default()),
    ]
}

#[test]
fn every_technique_is_total_and_bijective() {
    run_cases("techniques-bijective", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 30, 4);
        for technique in all_techniques() {
            let p = technique.reorder(&g).expect("square input must succeed");
            assert_eq!(p.len(), g.n_rows() as usize, "{}", technique.name());
            let r = g.permute_symmetric(&p).expect("valid perm");
            assert_eq!(r.nnz(), g.nnz(), "{}", technique.name());
            assert!(r.is_symmetric(), "{}", technique.name());
        }
    });
}

#[test]
fn reorder_with_matches_serial_reorder_at_any_thread_count() {
    // The context API's determinism contract: for every registered
    // technique, the permutation is a pure function of the matrix,
    // never of the engine width.
    run_cases("techniques-thread-invariant", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 26, 4);
        let threads = 1 + rng.gen_u32(8) as usize;
        let engine = Engine::new(threads);
        let cx = ReorderContext::new(&engine, 0xC0DE);
        for technique in all_techniques() {
            let serial = technique.reorder(&g).expect("square");
            let parallel = technique.reorder_with(&g, &cx).expect("square");
            assert_eq!(
                serial,
                parallel,
                "{} diverged at {threads} threads",
                technique.name()
            );
        }
    });
}

#[test]
fn rabbit_family_derivations_equal_standalone_reorders_on_the_mini_corpus() {
    // The experiment grid detects once per matrix and derives every
    // RABBIT-family technique from that one result; each derivation must
    // equal the technique's standalone run byte for byte.
    let mut family: Vec<Box<dyn Reordering>> =
        vec![Box::new(Rabbit::new()), Box::new(FlatCommunity::new(11))];
    for config in RabbitPlusPlusConfig::design_space() {
        family.push(Box::new(RabbitPlusPlus::with_config(config)));
    }
    for entry in corpus::mini() {
        let a = entry.generate().expect("mini corpus generates");
        let detection = Rabbit::new().run(&a).expect("square");
        for technique in &family {
            let name = format!("{} on {}", technique.name(), entry.name);
            assert_eq!(
                technique.detection(),
                Some(DetectionConfig::default()),
                "{name}"
            );
            let derived = technique.derive(&a, &detection).expect("square");
            assert_eq!(derived, technique.reorder(&a).expect("square"), "{name}");
        }
    }
    for technique in all_techniques() {
        let family_member = ["RABBIT", "RABBIT++", "RABBIT-FLAT"].contains(&technique.name());
        assert_eq!(
            technique.detection().is_some(),
            family_member,
            "{}",
            technique.name()
        );
    }
}

#[test]
fn every_technique_is_deterministic() {
    run_cases("techniques-deterministic", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 22, 4);
        for technique in all_techniques() {
            let a = technique.reorder(&g).expect("square");
            let b = technique.reorder(&g).expect("square");
            assert_eq!(a, b, "{} not deterministic", technique.name());
        }
    });
}

#[test]
fn dendrogram_assignment_and_order_are_consistent() {
    run_cases("dendrogram-consistent", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 30, 4);
        let d = detect(&g, DetectionConfig::default()).expect("square");
        let comm = d.assignment();
        let order = d.dfs_order();
        // dfs_order is a permutation of all vertices.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..g.n_rows()).collect::<Vec<_>>());
        // Communities are contiguous runs in the order.
        let mut seen = std::collections::HashSet::new();
        let mut prev = u32::MAX;
        for &v in &order {
            let c = comm[v as usize];
            if c != prev {
                assert!(seen.insert(c), "community {c} fragmented");
                prev = c;
            }
        }
        // Sizes sum to n.
        let total: u32 = d.community_sizes().iter().sum();
        assert_eq!(total, g.n_rows());
    });
}

#[test]
fn singleton_assignment_has_zero_insularity_iff_edges_exist() {
    run_cases("singleton-insularity", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 22, 3);
        let singletons: Vec<u32> = (0..g.n_rows()).collect();
        let ins = quality::insularity(&g, &singletons).expect("validated");
        if g.nnz() == 0 {
            assert_eq!(ins, 1.0);
        } else {
            // No self loops in arb_graph, so no intra edges.
            assert_eq!(ins, 0.0);
        }
    });
}

#[test]
fn one_community_maximizes_insularity_minimizes_modularity_gap() {
    run_cases("blob-community", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 22, 3);
        let blob = vec![0u32; g.n_rows() as usize];
        assert_eq!(quality::insularity(&g, &blob).expect("validated"), 1.0);
        let sym = ops::symmetrize(&g).expect("square");
        let q = quality::modularity(&sym, &blob).expect("validated");
        assert!(q.abs() < 1e-9, "single blob modularity must be 0, got {q}");
    });
}

#[test]
fn detected_modularity_not_worse_than_singletons() {
    run_cases("modularity-improves", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 30, 4);
        let sym = ops::symmetrize(&g).expect("square");
        let d = detect(&sym, DetectionConfig::default()).expect("square");
        let detected = quality::modularity(&sym, &d.assignment()).expect("validated");
        let singles: Vec<u32> = (0..sym.n_rows()).collect();
        let baseline = quality::modularity(&sym, &singles).expect("validated");
        // Each merge required a positive gain, so Q can only have grown.
        assert!(detected >= baseline - 1e-9, "{detected} < {baseline}");
    });
}

#[test]
fn rabbitpp_design_space_all_valid() {
    run_cases("rabbitpp-design-space", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 22, 4);
        for config in RabbitPlusPlusConfig::design_space() {
            let r = RabbitPlusPlus::with_config(config).run(&g).expect("square");
            assert_eq!(r.permutation.len(), g.n_rows() as usize);
            // Hub segment must be sorted by decreasing degree under Sort.
            if config.hub_policy == HubPolicy::Sort && !config.group_insular {
                let inv = r.permutation.inverse();
                let degrees = g.in_degrees();
                let hub_count = r.hubs.iter().filter(|&&h| h).count() as u32;
                let mut prev = u32::MAX;
                for new_id in 0..hub_count {
                    let d = degrees[inv.new_of(new_id) as usize];
                    assert!(d <= prev);
                    prev = d;
                }
            }
        }
    });
}

#[test]
fn insular_nodes_never_touch_other_communities() {
    run_cases("insular-no-cross-edges", DEFAULT_CASES, |rng| {
        let g = arb_graph(rng, 30, 4);
        let r = Rabbit::new().run(&g).expect("square");
        let mask = quality::insular_nodes(&g, &r.assignment).expect("validated");
        for (row, col, _) in g.iter() {
            if mask[row as usize] {
                assert_eq!(
                    r.assignment[row as usize], r.assignment[col as usize],
                    "insular node {row} has a cross-community edge"
                );
            }
        }
    });
}

/// The error a detection that materializes `A ∪ Aᵀ` reports: the first
/// non-finite weight of `a` in row-major order, else the first of the
/// undirected union.
fn materialized_union_error(a: &CsrMatrix) -> Option<SparseError> {
    let non_finite = |(row, col, w): (u32, u32, f32)| (!w.is_finite()).then_some((row, col));
    a.iter()
        .find_map(non_finite)
        .or_else(|| brute_union(a, false).into_iter().find_map(non_finite))
        .map(|(row, col)| SparseError::NonFiniteValue { row, col })
}

#[test]
fn detection_reports_the_non_finite_weight_a_materialized_union_would() {
    run_cases("detect-non-finite-parity", DEFAULT_CASES, |rng| {
        let m = match rng.gen_u32(3) {
            0 => arb_csr(rng, 30, 3),
            shape => arb_mirrored(rng, 30, 3, shape == 2),
        };
        let mut values = m.values().to_vec();
        match rng.gen_u32(3) {
            // One NaN anywhere, the diagonal included.
            0 if !values.is_empty() => {
                let k = rng.gen_range(values.len() as u64) as usize;
                values[k] = f32::NAN;
            }
            // Every value finite but above f32::MAX / 2: a mirrored pair
            // doubles to infinity, a directed pair of one sign overflows
            // in a + aᵀ, and a pair of opposite signs cancels.
            1 => values.iter_mut().for_each(|v| *v = v.signum() * 2e38),
            _ => {}
        }
        let m = CsrMatrix::new(
            m.n_rows(),
            m.n_cols(),
            m.row_offsets().to_vec(),
            m.col_indices().to_vec(),
            values,
        )
        .expect("same structure");
        let got = detect(&m, DetectionConfig::default()).err();
        assert_eq!(got, materialized_union_error(&m), "on {m:?}");
    });
}

#[test]
fn detection_error_parity_on_the_three_error_shapes() {
    let m = |rows: Vec<u32>, cols: Vec<u32>, vals: Vec<f32>| {
        CsrMatrix::new(3, 3, rows, cols, vals).expect("valid CSR")
    };
    let cases = [
        // A NaN below the diagonal: reported where `a` stores it, not at
        // its mirror in the earlier row.
        m(
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![1.0, 1.0, 1.0, f32::NAN],
        ),
        // A directed pair whose f32 sum overflows: the transpose path.
        m(vec![0, 1, 2, 2], vec![1, 0], vec![3e38, 3.1e38]),
        // A mirrored value above f32::MAX / 2 doubles to infinity.
        m(
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![1.0, 1.0, 2e38, 2e38],
        ),
    ];
    let want = [(2, 1), (0, 1), (1, 2)];
    for (a, (row, col)) in cases.iter().zip(want) {
        let expected = Some(SparseError::NonFiniteValue { row, col });
        assert_eq!(materialized_union_error(a), expected);
        assert_eq!(detect(a, DetectionConfig::default()).err(), expected);
    }
    assert_eq!(ops::is_mirrored(&cases[1]), Ok(false));
    assert_eq!(ops::is_mirrored(&cases[2]), Ok(true));
}
