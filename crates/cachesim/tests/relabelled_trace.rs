//! The relabelled kernel trace is the materialized one: on every
//! mini-tier corpus matrix and a few degenerate shapes, under the
//! identity, reversed, RANDOM and RABBIT orders, replaying
//! `KernelTrace::relabelled(a, p, ..)` emits exactly the accesses of
//! `KernelTrace::new(&a.permute_symmetric(p)?, ..)`, in the same order
//! (CHK1001), with the same length hint (CHK1002). SpMV-CSR, SpMV-COO
//! and SpMM-CSR are covered under the sequential and two interleaved
//! execution models.

use commorder_cachesim::source::{KernelTrace, TraceSource};
use commorder_cachesim::trace::ExecutionModel;
use commorder_check::check_stream_equivalence;
use commorder_reorder::{Rabbit, RandomOrder, Reordering};
use commorder_sparse::traffic::Kernel;
use commorder_sparse::{CsrMatrix, Permutation};
use commorder_synth::corpus;

const MODELS: [ExecutionModel; 3] = [
    ExecutionModel::Sequential,
    ExecutionModel::Interleaved { streams: 1 },
    ExecutionModel::Interleaved { streams: 8 },
];

const KERNELS: [Kernel; 5] = [
    Kernel::SpmvCsr,
    Kernel::SpmvCoo,
    Kernel::SpmmCsr { k: 1 },
    Kernel::SpmmCsr { k: 8 },
    Kernel::SpmmCsr { k: 33 },
];

fn orders(a: &CsrMatrix) -> Vec<(&'static str, Permutation)> {
    let n = a.n_rows();
    let reversed = Permutation::from_new_ids((0..n).rev().collect()).expect("bijection");
    vec![
        ("identity", Permutation::identity(n as usize)),
        ("reversed", reversed),
        (
            "RANDOM",
            RandomOrder::new(0xC0DE).reorder(a).expect("square"),
        ),
        ("RABBIT", Rabbit::new().reorder(a).expect("square")),
    ]
}

fn check_relabelled(name: &str, a: &CsrMatrix) {
    for (order, p) in orders(a) {
        let permuted = a.permute_symmetric(&p).expect("square");
        for kernel in KERNELS {
            for model in MODELS {
                let what = format!("{name} {order} {kernel:?} {model:?}");
                let materialized = KernelTrace::new(&permuted, kernel, model);
                let relabelled = KernelTrace::relabelled(a, &p, kernel, model).expect("square");
                assert_eq!(relabelled.len_hint(), materialized.len_hint(), "{what}");
                let diagnostics =
                    check_stream_equivalence(&relabelled, &materialized.collect_trace());
                assert!(diagnostics.is_empty(), "{what}: {diagnostics:?}");
            }
        }
    }
}

#[test]
fn relabelled_traces_equal_materialized_ones_on_the_mini_corpus() {
    let entries = corpus::mini();
    assert!(!entries.is_empty());
    for entry in entries {
        let a = entry.generate().expect("corpus entries generate");
        check_relabelled(entry.name, &a);
    }
}

#[test]
fn relabelled_traces_equal_materialized_ones_on_degenerate_shapes() {
    check_relabelled("0x0", &CsrMatrix::empty(0));
    check_relabelled("edgeless", &CsrMatrix::empty(5));
    // Rows 1, 3 and 5 are empty; the interleaved COO chunks start inside
    // rows and cross the empty ones.
    let holes = CsrMatrix::new(
        6,
        6,
        vec![0, 3, 3, 5, 5, 8, 8],
        vec![1, 4, 5, 0, 4, 0, 2, 3],
        vec![1.0; 8],
    )
    .expect("valid CSR");
    check_relabelled("empty-rows", &holes);
}

#[test]
fn relabelling_rejects_what_permuting_rejects_and_row_order_kernels_only() {
    let a = CsrMatrix::empty(4);
    let model = ExecutionModel::Sequential;
    let short = Permutation::identity(3);
    assert!(KernelTrace::relabelled(&a, &short, Kernel::SpmvCsr, model).is_err());
    let wide = CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).expect("valid CSR");
    let one = Permutation::identity(1);
    assert!(KernelTrace::relabelled(&wide, &one, Kernel::SpmvCsr, model).is_err());
    let p = Permutation::identity(4);
    for kernel in [
        Kernel::SpmvCsrTiled { tile_cols: 2 },
        Kernel::SpmvBlocked { bins: 2 },
        Kernel::SpGemmGustavson,
        Kernel::SpGemmClusterWise,
    ] {
        assert!(
            KernelTrace::relabelled(&a, &p, kernel, model).is_err(),
            "{kernel:?}"
        );
    }
}
