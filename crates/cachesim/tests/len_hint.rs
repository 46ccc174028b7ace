//! `KernelTrace::len_hint` is exact wherever it answers: on every
//! mini-tier corpus matrix and a few degenerate shapes, under the
//! sequential and two interleaved execution models, a kernel's hint
//! must equal the length of its replay (CHK1002). SpMV-CSR, SpMV-COO
//! and SpMM-CSR always answer; the tiled and blocked kernels never do.
//!
//! `KernelTrace::extent_hint` answers for every kernel here and bounds
//! every access of the replay. For SpMV-CSR, SpMV-COO and SpMM-CSR it
//! is tight: the replay's last touched 32-byte line is the hint's last.

use commorder_cachesim::source::{KernelTrace, TraceSource};
use commorder_cachesim::trace::ExecutionModel;
use commorder_check::check_stream_equivalence;
use commorder_sparse::traffic::Kernel;
use commorder_sparse::{CsrMatrix, ELEM_BYTES};
use commorder_synth::corpus;

/// The line size every trace's address map is aligned to.
const LINE: u64 = 32;

const MODELS: [ExecutionModel; 3] = [
    ExecutionModel::Sequential,
    ExecutionModel::Interleaved { streams: 1 },
    ExecutionModel::Interleaved { streams: 8 },
];

/// The kernels under test, each with whether its hint must be `Some`.
fn kernels() -> Vec<(Kernel, bool)> {
    let mut kernels = vec![(Kernel::SpmvCsr, true), (Kernel::SpmvCoo, true)];
    kernels.extend([1, 8, 16, 33].map(|k| (Kernel::SpmmCsr { k }, true)));
    kernels.push((Kernel::SpmvCsrTiled { tile_cols: 64 }, false));
    kernels.push((Kernel::SpmvBlocked { bins: 4 }, false));
    kernels
}

fn check_hints(name: &str, a: &CsrMatrix) {
    for (kernel, hinted) in kernels() {
        for model in MODELS {
            let source = KernelTrace::new(a, kernel, model);
            let what = format!("{name} {kernel:?} {model:?}");
            assert_eq!(source.len_hint().is_some(), hinted, "{what}");
            let trace = source.collect_trace();
            let diagnostics = check_stream_equivalence(&source, &trace);
            assert!(diagnostics.is_empty(), "{what}: {diagnostics:?}");
            let extent = source
                .extent_hint()
                .expect("one-operand kernels state their extent");
            let top = trace.iter().map(|acc| acc.addr() + ELEM_BYTES).max();
            assert!(
                top.unwrap_or(0) <= extent,
                "{what}: {top:?} beyond {extent}"
            );
            if hinted {
                if let Some(top) = top {
                    assert_eq!((top - 1) / LINE, (extent - 1) / LINE, "{what}: last line");
                }
            }
        }
    }
}

#[test]
fn hints_match_replays_on_the_mini_corpus() {
    for entry in corpus::mini() {
        check_hints(
            entry.name,
            &entry.generate().expect("mini-tier entries generate"),
        );
    }
}

#[test]
fn hints_match_replays_on_degenerate_shapes() {
    let empty = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
    check_hints("0x0", &empty);
    // Rows 0, 2 and 4 of five are empty.
    let holes = CsrMatrix::new(
        5,
        5,
        vec![0, 0, 2, 2, 5, 5],
        vec![1, 3, 0, 2, 4],
        vec![1.0; 5],
    );
    check_hints("empty rows", &holes.unwrap());
    // Rectangular both ways: `ArrayLayout` sizes `X` and `B` by the
    // column count and `Y` and `C` by the row count.
    let tall = CsrMatrix::new(
        6,
        2,
        vec![0, 1, 1, 3, 3, 4, 4],
        vec![1, 0, 1, 0],
        vec![1.0; 4],
    );
    check_hints("6x2", &tall.unwrap());
    let wide = CsrMatrix::new(2, 7, vec![0, 2, 3], vec![0, 6, 3], vec![1.0; 3]);
    check_hints("2x7", &wide.unwrap());
    let wider = CsrMatrix::new(2, 40, vec![0, 2, 5], vec![0, 39, 17, 20, 39], vec![1.0; 5]);
    check_hints("2x40", &wider.unwrap());
}
