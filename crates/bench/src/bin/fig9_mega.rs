//! **Figure 9 at the mega tier**: reordering (pre-processing) time as
//! the matrix grows into the streamed million-row regime, for RABBIT,
//! RABBIT++ and BOBA, each run through [`Reordering::reorder_with`]
//! with a serial context and with the harness engine.
//!
//! The original Fig. 9 sweep (`fig9`) tops out at 262k rows because its
//! generators materialize edge lists; this study stream-generates
//! community graphs straight into CSR, so the sweep extends to 2M rows
//! while the resident set stays bounded by the final matrix. Each cell
//! reports both wall times and verifies the two permutations are
//! byte-identical (the determinism contract of the reorder context
//! API). Every reorder phase is currently one serial loop, so the two
//! columns time the same work until community detection gains a
//! parallel mode.

use std::time::Instant;

use commorder::prelude::*;
use commorder::reorder::ReorderContext;
use commorder::synth::stream::{stream_undirected_csr, StreamedCommunity};
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let engine = harness.engine();

    // Streamed sweep: same community shape, scaled by an order of
    // magnitude past the standard corpus ceiling.
    let sizes: &[u32] = if harness.entries.len() <= 8 {
        &[65_536, 262_144] // mini corpus => quick sweep
    } else {
        &[262_144, 1_048_576, 2_097_152]
    };

    let mut table = Table::new(
        "Fig. 9 (mega): reordering time vs matrix size, serial vs engine context",
        vec![
            "n".into(),
            "nnz".into(),
            "RABBIT".into(),
            "RABBIT par".into(),
            "RABBIT++".into(),
            "RABBIT++ par".into(),
            "BOBA".into(),
            "BOBA par".into(),
        ],
    );

    for &n in sizes {
        eprintln!("[fig9_mega] n = {n} (streamed)");
        let generator = StreamedCommunity {
            n,
            communities: (n / 256).max(1),
            intra_degree: 6.0,
            mixing: 0.05,
        };
        let matrix = stream_undirected_csr(&generator, u64::from(n)).expect("valid stream config");

        let techniques: Vec<Box<dyn Reordering>> = vec![
            Box::new(Rabbit::new()),
            Box::new(RabbitPlusPlus::new()),
            Box::new(Boba),
        ];
        let mut row = vec![n.to_string(), matrix.nnz().to_string()];
        for technique in &techniques {
            let serial_cx = ReorderContext::serial(harness.random_seed);
            let start = Instant::now();
            let serial = technique
                .reorder_with(&matrix, &serial_cx)
                .expect("square matrix");
            let serial_seconds = start.elapsed().as_secs_f64();

            let parallel_cx = ReorderContext::new(&engine, harness.random_seed);
            let start = Instant::now();
            let parallel = technique
                .reorder_with(&matrix, &parallel_cx)
                .expect("square matrix");
            let parallel_seconds = start.elapsed().as_secs_f64();

            assert_eq!(
                serial,
                parallel,
                "{} permutation must be thread-count-invariant at n = {n}",
                technique.name()
            );
            row.push(Table::seconds(serial_seconds));
            row.push(Table::seconds(parallel_seconds));
        }
        table.add_row(row);
    }
    println!("{table}");
    println!(
        "Paper shape: community-based reordering keeps scaling linearly past the \
         materialized-corpus ceiling. Every reorder phase is one serial loop, \
         so the par columns (an engine of {} worker(s)) time the same work as \
         the serial ones, with byte-identical permutations. BOBA is the lightweight \
         reference: one first-touch pass over the edge stream, orders of \
         magnitude cheaper than community detection.",
        engine.threads()
    );
}
