//! **SpGEMM study (beyond the paper)**: does insularity predict the
//! *cluster-wise* SpGEMM win the way it predicts SpMV wins?
//!
//! For every (square, flop-bounded) corpus matrix the study detects
//! RABBIT communities on the published order, replays the Gustavson
//! self-multiply `A x A` twice through the LRU model — row-by-row, and
//! cluster-wise with each community's rows executed as a block — and
//! reports the traffic win of the cluster-wise schedule next to the
//! matrix's insularity. The accumulator peaks (largest per-row vs.
//! largest per-community distinct-result-column footprint) expose the
//! mechanism: a community whose rows share result columns re-touches
//! hot accumulator lines instead of faulting new ones.
//!
//! The SpMV counterpart (traffic win of RABBIT reordering over the
//! published order) runs beside it so the two correlations are
//! measured on identical matrices.

use commorder::cachesim::source::simulate_lru;
use commorder::cachesim::SpGemmTrace;
use commorder::prelude::*;
use commorder::reorder::quality;
use commorder::sparse::kernels::spgemm_profile;
use commorder::sparse::stats::pearson;
use commorder_bench::Harness;

/// Matrices whose self-multiply exceeds this many flops are skipped —
/// the biggest skewed R-MATs cost minutes each through the LRU model
/// and add no statistical power the bounded set lacks.
const FLOP_CAP: u64 = 200_000_000;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let cases = harness.load();
    let pipeline = Pipeline::new(harness.gpu);

    struct Row {
        name: String,
        insularity: f64,
        spgemm_win: f64,
        spmv_win: f64,
        acc_peak_row: u64,
        acc_peak_cluster: u64,
    }

    let kept: Vec<_> = cases
        .iter()
        .filter(|case| {
            let flops = spgemm_profile(&case.matrix, &case.matrix)
                .map(|p| p.flops)
                .unwrap_or(u64::MAX);
            if flops > FLOP_CAP {
                eprintln!(
                    "[spgemm_study] skip {} ({flops} flops > {FLOP_CAP} cap)",
                    case.entry.name
                );
                false
            } else {
                true
            }
        })
        .collect();
    let skipped = cases.len() - kept.len();

    let mut rows: Vec<Row> = harness.engine().map(&kept, |_, case| {
        eprintln!("[spgemm_study] {}", case.entry.name);
        let m = &case.matrix;
        let result = Rabbit::new().run(m).expect("square corpus matrix");
        let insularity = quality::insularity(m, &result.assignment).expect("validated");

        let plain = SpGemmTrace::new(m, m, Kernel::SpGemmGustavson, None).expect("square");
        let clustered = SpGemmTrace::new(m, m, Kernel::SpGemmClusterWise, Some(&result.assignment))
            .expect("assignment covers every row");
        let plain_bytes = simulate_lru(harness.gpu.l2, &plain).dram_traffic_bytes();
        let cluster_bytes = simulate_lru(harness.gpu.l2, &clustered).dram_traffic_bytes();

        // SpMV counterpart on the same matrix: published order vs
        // RABBIT-reordered, same LRU model via the pipeline.
        let spmv_published = pipeline.simulate(m).dram_bytes;
        let spmv_reordered = pipeline
            .simulate_reordered(m, &result.permutation)
            .expect("validated")
            .dram_bytes;

        Row {
            name: case.entry.name.to_string(),
            insularity,
            spgemm_win: plain_bytes as f64 / cluster_bytes.max(1) as f64,
            spmv_win: spmv_published as f64 / spmv_reordered.max(1) as f64,
            acc_peak_row: plain.accumulator_peak(),
            acc_peak_cluster: clustered.accumulator_peak(),
        }
    });
    rows.sort_by(|a, b| a.insularity.partial_cmp(&b.insularity).expect("finite"));

    let mut table = Table::new(
        "SpGEMM study: cluster-wise traffic win vs insularity (A x A, LRU)",
        vec![
            "matrix".into(),
            "insularity".into(),
            "SpGEMM win".into(),
            "SpMV win".into(),
            "acc peak row".into(),
            "acc peak cluster".into(),
        ],
    );
    for r in &rows {
        table.add_row(vec![
            r.name.clone(),
            format!("{:.3}", r.insularity),
            Table::ratio(r.spgemm_win),
            Table::ratio(r.spmv_win),
            r.acc_peak_row.to_string(),
            r.acc_peak_cluster.to_string(),
        ]);
    }
    println!("{table}");
    if skipped > 0 {
        println!("({skipped} matrices skipped above the {FLOP_CAP}-flop cap)");
    }

    let ins: Vec<f64> = rows.iter().map(|r| r.insularity).collect();
    let spgemm: Vec<f64> = rows.iter().map(|r| r.spgemm_win).collect();
    let spmv: Vec<f64> = rows.iter().map(|r| r.spmv_win).collect();
    let r_spgemm = pearson(&ins, &spgemm);
    let r_spmv = pearson(&ins, &spmv);
    println!(
        "Pearson r (insularity vs win): SpGEMM cluster-wise {} | SpMV RABBIT {}",
        r_spgemm.map_or("n/a".to_string(), |r| format!("{r:.3}")),
        r_spmv.map_or("n/a".to_string(), |r| format!("{r:.3}")),
    );
}
