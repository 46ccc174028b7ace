//! Graph-analytics scenario: PageRank and BFS before and after
//! reordering — the paper's claim that reordering is a pre-processing
//! optimization for *irregular workloads in general*, demonstrated on
//! the workload family RABBIT originally came from.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use commorder::cachesim::graph_trace::{BfsTrace, PagerankTrace};
use commorder::prelude::*;
use commorder::reorder::advisor::{Advisor, Budget};
use commorder::sparse::graph::pagerank;
use commorder::synth::generators::CommunityHub;

fn simulate(gpu: &GpuSpec, source: &dyn TraceSource) -> (f64, f64) {
    let mut cache = LruCache::new(gpu.l2);
    cache.consume(source);
    let stats = cache.finish();
    (stats.dram_traffic_bytes() as f64 / 1e6, stats.hit_rate())
}

fn main() -> Result<(), commorder::sparse::SparseError> {
    let matrix = CommunityHub {
        n: 16_384,
        communities: 128,
        intra_degree: 10.0,
        hub_fraction: 0.02,
        hub_degree: 24.0,
        mixing: 0.1,
        scramble_ids: true,
    }
    .generate(7)?;
    println!(
        "web-like graph: {} vertices, {} edges",
        matrix.n_rows(),
        matrix.nnz() / 2
    );

    // Ask the advisor what to run (it inspects skew/insularity itself).
    let rec = Advisor::default().recommend(&matrix, Budget::Amortized)?;
    println!("advisor: {} — {}\n", rec.technique.name(), rec.rationale);
    let reordered = matrix.permute_symmetric(&rec.technique.reorder(&matrix)?)?;

    let gpu = GpuSpec::test_scale();
    let mut table = Table::new(
        "graph kernels on the simulated L2",
        vec![
            "kernel".into(),
            "before (MB, hit rate)".into(),
            "after (MB, hit rate)".into(),
        ],
    );
    let (mb_a, hr_a) = simulate(&gpu, &PagerankTrace::new(&matrix, 3)?);
    let (mb_b, hr_b) = simulate(&gpu, &PagerankTrace::new(&reordered, 3)?);
    table.add_row(vec![
        "PageRank x3".into(),
        format!("{mb_a:.1} MB, {}", Table::percent(hr_a)),
        format!("{mb_b:.1} MB, {}", Table::percent(hr_b)),
    ]);
    let (mb_a, hr_a) = simulate(&gpu, &BfsTrace::new(&matrix, 0)?);
    let (mb_b, hr_b) = simulate(&gpu, &BfsTrace::new(&reordered, 0)?);
    table.add_row(vec![
        "BFS".into(),
        format!("{mb_a:.1} MB, {}", Table::percent(hr_a)),
        format!("{mb_b:.1} MB, {}", Table::percent(hr_b)),
    ]);
    println!("{table}");

    // The numerics are untouched: top-ranked pages keep their ranks.
    let pr = pagerank(&matrix, 0.85, 20)?;
    let top = pr.iter().cloned().fold(0f32, f32::max);
    println!("top PageRank score (order-independent): {top:.6}");
    Ok(())
}
