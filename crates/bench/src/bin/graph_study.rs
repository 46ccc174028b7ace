//! **Extension**: graph analytics — the other half of the paper's
//! "irregular memory access workloads" framing (and the domain RABBIT
//! was invented for).
//!
//! Simulates PageRank (3 pull iterations) and level-synchronous BFS on
//! the L2 under RANDOM / RABBIT / RABBIT++ orders. PageRank's repeated
//! sweeps amplify the reordering payoff (the pre-processing §VI-C
//! amortization argument in kernel form); BFS shows the effect on a
//! frontier-driven, data-dependent access pattern.

use commorder::cachesim::graph_trace::{BfsTrace, PagerankTrace};
use commorder::prelude::*;
use commorder_bench::Harness;

fn simulate(gpu: &GpuSpec, source: &dyn TraceSource) -> (u64, f64) {
    let mut cache = LruCache::new(gpu.l2);
    cache.consume(source);
    let stats = cache.finish();
    (stats.dram_traffic_bytes(), stats.hit_rate())
}

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let subset: Vec<&str> = if harness.entries.len() <= 8 {
        vec!["mini-sbm", "mini-webhub", "mini-grid"]
    } else {
        vec![
            "opt-block-512",
            "web-stackex",
            "road-grid-messy",
            "soc-rmat-65k",
        ]
    };
    let cases = harness.load_subset(&subset);

    for case in &cases {
        eprintln!("[graph_study] {}", case.entry.name);
        let mut table = Table::new(
            format!("{}: graph kernels on the simulated L2", case.entry.name),
            vec![
                "ordering".into(),
                "PageRank MB".into(),
                "PR hit rate".into(),
                "BFS MB".into(),
                "BFS hit rate".into(),
            ],
        );
        let orderings: Vec<Box<dyn Reordering>> = vec![
            Box::new(RandomOrder::new(harness.random_seed)),
            Box::new(Rabbit::new()),
            Box::new(RabbitPlusPlus::new()),
        ];
        let results = harness.engine().map(&orderings, |_, ordering| {
            let perm = ordering
                .reorder(&case.matrix)
                .expect("square corpus matrix");
            let m = case.matrix.permute_symmetric(&perm).expect("validated");
            let (pr_bytes, pr_hit) = simulate(
                &harness.gpu,
                &PagerankTrace::new(&m, 3).expect("square corpus matrix"),
            );
            // BFS from the (reordered) vertex with the highest degree —
            // a deterministic, component-covering start.
            let degrees = m.out_degrees();
            let source = (0..m.n_rows())
                .max_by_key(|&v| degrees[v as usize])
                .expect("non-empty corpus matrix");
            let (bfs_bytes, bfs_hit) = simulate(
                &harness.gpu,
                &BfsTrace::new(&m, source).expect("source in range"),
            );
            (
                ordering.name().to_string(),
                pr_bytes,
                pr_hit,
                bfs_bytes,
                bfs_hit,
            )
        });
        let mut pr_traffic = Vec::new();
        for (name, pr_bytes, pr_hit, bfs_bytes, bfs_hit) in results {
            table.add_row(vec![
                name,
                format!("{:.1}", pr_bytes as f64 / 1e6),
                Table::percent(pr_hit),
                format!("{:.1}", bfs_bytes as f64 / 1e6),
                Table::percent(bfs_hit),
            ]);
            pr_traffic.push(pr_bytes);
        }
        println!("{table}");
        println!(
            "  PageRank traffic: RABBIT++ moves {} of RANDOM's bytes\n",
            Table::percent(pr_traffic[2] as f64 / pr_traffic[0] as f64)
        );
    }
    println!(
        "Reading: the same community orderings that fix SpMV fix PageRank (it is\n\
         an iterated SpMV) and help BFS's frontier probes — the paper's claim\n\
         that reordering is a workload-agnostic pre-processing optimization."
    );
}
