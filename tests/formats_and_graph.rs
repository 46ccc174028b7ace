//! Integration tests spanning the format layer (ELL/SELL), the graph
//! kernels and the cache simulator: numerics agree across formats,
//! traces are consistent with kernel semantics, and reordering helps the
//! graph kernels just as it helps SpMV.

use commorder::cachesim::format_trace::{EllTrace, SellTrace};
use commorder::cachesim::graph_trace::{BfsTrace, PagerankTrace};
use commorder::prelude::*;
use commorder::sparse::graph::{bfs_levels, pagerank, UNREACHED};
use commorder::sparse::{kernels, EllMatrix, SellMatrix};
use commorder::synth::generators::{CommunityHub, PlantedPartition};

fn community_matrix() -> CsrMatrix {
    let tidy = PlantedPartition::uniform(2048, 32, 10.0, 0.05)
        .generate(71)
        .expect("valid generator config");
    let scramble = RandomOrder::new(5).reorder(&tidy).expect("square");
    tidy.permute_symmetric(&scramble).expect("validated")
}

#[test]
fn all_formats_compute_the_same_spmv() {
    let csr = community_matrix();
    let x: Vec<f32> = (0..csr.n_cols()).map(|i| ((i % 13) as f32) - 6.0).collect();
    let reference = kernels::spmv_csr(&csr, &x).expect("dims");
    let ell = EllMatrix::from_csr(&csr).expect("fits");
    let sell = SellMatrix::from_csr(&csr, 32, 128).expect("valid geometry");
    let coo = CooMatrix::from(&csr);
    for (name, result) in [
        ("ell", ell.spmv(&x).expect("dims")),
        ("sell", sell.spmv(&x).expect("dims")),
        ("coo", kernels::spmv_coo(&coo, &x).expect("dims")),
        (
            "tiled",
            kernels::spmv_csr_tiled(&csr, &x, 100).expect("dims"),
        ),
        ("blocked", kernels::spmv_blocked(&csr, &x, 8).expect("dims")),
    ] {
        for (got, want) in result.iter().zip(&reference) {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "{name}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn sell_sigma_sort_reduces_padding_on_hubby_matrix() {
    let m = CommunityHub {
        n: 2048,
        communities: 32,
        intra_degree: 8.0,
        hub_fraction: 0.02,
        hub_degree: 30.0,
        mixing: 0.1,
        scramble_ids: true,
    }
    .generate(72)
    .expect("valid generator config");
    let ell = EllMatrix::from_csr(&m).expect("fits");
    let sell_sorted = SellMatrix::from_csr(&m, 32, 512).expect("valid");
    let sell_unsorted = SellMatrix::from_csr(&m, 32, 32).expect("valid");
    assert!(sell_sorted.padded_len() <= sell_unsorted.padded_len());
    assert!(sell_sorted.padded_len() < ell.padded_len());
}

#[test]
fn format_traffic_ordering_matches_padding_ordering() {
    // On a hub-heavy matrix the simulated traffic must rank
    // SELL(sorted) <= SELL(unsorted) <= ELL.
    let m = CommunityHub {
        n: 2048,
        communities: 32,
        intra_degree: 8.0,
        hub_fraction: 0.02,
        hub_degree: 24.0,
        mixing: 0.1,
        scramble_ids: true,
    }
    .generate(73)
    .expect("valid generator config");
    let gpu = GpuSpec::test_scale();
    let run = |source: &dyn TraceSource| {
        let mut cache = LruCache::new(gpu.l2);
        cache.consume(source);
        cache.finish().dram_traffic_bytes()
    };
    let ell = run(&EllTrace::new(&EllMatrix::from_csr(&m).expect("fits")));
    let sorted = run(&SellTrace::new(
        &SellMatrix::from_csr(&m, 32, 512).expect("valid"),
    ));
    let unsorted = run(&SellTrace::new(
        &SellMatrix::from_csr(&m, 32, 32).expect("valid"),
    ));
    assert!(sorted <= unsorted, "sorted {sorted} vs unsorted {unsorted}");
    assert!(unsorted <= ell, "unsorted {unsorted} vs ell {ell}");
}

#[test]
fn pagerank_is_invariant_under_reordering() {
    let m = community_matrix();
    let pr = pagerank(&m, 0.85, 10).expect("square");
    let perm = Rabbit::new().reorder(&m).expect("square");
    let rm = m.permute_symmetric(&perm).expect("validated");
    let pr_reordered = pagerank(&rm, 0.85, 10).expect("square");
    for v in 0..m.n_rows() {
        let moved = pr_reordered[perm.new_of(v) as usize];
        assert!(
            (pr[v as usize] - moved).abs() < 1e-5,
            "rank of vertex {v} changed under reordering"
        );
    }
}

#[test]
fn bfs_levels_are_invariant_under_reordering() {
    let m = community_matrix();
    let source = 17u32;
    let levels = bfs_levels(&m, source).expect("valid source");
    let perm = RabbitPlusPlus::new().reorder(&m).expect("square");
    let rm = m.permute_symmetric(&perm).expect("validated");
    let levels_reordered = bfs_levels(&rm, perm.new_of(source)).expect("valid source");
    for v in 0..m.n_rows() {
        assert_eq!(
            levels[v as usize],
            levels_reordered[perm.new_of(v) as usize],
            "distance of vertex {v} changed"
        );
    }
    assert!(levels.iter().filter(|&&l| l == UNREACHED).count() < m.n_rows() as usize);
}

#[test]
fn reordering_cuts_pagerank_traffic() {
    let m = community_matrix();
    let gpu = GpuSpec::test_scale();
    let run = |matrix: &CsrMatrix| {
        let mut cache = LruCache::new(gpu.l2);
        cache.consume(&PagerankTrace::new(matrix, 2).expect("square"));
        cache.finish().dram_traffic_bytes()
    };
    let random = run(&m);
    let reordered = run(&m
        .permute_symmetric(&Rabbit::new().reorder(&m).expect("square"))
        .expect("validated"));
    assert!(
        reordered * 3 < random * 2,
        "pagerank traffic should drop by >1/3: {random} -> {reordered}"
    );
}

#[test]
fn bfs_trace_writes_match_reachable_set() {
    let m = community_matrix();
    let levels = bfs_levels(&m, 0).expect("valid source");
    let reached = levels.iter().filter(|&&l| l != UNREACHED).count();
    let t = BfsTrace::new(&m, 0).expect("valid source").collect_trace();
    // level writes (reached - 1 discoveries) + frontier writes (reached).
    assert_eq!(
        t.iter().filter(|a| a.is_write()).count(),
        (reached - 1) + reached
    );
}
