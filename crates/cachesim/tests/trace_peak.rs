//! Belady's pass-one footprint bound, read back through the
//! `cachesim.trace.peak_bytes` gauge: the two-pass oracle may hold at
//! most 8 bytes per access and never the trace itself. Beside its
//! compact next-use array it holds one line table, at the array's entry
//! width and at most the source's stated extent in lines: 4 bytes per
//! access and per line for a trace under 4 Gi accesses.
//!
//! The obs dispatcher is process-global, so this is the only test in
//! its binary: another test simulating concurrently would overwrite the
//! gauge.

use std::sync::Arc;

use commorder_cachesim::belady::simulate_belady;
use commorder_cachesim::source::{KernelTrace, TraceSource};
use commorder_cachesim::trace::ExecutionModel;
use commorder_cachesim::CacheConfig;
use commorder_obs as obs;
use commorder_sparse::traffic::Kernel;
use commorder_synth::generators::PlantedPartition;

#[test]
fn belady_next_use_array_stays_within_8_bytes_per_access() {
    let a = PlantedPartition::uniform(4096, 32, 10.0, 0.1)
        .generate(99)
        .expect("valid generator config");
    let source = KernelTrace::new(&a, Kernel::SpmvCsr, ExecutionModel::Sequential);
    let n = source.len_hint().expect("SpMV-CSR hints its length");
    let config = CacheConfig::test_scale();
    let extent = source.extent_hint().expect("SpMV-CSR states its extent");
    let lines = extent.div_ceil(u64::from(config.line_bytes));
    assert!(lines <= n, "the table is sized once at {lines} lines");

    let registry = Arc::new(obs::Registry::new());
    let guard = obs::install(registry.clone());
    let _ = simulate_belady(config, &source);
    drop(guard);

    let peak = registry
        .gauge("cachesim.trace.peak_bytes")
        .expect("simulate_belady exports its pass-one footprint") as u64;
    assert!(peak > 0, "belady must report its next-use array");
    assert!(
        peak <= 8 * n,
        "belady peak {peak} B exceeds 8 B/access over {n} accesses"
    );
    // `u32` next uses and ordinals: the array plus a table of `lines`.
    let width = std::mem::size_of::<u32>() as u64;
    assert!(
        peak <= width * (n + lines),
        "belady peak {peak} B exceeds {width} B x ({n} accesses + {lines} lines)"
    );
}
