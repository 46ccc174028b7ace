//! The engine's job spans and counters under an installed obs registry.
//!
//! The obs dispatcher is process-global: while this test has a registry
//! installed, a batch run by any other test in the same binary would
//! bump `exec.jobs` and the job spans. So this is the only test in its
//! binary.

use commorder_exec::Engine;
use commorder_obs as obs;

#[test]
fn batches_emit_job_spans_and_counters() {
    let registry = std::sync::Arc::new(obs::Registry::new());
    let _guard = obs::install(registry.clone());
    let engine = Engine::new(2);
    let (outputs, stats) = engine.run_with_stats((0..12u64).collect(), |_, x| x * 2);
    assert_eq!(outputs.len(), 12);
    assert_eq!(registry.counter("exec.jobs"), 12);
    assert_eq!(registry.counter("exec.steals"), stats.steals);
    let spans = registry.span("exec.job").expect("job spans recorded");
    assert_eq!(spans.count, 12);
    let waits = registry
        .histogram("exec.queue_wait_seconds")
        .expect("queue waits observed");
    assert_eq!(waits.count, 12);
    assert_eq!(
        registry.gauge("exec.utilization"),
        Some(stats.utilization())
    );
}
