//! RABBIT's phase spans and counters under an installed obs registry.
//!
//! The obs dispatcher is process-global: while this test has a registry
//! installed, community detection run by any other test in the same
//! binary would bump `reorder.community.passes` and break the
//! one-pass-span-per-counted-pass equality. So this is the only test in
//! its binary.

use commorder_obs as obs;
use commorder_reorder::{Rabbit, RandomOrder, Reordering};
use commorder_synth::generators::PlantedPartition;

#[test]
fn rabbit_emits_phase_spans_and_counters() {
    // A scrambled planted-partition graph, as in the unit tests.
    let g = PlantedPartition::uniform(1024, 16, 10.0, 0.03)
        .generate(31)
        .unwrap();
    let scramble = RandomOrder::new(17).reorder(&g).unwrap();
    let messy = g.permute_symmetric(&scramble).unwrap();
    let baseline = Rabbit::new().run(&messy).unwrap();
    let registry = std::sync::Arc::new(obs::Registry::new());
    let guard = obs::install(registry.clone());
    let observed = Rabbit::new().run(&messy).unwrap();
    drop(guard);
    assert_eq!(
        observed, baseline,
        "telemetry must not change the reordering"
    );
    assert_eq!(
        registry.span("reorder.rabbit").map(|s| s.count),
        Some(1),
        "root span"
    );
    let detect = registry
        .span("reorder.rabbit/community.detect")
        .expect("detect nests under rabbit");
    assert_eq!(detect.count, 1);
    let passes = registry.counter("reorder.community.passes");
    assert!(passes >= 1, "at least one aggregation sweep");
    assert_eq!(
        registry
            .span("reorder.rabbit/community.detect/community.pass")
            .map(|s| s.count),
        Some(passes),
        "one pass span per counted pass"
    );
    assert!(registry.counter("reorder.community.merges") > 0);
    assert_eq!(
        registry
            .span("reorder.rabbit/rabbit.order")
            .map(|s| s.count),
        Some(1)
    );
}
