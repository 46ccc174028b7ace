//! **Table II**: the design space of RABBIT modifications — SpMV run time
//! (normalized to ideal) for {RABBIT, RABBIT+HUBSORT, RABBIT+HUBGROUP} ×
//! {without, with} insular-node grouping, split by insularity.

use commorder::analysis;
use commorder::prelude::*;
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();

    // The technique axis is the whole design space, in design-space order.
    let configs = RabbitPlusPlusConfig::design_space();
    let techniques: Vec<Box<dyn Reordering>> = configs
        .iter()
        .map(|&config| Box::new(RabbitPlusPlus::with_config(config)) as Box<dyn Reordering>)
        .collect();
    let spec = harness.spec(techniques);
    let engine = harness.engine();

    // Per-matrix insularity (bucket key), computed once.
    let insularities: Vec<f64> = engine.map(&spec.matrices, |_, named| {
        eprintln!("[table2] insularity {}", named.name);
        analysis::rabbit_insularity(&named.matrix).expect("square corpus matrix")
    });

    let result = spec.run(&engine).expect("valid corpus grid");
    eprintln!("[table2] engine: {}", result.stats.summary());

    let mut table = Table::new(
        "Table II: SpMV run time normalized to ideal, RABBIT modification design space",
        vec![
            "configuration".into(),
            "ALL-MATS".into(),
            "INS < 0.95".into(),
            "INS >= 0.95".into(),
        ],
    );
    for (ti, config) in configs.iter().enumerate() {
        let pairs: Vec<(f64, f64)> = insularities
            .iter()
            .zip(result.time_ratios(ti))
            .map(|(&ins, time)| (ins, time))
            .collect();
        let split = InsularitySplit::from_pairs(&pairs);
        table.add_row(vec![
            config.label(),
            Table::ratio(split.all),
            Table::ratio(split.low),
            Table::ratio(split.high),
        ]);
    }
    println!("{table}");
    println!(
        "Paper reference (ALL / <0.95 / >=0.95):\n\
         RABBIT 1.54/1.81/1.25, +HUBSORT 1.63/1.89/1.35, +HUBGROUP 1.48/1.65/1.29 (no insular grouping)\n\
         RABBIT 1.49/1.70/1.25, +HUBSORT 1.57/1.86/1.26, +HUBGROUP 1.46/1.65/1.25 (insular grouped)\n\
         Shape to reproduce: insular grouping helps; HUBGROUP > plain RABBIT > HUBSORT; \
         RABBIT++ = insular grouped + HUBGROUP is best overall"
    );
}
