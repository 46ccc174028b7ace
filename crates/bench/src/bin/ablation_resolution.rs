//! **Ablation**: the modularity resolution parameter γ of RABBIT's
//! community detection (DESIGN.md design choice).
//!
//! Higher γ favours smaller communities. The paper's analysis (§V) links
//! performance to community sizes fitting in the L2; this sweep makes
//! the trade-off measurable: γ too low merges past the cache capacity,
//! γ too high fragments real communities and loses hierarchy.

use commorder::prelude::*;
use commorder::reorder::community::DetectionConfig;
use commorder::reorder::quality::{self, CommunityStats};
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let subset: Vec<&str> = if harness.entries.len() <= 8 {
        vec!["mini-sbm", "mini-webhub"]
    } else {
        vec!["opt-block-512", "web-stackex", "soc-rmat-65k"]
    };
    let cases = harness.load_subset(&subset);
    let pipeline = Pipeline::new(harness.gpu);
    let gammas = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

    for case in &cases {
        eprintln!("[ablation_resolution] {}", case.entry.name);
        let mut table = Table::new(
            format!("{}: RABBIT quality vs resolution γ", case.entry.name),
            vec![
                "γ".into(),
                "communities".into(),
                "mean size".into(),
                "insularity".into(),
                "traffic/compulsory".into(),
            ],
        );
        let rows = harness.engine().map(&gammas, |_, &gamma| {
            let rabbit = Rabbit {
                detection: DetectionConfig {
                    resolution: gamma,
                    ..DetectionConfig::default()
                },
            };
            let r = rabbit.run(&case.matrix).expect("square corpus matrix");
            let stats = CommunityStats::from_sizes(&r.dendrogram.community_sizes());
            let ins = quality::insularity(&case.matrix, &r.assignment).expect("validated");
            let run = pipeline
                .simulate_reordered(&case.matrix, &r.permutation)
                .expect("validated");
            vec![
                format!("{gamma:.2}"),
                stats.count.to_string(),
                format!("{:.1}", stats.mean_size),
                format!("{ins:.3}"),
                Table::ratio(run.traffic_ratio),
            ]
        });
        for row in rows {
            table.add_row(row);
        }
        println!("{table}");
    }
    println!(
        "Expected: traffic is flat near γ = 1 (the default) and degrades at the\n\
         extremes — γ is not a hidden tuning knob behind the headline results."
    );
}
