//! **Figure 3**: SpMV run time (normalized to ideal) under RABBIT, with
//! matrices arranged in increasing order of insularity, plus the §V-B
//! correlation analysis (insularity vs. community size, insularity vs.
//! degree skew).

use commorder::prelude::*;
use commorder::reorder::quality::{self, CommunityStats};
use commorder::sparse::stats::{pearson, skew_top10};
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let cases = harness.load();
    let pipeline = Pipeline::new(harness.gpu);

    struct Row {
        name: String,
        insularity: f64,
        time_ratio: f64,
        norm_comm_size: f64,
        max_comm_fraction: f64,
        skew: f64,
    }
    let mut rows: Vec<Row> = harness.engine().map(&cases, |_, case| {
        eprintln!("[fig3] {}", case.entry.name);
        let result = Rabbit::new()
            .run(&case.matrix)
            .expect("square corpus matrix");
        let insularity = quality::insularity(&case.matrix, &result.assignment).expect("validated");
        let stats = CommunityStats::from_sizes(&result.dendrogram.community_sizes());
        let run = pipeline
            .simulate_reordered(&case.matrix, &result.permutation)
            .expect("validated");
        Row {
            name: case.entry.name.to_string(),
            insularity,
            time_ratio: run.time_ratio,
            norm_comm_size: stats.mean_size_normalized,
            max_comm_fraction: stats.max_size_fraction,
            skew: skew_top10(&case.matrix),
        }
    });
    rows.sort_by(|a, b| a.insularity.partial_cmp(&b.insularity).expect("finite"));

    let mut table = Table::new(
        "Fig. 3: SpMV run time (normalized to ideal) with RABBIT, by insularity",
        vec![
            "matrix".into(),
            "insularity".into(),
            "time/ideal".into(),
            "mean comm size/n".into(),
            "max comm frac".into(),
            "skew(top10%)".into(),
        ],
    );
    for r in &rows {
        table.add_row(vec![
            r.name.clone(),
            format!("{:.3}", r.insularity),
            Table::ratio(r.time_ratio),
            format!("{:.4}", r.norm_comm_size),
            format!("{:.3}", r.max_comm_fraction),
            Table::percent(r.skew),
        ]);
    }
    println!("{table}");

    let split = InsularitySplit::from_pairs(
        &rows
            .iter()
            .map(|r| (r.insularity, r.time_ratio))
            .collect::<Vec<_>>(),
    );
    println!(
        "RABBIT mean run time: ALL {} | ins < 0.95 {} | ins >= 0.95 {}",
        Table::ratio(split.all),
        Table::ratio(split.low),
        Table::ratio(split.high)
    );
    println!("Paper reference: ins >= 0.95 within 26% of ideal (1.26x); ins < 0.95 mean 1.81x");

    // §V-B correlations. The paper excludes the mawi outlier from the
    // community-size correlation; we exclude matrices whose largest
    // community spans > 90% of the nodes for the same reason.
    let filtered: Vec<&Row> = rows.iter().filter(|r| r.max_comm_fraction < 0.9).collect();
    let ins: Vec<f64> = filtered.iter().map(|r| r.insularity).collect();
    let sizes: Vec<f64> = filtered.iter().map(|r| r.norm_comm_size).collect();
    let skews: Vec<f64> = filtered.iter().map(|r| r.skew).collect();
    if let Some(c) = pearson(&ins, &sizes) {
        println!("Pearson(insularity, normalized community size) = {c:.3}  (paper: -0.472)");
    }
    if let Some(c) = pearson(&ins, &skews) {
        println!("Pearson(insularity, skew) = {c:.3}  (paper: -0.721)");
    }
    let low_skew: Vec<f64> = rows
        .iter()
        .filter(|r| r.insularity >= 0.95)
        .map(|r| r.skew)
        .collect();
    let high_skew: Vec<f64> = rows
        .iter()
        .filter(|r| r.insularity < 0.95)
        .map(|r| r.skew)
        .collect();
    println!(
        "mean skew: ins >= 0.95 {} (paper 16.37%) | ins < 0.95 {} (paper 41.74%)",
        Table::percent(arith_mean_ratio(&low_skew).unwrap_or(f64::NAN)),
        Table::percent(arith_mean_ratio(&high_skew).unwrap_or(f64::NAN)),
    );
}
