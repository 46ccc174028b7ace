//! **Figure 7**: reduction in SpMV DRAM traffic with RABBIT++ relative to
//! RABBIT, for the low-insularity matrices (insularity < 0.95); the
//! paper reports a maximum reduction of 1.56x and a 7.7% mean on this
//! subset (4.1% across all matrices, ≤1% for high-insularity inputs).

use commorder::prelude::*;
use commorder::reorder::quality;
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let cases = harness.load();
    let pipeline = Pipeline::new(harness.gpu);

    struct Row {
        name: String,
        insularity: f64,
        rabbit: f64,
        rabbitpp: f64,
        speedup: f64,
    }
    let mut rows: Vec<Row> = harness.engine().map(&cases, |_, case| {
        eprintln!("[fig7] {}", case.entry.name);
        let rpp = RabbitPlusPlus::new()
            .run(&case.matrix)
            .expect("square corpus matrix");
        let insularity =
            quality::insularity(&case.matrix, &rpp.rabbit.assignment).expect("validated");
        let rabbit_run = pipeline
            .simulate_reordered(&case.matrix, &rpp.rabbit.permutation)
            .expect("validated");
        let rpp_run = pipeline
            .simulate_reordered(&case.matrix, &rpp.permutation)
            .expect("validated");
        Row {
            name: case.entry.name.to_string(),
            insularity,
            rabbit: rabbit_run.traffic_ratio,
            rabbitpp: rpp_run.traffic_ratio,
            speedup: pipeline.gpu().estimate_time(
                pipeline.kernel(),
                u64::from(case.matrix.n_rows()),
                case.matrix.nnz() as u64,
                rabbit_run.dram_bytes,
            ) / pipeline.gpu().estimate_time(
                pipeline.kernel(),
                u64::from(case.matrix.n_rows()),
                case.matrix.nnz() as u64,
                rpp_run.dram_bytes,
            ),
        }
    });
    rows.sort_by(|a, b| a.insularity.partial_cmp(&b.insularity).expect("finite"));

    let mut table = Table::new(
        "Fig. 7: RABBIT++ traffic reduction over RABBIT (insularity < 0.95 subset)",
        vec![
            "matrix".into(),
            "insularity".into(),
            "RABBIT".into(),
            "RABBIT++".into(),
            "traffic reduction".into(),
            "speedup".into(),
        ],
    );
    for r in rows.iter().filter(|r| r.insularity < 0.95) {
        table.add_row(vec![
            r.name.clone(),
            format!("{:.3}", r.insularity),
            Table::ratio(r.rabbit),
            Table::ratio(r.rabbitpp),
            Table::ratio(r.rabbit / r.rabbitpp),
            Table::ratio(r.speedup),
        ]);
    }
    println!("{table}");

    let reduction = |rs: Vec<&Row>| -> (f64, f64) {
        let ratios: Vec<f64> = rs.iter().map(|r| r.rabbit / r.rabbitpp).collect();
        let max = ratios.iter().cloned().fold(1.0f64, f64::max);
        let mean = arith_mean_ratio(&ratios).unwrap_or(f64::NAN);
        (max, mean)
    };
    let (max_all, mean_all) = reduction(rows.iter().collect());
    let (max_low, mean_low) = reduction(rows.iter().filter(|r| r.insularity < 0.95).collect());
    let high: Vec<f64> = rows
        .iter()
        .filter(|r| r.insularity >= 0.95)
        .map(|r| r.rabbit / r.rabbitpp)
        .collect();
    println!(
        "traffic reduction — ALL: max {} mean {} | ins<0.95: max {} mean {} | ins>=0.95 mean {}",
        Table::ratio(max_all),
        Table::ratio(mean_all),
        Table::ratio(max_low),
        Table::ratio(mean_low),
        Table::ratio(arith_mean_ratio(&high).unwrap_or(f64::NAN)),
    );
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    println!(
        "speedup — max {} mean {}",
        Table::ratio(speedups.iter().cloned().fold(1.0f64, f64::max)),
        Table::ratio(arith_mean_ratio(&speedups).unwrap_or(f64::NAN)),
    );
    println!(
        "Paper reference: max traffic reduction 1.56x, mean 4.1% (7.7% on ins<0.95); \
         max speedup 1.57x, mean 5.3% (9.7% on ins<0.95); ins>=0.95 within 1% of RABBIT"
    );
}
