//! **Figure 6**: DRAM traffic of the *insular sub-matrix* after RABBIT's
//! first modification (insular nodes grouped), normalized to the
//! sub-matrix's compulsory traffic — "the insular portion of the matrix
//! achieves ideal traffic".
//!
//! The sub-matrix is obtained by masking all non-zeros that do not
//! connect to insular nodes, exactly as the paper describes; the
//! community-size reduction from grouping is also reported (paper: −27%
//! average, −41% for insularity < 0.95).

use commorder::prelude::*;
use commorder::reorder::quality;
use commorder::sparse::ops;
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let cases = harness.load();
    let pipeline = Pipeline::new(harness.gpu);

    let mut table = Table::new(
        "Fig. 6: normalized DRAM traffic for the insular sub-matrix (insular nodes grouped)",
        vec![
            "matrix".into(),
            "insularity".into(),
            "% insular".into(),
            "traffic/compulsory".into(),
        ],
    );
    let insular_only = RabbitPlusPlus::with_config(RabbitPlusPlusConfig {
        group_insular: true,
        hub_policy: HubPolicy::None,
    });
    let rows: Vec<(f64, f64, f64)> = harness.engine().map(&cases, |_, case| {
        eprintln!("[fig6] {}", case.entry.name);
        let result = insular_only
            .run(&case.matrix)
            .expect("square corpus matrix");
        let insularity =
            quality::insularity(&case.matrix, &result.rabbit.assignment).expect("validated");
        let insular_frac =
            result.insular.iter().filter(|&&b| b).count() as f64 / result.insular.len() as f64;
        // Mask non-zeros not incident to insular nodes, then apply the
        // insular-grouped order and simulate.
        let masked = ops::mask_incident(&case.matrix, &result.insular).expect("validated");
        let run = pipeline
            .simulate_reordered(&masked, &result.permutation)
            .expect("validated");
        (insularity, insular_frac, run.traffic_ratio)
    });
    let mut ratios = Vec::new();
    for (case, &(insularity, insular_frac, traffic_ratio)) in cases.iter().zip(&rows) {
        table.add_row(vec![
            case.entry.name.to_string(),
            format!("{insularity:.3}"),
            Table::percent(insular_frac),
            Table::ratio(traffic_ratio),
        ]);
        ratios.push(traffic_ratio);
    }
    println!("{table}");
    println!(
        "mean insular sub-matrix traffic: {} (paper: ~1.0x, i.e. compulsory; \
         sub-1.0 values come from empty rows inflating the compulsory estimate, \
         like the paper's wiki-Talk footnote)",
        Table::ratio(arith_mean_ratio(&ratios).unwrap_or(f64::NAN))
    );
}
