//! Social-network scenario: why degree skew breaks community detection,
//! and how RABBIT++ claws the loss back (§V-B / §VI of the paper).
//!
//! Sweeps the R-MAT skew knob from mild to Graph500-heavy and reports,
//! for each matrix: the skew metric, RABBIT's detected insularity, and
//! the SpMV traffic under RABBIT vs RABBIT++.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use commorder::prelude::*;
use commorder::reorder::quality;
use commorder::sparse::stats::skew_top10;
use commorder::synth::generators::Rmat;

fn main() -> Result<(), commorder::sparse::SparseError> {
    let pipeline = Pipeline::new(GpuSpec::test_scale());
    let mut table = Table::new(
        "R-MAT skew sweep: skew vs community quality vs reordering payoff",
        vec![
            "quadrant (a)".into(),
            "skew(top10%)".into(),
            "insularity".into(),
            "RABBIT traffic".into(),
            "RABBIT++ traffic".into(),
            "RABBIT++ gain".into(),
        ],
    );

    // a = 0.25 is uniform (no skew); 0.57 is Graph500's heavy tail.
    for &a_quadrant in &[0.30, 0.40, 0.50, 0.57, 0.65] {
        let residual = (1.0 - a_quadrant) / 2.2;
        let matrix = Rmat {
            scale: 13,
            avg_degree: 16.0,
            a: a_quadrant,
            b: residual,
            c: residual,
            scramble_ids: true,
        }
        .generate(1234)?;

        let rpp = RabbitPlusPlus::new().run(&matrix)?;
        let insularity = quality::insularity(&matrix, &rpp.rabbit.assignment)?;
        let rabbit_run = pipeline.simulate_reordered(&matrix, &rpp.rabbit.permutation)?;
        let rpp_run = pipeline.simulate_reordered(&matrix, &rpp.permutation)?;
        table.add_row(vec![
            format!("{a_quadrant:.2}"),
            Table::percent(skew_top10(&matrix)),
            format!("{insularity:.3}"),
            Table::ratio(rabbit_run.traffic_ratio),
            Table::ratio(rpp_run.traffic_ratio),
            Table::ratio(rabbit_run.traffic_ratio / rpp_run.traffic_ratio),
        ]);
    }
    println!("{table}");
    println!(
        "The paper's §V-B in one table: more skew (larger a) => lower insularity\n\
         => RABBIT further from ideal => more for RABBIT++'s hub grouping to recover."
    );
    Ok(())
}
