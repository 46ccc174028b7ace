//! **Figure 9**: matrix reordering (pre-processing) time as the matrix
//! size increases, for GORDER, RABBIT and RABBIT++, plus the §VI-C
//! amortization analysis (SpMV iterations needed to pay for the
//! reordering, starting from RANDOM order).

use std::time::Instant;

use commorder::prelude::*;
use commorder::synth::generators::CommunityHub;
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();
    let pipeline = Pipeline::new(harness.gpu);

    // Size sweep over a fixed web-like structure (communities + hubs),
    // the regime where all three techniques are exercised.
    let sizes: &[u32] = if harness.entries.len() <= 8 {
        &[4_096, 8_192, 16_384] // mini corpus => quick sweep
    } else {
        &[16_384, 32_768, 65_536, 131_072, 262_144]
    };

    let mut table = Table::new(
        "Fig. 9: reordering time vs matrix size",
        vec![
            "n".into(),
            "nnz".into(),
            "GORDER".into(),
            "RABBIT".into(),
            "RABBIT++".into(),
        ],
    );
    let mut amortization = Table::new(
        "SpMV iterations to amortize pre-processing (from RANDOM order)",
        vec![
            "n".into(),
            "GORDER".into(),
            "RABBIT".into(),
            "RABBIT++".into(),
        ],
    );

    for &n in sizes {
        eprintln!("[fig9] n = {n}");
        let matrix = CommunityHub {
            n,
            communities: (n / 128).max(1),
            intra_degree: 10.0,
            hub_fraction: 0.02,
            hub_degree: 24.0,
            mixing: 0.08,
            scramble_ids: true,
        }
        .generate(u64::from(n))
        .expect("valid generator config");

        let techniques: Vec<Box<dyn Reordering>> = vec![
            Box::new(Gorder::default()),
            Box::new(Rabbit::new()),
            Box::new(RabbitPlusPlus::new()),
        ];
        let random_run = {
            let p = RandomOrder::new(harness.random_seed)
                .reorder(&matrix)
                .expect("square");
            pipeline.simulate_reordered(&matrix, &p).expect("validated")
        };

        let mut time_row = vec![n.to_string(), matrix.nnz().to_string()];
        let mut amort_row = vec![n.to_string()];
        for technique in &techniques {
            let start = Instant::now();
            let perm = technique.reorder(&matrix).expect("square");
            let seconds = start.elapsed().as_secs_f64();
            time_row.push(Table::seconds(seconds));
            let run = pipeline
                .simulate_reordered(&matrix, &perm)
                .expect("validated");
            let iters = pipeline.gpu().amortization_iterations(
                pipeline.kernel(),
                u64::from(matrix.n_rows()),
                matrix.nnz() as u64,
                seconds,
                random_run.dram_bytes,
                run.dram_bytes,
            );
            amort_row.push(match iters {
                Some(i) => format!("{i:.0}"),
                None => "never".to_string(),
            });
        }
        table.add_row(time_row);
        amortization.add_row(amort_row);
    }
    println!("{table}");
    println!("{amortization}");
    println!(
        "Paper shape: GORDER's cost scales far faster than RABBIT/RABBIT++ \
         (paper means: GORDER 7467 iterations to amortize, RABBIT 741, RABBIT++ 1047).\n\
         Note: absolute iteration counts are not comparable — the paper amortizes \
         against a real GPU's SpMV; we amortize single-thread reordering time \
         against the modelled GPU kernel time. The ordering and scaling trend are \
         the reproducible shape."
    );
}
