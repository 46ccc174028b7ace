//! **Table IV**: generality across kernels — run time (normalized to the
//! per-kernel ideal) for SpMV-COO, SpMM-CSR-4 and SpMM-CSR-256 under
//! RANDOM / ORIGINAL / RABBIT / RABBIT++, split by insularity.

use commorder::analysis;
use commorder::prelude::*;
use commorder_bench::Harness;

fn main() {
    let harness = Harness::from_env();
    harness.print_platform();

    // One grid: 4 techniques x 3 kernels. The engine computes each
    // permutation once per (matrix, technique) job and reuses it for all
    // three kernels.
    let techniques: Vec<Box<dyn Reordering>> = vec![
        Box::new(RandomOrder::new(harness.random_seed)),
        Box::new(Original),
        Box::new(Rabbit::new()),
        Box::new(RabbitPlusPlus::new()),
    ];
    let spec = harness.spec(techniques).kernels(vec![
        Kernel::SpmvCoo,
        Kernel::SpmmCsr { k: 4 },
        Kernel::SpmmCsr { k: 256 },
    ]);
    let engine = harness.engine();

    // Insularity per matrix (bucket key), computed once.
    let insularities: Vec<f64> = engine.map(&spec.matrices, |_, named| {
        eprintln!("[table4] insularity {}", named.name);
        analysis::rabbit_insularity(&named.matrix).expect("square corpus matrix")
    });

    let result = spec.run(&engine).expect("valid corpus grid");
    eprintln!("[table4] engine: {}", result.stats.summary());

    for (ki, kernel) in result.kernels.iter().enumerate() {
        let mut table = Table::new(
            format!("Table IV ({}): run time normalized to ideal", kernel.name()),
            vec![
                "ordering".into(),
                "ALL".into(),
                "INS < 0.95".into(),
                "INS >= 0.95".into(),
            ],
        );
        for (ti, technique) in result.techniques.iter().enumerate() {
            let pairs: Vec<(f64, f64)> = (0..result.matrices.len())
                .map(|mi| {
                    (
                        insularities[mi],
                        result.record(mi, ti, ki, 0, 0).run.time_ratio,
                    )
                })
                .collect();
            let split = InsularitySplit::from_pairs(&pairs);
            table.add_row(vec![
                technique.clone(),
                Table::ratio(split.all),
                Table::ratio(split.low),
                Table::ratio(split.high),
            ]);
        }
        println!("{table}");
    }
    println!(
        "Paper reference (ALL / <0.95 / >=0.95):\n\
         SpMV-COO:     RANDOM 5.37/4.94/5.97   ORIGINAL 1.84/2.10/1.55  RABBIT 1.49/1.73/1.23  RABBIT++ 1.40/1.55/1.23\n\
         SpMM-CSR-4:   RANDOM 29.3/32.2/26.1   ORIGINAL 5.97/8.92/3.58  RABBIT 4.31/7.39/2.18  RABBIT++ 3.79/5.85/2.18\n\
         SpMM-CSR-256: RANDOM 139/197/75       ORIGINAL 26.8/43.8/11.0  RABBIT 20.3/50.3/3.91  RABBIT++ 18.7/44.0/3.95\n\
         Shape: RABBIT++ <= RABBIT <= ORIGINAL << RANDOM for every kernel and bucket"
    );
}
