//! `commorder-cli` — apply and evaluate matrix reorderings on Matrix
//! Market files from the command line.
//!
//! ```text
//! commorder-cli analyze  <in.mtx>
//! commorder-cli reorder  <in.mtx> <out.mtx> [technique]
//! commorder-cli simulate <in.mtx> [technique] [kernel]
//! commorder-cli spy      <in.mtx> [technique]
//! commorder-cli advise   <in.mtx>
//! commorder-cli check    <file> [--json]
//! commorder-cli corpus [export <dir> | stats <name>]
//! commorder-cli suite [--threads N] [--corpus mini|standard|mega] [--techniques LIST] [--kernels LIST] [--max-matrices N] [--only NAME] [--json PATH|-] [--telemetry PATH] [--list]
//! commorder-cli profile [--top N] [--flame PATH] [suite flags]
//! ```
//!
//! `check` audits a data file (`.mtx`, `.csr`, `.perm`, `.trace`, bench
//! artifact `.json`, telemetry `.jsonl`) against the workspace
//! invariants and reports stable `CHK` diagnostics; the process exits
//! non-zero when any error-severity finding is present.
//!
//! `suite --telemetry <path>` streams structured telemetry (span
//! timings, counters) as JSON Lines while the grid runs; the
//! deterministic JSON report is byte-identical with or without it.
//! `profile` runs the same grid under the aggregating registry and
//! prints the phase tree plus the hottest (matrix, technique) cells;
//! `--flame PATH` additionally writes the deterministic collapsed-stack
//! (folded) flamegraph export. Building with `--features obs-alloc`
//! installs the counting global allocator, attributing allocation
//! count and bytes to the active span path in telemetry and profiles.

use std::process::ExitCode;
use std::sync::Arc;

use commorder::cli::{
    check_file_kinds, parse_kernel, parse_technique, ProfileOptions, SuiteOptions, KERNEL_NAMES,
    TECHNIQUE_NAMES,
};
use commorder::obs;
use commorder::prelude::*;
use commorder::reorder::paper_suite;
use commorder::reorder::quality::{self, CommunityStats};
use commorder::sparse::{io, ops, stats};
use commorder::synth::corpus;

// With `obs-alloc` on, every allocation in this binary is counted and
// attributed to the active span path (see `commorder-obs::alloc`).
#[cfg(feature = "obs-alloc")]
#[global_allocator]
static COUNTING_ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  commorder-cli analyze  <in.mtx>\n  commorder-cli reorder  <in.mtx> <out.mtx> [technique]\n  commorder-cli simulate <in.mtx> [technique] [kernel]\n  commorder-cli spy      <in.mtx> [technique]\n  commorder-cli advise   <in.mtx>\n  commorder-cli check    <file> [--json]   ({})\n  commorder-cli corpus [export <dir> | stats <name>]\n  commorder-cli suite [--threads N] [--corpus mini|standard|mega] [--techniques LIST] [--kernels LIST] [--max-matrices N] [--only NAME] [--json PATH|-] [--telemetry PATH] [--list]\n  commorder-cli profile [--top N] [--flame PATH] [suite flags]\n\ntechniques: {}\nkernels: {}\n\nsuite runs the full paper grid (corpus x 7 orderings x SpMV-CSR) on the\nengine: one job queue, largest matrix first, one shared community\ndetection per matrix for the RABBIT family; --threads defaults to the machine's parallelism and\nthe JSON report is byte-identical for any thread count (--telemetry adds\na sidecar JSONL event stream without changing it). --techniques replaces\nthe paper suite with a comma-separated registry list (e.g.\nrabbit++,boba,rcm++); --kernels replaces the SpMV-CSR kernel axis (e.g.\nspgemm,spgemm-cluster — spgemm-cluster executes the rows of each RABBIT\ncommunity as a block); --corpus mega selects the streamed million-row\ntier. profile runs the same grid under the telemetry registry and prints\nthe phase tree plus the --top hottest (matrix, technique) cells;\n--flame writes the deterministic collapsed-stack (folded) flamegraph. suite\n--list prints the resolved grid without running it. corpus stats\ngenerates one entry (any tier) and prints its shape — CI runs it under\nulimit -v as the streamed-generation memory tripwire.",
        check_file_kinds(),
        TECHNIQUE_NAMES.join(" | "),
        KERNEL_NAMES.join(" | ")
    );
    ExitCode::FAILURE
}

type JsonlFileSink = obs::JsonlSink<std::io::BufWriter<std::fs::File>>;
/// An installed `--telemetry` sink: the sink itself (for the final
/// flush) alongside its install guard.
type InstalledJsonl = (Arc<JsonlFileSink>, obs::SinkGuard);

/// Installs the `--telemetry PATH` JSONL sink when requested.
fn install_jsonl(
    options: &SuiteOptions,
) -> Result<Option<InstalledJsonl>, Box<dyn std::error::Error>> {
    match &options.telemetry {
        Some(path) => {
            let writer = std::io::BufWriter::new(std::fs::File::create(path)?);
            let sink = Arc::new(obs::JsonlSink::new(writer));
            let guard = obs::install(sink.clone());
            Ok(Some((sink, guard)))
        }
        None => Ok(None),
    }
}

/// Flushes and uninstalls a `--telemetry` sink after the run.
fn finish_jsonl(
    jsonl: Option<InstalledJsonl>,
    path: Option<&String>,
    label: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some((sink, guard)) = jsonl {
        drop(guard);
        sink.flush()?;
        if let Some(path) = path {
            eprintln!("[{label}] telemetry jsonl -> {path}");
        }
    }
    Ok(())
}

/// Resolves the corpus tier: the `--corpus` flag, then the
/// `COMMORDER_CORPUS` environment variable, then `standard`.
fn resolve_corpus(options: &SuiteOptions) -> (String, Vec<corpus::CorpusEntry>, GpuSpec) {
    let corpus_kind = options.corpus.clone().unwrap_or_else(|| {
        std::env::var("COMMORDER_CORPUS").unwrap_or_else(|_| "standard".to_string())
    });
    let (entries, gpu) = match corpus_kind.as_str() {
        "mini" => (corpus::mini(), GpuSpec::test_scale()),
        "mega" => (corpus::mega(), GpuSpec::a6000_scaled()),
        _ => (corpus::standard(), GpuSpec::a6000_scaled()),
    };
    (corpus_kind, entries, gpu)
}

/// Resolves `--techniques` (registry list) or falls back to the paper
/// suite.
fn resolve_techniques(options: &SuiteOptions) -> Result<Vec<Box<dyn Reordering>>, String> {
    match &options.techniques {
        Some(list) => commorder::reorder::parse_technique_list(list, 0xC0DE),
        None => Ok(paper_suite(0xC0DE)),
    }
}

/// Resolves `--kernels` (registry list) or falls back to the paper
/// suite's SpMV-CSR kernel axis.
fn resolve_kernels(options: &SuiteOptions) -> Result<Vec<Kernel>, String> {
    match &options.kernels {
        Some(list) => commorder::sparse::traffic::parse_kernel_list(list),
        None => Ok(vec![Kernel::SpmvCsr]),
    }
}

/// Generates the corpus and runs the suite grid — the shared core
/// of the `suite` and `profile` subcommands. Emits `suite` /
/// `suite.generate` spans around the main-thread phases; per-job spans
/// come from the engine and pipeline instrumentation.
fn run_grid(options: &SuiteOptions) -> Result<ExperimentResult, Box<dyn std::error::Error>> {
    let _root = obs::span!("suite");
    let (corpus_kind, entries, gpu) = resolve_corpus(options);
    let limit = options.max_matrices.unwrap_or(usize::MAX);
    let engine = match options.threads {
        Some(n) => Engine::new(n),
        None => Engine::from_env(),
    };

    let entries: Vec<_> = match &options.only {
        Some(name) => {
            let kept: Vec<_> = entries
                .into_iter()
                .filter(|e| e.name.contains(name.as_str()))
                .collect();
            if kept.is_empty() {
                return Err(
                    format!("--only {name:?} matches no {corpus_kind} corpus entry").into(),
                );
            }
            kept
        }
        None => entries,
    };
    let mut spec = ExperimentSpec::new(gpu)
        .techniques(resolve_techniques(options)?)
        .kernels(resolve_kernels(options)?);
    for entry in entries.into_iter().take(limit) {
        eprintln!("[suite] gen {}", entry.name);
        let _span = obs::span!("suite.generate", "{}", entry.name);
        let matrix = entry.generate()?;
        spec = spec.matrix_in_group(entry.name, entry.domain.label(), matrix);
    }
    eprintln!(
        "[suite] {} matrices x {} techniques x {} kernels on {} threads",
        spec.matrices.len(),
        spec.techniques.len(),
        spec.kernels.len(),
        engine.threads()
    );
    Ok(spec.run(&engine)?)
}

/// `suite --list`: resolves the corpus grid exactly as a run would
/// (corpus selection, `--only` filter, `--max-matrices` truncation,
/// technique suite, thread count) and prints it without generating a
/// single matrix.
fn list_suite(options: &SuiteOptions) -> Result<(), Box<dyn std::error::Error>> {
    let (corpus_kind, entries, _) = resolve_corpus(options);
    let entries: Vec<_> = match &options.only {
        Some(name) => {
            let kept: Vec<_> = entries
                .into_iter()
                .filter(|e| e.name.contains(name.as_str()))
                .collect();
            if kept.is_empty() {
                return Err(
                    format!("--only {name:?} matches no {corpus_kind} corpus entry").into(),
                );
            }
            kept
        }
        None => entries,
    };
    let limit = options.max_matrices.unwrap_or(usize::MAX);
    let entries: Vec<_> = entries.into_iter().take(limit).collect();
    let techniques: Vec<String> = resolve_techniques(options)?
        .iter()
        .map(|t| t.name().to_string())
        .collect();

    let mut table = Table::new(
        format!("Suite grid ({corpus_kind} corpus, resolved, not run)"),
        vec![
            "matrix".to_string(),
            "domain".to_string(),
            "publish order".to_string(),
        ],
    );
    for e in &entries {
        table.add_row(vec![
            e.name.to_string(),
            e.domain.label().to_string(),
            format!("{:?}", e.publish),
        ]);
    }
    println!("{table}");
    let kernels: Vec<String> = resolve_kernels(options)?
        .iter()
        .map(Kernel::cli_name)
        .collect();
    println!("techniques: {}", techniques.join(" | "));
    println!("kernels:    {}", kernels.join(" | "));
    let threads = match options.threads {
        Some(n) => n.to_string(),
        None => "auto (available parallelism)".to_string(),
    };
    println!("threads:    {threads}");
    println!(
        "jobs:       {} ({} matrices x {} techniques x {} kernels)",
        entries.len() * techniques.len() * kernels.len(),
        entries.len(),
        techniques.len(),
        kernels.len()
    );
    Ok(())
}

/// The full paper-suite grid run behind the `suite` subcommand.
fn run_suite(options: &SuiteOptions) -> Result<(), Box<dyn std::error::Error>> {
    if options.list {
        return list_suite(options);
    }
    let jsonl = install_jsonl(options)?;
    let result = run_grid(options)?;

    let mut headers = vec!["matrix".to_string(), "domain".to_string()];
    headers.extend(result.techniques.iter().cloned());
    let kernel_label = resolve_kernels(options)?
        .iter()
        .map(Kernel::name)
        .collect::<Vec<String>>()
        .join("+");
    let mut table = Table::new(
        format!("Paper suite: {kernel_label} DRAM traffic normalized to compulsory"),
        headers,
    );
    for (mi, (name, group)) in result.matrices.iter().enumerate() {
        let mut row = vec![name.clone(), group.clone()];
        for ti in 0..result.techniques.len() {
            row.push(Table::ratio(result.run_for(mi, ti).run.traffic_ratio));
        }
        table.add_row(row);
    }
    let mut mean_row = vec!["MEAN (traffic)".to_string(), String::new()];
    let mut time_row = vec!["MEAN (run time)".to_string(), String::new()];
    for ti in 0..result.techniques.len() {
        mean_row.push(Table::ratio(
            arith_mean_ratio(&result.traffic_ratios(ti)).unwrap_or(f64::NAN),
        ));
        time_row.push(Table::ratio(
            arith_mean_ratio(&result.time_ratios(ti)).unwrap_or(f64::NAN),
        ));
    }
    table.add_row(mean_row);
    table.add_row(time_row);
    // With `--json -` stdout is the machine-readable report; keep the
    // human table on stderr so the stream stays parseable.
    let json_to_stdout = options.json.as_deref() == Some("-");
    if json_to_stdout {
        eprintln!("{table}");
    } else {
        println!("{table}");
    }
    eprintln!("[suite] engine: {}", result.stats.summary());

    if let Some(path) = &options.json {
        let json = result.render_json();
        if json_to_stdout {
            print!("{json}");
        } else {
            std::fs::write(path, json)?;
            eprintln!("[suite] report json -> {path}");
        }
    }
    finish_jsonl(jsonl, options.telemetry.as_ref(), "suite")?;
    Ok(())
}

/// The `profile` subcommand: the suite grid under the aggregating
/// registry, reported as a phase tree plus the hottest cells.
fn run_profile(options: &ProfileOptions) -> Result<(), Box<dyn std::error::Error>> {
    let registry = Arc::new(obs::Registry::new());
    let registry_guard = obs::install(registry.clone());
    let jsonl = install_jsonl(&options.grid)?;
    let result = run_grid(&options.grid)?;
    drop(registry_guard);
    finish_jsonl(jsonl, options.grid.telemetry.as_ref(), "profile")?;

    print!("{}", registry.render_tree());
    if let Some(path) = &options.flame {
        std::fs::write(path, registry.render_folded())?;
        eprintln!("[profile] folded flamegraph -> {path}");
    }
    let hottest = registry.hottest("grid.cell", options.top);
    if !hottest.is_empty() {
        println!(
            "top {} hottest (matrix, technique) cells by simulation time",
            hottest.len()
        );
        for (rank, (label, stat)) in hottest.iter().enumerate() {
            println!(
                "  {:>2}. {:<34} {:>4} cells {:>10}",
                rank + 1,
                label,
                stat.count,
                obs::registry::fmt_ns(stat.total_ns),
            );
        }
    }
    if let Some(path) = &options.grid.json {
        let json = result.render_json();
        if path == "-" {
            print!("{json}");
        } else {
            std::fs::write(path, json)?;
            eprintln!("[profile] report json -> {path}");
        }
    }
    eprintln!("[profile] engine: {}", result.stats.summary());
    Ok(())
}

fn load(path: &str) -> Result<CsrMatrix, Box<dyn std::error::Error>> {
    let coo = io::read_matrix_market(std::fs::File::open(path)?)?;
    Ok(CsrMatrix::try_from(coo)?)
}

fn analyze(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let m = load(path)?;
    println!(
        "{path}: {} x {}, {} non-zeros",
        m.n_rows(),
        m.n_cols(),
        m.nnz()
    );
    let deg = stats::DegreeStats::from_degrees(&m.out_degrees());
    println!(
        "degrees: min {} / mean {:.2} / median {} / p90 {} / max {} (empty rows: {})",
        deg.min, deg.mean, deg.median, deg.p90, deg.max, deg.zero_count
    );
    println!(
        "skew (nnz in top-10% rows): {:.2}% | bandwidth {} | symmetric: {}",
        stats::skew_top10(&m) * 100.0,
        stats::bandwidth(&m),
        m.is_symmetric()
    );
    let (_, components) = ops::connected_components(&m)?;
    println!("connected components: {components}");
    let r = Rabbit::new().run(&m)?;
    let cs = CommunityStats::from_sizes(&r.dendrogram.community_sizes());
    println!(
        "RABBIT communities: {} (mean size {:.1}, largest {:.1}% of matrix)",
        cs.count,
        cs.mean_size,
        cs.max_size_fraction * 100.0
    );
    println!(
        "insularity: {:.3} | insular nodes: {:.1}% | modularity: {:.3}",
        quality::insularity(&m, &r.assignment)?,
        quality::insular_fraction(&m, &r.assignment)? * 100.0,
        quality::modularity(&ops::symmetrize(&m)?, &r.assignment)?
    );
    Ok(())
}

fn reorder(input: &str, output: &str, technique: &str) -> Result<(), Box<dyn std::error::Error>> {
    let technique =
        parse_technique(technique).ok_or_else(|| format!("unknown technique {technique:?}"))?;
    let m = load(input)?;
    let start = std::time::Instant::now();
    let perm = technique.reorder(&m)?;
    eprintln!(
        "{} reordering took {:.1} ms",
        technique.name(),
        start.elapsed().as_secs_f64() * 1e3
    );
    let reordered = m.permute_symmetric(&perm)?;
    io::write_matrix_market(std::fs::File::create(output)?, &reordered)?;
    eprintln!("wrote {output}");
    Ok(())
}

fn simulate(path: &str, technique: &str, kernel: &str) -> Result<(), Box<dyn std::error::Error>> {
    let technique =
        parse_technique(technique).ok_or_else(|| format!("unknown technique {technique:?}"))?;
    let kernel = parse_kernel(kernel).ok_or_else(|| format!("unknown kernel {kernel:?}"))?;
    let m = load(path)?;
    let pipeline = Pipeline::builder(GpuSpec::a6000_scaled())
        .kernel(kernel)
        .build()?;
    let before = pipeline.simulate(&m);
    let eval = pipeline.evaluate(&m, technique.as_ref())?;
    println!(
        "{} on {}: ORIGINAL {:.2}x -> {} {:.2}x of compulsory traffic ({:.2}x / {:.2}x of ideal time)",
        kernel.name(),
        path,
        before.traffic_ratio,
        eval.technique,
        eval.run.traffic_ratio,
        before.time_ratio,
        eval.run.time_ratio,
    );
    Ok(())
}

fn spy_plot(path: &str, technique: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let m = load(path)?;
    println!("{path} as published:");
    print!("{}", commorder::viz::spy(&m, 40));
    if let Some(name) = technique {
        let technique =
            parse_technique(name).ok_or_else(|| format!("unknown technique {name:?}"))?;
        let reordered = m.permute_symmetric(&technique.reorder(&m)?)?;
        println!("\nafter {}:", technique.name());
        print!("{}", commorder::viz::spy(&reordered, 40));
    }
    Ok(())
}

fn check(path: &str, json: bool) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let contents = std::fs::read_to_string(path)?;
    let report = commorder::check::check_file_contents(path, &contents);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(if report.error_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn advise(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use commorder::reorder::advisor::{Advisor, Budget};
    let m = load(path)?;
    for (label, budget) in [("amortized", Budget::Amortized), ("tight", Budget::Tight)] {
        let rec = Advisor::default().recommend(&m, budget)?;
        println!("{label} budget -> {}", rec.technique.name());
        println!("  {}", rec.rationale);
    }
    Ok(())
}

/// `corpus stats <name>`: generates one entry (searched across the
/// standard, mega and mini tiers) and prints its shape. Mega entries
/// stream straight into CSR, so CI runs this under `ulimit -v` to prove
/// million-row generation never materializes an edge list.
fn corpus_stats(name: &str) -> Result<(), Box<dyn std::error::Error>> {
    let entry = corpus::standard()
        .into_iter()
        .chain(corpus::mega())
        .chain(corpus::mini())
        .find(|e| e.name == name)
        .ok_or_else(|| format!("no corpus entry named {name:?} in any tier"))?;
    let started = std::time::Instant::now();
    let m = entry.generate()?;
    println!(
        "{}: {} x {}, {} non-zeros ({}, generated in {:.2} s)",
        entry.name,
        m.n_rows(),
        m.n_cols(),
        m.nnz(),
        entry.domain.label(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn list_corpus() {
    let mut table = Table::new(
        "standard evaluation corpus",
        vec!["name".into(), "domain".into(), "publish order".into()],
    );
    for e in corpus::standard() {
        table.add_row(vec![
            e.name.to_string(),
            e.domain.label().to_string(),
            format!("{:?}", e.publish),
        ]);
    }
    println!("{table}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, input] if cmd == "analyze" => analyze(input),
        [cmd, input, output] if cmd == "reorder" => reorder(input, output, "rabbit++"),
        [cmd, input, output, technique] if cmd == "reorder" => reorder(input, output, technique),
        [cmd, input] if cmd == "simulate" => simulate(input, "rabbit++", "spmv-csr"),
        [cmd, input, technique] if cmd == "simulate" => simulate(input, technique, "spmv-csr"),
        [cmd, input, technique, kernel] if cmd == "simulate" => simulate(input, technique, kernel),
        [cmd, input] if cmd == "check" => {
            return check(input, false).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            })
        }
        [cmd, input, flag] if cmd == "check" && flag == "--json" => {
            return check(input, true).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            })
        }
        [cmd, input] if cmd == "advise" => advise(input),
        [cmd, input] if cmd == "spy" => spy_plot(input, None),
        [cmd, input, technique] if cmd == "spy" => spy_plot(input, Some(technique)),
        [cmd] if cmd == "corpus" => {
            list_corpus();
            Ok(())
        }
        [cmd, rest @ ..] if cmd == "suite" => match SuiteOptions::parse(rest) {
            Ok(options) => run_suite(&options),
            Err(message) => {
                eprintln!("error: {message}");
                return usage();
            }
        },
        [cmd, rest @ ..] if cmd == "profile" => match ProfileOptions::parse(rest) {
            Ok(options) => run_profile(&options),
            Err(message) => {
                eprintln!("error: {message}");
                return usage();
            }
        },
        [cmd, sub, name] if cmd == "corpus" && sub == "stats" => corpus_stats(name),
        [cmd, sub, dir] if cmd == "corpus" && sub == "export" => {
            let entries = corpus::standard();
            corpus::export_to_directory(&entries, std::path::Path::new(dir))
                .map(|n| eprintln!("wrote {n} matrices to {dir}"))
                .map_err(Into::into)
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
