//! Workspace automation tasks.
//!
//! `cargo run -p xtask -- lint` runs the offline static-analysis pass
//! over every crate: it needs no network, no rustc invocation, and no
//! third-party dependencies, so it works in the most restricted CI
//! sandbox. Since PR 5 the backend is `commorder-analyze`: a lossless
//! token-stream lexer plus layering/determinism/telemetry-name passes,
//! replacing the old line-regex scan. It complements (not replaces)
//! `cargo clippy` with the workspace deny-list: clippy enforces
//! expression-level lints, the analyzer enforces the *policy*
//! invariants a lint pass can't express — crate-header pragmas,
//! manifest opt-ins, the panic-free-library rule with its documented
//! allowlist, the layering DAG, and report-path determinism.
//!
//! `cargo run -p xtask -- lint --fix-allowlist` mechanically removes
//! allowlist entries the analyzer reports as unused (`XT0702`) before
//! printing the report, so the allowlist never accretes dead rows.
//!
//! `cargo run -p xtask -- bench` is the unified bench driver
//! (subsuming the retired `bench-analyze`/`bench-reorder` tasks): it
//! measures the analyzer (lexer throughput, self-host wall time), the
//! community and BOBA reorderers (Medges/s at several engine widths, peak
//! RSS, permutation fingerprints), and the full simulation pipeline
//! (trace-generation and LRU/PLRU/Belady simulated accesses/s,
//! end-to-end suite wall time), writing one schema-versioned
//! `BENCH_<name>.json` artifact per bench at the repository root
//! (schema `commorder-bench.v2`, validated by `commorder-cli check`).
//! `--compare OLD_DIR` re-reads baseline artifacts and fails the
//! process when a metric drifts beyond the tolerance band or a result fingerprint
//! changes at all.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use commorder_analyze::workspace::prune_allowlist;
use commorder_analyze::{analyze_workspace, codes, lex, AnalyzerConfig};
use xtask::bench::{self, BenchReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(
            &workspace_root(),
            args.iter().any(|a| a == "--json"),
            args.iter().any(|a| a == "--fix-allowlist"),
        ),
        Some("bench") => run_bench_task(&workspace_root(), &args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <task>");
            eprintln!();
            eprintln!("tasks:");
            eprintln!("  lint [--json] [--fix-allowlist]");
            eprintln!("          offline static-analysis pass over all workspace crates;");
            eprintln!("          --fix-allowlist prunes XT0702-unused allowlist entries first");
            eprintln!("  bench [--quick] [--no-run] [--compare OLD_DIR] [--tolerance F]");
            eprintln!("          unified bench driver: analyzer, reorder, and pipeline benches");
            eprintln!("          write BENCH_analyze/BENCH_reorder/BENCH_pipeline.json at the");
            eprintln!("          repo root (schema commorder-bench.v2). --quick uses smaller");
            eprintln!("          inputs for CI; --no-run skips measurement and only compares;");
            eprintln!("          --compare gates against baseline artifacts in OLD_DIR with a");
            eprintln!("          relative tolerance band (default 0.30)");
            ExitCode::FAILURE
        }
    }
}

/// Runs the analyzer over the workspace and prints the report; the
/// process fails when any error-severity finding is present. With
/// `fix_allowlist`, stale (`XT0702`) allowlist entries are pruned from
/// the allowlist file before the reported run.
fn lint(root: &Path, json: bool, fix_allowlist: bool) -> ExitCode {
    if fix_allowlist {
        match prune_stale_allowlist_entries(root) {
            Ok(0) => eprintln!("xtask lint: allowlist has no unused entries"),
            Ok(n) => eprintln!("xtask lint: pruned {n} unused allowlist entr{}", plural(n)),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = match analyze_workspace(root, &AnalyzerConfig::default()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the analyzer once to locate `XT0702` findings, then rewrites
/// the allowlist file with those lines removed. Returns the number of
/// pruned entries.
fn prune_stale_allowlist_entries(root: &Path) -> Result<usize, String> {
    let config = AnalyzerConfig::default();
    let report = analyze_workspace(root, &config)?;
    let stale: BTreeSet<u32> = report
        .findings
        .iter()
        .filter(|f| f.code == codes::ALLOWLIST_UNUSED && f.file == config.allowlist_rel)
        .map(|f| f.line)
        .collect();
    if stale.is_empty() {
        return Ok(0);
    }
    let path = root.join(&config.allowlist_rel);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    fs::write(&path, prune_allowlist(&text, &stale))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(stale.len())
}

/// "y"/"ies" suffix for the prune message.
fn plural(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// The three benches the unified driver runs, in execution order. The
/// cheap analyzer bench goes first so a broken workspace fails fast.
const BENCH_NAMES: [&str; 3] = ["analyze", "pipeline", "reorder"];

/// The `bench` task: run the benches (unless `--no-run`), write one
/// v2 artifact per bench at the repo root, then optionally gate
/// against a baseline directory.
fn run_bench_task(root: &Path, args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut no_run = false;
    let mut compare_dir: Option<PathBuf> = None;
    let mut tolerance = 0.30f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--no-run" => no_run = true,
            "--compare" => match args.get(i + 1) {
                Some(dir) => {
                    compare_dir = Some(PathBuf::from(dir));
                    i += 1;
                }
                None => {
                    eprintln!("xtask bench: --compare needs a baseline directory");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match args.get(i + 1).and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t >= 0.0 => {
                    tolerance = t;
                    i += 1;
                }
                _ => {
                    eprintln!("xtask bench: --tolerance needs a non-negative number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask bench: unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if !no_run {
        for (name, result) in [
            ("analyze", run_bench_analyze(root)),
            ("pipeline", run_bench_pipeline(quick)),
            ("reorder", run_bench_reorder(quick)),
        ] {
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("xtask bench: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let path = root.join(format!("BENCH_{name}.json"));
            if let Err(e) = fs::write(&path, report.render_json()) {
                eprintln!("xtask bench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("xtask bench: wrote {}", path.display());
        }
    }

    match compare_dir {
        Some(dir) => compare_gate(root, &dir, tolerance),
        None => ExitCode::SUCCESS,
    }
}

/// Gates the repo-root artifacts against the baselines in `old_dir`
/// and fails on any regression. Comparing nothing at all also fails —
/// a gate that silently gates nothing is worse than no gate.
fn compare_gate(root: &Path, old_dir: &Path, tolerance: f64) -> ExitCode {
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for name in BENCH_NAMES {
        let file = format!("BENCH_{name}.json");
        let old_path = old_dir.join(&file);
        if !old_path.is_file() {
            eprintln!(
                "xtask bench: no baseline for {name} in {}; skipped",
                old_dir.display()
            );
            continue;
        }
        let new_path = root.join(&file);
        let pair = fs::read_to_string(&old_path)
            .and_then(|old| fs::read_to_string(&new_path).map(|new| (old, new)));
        let (old_text, new_text) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("xtask bench: REGRESSION {name}: cannot read artifact pair: {e}");
                regressions += 1;
                continue;
            }
        };
        let reports = BenchReport::parse(&old_text)
            .map_err(|e| format!("baseline {}: {e}", old_path.display()))
            .and_then(|old| {
                BenchReport::parse(&new_text)
                    .map_err(|e| format!("new {}: {e}", new_path.display()))
                    .map(|new| (old, new))
            });
        let (old, new) = match reports {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("xtask bench: REGRESSION {name}: {e}");
                regressions += 1;
                continue;
            }
        };
        let outcome = bench::compare(&old, &new, tolerance);
        for w in &outcome.warnings {
            eprintln!("xtask bench: warning: {w}");
        }
        for r in &outcome.regressions {
            eprintln!("xtask bench: REGRESSION: {r}");
        }
        regressions += outcome.regressions.len();
        compared += 1;
    }
    if compared == 0 {
        eprintln!(
            "xtask bench: no baseline artifacts found in {} — nothing was gated",
            old_dir.display()
        );
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!("xtask bench: {regressions} regression(s) against the baseline");
        ExitCode::FAILURE
    } else {
        eprintln!("xtask bench: no regressions ({compared} bench(es) compared)");
        ExitCode::SUCCESS
    }
}

/// Benchmarks the analyzer over the live workspace: raw lexer
/// throughput (tokens/s over every `crates/**/*.rs` file) and the wall
/// time of a full self-host `analyze_workspace` run.
fn run_bench_analyze(root: &Path) -> Result<BenchReport, String> {
    let mut sources = Vec::new();
    collect_rs_files(&root.join("crates"), &mut sources)?;
    sources.sort();

    let mut bytes: u64 = 0;
    let mut tokens: u64 = 0;
    let lex_start = Instant::now();
    for path in &sources {
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        bytes += src.len() as u64;
        tokens += lex(&src).len() as u64;
    }
    let lex_seconds = lex_start.elapsed().as_secs_f64();

    let selfhost_start = Instant::now();
    analyze_workspace(root, &AnalyzerConfig::default())?;
    let selfhost_seconds = selfhost_start.elapsed().as_secs_f64();
    let tokens_per_second = if lex_seconds > 0.0 {
        tokens as f64 / lex_seconds
    } else {
        0.0
    };

    // Effect-pass throughput in isolation: the crates and the call
    // graph are prebuilt so the timer covers only the local scan, the
    // fixed-point propagation, and the witness indexing.
    let config = AnalyzerConfig::default();
    let crates = commorder_analyze::workspace::load_crates(root)?;
    let graph =
        commorder_analyze::callgraph::build(&crates, &config.hot_seed_fns, &config.worker_seed_fns);
    let functions = graph.nodes.len() as f64;
    let effects_start = Instant::now();
    let fx = commorder_analyze::effects::compute(&crates, &graph);
    let effects_seconds = effects_start.elapsed().as_secs_f64();
    let effectful = fx.to_report().rows.len();
    let effect_functions_per_second = if effects_seconds > 0.0 {
        functions / effects_seconds
    } else {
        0.0
    };

    eprintln!(
        "xtask bench: analyze: {} files ({bytes} bytes), {tokens} tokens, \
         {tokens_per_second:.0} tokens/s lex, {selfhost_seconds:.3}s self-host, \
         {effect_functions_per_second:.0} fns/s effects ({effectful} effectful)",
        sources.len(),
    );
    let mut report = BenchReport::new("analyze");
    report.metric(
        "analyze.effect_functions_per_second",
        effect_functions_per_second,
        "functions/s",
        true,
    );
    report.metric(
        "analyze.lex_tokens_per_second",
        tokens_per_second,
        "tokens/s",
        true,
    );
    report.metric(
        "analyze.selfhost_seconds",
        selfhost_seconds,
        "seconds",
        false,
    );
    Ok(report)
}

/// Benchmarks RABBIT, RABBIT++ and BOBA on a streamed corpus
/// entry (`--quick`: a standard-tier social graph at 1/2 threads;
/// full: the mega-tier k-mer chain at 1/2/8 threads). Permutations
/// must be byte-identical across thread counts; their FNV-1a hashes
/// become the report's result fingerprints.
fn run_bench_reorder(quick: bool) -> Result<BenchReport, String> {
    use commorder_exec::Engine;
    use commorder_reorder::{Boba, Rabbit, RabbitPlusPlus, ReorderContext, Reordering};
    use commorder_synth::corpus;

    let entry_name = if quick {
        "soc-rmat-131k"
    } else {
        "mega-kmer-chain-4m"
    };
    let entry = corpus::mega()
        .into_iter()
        .chain(corpus::standard())
        .find(|e| e.name == entry_name)
        .ok_or_else(|| format!("no corpus entry named {entry_name:?}"))?;

    let gen_start = Instant::now();
    let matrix = entry
        .generate()
        .map_err(|e| format!("generating {entry_name}: {e}"))?;
    let gen_seconds = gen_start.elapsed().as_secs_f64();
    eprintln!(
        "xtask bench: reorder: {entry_name} = {} rows, {} nnz ({gen_seconds:.2}s to stream)",
        matrix.n_rows(),
        matrix.nnz()
    );

    let techniques: Vec<(&str, Box<dyn Reordering>)> = vec![
        ("rabbit", Box::new(Rabbit::new())),
        ("rabbit++", Box::new(RabbitPlusPlus::new())),
        ("boba", Box::new(Boba)),
    ];
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 8] };
    let repetitions = if quick { 2 } else { 3 };
    let nnz = matrix.nnz() as f64;

    // Untimed warmup: fault the matrix and allocator pools in once so
    // the first timed run is not charged for first-touch page faults.
    let warmup = Engine::new(1);
    Rabbit::new()
        .reorder_with(&matrix, &ReorderContext::new(&warmup, 0xC0DE))
        .map_err(|e| format!("warmup: {e}"))?;

    let mut report = BenchReport::new("reorder");
    report.metric("reorder.generate_seconds", gen_seconds, "seconds", false);
    for (name, technique) in &techniques {
        let mut reference_hash: Option<u64> = None;
        let mut seconds_per_run = Vec::with_capacity(thread_counts.len());
        for &threads in thread_counts {
            let engine = Engine::new(threads);
            let cx = ReorderContext::new(&engine, 0xC0DE);
            // Best-of-N: repetitions absorb scheduler noise, which on a
            // loaded host can otherwise exceed the parallel speedup.
            let mut seconds = f64::INFINITY;
            let mut hwm_kb = 0u64;
            let mut last = None;
            for _ in 0..repetitions {
                reset_peak_rss();
                let start = Instant::now();
                let permutation = technique
                    .reorder_with(&matrix, &cx)
                    .map_err(|e| format!("{name} at {threads} threads: {e}"))?;
                seconds = seconds.min(start.elapsed().as_secs_f64());
                hwm_kb = hwm_kb.max(peak_rss_kb());
                last = Some(permutation);
            }
            let permutation = match last {
                Some(p) => p,
                None => unreachable!("loop runs at least once"),
            };
            let hash = bench::fnv1a_u32s(permutation.as_slice());
            match reference_hash {
                None => reference_hash = Some(hash),
                Some(reference) if reference != hash => {
                    return Err(format!(
                        "{name} permutation drifted at {threads} threads \
                         ({reference:016x} -> {hash:016x})"
                    ));
                }
                Some(_) => {}
            }
            let medges_per_s = if seconds > 0.0 {
                nnz / seconds / 1e6
            } else {
                0.0
            };
            eprintln!(
                "xtask bench: reorder: {name:<9} {threads} thread(s): {seconds:.3}s \
                 ({medges_per_s:.1} Medges/s, hwm {hwm_kb} kB)"
            );
            report.metric(
                &format!("reorder.{name}.t{threads}.medges_per_second"),
                medges_per_s,
                "Medges/s",
                true,
            );
            report.metric(
                &format!("reorder.{name}.t{threads}.peak_rss_kb"),
                hwm_kb as f64,
                "kB",
                false,
            );
            seconds_per_run.push(seconds);
        }
        // Speedup of the widest run over serial — the scaling headline.
        let speedup = match (seconds_per_run.first(), seconds_per_run.last()) {
            (Some(&serial), Some(&widest)) if widest > 0.0 => serial / widest,
            _ => 0.0,
        };
        report.metric(
            &format!("reorder.{name}.speedup_widest_vs_serial"),
            speedup,
            "ratio",
            true,
        );
        report.fingerprint(&format!("permutation.{name}"), reference_hash.unwrap_or(0));
    }
    Ok(report)
}

/// FNV-1a over the full counter vector of a cache simulation — any
/// behavioural drift in the simulator or its input trace changes it.
fn stats_fingerprint(s: &commorder::cachesim::CacheStats) -> u64 {
    bench::fnv1a_u64s(&[
        s.accesses,
        s.hits,
        s.fill_misses,
        s.write_alloc_misses,
        s.compulsory_misses,
        s.evictions,
        s.dead_lines,
        s.writebacks,
        s.fills,
        u64::from(s.line_bytes),
    ])
}

/// Benchmarks the simulation pipeline end to end: trace-generation
/// throughput, LRU/PLRU/Belady simulated accesses/s (each
/// fingerprinted by its counter vector), the wall time of a small
/// experiment suite, and the peak RSS of the whole bench.
fn run_bench_pipeline(quick: bool) -> Result<BenchReport, String> {
    use commorder::cachesim::belady::simulate_belady;
    use commorder::cachesim::plru::PlruCache;
    use commorder::cachesim::source::{simulate_lru, KernelTrace};
    use commorder::cachesim::trace::ExecutionModel;
    use commorder::cachesim::{CacheConfig, TraceSource};
    use commorder::gpumodel::GpuSpec;
    use commorder::ExperimentSpec;
    use commorder_exec::Engine;
    use commorder_reorder::paper_suite;
    use commorder_sparse::traffic::Kernel;
    use commorder_synth::corpus;

    reset_peak_rss();
    let entry_name = if quick { "mini-rmat" } else { "soc-rmat-xl" };
    let entry = corpus::mini()
        .into_iter()
        .chain(corpus::standard())
        .find(|e| e.name == entry_name)
        .ok_or_else(|| format!("no corpus entry named {entry_name:?}"))?;
    let matrix = entry
        .generate()
        .map_err(|e| format!("generating {entry_name}: {e}"))?;
    let config = if quick {
        CacheConfig::test_scale()
    } else {
        CacheConfig::a6000_scaled()
    };
    let source = KernelTrace::new(&matrix, Kernel::SpmvCsr, ExecutionModel::Sequential);

    let mut report = BenchReport::new("pipeline");
    let per_second = |n: u64, seconds: f64| {
        if seconds > 0.0 {
            n as f64 / seconds
        } else {
            0.0
        }
    };

    let start = Instant::now();
    let mut accesses: u64 = 0;
    source.replay(&mut |_| accesses += 1);
    let gen_aps = per_second(accesses, start.elapsed().as_secs_f64());
    report.metric(
        "pipeline.trace_gen_accesses_per_second",
        gen_aps,
        "accesses/s",
        true,
    );

    let start = Instant::now();
    let lru = simulate_lru(config, &source);
    let lru_aps = per_second(lru.accesses, start.elapsed().as_secs_f64());
    report.metric(
        "pipeline.lru_accesses_per_second",
        lru_aps,
        "accesses/s",
        true,
    );
    report.fingerprint("cache.lru", stats_fingerprint(&lru));

    let start = Instant::now();
    let mut plru_cache = PlruCache::new(config);
    plru_cache.consume(&source);
    let plru = plru_cache.finish();
    let plru_aps = per_second(plru.accesses, start.elapsed().as_secs_f64());
    report.metric(
        "pipeline.plru_accesses_per_second",
        plru_aps,
        "accesses/s",
        true,
    );
    report.fingerprint("cache.plru", stats_fingerprint(&plru));

    let start = Instant::now();
    let belady = simulate_belady(config, &source);
    let belady_aps = per_second(belady.accesses, start.elapsed().as_secs_f64());
    report.metric(
        "pipeline.belady_accesses_per_second",
        belady_aps,
        "accesses/s",
        true,
    );
    report.fingerprint("cache.belady", stats_fingerprint(&belady));
    eprintln!(
        "xtask bench: pipeline: {entry_name} trace = {accesses} accesses; \
         {gen_aps:.0} gen/s, {lru_aps:.0} LRU/s, {plru_aps:.0} PLRU/s, {belady_aps:.0} Belady/s"
    );

    // SpGEMM leg: Gustavson and cluster-wise self-multiply over a
    // community-structured matrix (cluster-wise is the interesting case
    // there), streaming straight into the LRU simulator. Throughput is
    // timed; the counter vectors and accumulator peaks are exact.
    {
        use commorder::cachesim::SpGemmTrace;
        use commorder_reorder::Rabbit;

        let spgemm_name = if quick { "mini-sbm" } else { "opt-block-512" };
        let spgemm_entry = corpus::mini()
            .into_iter()
            .chain(corpus::standard())
            .find(|e| e.name == spgemm_name)
            .ok_or_else(|| format!("no corpus entry named {spgemm_name:?}"))?;
        let spgemm_matrix = spgemm_entry
            .generate()
            .map_err(|e| format!("generating {spgemm_name}: {e}"))?;
        let gustavson = SpGemmTrace::self_multiply(&spgemm_matrix, Kernel::SpGemmGustavson)
            .map_err(|e| format!("SpGEMM trace over {spgemm_name}: {e}"))?;

        let start = Instant::now();
        let mut spgemm_accesses: u64 = 0;
        gustavson.replay(&mut |_| spgemm_accesses += 1);
        let spgemm_gen_aps = per_second(spgemm_accesses, start.elapsed().as_secs_f64());
        report.metric(
            "pipeline.spgemm_trace_gen_accesses_per_second",
            spgemm_gen_aps,
            "accesses/s",
            true,
        );

        let start = Instant::now();
        let spgemm_lru = simulate_lru(config, &gustavson);
        let spgemm_lru_aps = per_second(spgemm_lru.accesses, start.elapsed().as_secs_f64());
        report.metric(
            "pipeline.spgemm_lru_accesses_per_second",
            spgemm_lru_aps,
            "accesses/s",
            true,
        );
        report.fingerprint("cache.spgemm_lru", stats_fingerprint(&spgemm_lru));

        let assignment = Rabbit::new()
            .run(&spgemm_matrix)
            .map_err(|e| format!("rabbit over {spgemm_name}: {e}"))?
            .assignment;
        let clustered = SpGemmTrace::new(
            &spgemm_matrix,
            &spgemm_matrix,
            Kernel::SpGemmClusterWise,
            Some(&assignment),
        )
        .map_err(|e| format!("cluster-wise SpGEMM trace over {spgemm_name}: {e}"))?;
        let cluster_lru = simulate_lru(config, &clustered);
        report.fingerprint("cache.spgemm_cluster_lru", stats_fingerprint(&cluster_lru));
        report.metric(
            "pipeline.spgemm_row_acc_peak_elements",
            gustavson.accumulator_peak() as f64,
            "elements",
            false,
        );
        report.metric(
            "pipeline.spgemm_cluster_acc_peak_elements",
            clustered.accumulator_peak() as f64,
            "elements",
            false,
        );
        eprintln!(
            "xtask bench: pipeline: SpGEMM {spgemm_name} trace = {spgemm_accesses} accesses; \
             {spgemm_gen_aps:.0} gen/s, {spgemm_lru_aps:.0} LRU/s, acc peak {} row / {} cluster",
            gustavson.accumulator_peak(),
            clustered.accumulator_peak()
        );
    }

    // A small end-to-end suite: mini matrices through the full paper
    // technique set. Its rendered report is deterministic across thread
    // counts and machines, so its hash doubles as a result fingerprint.
    let gpu = if quick {
        GpuSpec::test_scale()
    } else {
        GpuSpec::a6000_scaled()
    };
    let mut spec = ExperimentSpec::new(gpu).techniques(paper_suite(0xC0DE));
    let suite_matrices = if quick { 2 } else { 4 };
    for entry in corpus::mini().into_iter().take(suite_matrices) {
        let m = entry
            .generate()
            .map_err(|e| format!("generating {}: {e}", entry.name))?;
        spec = spec.matrix(entry.name, m);
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let engine = Engine::new(threads);
    let start = Instant::now();
    let result = spec.run(&engine).map_err(|e| format!("suite run: {e}"))?;
    let suite_seconds = start.elapsed().as_secs_f64();
    report.metric(
        "pipeline.suite_wall_seconds",
        suite_seconds,
        "seconds",
        false,
    );
    report.fingerprint(
        "suite.report",
        bench::fnv1a_bytes(result.render_json().as_bytes()),
    );
    let hwm_kb = peak_rss_kb();
    report.metric("pipeline.peak_rss_kb", hwm_kb as f64, "kB", false);
    eprintln!(
        "xtask bench: pipeline: suite of {suite_matrices} mini matrices in {suite_seconds:.2}s \
         at {threads} thread(s), hwm {hwm_kb} kB"
    );
    Ok(report)
}

/// Resets the kernel's peak-RSS watermark for this process (Linux
/// `/proc/self/clear_refs`); silently a no-op where unsupported.
fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Reads the peak RSS (`VmHWM`, in kB) of this process; 0 where
/// `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Recursively collects every `.rs` file under `dir`, skipping
/// `target/` build directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}
