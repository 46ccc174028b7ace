//! Helpers for the `commorder-cli` binary: technique/kernel name parsing
//! and the analyze/reorder/simulate entry points, kept in the library so
//! they are unit-testable.

use commorder_check::ingest::ROUTES;
use commorder_reorder::{technique_by_name, Reordering};
use commorder_sparse::traffic::Kernel;

/// Names accepted by [`parse_technique`], for help text. Re-exported
/// from the technique registry so CLI help always matches what resolves.
pub use commorder_reorder::TECHNIQUE_NAMES;

/// Names accepted by [`parse_kernel`], for help text. Re-exported from
/// the kernel registry so CLI help always matches what resolves.
pub use commorder_sparse::traffic::KERNEL_NAMES;

/// The file kinds `commorder-cli check` audits, for help text:
/// `.mtx | .csr | …`, formatted from the one table the checker routes by
/// ([`commorder_check::ingest::ROUTES`]).
#[must_use]
pub fn check_file_kinds() -> String {
    ROUTES.map(|(ext, _)| format!(".{ext}")).join(" | ")
}

/// Resolves a (case-insensitive) technique name to an instance, via the
/// technique registry with the CLI's fixed `0xC0DE` seed.
///
/// Returns `None` for unknown names. `"rabbitpp"`, `"rcmpp"` and
/// `"rabbitflat"` are accepted as aliases.
#[must_use]
pub fn parse_technique(name: &str) -> Option<Box<dyn Reordering>> {
    technique_by_name(name, 0xC0DE)
}

/// Resolves a kernel name (`spmv-csr`, `spgemm`, `spgemm-cluster`,
/// `spmm-<k>`, `spmv-tiled-<w>`, `spmv-blocked-<b>`) through the kernel
/// registry ([`commorder_sparse::traffic::kernel_by_name`]); returns
/// `None` for unknown names.
#[must_use]
pub fn parse_kernel(name: &str) -> Option<Kernel> {
    commorder_sparse::traffic::kernel_by_name(name)
}

/// Options of the `commorder-cli suite` subcommand (the full paper-suite
/// grid run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteOptions {
    /// Worker threads (`--threads N`); `None` = available parallelism.
    pub threads: Option<usize>,
    /// Corpus name (`--corpus mini|standard|mega`); `None` = honour the
    /// `COMMORDER_CORPUS` environment variable, defaulting to `standard`.
    pub corpus: Option<String>,
    /// Comma-separated technique list (`--techniques rabbit++,boba`);
    /// `None` = the paper suite. Resolved through the technique
    /// registry, so every registered name and alias is accepted.
    pub techniques: Option<String>,
    /// Comma-separated kernel list (`--kernels spgemm,spgemm-cluster`);
    /// `None` = SpMV-CSR only. Resolved through the kernel registry, so
    /// every registered spelling and alias is accepted.
    pub kernels: Option<String>,
    /// Truncate the corpus (`--max-matrices N`).
    pub max_matrices: Option<usize>,
    /// Keep only corpus entries whose name contains this substring
    /// (`--only NAME`). Applied before `--max-matrices`; CI uses it to
    /// pin the streaming-memory tripwire to the largest synth matrix.
    pub only: Option<String>,
    /// Write the deterministic report JSON here (`--json PATH`, `-` for
    /// stdout).
    pub json: Option<String>,
    /// Stream telemetry events as JSON Lines to this file
    /// (`--telemetry PATH`). The JSON report is byte-identical with or
    /// without this flag — telemetry is a sidecar stream.
    pub telemetry: Option<String>,
    /// Print the resolved corpus grid (matrices after `--only` /
    /// `--max-matrices`, techniques, kernel, job count) and exit
    /// without generating or running anything (`--list`).
    pub list: bool,
}

impl SuiteOptions {
    /// Parses `suite` flags. Unknown flags and malformed values are
    /// errors (returned as the usage message).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn parse(args: &[String]) -> Result<SuiteOptions, String> {
        let mut options = SuiteOptions {
            threads: None,
            corpus: None,
            techniques: None,
            kernels: None,
            max_matrices: None,
            only: None,
            json: None,
            telemetry: None,
            list: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value_of = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--threads" => {
                    let v = value_of("--threads")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--threads expects a positive integer, got {v:?}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    options.threads = Some(n);
                }
                "--corpus" => {
                    let v = value_of("--corpus")?;
                    if v != "mini" && v != "standard" && v != "mega" {
                        return Err(format!("--corpus expects mini|standard|mega, got {v:?}"));
                    }
                    options.corpus = Some(v);
                }
                "--techniques" => {
                    let v = value_of("--techniques")?;
                    // Validate eagerly so a typo fails at parse time, not
                    // after corpus generation.
                    commorder_reorder::parse_technique_list(&v, 0xC0DE)?;
                    options.techniques = Some(v);
                }
                "--kernels" => {
                    let v = value_of("--kernels")?;
                    commorder_sparse::traffic::parse_kernel_list(&v)?;
                    options.kernels = Some(v);
                }
                "--max-matrices" => {
                    let v = value_of("--max-matrices")?;
                    options.max_matrices = Some(v.parse().map_err(|_| {
                        format!("--max-matrices expects a non-negative integer, got {v:?}")
                    })?);
                }
                "--only" => options.only = Some(value_of("--only")?),
                "--json" => options.json = Some(value_of("--json")?),
                "--telemetry" => options.telemetry = Some(value_of("--telemetry")?),
                "--list" => options.list = true,
                other => return Err(format!("unknown suite flag {other:?}")),
            }
        }
        Ok(options)
    }
}

/// Options of the `commorder-cli profile` subcommand: a suite grid run
/// under the aggregating telemetry registry, reporting the phase tree
/// and the hottest (matrix, technique) cells instead of the result
/// table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileOptions {
    /// The underlying grid configuration (same flags as `suite`).
    pub grid: SuiteOptions,
    /// How many hottest cells to report (`--top N`, default 5).
    pub top: usize,
    /// Where to write the collapsed-stack (folded) flamegraph export
    /// (`--flame PATH`); deterministic, so goldenable across runs.
    pub flame: Option<String>,
}

impl ProfileOptions {
    /// Parses `profile` flags: `--top N` and `--flame PATH` plus every
    /// `suite` flag.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn parse(args: &[String]) -> Result<ProfileOptions, String> {
        let mut top = 5usize;
        let mut flame = None;
        let mut grid_args = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--top" {
                let v = it
                    .next()
                    .ok_or_else(|| "--top requires a value".to_string())?;
                top = v
                    .parse()
                    .map_err(|_| format!("--top expects a positive integer, got {v:?}"))?;
                if top == 0 {
                    return Err("--top must be at least 1".to_string());
                }
            } else if flag == "--flame" {
                let v = it
                    .next()
                    .ok_or_else(|| "--flame requires a path".to_string())?;
                flame = Some(v.clone());
            } else {
                grid_args.push(flag.clone());
            }
        }
        let grid =
            SuiteOptions::parse(&grid_args).map_err(|e| e.replace("suite flag", "profile flag"))?;
        Ok(ProfileOptions { grid, top, flame })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_advertised_technique_names_parse() {
        for name in TECHNIQUE_NAMES {
            assert!(parse_technique(name).is_some(), "{name} must parse");
        }
    }

    #[test]
    fn every_check_file_kind_reaches_a_validator_and_the_usage() {
        let usage = check_file_kinds();
        let listed: Vec<&str> = usage.split(" | ").collect();
        let unknown = commorder_check::check_file_contents("f.unknown", "");
        assert_eq!(unknown.codes(), ["CHK0001"]);
        for (ext, _) in ROUTES {
            assert!(listed.contains(&format!(".{ext}").as_str()), "{usage}");
            let report = commorder_check::check_file_contents(&format!("f.{ext}"), "");
            let text = report.render_text();
            assert!(!text.contains("unknown fixture extension"), "{ext}: {text}");
        }
        assert_eq!(listed.len(), ROUTES.len());
    }

    #[test]
    fn technique_parsing_is_case_insensitive_with_alias() {
        assert_eq!(parse_technique("RABBIT").unwrap().name(), "RABBIT");
        assert_eq!(parse_technique("rabbitpp").unwrap().name(), "RABBIT++");
        assert!(parse_technique("metis").is_none());
    }

    #[test]
    fn suite_options_parse() {
        let args: Vec<String> = [
            "--threads",
            "4",
            "--corpus",
            "mini",
            "--json",
            "-",
            "--telemetry",
            "out.jsonl",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let options = SuiteOptions::parse(&args).unwrap();
        assert_eq!(options.threads, Some(4));
        assert_eq!(options.corpus.as_deref(), Some("mini"));
        assert_eq!(options.json.as_deref(), Some("-"));
        assert_eq!(options.max_matrices, None);
        assert_eq!(options.only, None);
        assert_eq!(options.telemetry.as_deref(), Some("out.jsonl"));
        assert!(!options.list);
    }

    #[test]
    fn suite_list_flag_parses() {
        let options = SuiteOptions::parse(&["--list".to_string()]).unwrap();
        assert!(options.list);
        assert_eq!(options.threads, None);
    }

    #[test]
    fn suite_only_filter_parses() {
        let args: Vec<String> = ["--only", "soc-rmat-xl"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let options = SuiteOptions::parse(&args).unwrap();
        assert_eq!(options.only.as_deref(), Some("soc-rmat-xl"));
        let err = SuiteOptions::parse(&["--only".to_string()]).unwrap_err();
        assert!(err.contains("--only"));
    }

    #[test]
    fn profile_options_extract_top_and_delegate() {
        let args: Vec<String> = [
            "--top",
            "3",
            "--flame",
            "out.folded",
            "--corpus",
            "mini",
            "--threads",
            "2",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let options = ProfileOptions::parse(&args).unwrap();
        assert_eq!(options.top, 3);
        assert_eq!(options.flame.as_deref(), Some("out.folded"));
        assert_eq!(options.grid.corpus.as_deref(), Some("mini"));
        assert_eq!(options.grid.threads, Some(2));
        // Defaults.
        let defaults = ProfileOptions::parse(&[]).unwrap();
        assert_eq!(defaults.top, 5);
        assert_eq!(defaults.flame, None);
        let bad = |args: &[&str]| {
            ProfileOptions::parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
                .unwrap_err()
        };
        assert!(bad(&["--top"]).contains("--top"));
        assert!(bad(&["--top", "0"]).contains("at least 1"));
        assert!(bad(&["--flame"]).contains("--flame"));
        assert!(bad(&["--frobnicate"]).contains("profile flag"));
    }

    #[test]
    fn suite_options_reject_bad_values() {
        let bad = |args: &[&str]| {
            SuiteOptions::parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
                .unwrap_err()
        };
        assert!(bad(&["--threads"]).contains("--threads"));
        assert!(bad(&["--threads", "zero"]).contains("--threads"));
        assert!(bad(&["--threads", "0"]).contains("at least 1"));
        assert!(bad(&["--corpus", "huge"]).contains("--corpus"));
        assert!(bad(&["--frobnicate"]).contains("unknown"));
    }

    #[test]
    fn kernel_names_parse() {
        assert_eq!(parse_kernel("spmv"), Some(Kernel::SpmvCsr));
        assert_eq!(parse_kernel("SPMV-COO"), Some(Kernel::SpmvCoo));
        assert_eq!(parse_kernel("spmm-4"), Some(Kernel::SpmmCsr { k: 4 }));
        assert_eq!(parse_kernel("spmm-256"), Some(Kernel::SpmmCsr { k: 256 }));
        assert_eq!(
            parse_kernel("spmv-tiled-4096"),
            Some(Kernel::SpmvCsrTiled { tile_cols: 4096 })
        );
        assert_eq!(parse_kernel("spgemm"), Some(Kernel::SpGemmGustavson));
        assert_eq!(
            parse_kernel("spgemm-cluster"),
            Some(Kernel::SpGemmClusterWise)
        );
        assert_eq!(parse_kernel("spmm-0"), None);
        assert_eq!(parse_kernel("gemm"), None);
    }

    #[test]
    fn suite_kernels_flag_parses_and_validates_eagerly() {
        let args: Vec<String> = ["--kernels", "spgemm,spgemm-cluster"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let options = SuiteOptions::parse(&args).unwrap();
        assert_eq!(options.kernels.as_deref(), Some("spgemm,spgemm-cluster"));
        let bad = SuiteOptions::parse(&["--kernels".into(), "gemm".into()]).unwrap_err();
        assert!(bad.contains("unknown kernel"), "{bad}");
        assert!(bad.contains("spgemm-cluster"), "error lists spellings");
    }
}
