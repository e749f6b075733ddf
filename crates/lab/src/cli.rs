//! The `horse-lab` command-line interface.
//!
//! ```text
//! horse-lab run <sweep.toml|.json> [--threads N] [--out DIR] [--quiet]
//! horse-lab plan <sweep.toml>
//! horse-lab validate <sweep.toml>
//! ```
//!
//! `run` executes the campaign and writes `<out>/<name>.csv` and
//! `<out>/<name>.json` (deterministic metrics), printing the aggregate
//! table and wall-clock timing to stdout. `plan` prints the expanded run
//! grid without simulating; `validate` just checks the spec.

use crate::runner::{resolve_threads, run_plans_opts, RunOptions};
use crate::spec::SweepSpec;
use crate::sweep::expand;
use crate::whatif::{fork_groups, run_forked, ForkOptions};
use crate::LabError;
use horse::tracing::chrome_trace;
use std::path::PathBuf;

const USAGE: &str = "\
horse-lab — declarative experiment sweeps for the Horse simulator

USAGE:
    horse-lab run <spec.toml|spec.json> [--threads N] [--out DIR]
                  [--trace FILE] [--journal DIR] [--progress] [--quiet]
                  [--naive] [--checkpoint DIR] [--resume DIR]
    horse-lab plan <spec>
    horse-lab validate <spec>

OPTIONS:
    --threads N   worker threads (default: spec `threads`, then one per CPU)
    --out DIR     report directory (default: lab-results)
    --trace FILE  write wall-clock phase spans (epoch, allocator
                  discovery/build/solve/apply) of every
                  run as Chrome-trace JSON — load in chrome://tracing or
                  https://ui.perfetto.dev. Does not affect the reports.
    --journal DIR write one sim-time event journal per run (JSONL) —
                  compare two runs with `horse-trace diff`
    --progress    periodic stderr heartbeat (sim-time, events/s, epochs)
    --quiet       suppress per-run progress lines

  What-if campaigns (`whatif_at_secs` in the spec) share each common
  prefix across variants: simulate once to the fork point, checkpoint,
  fork per variant. Reports are byte-identical to naive execution.
    --naive       force full re-simulation of every run
    --checkpoint DIR
                  persist each prefix snapshot as <DIR>/<name>.g<k>.snap
    --resume DIR  load prefix snapshots saved by --checkpoint instead of
                  re-simulating (missing files fall back to simulating)
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Subcommand: `run`, `plan` or `validate`.
    pub command: String,
    /// Path to the sweep spec.
    pub spec: PathBuf,
    /// `--threads` override.
    pub threads: Option<usize>,
    /// `--out` report directory.
    pub out: PathBuf,
    /// `--trace` Chrome-trace output file.
    pub trace: Option<PathBuf>,
    /// `--journal` per-run event-journal directory.
    pub journal: Option<PathBuf>,
    /// `--progress` stderr heartbeat.
    pub progress: bool,
    /// `--quiet`.
    pub quiet: bool,
    /// `--naive`: force full re-simulation of a what-if campaign.
    pub naive: bool,
    /// `--checkpoint`: persist prefix snapshots to this directory.
    pub checkpoint: Option<PathBuf>,
    /// `--resume`: load prefix snapshots from this directory.
    pub resume: Option<PathBuf>,
}

/// Parses arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Cli, LabError> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| LabError::cli(format!("missing command\n\n{USAGE}")))?
        .clone();
    if !matches!(command.as_str(), "run" | "plan" | "validate") {
        return Err(LabError::cli(format!(
            "unknown command `{command}`\n\n{USAGE}"
        )));
    }
    let mut spec: Option<PathBuf> = None;
    let mut threads = None;
    let mut out = PathBuf::from("lab-results");
    let mut trace = None;
    let mut journal = None;
    let mut progress = false;
    let mut quiet = false;
    let mut naive = false;
    let mut checkpoint = None;
    let mut resume = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::cli("--threads needs a number"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| LabError::cli(format!("--threads: `{v}` is not a number")))?;
                threads = Some(n);
            }
            "--out" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::cli("--out needs a directory"))?;
                out = PathBuf::from(v);
            }
            "--trace" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::cli("--trace needs a file path"))?;
                trace = Some(PathBuf::from(v));
            }
            "--journal" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::cli("--journal needs a directory"))?;
                journal = Some(PathBuf::from(v));
            }
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            "--naive" => naive = true,
            "--checkpoint" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::cli("--checkpoint needs a directory"))?;
                checkpoint = Some(PathBuf::from(v));
            }
            "--resume" => {
                let v = it
                    .next()
                    .ok_or_else(|| LabError::cli("--resume needs a directory"))?;
                resume = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(LabError::cli(USAGE)),
            other if other.starts_with('-') => {
                return Err(LabError::cli(format!(
                    "unknown option `{other}`\n\n{USAGE}"
                )))
            }
            other => {
                if spec.replace(PathBuf::from(other)).is_some() {
                    return Err(LabError::cli("exactly one spec file, please"));
                }
            }
        }
    }
    let spec = spec.ok_or_else(|| LabError::cli(format!("missing spec file\n\n{USAGE}")))?;
    Ok(Cli {
        command,
        spec,
        threads,
        out,
        trace,
        journal,
        progress,
        quiet,
        naive,
        checkpoint,
        resume,
    })
}

/// Runs the CLI to completion; returns the process exit code.
pub fn run_main(args: &[String]) -> i32 {
    match main_inner(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("horse-lab: {e}");
            1
        }
    }
}

fn main_inner(args: &[String]) -> Result<(), LabError> {
    let cli = parse_args(args)?;
    let spec = SweepSpec::load(&cli.spec)?;
    match cli.command.as_str() {
        "validate" => {
            let plans = expand(&spec)?;
            println!(
                "ok: campaign `{}` is valid ({} runs over {} axes)",
                spec.name,
                plans.len(),
                spec.axes.0.len()
            );
            Ok(())
        }
        "plan" => {
            let plans = expand(&spec)?;
            println!("campaign `{}`: {} runs", spec.name, plans.len());
            for p in &plans {
                println!("  run {:>3}  {}", p.index, p.label());
            }
            Ok(())
        }
        "run" => {
            let threads = resolve_threads(cli.threads, &spec);
            let plans = expand(&spec)?;
            let total = plans.len();
            let quiet = cli.quiet;
            let groups = if cli.naive {
                None
            } else {
                fork_groups(&plans)?
            };
            if groups.is_none() && (cli.checkpoint.is_some() || cli.resume.is_some()) {
                return Err(LabError::cli(
                    "--checkpoint/--resume apply to prefix-shared what-if campaigns: set \
                     scenario.whatif_at_secs, sweep only whatif_* axes, \
                     and drop --naive",
                ));
            }
            let report = if let Some(groups) = groups {
                if cli.trace.is_some() || cli.journal.is_some() || cli.progress {
                    return Err(LabError::cli(
                        "--trace/--journal/--progress need --naive: forked execution \
                         shares one simulation prefix across runs, so per-run \
                         observability streams would be incomplete",
                    ));
                }
                println!(
                    "campaign `{}`: {} runs over {} shared prefix(es) (forked what-if; --naive disables)",
                    spec.name,
                    total,
                    groups.len()
                );
                let fork_opts = ForkOptions {
                    checkpoint_dir: cli.checkpoint.clone(),
                    resume_dir: cli.resume.clone(),
                };
                let (report, stats) = run_forked(&spec.name, &groups, &fork_opts, |rec| {
                    if !quiet {
                        println!(
                            "  done {:>3}/{total}  {:.3}s  {}",
                            rec.index,
                            rec.wall_seconds,
                            rec.label()
                        );
                    }
                })?;
                println!(
                    "prefix sharing: {} prefix events simulated once ({} resumed from disk), \
                     {} events of re-simulation avoided, {} snapshot bytes",
                    stats.prefix_events,
                    stats.resumed_prefixes,
                    stats.prefix_events_saved,
                    stats.snapshot_bytes
                );
                report
            } else {
                println!(
                    "campaign `{}`: {} runs on {} thread(s)",
                    spec.name, total, threads
                );
                let opts = RunOptions {
                    trace: cli.trace.is_some(),
                    journal_dir: cli.journal.clone(),
                    progress: cli.progress,
                };
                let (report, traces) = run_plans_opts(&spec.name, plans, threads, &opts, |rec| {
                    if !quiet {
                        println!(
                            "  done {:>3}/{total}  {:.3}s  {}",
                            rec.index,
                            rec.wall_seconds,
                            rec.label()
                        );
                    }
                })?;
                if let Some(trace_path) = cli.trace.as_ref() {
                    let processes: Vec<(u32, &str, &horse::tracing::SpanLog)> = traces
                        .iter()
                        .map(|t| (t.index as u32, t.label.as_str(), &t.spans))
                        .collect();
                    std::fs::write(trace_path, chrome_trace(&processes)).map_err(|e| {
                        LabError::cli(format!("cannot write {}: {e}", trace_path.display()))
                    })?;
                    println!("trace: {} ({} runs)", trace_path.display(), traces.len());
                }
                if let Some(dir) = cli.journal.as_ref() {
                    println!("journals: {}/run*.jsonl", dir.display());
                }
                report
            };
            std::fs::create_dir_all(&cli.out)
                .map_err(|e| LabError::cli(format!("cannot create {}: {e}", cli.out.display())))?;
            let csv_path = cli.out.join(format!("{}.csv", spec.name));
            let json_path = cli.out.join(format!("{}.json", spec.name));
            std::fs::write(&csv_path, report.metrics_csv())
                .map_err(|e| LabError::cli(format!("cannot write {}: {e}", csv_path.display())))?;
            std::fs::write(&json_path, report.metrics_json())
                .map_err(|e| LabError::cli(format!("cannot write {}: {e}", json_path.display())))?;
            println!();
            print!("{}", report.aggregate_text());
            println!();
            print!("{}", report.timing_text());
            println!(
                "reports: {} and {}",
                csv_path.display(),
                json_path.display()
            );
            Ok(())
        }
        _ => unreachable!("parse_args validated the command"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let cli = parse_args(&s(&[
            "run",
            "sweep.toml",
            "--threads",
            "4",
            "--out",
            "o",
            "--trace",
            "t.json",
            "--journal",
            "j",
            "--progress",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(cli.command, "run");
        assert_eq!(cli.spec, PathBuf::from("sweep.toml"));
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.out, PathBuf::from("o"));
        assert_eq!(cli.trace, Some(PathBuf::from("t.json")));
        assert_eq!(cli.journal, Some(PathBuf::from("j")));
        assert!(cli.progress);
        assert!(cli.quiet);
    }

    #[test]
    fn tracing_flags_default_off() {
        let cli = parse_args(&s(&["run", "sweep.toml"])).unwrap();
        assert_eq!(cli.trace, None);
        assert_eq!(cli.journal, None);
        assert!(!cli.progress);
        assert!(!cli.naive);
        assert_eq!(cli.checkpoint, None);
        assert_eq!(cli.resume, None);
    }

    #[test]
    fn parses_whatif_options() {
        let cli = parse_args(&s(&[
            "run",
            "sweep.toml",
            "--naive",
            "--checkpoint",
            "snaps",
            "--resume",
            "snaps",
        ]))
        .unwrap();
        assert!(cli.naive);
        assert_eq!(cli.checkpoint, Some(PathBuf::from("snaps")));
        assert_eq!(cli.resume, Some(PathBuf::from("snaps")));
        assert!(parse_args(&s(&["run", "a.toml", "--checkpoint"])).is_err());
        assert!(parse_args(&s(&["run", "a.toml", "--resume"])).is_err());
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["frobnicate", "x.toml"])).is_err());
        assert!(parse_args(&s(&["run"])).is_err());
        assert!(parse_args(&s(&["run", "a.toml", "b.toml"])).is_err());
        assert!(parse_args(&s(&["run", "a.toml", "--threads", "many"])).is_err());
        assert!(parse_args(&s(&["run", "a.toml", "--no-such-flag"])).is_err());
        assert!(parse_args(&s(&["run", "a.toml", "--trace"])).is_err());
        assert!(parse_args(&s(&["run", "a.toml", "--journal"])).is_err());
    }
}
