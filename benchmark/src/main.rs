//! `horse-benchmark` — the repository's one measuring stick.
//!
//! ```text
//! horse-benchmark run [--seed N] [--reps N] [--out FILE] [--smoke]
//!     every workload: one warm-up + N measured repetitions each
//!     (round-robin, one fresh child process per repetition), then one
//!     traced layer pass each; prints every metric, verifies outputs and
//!     writes the result file plus one Chrome trace per workload
//! horse-benchmark run --workload W --seed N --seconds S --trace 0|1
//!     the driver's contract: one workload for S seconds; the last line of
//!     standard output is one JSON object (end-to-end metrics with
//!     --trace 0, per-layer metrics with --trace 1)
//! horse-benchmark record
//!     writes benchmark/expected/<workload>.json (seed 1 outcome digests)
//! horse-benchmark compare A.json B.json
//!     per (workload, metric) verdicts; non-zero exit on any `worse`
//! ```

mod child;
mod compare;
mod json;
mod probes;
mod runner;
mod spans;
mod spec;
mod stats;
mod verify;
mod workloads;

use json::{get_f64, num, obj, text, uint, Value};
use runner::{Launcher, Mode};
use spec::{END_TO_END, LAYERS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: horse-benchmark run [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1] [--reps N] [--out FILE] [--smoke]\n       \
                     horse-benchmark record\n       \
                     horse-benchmark compare A.json B.json";

/// Flag values of one invocation, in the order given.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        self.value("--workload")?
            .map(|name| {
                workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let outcome = match cmd.as_str() {
        "run" => run(&args),
        "child" => run_child(&args),
        "record" => record(),
        "compare" => compare_files(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("horse-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run_child(args: &Args) -> Result<bool, String> {
    let job = child::Job {
        workload: args.workload()?.ok_or("child needs --workload")?,
        seed: args.parsed("--seed")?.unwrap_or(verify::DIGEST_SEED),
        smoke: args.has("--smoke"),
        engine_threads: args.parsed("--engine-threads")?,
        record: args.has("--record"),
        trace_out: args.value("--trace-out")?.map(PathBuf::from),
    };
    let report = if args.has("--layers") {
        child::layer_pass(&job)
    } else {
        child::end_to_end(&job)
    };
    println!("{}", json::to_line(&report));
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(verify::DIGEST_SEED);
    let launcher = Launcher::new(args.has("--smoke"))?;
    match args.workload()? {
        Some(w) => {
            let seconds: f64 = args.parsed("--seconds")?.unwrap_or(10.0);
            let trace = args.parsed::<u8>("--trace")?.unwrap_or(0) != 0;
            let out = args.value("--out")?.map(Path::new);
            contract_run(&launcher, w, seed, seconds, trace, out)
        }
        None => {
            let reps: usize = args.parsed("--reps")?.unwrap_or(5);
            if reps == 0 {
                return Err("--reps must be at least 1".into());
            }
            let out = args
                .value("--out")?
                .map_or_else(|| PathBuf::from("benchmark/out/result.json"), PathBuf::from);
            full_pass(&launcher, seed, reps, &out)
        }
    }
}

/// One workload under the driver's contract. Human-readable numbers
/// first; the last line is the one JSON object the driver reads.
fn contract_run(
    launcher: &Launcher,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    let write = |result: &Value| match out {
        Some(path) => std::fs::write(path, json::to_pretty(result))
            .map_err(|e| format!("cannot write {}: {e}", path.display())),
        None => Ok(()),
    };
    let (correct, attempted, failed, metrics) = if trace {
        let report = runner::layer_pass(launcher, w, seed, None, None)?;
        let set = runner::RepSet {
            reps: vec![report.clone()],
            errors: Vec::new(),
        };
        let result = runner::workload_result(&set, Some(&report));
        runner::print_workload(w, &result);
        write(&result)?;
        let layers = report.get("layers");
        // The contract wants a number for every metric on every workload;
        // a probe that does not apply (the result file's `null` plus its
        // reason) reads 0 here.
        let metrics: Vec<_> = LAYERS
            .iter()
            .map(|l| (l.name, get_f64(layers, l.name).unwrap_or(0.0), l.unit))
            .collect();
        let (attempted, failed) = set.ops();
        (set.correct(), attempted, failed, metrics)
    } else {
        let set = runner::budget_set(launcher, w, seed, seconds);
        let result = runner::workload_result(&set, None);
        runner::print_workload(w, &result);
        write(&result)?;
        let mut metrics = Vec::new();
        for m in &END_TO_END {
            let est = set
                .estimate(m.name)
                .ok_or_else(|| format!("no repetition of {} reported {}", w.name, m.name))?;
            metrics.push((m.name, est.median, m.unit));
        }
        let (attempted, failed) = set.ops();
        (set.correct(), attempted, failed, metrics)
    };
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", uint(attempted)),
        ("failed", uint(failed)),
        (
            "metrics",
            obj(metrics
                .into_iter()
                .map(|(name, value, unit)| {
                    (name, obj(vec![("value", num(value)), ("unit", text(unit))]))
                })
                .collect()),
        ),
    ]);
    println!("{}", json::to_line(&line));
    // the line carries the verdict; the exit code says the run completed
    Ok(true)
}

/// Every workload: the end-to-end repetitions, then the layer passes.
fn full_pass(launcher: &Launcher, seed: u64, reps: usize, out: &Path) -> Result<bool, String> {
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let dir = out.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    eprintln!(
        "horse-benchmark: seed {seed}, {reps} repetitions after 1 warm-up, {} workloads, pinning {}",
        all.len(),
        if launcher.pins() { "on" } else { "off (no taskset)" },
    );
    let sets = runner::fixed_sets(launcher, &all, seed, reps, |what| eprintln!("  {what}"));
    let mut ok = true;
    let mut entries = Vec::new();
    for (w, set) in all.iter().zip(&sets) {
        eprintln!("  layer pass {}", w.name);
        let trace_path = out.with_file_name(format!("trace_{}.json", w.name));
        let untraced = set.estimate("run_s").map(|e| e.median);
        let layers = runner::layer_pass(launcher, w, seed, untraced, Some(&trace_path));
        if let Err(e) = &layers {
            eprintln!("  layer pass of {} failed: {e}", w.name);
        }
        let layers = layers.ok();
        let result = runner::workload_result(set, layers.as_ref());
        runner::print_workload(w, &result);
        ok &= set.correct()
            && layers
                .as_ref()
                .is_some_and(|l| l.get("verified").as_bool() == Some(true));
        entries.push((w.name, result));
    }
    let doc = obj(vec![
        ("benchmark", text("horse-benchmark")),
        ("schema", uint(1)),
        ("seed", uint(seed)),
        ("reps", uint(reps as u64)),
        ("smoke", Value::Bool(launcher.smoke)),
        (
            "host",
            obj(vec![
                (
                    "cpus",
                    uint(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
                ),
                ("pinned", Value::Bool(launcher.pins())),
            ]),
        ),
        ("workloads", obj(entries)),
    ]);
    std::fs::write(out, json::to_pretty(&doc))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    println!(
        "{}",
        if ok {
            "all outputs verified"
        } else {
            "OUTPUT VERIFICATION FAILED"
        }
    );
    Ok(ok)
}

/// Writes the seed-1 outcome digests the later runs are checked against.
fn record() -> Result<bool, String> {
    let launcher = Launcher::new(false)?;
    let mut ok = true;
    for w in &WORKLOADS {
        let report = launcher.child(w, verify::DIGEST_SEED, Mode::Record, None)?;
        let path = verify::expected_path(w.name);
        if report.get("verified").as_bool() != Some(true) {
            ok = false;
            eprintln!(
                "{}: invariants failed, digest not recorded: {:?}",
                w.name,
                report.get("verify_errors")
            );
            continue;
        }
        std::fs::write(&path, json::to_pretty(report.get("digest")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("recorded {}", path.display());
    }
    Ok(ok)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err(USAGE.to_string());
    };
    let a = json::read_file(Path::new(a))?;
    let b = json::read_file(Path::new(b))?;
    Ok(compare::compare(&a, &b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; `spec.rs` and
    /// `workloads.rs` are what the harness reports. They must agree.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::read_file(&path).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .as_seq()
                .expect("a list")
                .iter()
                .map(|e| e.get("name").as_str().expect("named").to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in doc
            .get("workloads")
            .as_seq()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").as_str(), Some(w.why));
        }
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in doc
            .get("end_to_end")
            .as_seq()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").as_str(), Some(m.unit));
            assert_eq!(entry.get("better").as_str(), Some(m.better.as_str()));
            assert_eq!(get_f64(entry, "bound"), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        assert_eq!(
            names("per_layer"),
            LAYERS.iter().map(|l| l.name).collect::<Vec<_>>()
        );
        for (entry, l) in doc.get("per_layer").as_seq().unwrap().iter().zip(&LAYERS) {
            assert_eq!(entry.get("unit").as_str(), Some(l.unit), "{}", l.name);
            assert_eq!(
                entry.get("better").as_str(),
                Some(l.better.as_str()),
                "{}",
                l.name
            );
        }
        assert!(LAYERS.len() <= 128 && END_TO_END.len() <= 16);
        assert_eq!(doc.get("paths"), &Value::Seq(vec![text("benchmark")]));
    }
}
