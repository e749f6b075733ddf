//! The parent side: spawns one fresh child process per repetition,
//! guards against host noise, and folds the children's reports into
//! per-workload results.

use crate::json::{get_f64, get_u64, num, obj, text, uint, Value};
use crate::spec::{END_TO_END, LAYERS};
use crate::stats::Estimate;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A repetition whose `calib_s` exceeds the set's minimum by this share
/// ran on a slowed-down host.
const CALIB_SLACK: f64 = 0.15;
/// Re-runs allowed per noisy repetition.
const MAX_RERUNS: usize = 2;
/// Fewest clean repetitions that may stand in for the whole set.
const MIN_CLEAN: usize = 3;

/// The noise guard's probe of how fast the host is running right now: a
/// fixed integer loop, timed. The loop is a dependent pointer chase over
/// 32 MiB (each address comes out of the previous load), because the noise
/// on the reference host is neighbours contending for cache and memory —
/// which an arithmetic-only spin does not feel, while the simulator, a
/// pointer-heavy program, does (measured: chase time tracks `run_s`, an
/// xorshift spin does not). It runs here in the parent, around each child,
/// so the arena never counts toward a child's `peak_rss_mb`.
struct Calib {
    mem: Vec<u32>,
    steps: u32,
}

impl Calib {
    /// Allocates and touches the arena.
    fn new(smoke: bool) -> Self {
        let (len, steps) = if smoke {
            (1 << 16, 50_000)
        } else {
            (1 << 23, 1_000_000)
        };
        // Filled with ones the compiler cannot see through: `vec![0; n]`
        // would be lazily mapped zero pages that all alias one cached page.
        Calib {
            mem: vec![std::hint::black_box(1u32); len],
            steps,
        }
    }

    /// One timed pass, in seconds.
    fn spin(&self) -> f64 {
        let shift = 32 - self.mem.len().trailing_zeros();
        let t = Instant::now();
        let mut p = 1u32;
        for _ in 0..self.steps {
            // a full-period LCG walks the arena in a fixed pseudo-random
            // order; folding in the loaded word (always 1 - 1) makes
            // every load wait for the one before it
            p = p
                .wrapping_mul(1_664_525)
                .wrapping_add(1_013_904_222 + self.mem[(p >> shift) as usize]);
        }
        std::hint::black_box(p);
        t.elapsed().as_secs_f64()
    }
}

/// How the children are launched.
pub struct Launcher {
    exe: PathBuf,
    /// CPU to pin single-threaded children to, when `taskset` works.
    pin: Option<usize>,
    /// ~1/50-scale inputs.
    pub smoke: bool,
    calib: Calib,
}

/// Which pass a child runs.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// One untraced end-to-end repetition.
    EndToEnd,
    /// The digest-recording repetition (no digest check).
    Record,
    /// The traced layer pass, optionally writing a Chrome trace.
    Layers(Option<&'a std::path::Path>),
}

impl Launcher {
    /// Probes for `taskset` once; a child that solves on several threads
    /// is never pinned.
    pub fn new(smoke: bool) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let taskset_works = Command::new("taskset")
            .args(["-c", &(cpus - 1).to_string(), "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        Ok(Launcher {
            exe,
            pin: taskset_works.then_some(cpus - 1),
            smoke,
            calib: Calib::new(smoke),
        })
    }

    /// True when single-threaded children get pinned to one CPU.
    pub fn pins(&self) -> bool {
        self.pin.is_some()
    }

    /// Runs one child to completion and parses its report line, adding
    /// `calib_s`: the slower of the calibration passes before and after it.
    pub fn child(
        &self,
        w: &Workload,
        seed: u64,
        mode: Mode,
        engine_threads: Option<usize>,
    ) -> Result<Value, String> {
        let before = self.calib.spin();
        let mut report = self.spawn(w, seed, mode, engine_threads)?;
        *report.entry_mut("calib_s") = num(before.max(self.calib.spin()));
        Ok(report)
    }

    fn spawn(
        &self,
        w: &Workload,
        seed: u64,
        mode: Mode,
        engine_threads: Option<usize>,
    ) -> Result<Value, String> {
        let mut cmd = match self.pin.filter(|_| engine_threads.unwrap_or(1) <= 1) {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(&self.exe);
                c
            }
            None => Command::new(&self.exe),
        };
        cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()]);
        match mode {
            Mode::EndToEnd => {}
            Mode::Record => {
                cmd.arg("--record");
            }
            Mode::Layers(trace) => {
                cmd.arg("--layers");
                if let Some(path) = trace {
                    cmd.arg("--trace-out").arg(path);
                }
            }
        }
        if self.smoke {
            cmd.arg("--smoke");
        }
        if let Some(n) = engine_threads {
            cmd.args(["--engine-threads", &n.to_string()]);
        }
        // `output` waits for the child: no process outlives the harness.
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child for {}: {e}", w.name))?;
        if !out.status.success() {
            return Err(format!("child for {} exited with {}", w.name, out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("child for {} printed nothing", w.name))?;
        crate::json::parse(line).map_err(|e| format!("child for {}: bad report: {e}", w.name))
    }
}

/// The repetitions of one workload in one set.
#[derive(Default)]
pub struct RepSet {
    /// Every child report, in run order (warm-up excluded).
    pub reps: Vec<Value>,
    /// Children that failed to run at all.
    pub errors: Vec<String>,
}

impl RepSet {
    fn calibs(&self) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|r| get_f64(r, "calib_s"))
            .collect()
    }

    /// Repetitions whose calibration ran within [`CALIB_SLACK`] of the
    /// set's fastest.
    fn clean(&self) -> Vec<&Value> {
        let floor = self.calibs().into_iter().fold(f64::INFINITY, f64::min);
        self.reps
            .iter()
            .filter(|r| get_f64(r, "calib_s").is_some_and(|c| c <= floor * (1.0 + CALIB_SLACK)))
            .collect()
    }

    /// The repetitions the estimates use: the clean ones — or all of them
    /// when too few are clean to stand alone.
    pub fn kept(&self) -> Vec<&Value> {
        let clean = self.clean();
        if clean.len() >= MIN_CLEAN.min(self.reps.len()) {
            clean
        } else {
            self.reps.iter().collect()
        }
    }

    /// The estimate of one end-to-end metric over the kept repetitions.
    pub fn estimate(&self, metric: &str) -> Option<Estimate> {
        let samples: Vec<f64> = self
            .kept()
            .iter()
            .filter_map(|r| get_f64(r, metric))
            .collect();
        Estimate::of(&samples)
    }

    /// True when every child ran and verified its outputs.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && !self.reps.is_empty()
            && self
                .reps
                .iter()
                .all(|r| r.get("verified").as_bool() == Some(true))
    }

    /// `(attempted, failed)` of one repetition (they all offer the same
    /// flows); everything failed if nothing ran or verification broke.
    pub fn ops(&self) -> (u64, u64) {
        let attempted = self
            .reps
            .iter()
            .find_map(|r| get_u64(r, "ops_attempted"))
            .unwrap_or(1)
            .max(1);
        let failed = if self.correct() {
            self.reps
                .iter()
                .filter_map(|r| get_u64(r, "ops_failed"))
                .max()
                .unwrap_or(0)
        } else {
            attempted
        };
        (attempted, failed)
    }
}

/// Runs `reps` measured repetitions of every workload after one discarded
/// warm-up each, interleaved round-robin so a slow minute on the host
/// spreads over all workloads instead of landing on one. A repetition
/// whose calibration spin reads slow is re-run, at most [`MAX_RERUNS`]
/// times.
pub fn fixed_sets(
    launcher: &Launcher,
    workloads: &[&'static Workload],
    seed: u64,
    reps: usize,
    mut progress: impl FnMut(&str),
) -> Vec<RepSet> {
    let mut sets: Vec<RepSet> = workloads.iter().map(|_| RepSet::default()).collect();
    for w in workloads {
        progress(&format!("warm-up {}", w.name));
        let _ = launcher.child(w, seed, Mode::EndToEnd, None);
    }
    let most = reps * (1 + MAX_RERUNS);
    loop {
        let mut ran = false;
        for (w, set) in workloads.iter().zip(&mut sets) {
            let attempts = set.reps.len() + set.errors.len();
            if set.clean().len() >= reps || attempts >= most {
                continue;
            }
            ran = true;
            progress(&format!("rep {} of {}", attempts + 1, w.name));
            match launcher.child(w, seed, Mode::EndToEnd, None) {
                Ok(rep) => set.reps.push(rep),
                Err(e) => set.errors.push(e),
            }
        }
        if !ran {
            break;
        }
    }
    sets
}

/// Repeats one workload until `seconds` are used up: a repetition starts
/// only if the slowest one so far would still finish in time, and the
/// first always runs.
pub fn budget_set(launcher: &Launcher, w: &'static Workload, seed: u64, seconds: f64) -> RepSet {
    let start = Instant::now();
    let mut set = RepSet::default();
    let mut slowest = 0.0f64;
    loop {
        let t = Instant::now();
        match launcher.child(w, seed, Mode::EndToEnd, None) {
            Ok(rep) => set.reps.push(rep),
            Err(e) => set.errors.push(e),
        }
        slowest = slowest.max(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + slowest > seconds || !set.errors.is_empty() {
            return set;
        }
    }
}

/// The layer pass of one workload: the traced child, an untraced
/// reference `run_s` (measured now unless the caller has one), and — on
/// the workload whose solves are big enough to split — one run on
/// several engine threads.
pub fn layer_pass(
    launcher: &Launcher,
    w: &'static Workload,
    seed: u64,
    untraced_run_s: Option<f64>,
    trace_out: Option<&std::path::Path>,
) -> Result<Value, String> {
    let mut report = launcher.child(w, seed, Mode::Layers(trace_out), None)?;
    let mut verified = report.get("verified").as_bool() == Some(true);
    let mut extra: Vec<(&str, Result<f64, String>)> = Vec::new();
    let reference = match untraced_run_s {
        Some(s) => Ok(s),
        None => launcher.child(w, seed, Mode::EndToEnd, None).and_then(|r| {
            verified &= r.get("verified").as_bool() == Some(true);
            get_f64(&r, "run_s").ok_or_else(|| "reference run reported no run_s".to_string())
        }),
    };
    let traced = get_f64(report.get("layers"), "trace.traced_run_s");
    extra.push(("trace.untraced_run_s", reference.clone()));
    extra.push((
        "trace.overhead_frac",
        match (&reference, traced) {
            (Ok(base), Some(t)) if *base > 0.0 => Ok(t / base - 1.0),
            (Err(e), _) => Err(e.clone()),
            _ => Err("traced run reported no run_s".into()),
        },
    ));
    extra.push((
        "dataplane.thread_speedup",
        match w.parallel_threads {
            None => Err("only ixp_waves has components big enough to split".into()),
            Some(n) => {
                let parallel = launcher.child(w, seed, Mode::EndToEnd, Some(n));
                if let Ok(r) = &parallel {
                    verified &= r.get("verified").as_bool() == Some(true);
                }
                match (&reference, &parallel) {
                    (Ok(one), Ok(many)) => get_f64(many, "run_s")
                        .map(|many| one / many)
                        .ok_or_else(|| "parallel run reported no run_s".to_string()),
                    (Err(e), _) | (_, Err(e)) => Err(e.clone()),
                }
            }
        },
    ));
    for (name, value) in extra {
        match value {
            Ok(v) => *report.entry_mut("layers").entry_mut(name) = num(v),
            Err(why) => {
                *report.entry_mut("layers").entry_mut(name) = Value::Null;
                *report.entry_mut("layer_notes").entry_mut(name) = text(why);
            }
        }
    }
    *report.entry_mut("verified") = Value::Bool(verified);
    Ok(report)
}

/// One workload's entry in the result file.
pub fn workload_result(set: &RepSet, layers: Option<&Value>) -> Value {
    let mut e2e = Vec::new();
    for m in &END_TO_END {
        if let Some(est) = set.estimate(m.name) {
            let samples = set
                .reps
                .iter()
                .filter_map(|r| get_f64(r, m.name))
                .map(num)
                .collect();
            e2e.push((
                m.name,
                obj(vec![
                    ("unit", text(m.unit)),
                    ("median", num(est.median)),
                    ("q1", num(est.q1)),
                    ("q3", num(est.q3)),
                    ("min", num(est.min)),
                    ("n", uint(est.n as u64)),
                    ("spread", num(est.spread())),
                    ("bound", num(m.bound)),
                    ("unresolved", Value::Bool(est.unresolved(m.bound))),
                    ("samples", Value::Seq(samples)),
                ]),
            ));
        }
    }
    let (attempted, failed) = set.ops();
    let mut errors: Vec<Value> = set.errors.iter().cloned().map(text).collect();
    for r in &set.reps {
        errors.extend(
            r.get("verify_errors")
                .as_seq()
                .unwrap_or(&[])
                .iter()
                .cloned(),
        );
    }
    let calibs = set.calibs().into_iter().map(num).collect();
    let mut out = vec![
        ("end_to_end", obj(e2e)),
        ("ops_attempted", uint(attempted)),
        ("ops_failed", uint(failed)),
        ("verified", Value::Bool(set.correct())),
        ("errors", Value::Seq(errors)),
        ("reps_run", uint(set.reps.len() as u64)),
        ("reps_kept", uint(set.kept().len() as u64)),
        ("calib_s", Value::Seq(calibs)),
        (
            "digest",
            set.reps
                .first()
                .map_or(Value::Null, |r| r.get("digest").clone()),
        ),
    ];
    if let Some(l) = layers {
        for key in ["layers", "layer_notes", "spans"] {
            out.push((key, l.get(key).clone()));
        }
        out.push((
            "layers_verified",
            Value::Bool(l.get("verified").as_bool() == Some(true)),
        ));
    }
    obj(out)
}

/// Prints one workload's numbers: every metric by name with its unit.
pub fn print_workload(w: &Workload, result: &Value) {
    let name = w.name;
    println!("== {name}: {}", w.why);
    let e2e = result.get("end_to_end");
    for m in &END_TO_END {
        let r = e2e.get(m.name);
        let Some(median) = get_f64(r, "median") else {
            continue;
        };
        let note = if r.get("unresolved").as_bool() == Some(true) {
            "  unresolved: spread wider than the bound"
        } else {
            ""
        };
        println!(
            "  {:<12} {:>12.6} {:<4} ({} is better) q1 {:.6} q3 {:.6} min {:.6} n {} spread {:.1}% (bound {:.0}%){note}",
            m.name,
            median,
            m.unit,
            m.better.as_str(),
            get_f64(r, "q1").unwrap_or(f64::NAN),
            get_f64(r, "q3").unwrap_or(f64::NAN),
            get_f64(r, "min").unwrap_or(f64::NAN),
            get_u64(r, "n").unwrap_or(0),
            get_f64(r, "spread").unwrap_or(f64::NAN) * 100.0,
            m.bound * 100.0,
        );
    }
    println!(
        "  ops_attempted {} ops_failed {} verified {}",
        get_u64(result, "ops_attempted").unwrap_or(0),
        get_u64(result, "ops_failed").unwrap_or(0),
        result.get("verified").as_bool() == Some(true),
    );
    for e in result.get("errors").as_seq().unwrap_or(&[]) {
        println!("  ERROR {}", e.as_str().unwrap_or("?"));
    }
    let layers = result.get("layers");
    if layers.as_map().is_some() {
        for l in &LAYERS {
            match get_f64(layers, l.name) {
                Some(v) => println!("  {:<36} {:>16.6} {}", l.name, v, l.unit),
                None => println!(
                    "  {:<36} {:>16} {}  ({})",
                    l.name,
                    "null",
                    l.unit,
                    result
                        .get("layer_notes")
                        .get(l.name)
                        .as_str()
                        .unwrap_or("not measured")
                ),
            }
        }
        print_shares(result);
    }
}

/// Where the traced run's time went, as shares of its own `run_s`.
fn print_shares(result: &Value) {
    let layers = result.get("layers");
    let Some(run) = get_f64(layers, "trace.traced_run_s").filter(|r| *r > 0.0) else {
        return;
    };
    let share = |names: &[&str]| -> f64 {
        names.iter().filter_map(|n| get_f64(layers, n)).sum::<f64>() / run * 100.0
    };
    println!(
        "  share of traced run_s: dataplane {:.1}%  core handlers {:.1}%  finish {:.1}%  outside epochs {:.1}%",
        share(&[
            "dataplane.discovery_s",
            "dataplane.build_s",
            "dataplane.solve_s",
            "dataplane.apply_s"
        ]),
        share(&["core.handler_self_s"]),
        share(&["core.finish_s"]),
        100.0 - share(&["core.epoch_s", "core.finish_s"]),
    );
}
