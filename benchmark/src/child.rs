//! What runs inside one fresh child process: either one end-to-end
//! repetition (untraced; `setup_s`, `run_s`, `peak_rss_mb`) or one layer
//! pass (traced run + probes). Both verify their outputs and print one
//! JSON report line.

use crate::json::{num, obj, text, uint, Value};
use crate::probes::{self, Reading};
use crate::spans::Spans;
use crate::spec::CENSUS;
use crate::verify::{self, Outcome, DIGEST_SEED};
use crate::workloads::{first_flows, offered, Input, Workload};
use horse::lab::{expand, fork_groups, run_forked, ForkGroup, ForkOptions, RunPlan, SweepSpec};
use horse::prelude::*;
use horse::tracing::SpanLog;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the child was asked to do.
pub struct Job {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// ~1/50-scale inputs.
    pub smoke: bool,
    /// Allocator thread override (the `dataplane.thread_speedup` run).
    pub engine_threads: Option<usize>,
    /// Recording the digest: report it, do not check it.
    pub record: bool,
    /// Where the layer pass writes its Chrome trace, if anywhere.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Job {
    fn input(&self) -> Input {
        self.workload
            .build(self.seed, self.smoke, self.engine_threads)
    }

    /// Digests pin the full-size default configuration on one seed.
    fn has_digest(&self) -> bool {
        self.seed == DIGEST_SEED && !self.smoke && self.engine_threads.is_none() && !self.record
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Repeats a set-up until it is measurable: once if it takes half a
/// second, otherwise at least five times back to back and until a quarter
/// second has accumulated (two hundred at most). Returns the last product,
/// the median seconds and the number of builds.
fn measured_setup<T>(mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        samples.push(t.elapsed().as_secs_f64());
        let total: f64 = samples.iter().sum();
        let enough =
            samples[0] >= 0.5 || (samples.len() >= 5 && (total >= 0.25 || samples.len() >= 200));
        if enough {
            let median = crate::stats::median(&samples).expect("non-empty");
            return (built, median, samples.len());
        }
        drop(built);
    }
}

struct Campaign {
    spec: SweepSpec,
    plans: Vec<RunPlan>,
    groups: Vec<ForkGroup>,
}

fn campaign(toml: &str) -> Campaign {
    let spec = SweepSpec::from_toml(toml).expect("generated sweep spec parses");
    let plans = expand(&spec).expect("generated sweep spec expands");
    let groups = fork_groups(&plans)
        .expect("plans group")
        .expect("what-if campaign is fork-eligible");
    Campaign {
        spec,
        plans,
        groups,
    }
}

/// What was verified, for the report.
struct Checked {
    outcomes: Vec<Outcome>,
    errors: Vec<String>,
}

impl Checked {
    fn finish(mut self, job: &Job) -> Vec<(&'static str, Value)> {
        let digest = verify::digest(&self.outcomes);
        if job.has_digest() {
            verify::check_digest(job.workload.name, &digest, &mut self.errors);
        }
        let (attempted, mut failed) = verify::ops(&self.outcomes);
        if !self.errors.is_empty() {
            // an unverified run served nobody
            failed = attempted;
        }
        vec![
            ("ops_attempted", uint(attempted)),
            ("ops_failed", uint(failed)),
            ("verified", Value::Bool(self.errors.is_empty())),
            (
                "verify_errors",
                Value::Seq(self.errors.into_iter().map(text).collect()),
            ),
            ("digest", digest),
        ]
    }
}

fn verify_sim(job: &Job, r: &SimResults, sim: &Simulation) -> Checked {
    // Rebuilt rather than kept through the measured run (see `end_to_end`).
    let Input::Sim(scenario, _) = job.input() else {
        unreachable!("a simulation was just run from this job's input");
    };
    let off = offered(&scenario);
    let outcome = Outcome::of_sim(r, sim, &off);
    let mut errors = Vec::new();
    outcome.check(&off, &mut errors);
    verify::check_sim(r, sim, &mut errors);
    Checked {
        outcomes: vec![outcome],
        errors,
    }
}

fn verify_campaign(c: &Campaign, metrics: &[horse::lab::RunMetrics]) -> Checked {
    let mut errors = Vec::new();
    if metrics.len() != c.plans.len() {
        errors.push(format!(
            "{} runs reported for {} plans",
            metrics.len(),
            c.plans.len()
        ));
    }
    let outcomes = c
        .plans
        .iter()
        .zip(metrics)
        .map(|(plan, m)| {
            let scenario = plan.scenario.build().expect("plan built once already");
            let off = offered(&scenario);
            let outcome = Outcome::of_run(m, &off);
            outcome.check(&off, &mut errors);
            outcome
        })
        .collect();
    Checked { outcomes, errors }
}

/// What a set-up leaves behind, ready to run.
enum Ready {
    Sim(Box<Simulation>, SimTime),
    Campaign(Box<Campaign>),
}

/// One untraced end-to-end repetition.
pub fn end_to_end(job: &Job) -> Value {
    // Nothing but the product of the last set-up is alive during the run:
    // a second scenario held alongside would show up in peak_rss_mb.
    let (ready, setup_s, builds) = measured_setup(|| match job.input() {
        Input::Sim(scenario, config) => {
            let horizon = scenario.horizon;
            let mut sim = Simulation::new(*scenario, config).expect("workload scenario builds");
            sim.start();
            Ready::Sim(Box::new(sim), horizon)
        }
        Input::Sweep(toml) => Ready::Campaign(Box::new(campaign(&toml))),
    });
    let t = Instant::now();
    let (run_s, rss, checked) = match ready {
        Ready::Sim(mut sim, horizon) => {
            sim.run_until(horizon);
            let results = sim.finish();
            let run_s = t.elapsed().as_secs_f64();
            (run_s, peak_rss_mib(), verify_sim(job, &results, &sim))
        }
        Ready::Campaign(c) => {
            let (report, _) = run_forked(&c.spec.name, &c.groups, &ForkOptions::default(), |_| {})
                .expect("forked campaign runs");
            let run_s = t.elapsed().as_secs_f64();
            let rss = peak_rss_mib();
            let metrics: Vec<_> = report.runs.into_iter().map(|r| r.metrics).collect();
            (run_s, rss, verify_campaign(&c, &metrics))
        }
    };
    let mut report = vec![
        ("workload", text(job.workload.name)),
        ("seed", uint(job.seed)),
        ("setup_s", num(setup_s)),
        ("setup_builds", uint(builds as u64)),
        ("run_s", num(run_s)),
        ("peak_rss_mb", num(rss)),
    ];
    report.extend(checked.finish(job));
    obj(report)
}

/// An in-memory journal sink that keeps only a census of event kinds.
#[derive(Clone, Default)]
struct Census(Arc<Mutex<Vec<(String, u64)>>>);

impl Write for Census {
    fn write(&mut self, line: &[u8]) -> std::io::Result<usize> {
        const KEY: &[u8] = b"\"kind\":\"";
        if let Some(at) = line.windows(KEY.len()).position(|w| w == KEY) {
            let rest = &line[at + KEY.len()..];
            let kind = &rest[..rest.iter().position(|&b| b == b'"').unwrap_or(0)];
            let mut counts = self.0.lock().expect("census lock is never poisoned");
            match counts.iter_mut().find(|(k, _)| k.as_bytes() == kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((String::from_utf8_lossy(kind).into_owned(), 1)),
            }
        }
        Ok(line.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Deterministic counters of one simulation, as an indexable row so a
/// fork's share of the work is `fork - prefix` (a forked run's counters
/// continue from the checkpoint's).
#[derive(Clone, Copy, Default)]
struct Counters([u64; 19]);

const EVENTS: usize = 0;
const EPOCHS: usize = 1;
const STALE: usize = 2;
const REALLOC_RUNS: usize = 3;
const TOUCHED: usize = 4;
const MACRO: usize = 5;
const WARM: usize = 6;
const COLD: usize = 7;
const TO_SWITCH: usize = 8;
const TO_CTRL: usize = 9;
const Q_SCHEDULED: usize = 10;
const Q_CANCELLED: usize = 11;
const Q_SKIPPED: usize = 12;
const Q_COMPACTIONS: usize = 13;
const TX_PACKETS: usize = 14;
const BURSTS: usize = 15;
const CACHE_HITS: usize = 16;
const CACHE_MISSES: usize = 17;
const PKT_DROPS: usize = 18;

impl Counters {
    fn of(r: &SimResults, sim: &Simulation) -> Self {
        let plane = sim.hybrid().map(|h| h.plane());
        Counters([
            r.events,
            r.epochs,
            r.stale_completions,
            r.realloc_runs,
            r.realloc_flows_touched,
            r.macro_flows,
            r.warm_hits,
            r.cold_solves,
            r.msgs_to_switch,
            r.msgs_to_controller,
            r.queue.scheduled,
            r.queue.cancelled,
            r.queue.skipped,
            r.queue.compactions,
            plane.map_or(0, |p| p.tx_packets()),
            plane.map_or(0, |p| p.burst_len_hist().iter().sum()),
            r.pkt_cache_hits,
            r.pkt_cache_misses,
            plane.map_or(0, |p| p.drops()),
        ])
    }
}

/// Counters and span totals summed over the simulations of one layer
/// pass (one, or a campaign's prefix plus its forks).
#[derive(Default)]
struct SimTotals {
    sum: Counters,
    max_epoch_batch: u64,
    sim_spans: Vec<SpanLog>,
}

impl SimTotals {
    /// Adds a finished simulation's work on top of `base` (the counters
    /// it started from: zero, or the checkpoint it was forked off), takes
    /// its spans, and returns its absolute counters.
    fn add(&mut self, r: &SimResults, sim: &mut Simulation, base: &Counters) -> Counters {
        let now = Counters::of(r, sim);
        for ((sum, now), base) in self.sum.0.iter_mut().zip(now.0).zip(base.0) {
            *sum += now.saturating_sub(base);
        }
        self.max_epoch_batch = self.max_epoch_batch.max(r.max_epoch_batch);
        if let Some(mut tracer) = sim.take_tracer() {
            tracer.finish_journal();
            self.sim_spans.extend(tracer.take_spans());
        }
        now
    }

    fn span_secs(&self, name: &str) -> f64 {
        self.sim_spans
            .iter()
            .flat_map(|log| log.spans())
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    }

    fn readings(&self, census: &Census) -> Vec<Reading> {
        let c = &self.sum.0;
        let ratio = |n: u64, d: u64, why: &str| {
            if d == 0 {
                Err(why.to_string())
            } else {
                Ok(n as f64 / d as f64)
            }
        };
        let [discovery, build, solve, apply] = [
            "realloc.discovery",
            "realloc.build",
            "realloc.solve",
            "realloc.apply",
        ]
        .map(|n| self.span_secs(n));
        let epoch = self.span_secs("epoch");
        let no_plane = "no packet plane in this run";
        let mut out: Vec<Reading> = vec![
            ("dataplane.discovery_s", Ok(discovery)),
            ("dataplane.build_s", Ok(build)),
            ("dataplane.solve_s", Ok(solve)),
            ("dataplane.apply_s", Ok(apply)),
            ("dataplane.realloc_runs", Ok(c[REALLOC_RUNS] as f64)),
            (
                "dataplane.flows_touched_per_run",
                ratio(c[TOUCHED], c[REALLOC_RUNS], "no allocator run"),
            ),
            (
                "dataplane.macro_ratio",
                ratio(c[MACRO], c[TOUCHED], "no flow touched"),
            ),
            (
                "dataplane.warm_hit_ratio",
                ratio(c[WARM], c[WARM] + c[COLD], "no component solved"),
            ),
            (
                "dataplane.stale_completion_ratio",
                ratio(c[STALE], c[EVENTS], "no event"),
            ),
            ("controlplane.msgs_to_switch", Ok(c[TO_SWITCH] as f64)),
            (
                "controlplane.msgs_per_input",
                Ok(c[TO_SWITCH] as f64 / c[TO_CTRL].max(1) as f64),
            ),
            ("events.scheduled", Ok(c[Q_SCHEDULED] as f64)),
            ("events.cancelled", Ok(c[Q_CANCELLED] as f64)),
            ("events.skipped", Ok(c[Q_SKIPPED] as f64)),
            ("events.compactions", Ok(c[Q_COMPACTIONS] as f64)),
            ("packetsim.tx_packets", Ok(c[TX_PACKETS] as f64)),
            (
                "packetsim.burst_len_mean",
                ratio(c[TX_PACKETS], c[BURSTS], no_plane),
            ),
            (
                "packetsim.cache_hit_ratio",
                ratio(c[CACHE_HITS], c[CACHE_HITS] + c[CACHE_MISSES], no_plane),
            ),
            ("packetsim.drops", Ok(c[PKT_DROPS] as f64)),
            ("core.epoch_s", Ok(epoch)),
            (
                "core.handler_self_s",
                Ok(epoch - discovery - build - solve - apply),
            ),
            ("core.events", Ok(c[EVENTS] as f64)),
            ("core.epochs", Ok(c[EPOCHS] as f64)),
            (
                "core.epoch_batch_mean",
                ratio(c[EVENTS], c[EPOCHS], "no epoch"),
            ),
            ("core.epoch_batch_max", Ok(self.max_epoch_batch as f64)),
        ];
        let counts = census.0.lock().expect("census lock is never poisoned");
        let mut other = 0u64;
        let mut named = [0u64; CENSUS.len()];
        for (kind, n) in counts.iter() {
            match CENSUS.iter().position(|(k, _)| k == kind) {
                Some(i) => named[i] += n,
                None => other += n,
            }
        }
        out.extend(
            CENSUS
                .iter()
                .zip(named)
                .map(|((_, metric), n)| (*metric, Ok(n as f64))),
        );
        out.push(("core.events.other", Ok(other as f64)));
        out
    }
}

fn tracer(census: &Census) -> SimTracer {
    SimTracer::new().with_spans().with_journal(census.clone())
}

/// Cost of journaling alone: the journal writer driven straight into the
/// counting sink, outside any simulation.
fn journal_ns_per_event(smoke: bool) -> f64 {
    let n = if smoke { 20_000u64 } else { 500_000 };
    let mut w = horse::tracing::JournalWriter::new(Census::default());
    let t = Instant::now();
    for i in 0..n {
        let _ = w.record(i, CENSUS[(i % 6) as usize].0, i.wrapping_mul(0x9E37_79B9));
    }
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// One layer pass: the workload once more under full tracing with
/// harness-side spans around every public call, then the probes.
pub fn layer_pass(job: &Job) -> Value {
    let mut spans = Spans::new();
    let pass = spans.begin("layer_pass");
    let census = Census::default();
    let mut totals = SimTotals::default();
    let mut readings: Vec<Reading> = Vec::new();
    let flows_wanted = if job.smoke { 256 } else { 2048 };

    let (input, gen_s) = spans.time("scenario_build", || job.input());
    readings.push(("harness.scenario_build_s", Ok(gen_s)));
    let (scenario, config, sweep, verdict, setup_s, run_s) = match input {
        Input::Sim(scenario, config) => {
            let horizon = scenario.horizon;
            let kept = scenario.clone();
            let (sim, new_s) = spans.time("Simulation::new", || Simulation::new(*scenario, config));
            let mut sim = sim.expect("workload scenario builds");
            sim.set_tracer(tracer(&census));
            let (_, start_s) = spans.time("Simulation::start", || sim.start());
            let half = SimTime::from_nanos(horizon.as_nanos() / 2);
            let (_, first_s) = spans.time("Simulation::run_until", || sim.run_until(half));
            readings.extend(probes::snap::measure(&sim, &mut spans));
            let (_, second_s) = spans.time("Simulation::run_until", || sim.run_until(horizon));
            let (results, finish_s) = spans.time("Simulation::finish", || sim.finish());
            let verdict = verify_sim(job, &results, &sim);
            totals.add(&results, &mut sim, &Counters::default());
            readings.push(("core.new_s", Ok(new_s)));
            readings.push(("core.start_s", Ok(start_s)));
            readings.push(("core.finish_s", Ok(finish_s)));
            (
                kept,
                config,
                None,
                verdict,
                gen_s + new_s + start_s,
                first_s + second_s + finish_s,
            )
        }
        Input::Sweep(toml) => {
            let (c, expand_s) = spans.time("lab::expand", || campaign(&toml));
            let campaign_span = spans.begin("campaign");
            let mut metrics = Vec::new();
            let (mut new_s, mut start_s, mut finish_s) = (0.0, 0.0, 0.0);
            let mut decode = Vec::new();
            let mut prefix_scenario = None;
            for group in &c.groups {
                let scenario = group.prefix.scenario.build().expect("prefix plan builds");
                let config = group
                    .prefix
                    .config
                    .to_config()
                    .expect("prefix config folds");
                prefix_scenario.get_or_insert_with(|| (Box::new(scenario.clone()), config));
                let (sim, s) = spans.time("Simulation::new", || Simulation::new(scenario, config));
                new_s += s;
                let mut sim = sim.expect("prefix scenario builds");
                sim.set_tracer(tracer(&census));
                start_s += spans.time("Simulation::start", || sim.start()).1;
                spans.time("Simulation::run_until", || sim.run_until(group.at));
                let (snapshot, encode_s) = spans.time("checkpoint", || sim.checkpoint());
                readings.push(("types.snap_encode_s", Ok(encode_s)));
                readings.push(("types.snap_bytes", Ok(snapshot.len() as f64)));
                let prefix_events = sim.events_processed();
                readings.push((
                    "lab.prefix_events_saved",
                    Ok((prefix_events * (group.variants.len() as u64 - 1)) as f64),
                ));
                // The prefix is done once checkpointed; settling it yields
                // the counters every fork starts from.
                let base = totals.add(&sim.finish(), &mut sim, &Counters::default());
                for plan in &group.variants {
                    let variant = plan.scenario.build().expect("plan builds");
                    let overrides = ForkSpec {
                        engine_threads: Some(
                            plan.config
                                .to_config()
                                .expect("config folds")
                                .engine_threads,
                        ),
                        ctrl_latency: None,
                        late_events: variant.late_events,
                    };
                    let (fork, s) = spans.time("fork", || Simulation::fork(&snapshot, &overrides));
                    decode.push(s);
                    let mut fork = fork.expect("fork of a fresh checkpoint succeeds");
                    fork.set_tracer(tracer(&census));
                    spans.time("Simulation::run_until", || fork.run_until(variant.horizon));
                    let (results, s) = spans.time("Simulation::finish", || fork.finish());
                    finish_s += s;
                    metrics.push(horse::lab::RunMetrics::from_results(&results));
                    totals.add(&results, &mut fork, &base);
                }
            }
            let run_s = spans.end(campaign_span);
            readings.push((
                "types.snap_decode_s",
                crate::stats::median(&decode).ok_or_else(|| "campaign forked nothing".to_string()),
            ));
            readings.push(("core.new_s", Ok(new_s)));
            readings.push(("core.start_s", Ok(start_s)));
            readings.push(("core.finish_s", Ok(finish_s)));
            let verdict = verify_campaign(&c, &metrics);
            let (scenario, config) = prefix_scenario.expect("a campaign has a group");
            (
                scenario,
                config,
                Some(toml),
                verdict,
                gen_s + expand_s,
                run_s,
            )
        }
    };
    readings.push(("trace.traced_setup_s", Ok(setup_s)));
    readings.push(("trace.traced_run_s", Ok(run_s)));
    readings.extend(totals.readings(&census));
    readings.push((
        "trace.journal_ns_per_event",
        Ok(journal_ns_per_event(job.smoke)),
    ));

    let probes_span = spans.begin("probes");
    let flows = first_flows(&scenario, flows_wanted);
    let probe_input = probes::Input {
        workload: job.workload,
        scenario: &scenario,
        config,
        sweep: sweep.as_deref(),
        flows: &flows,
        smoke: job.smoke,
    };
    let probe_readings = probes::run_all(&probe_input, &mut spans);
    // A campaign's snapshot numbers come from its own checkpoint and
    // forks above; the lab probe's `prefix_events_saved` is the same count.
    for r in probe_readings {
        if !readings.iter().any(|(name, _)| *name == r.0) {
            readings.push(r);
        }
    }
    readings.push(("harness.probes_s", Ok(spans.end(probes_span))));
    readings.push(("harness.layer_pass_s", Ok(spans.end(pass))));

    if let Some(path) = &job.trace_out {
        let doc = spans.chrome_trace(job.workload.name, &totals.sim_spans, 20_000);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    let mut layers = Vec::new();
    let mut notes = Vec::new();
    for (name, value) in readings {
        match value {
            Ok(v) => layers.push((name, num(v))),
            Err(why) => {
                layers.push((name, Value::Null));
                notes.push((name, text(why)));
            }
        }
    }
    let span_rows = spans
        .summary()
        .into_iter()
        .map(|(name, total, own, calls)| {
            obj(vec![
                ("name", text(name)),
                ("total_s", num(total)),
                ("self_s", num(own)),
                ("calls", uint(calls)),
            ])
        })
        .collect();
    let mut report = vec![
        ("workload", text(job.workload.name)),
        ("seed", uint(job.seed)),
        ("layers", obj(layers)),
        ("layer_notes", obj(notes)),
        ("spans", Value::Seq(span_rows)),
    ];
    report.extend(verdict.finish(job));
    obj(report)
}
