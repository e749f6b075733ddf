//! The parallel batch runner: a shared-queue thread pool executing
//! independent simulations and streaming their results into a
//! [`crate::report::CampaignReport`].
//!
//! Work distribution is dynamic (workers pull the next plan when free) so
//! uneven run lengths don't idle threads, while reported order is always
//! plan order — a campaign's metrics are byte-identical at any thread
//! count, which the determinism tests pin down.

use crate::report::{CampaignReport, RunRecord};
use crate::spec::SweepSpec;
use crate::sweep::{expand, RunPlan};
use crate::LabError;
use horse::monitoring::series::Summary;
use horse::prelude::*;
use horse::tracing::{MetricsSnapshot, SpanLog};
use std::collections::VecDeque;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The deterministic metrics of one run: the flow outcomes and
/// summaries [`SimResults`] types, and every count by name in
/// [`RunMetrics::metrics`]. Two runs of the same plan produce equal
/// `RunMetrics` regardless of machine, thread count or load. The report
/// table (`crate::report`) reads counts by name; the typed fields are
/// what is not a count, and the counts the frozen benchmark reads.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Flows admitted into the data plane.
    pub flows_admitted: u64,
    /// Flows that ran to byte-completion.
    pub flows_completed: u64,
    /// Flows dropped (policy, no-route, controller timeout, failure).
    pub flows_dropped: u64,
    /// Flows still active at the horizon.
    pub flows_active_at_end: u64,
    /// Bytes delivered end-to-end.
    pub bytes_delivered: f64,
    /// Bytes lost to policers / CBR shortfall.
    pub bytes_dropped: f64,
    /// Delivered throughput over the horizon, bits/s.
    pub throughput_bps: f64,
    /// Flow-completion-time summary (seconds, completed flows).
    pub fct: Summary,
    /// Per-flow goodput summary (bits/s, completed flows).
    pub goodput: Summary,
    /// Recovery-time summary (seconds from a fault knocking a flow off
    /// its path to its re-admission); all-zero in a fault-free run.
    pub recovery: Summary,
    /// Fault-injection counters (all zero in a fault-free run).
    pub chaos: ChaosCounters,
    /// Every count of the run by name, and the tracer registry's cells
    /// ([`SimResults::metrics`]). Reports embed the names they declare.
    pub metrics: MetricsSnapshot,
}

impl RunMetrics {
    /// Extracts the deterministic slice of a [`SimResults`].
    pub fn from_results(r: &SimResults) -> Self {
        let sim_secs = r.sim_time.as_secs_f64();
        RunMetrics {
            sim_secs,
            flows_admitted: r.flows_admitted,
            flows_completed: r.flows_completed,
            flows_dropped: r.flows_dropped,
            flows_active_at_end: r.flows_active_at_end,
            bytes_delivered: r.bytes_delivered,
            bytes_dropped: r.bytes_dropped,
            throughput_bps: if sim_secs > 0.0 {
                r.bytes_delivered * 8.0 / sim_secs
            } else {
                0.0
            },
            fct: r.fct,
            goodput: r.goodput,
            recovery: r.recovery,
            chaos: r.chaos.clone(),
            metrics: r.metrics.clone(),
        }
    }

    /// The count `name` (0 when the run did not record it).
    pub fn count(&self, name: &str) -> u64 {
        self.metrics.count(name)
    }
}

/// Observability options for a campaign (all off by default; none of
/// them changes any deterministic output).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Collect wall-clock phase spans for Chrome-trace export.
    pub trace: bool,
    /// Write one sim-time event journal per run into this directory
    /// (`run000.jsonl`, `run001.jsonl`, …).
    pub journal_dir: Option<PathBuf>,
    /// Print a periodic stderr heartbeat (sim-time, events/sec, epochs).
    pub progress: bool,
}

impl RunOptions {
    fn journal_path(&self, index: usize) -> Option<PathBuf> {
        self.journal_dir
            .as_ref()
            .map(|d| d.join(format!("run{index:03}.jsonl")))
    }
}

/// The wall-clock spans one run produced (for Chrome-trace export).
pub struct TraceOut {
    /// Plan index of the run.
    pub index: usize,
    /// The run's `axis=value` label.
    pub label: String,
    /// Its span log.
    pub spans: SpanLog,
}

/// Executes one plan to completion (builds scenario + config, runs the
/// simulation, extracts metrics). Every run carries a tracer, so the
/// registry-only metrics [`crate::report::REPORTED`] lists (the
/// allocator's two histograms) exist with or without the optional
/// span/journal machinery; plain counts need no tracer.
pub fn execute_plan(plan: &RunPlan) -> Result<RunRecord, LabError> {
    execute_plan_opts(plan, &RunOptions::default()).map(|(rec, _)| rec)
}

/// [`execute_plan`] with observability options; also returns the span
/// log when `opts.trace` is on.
pub fn execute_plan_opts(
    plan: &RunPlan,
    opts: &RunOptions,
) -> Result<(RunRecord, Option<SpanLog>), LabError> {
    let scenario = plan.scenario.build()?;
    let config = plan.config.to_config()?;
    let started = Instant::now();
    let mut sim = Simulation::new(scenario, config)
        .map_err(|e| LabError::build(format!("run {} ({}): {e}", plan.index, plan.label())))?;
    let mut tracer = SimTracer::new();
    if opts.trace {
        tracer = tracer.with_spans();
    }
    if let Some(path) = opts.journal_path(plan.index) {
        let file = std::fs::File::create(&path).map_err(|e| {
            LabError::build(format!(
                "run {}: journal {}: {e}",
                plan.index,
                path.display()
            ))
        })?;
        tracer = tracer.with_journal(BufWriter::new(file));
    }
    if opts.progress {
        tracer = tracer.with_progress(Duration::from_secs(2));
    }
    sim.set_tracer(tracer);
    let results = sim.run();
    let spans = sim.take_tracer().and_then(|mut t| {
        t.finish_journal();
        t.take_spans()
    });
    Ok((
        RunRecord {
            index: plan.index,
            params: plan.params.clone(),
            metrics: RunMetrics::from_results(&results),
            wall_seconds: started.elapsed().as_secs_f64(),
        },
        spans,
    ))
}

/// Resolves the effective worker count: CLI override, then the spec's
/// `threads`, then one per available CPU.
pub fn resolve_threads(cli: Option<usize>, spec: &SweepSpec) -> usize {
    cli.filter(|&t| t > 0)
        .or(spec.threads.filter(|&t| t > 0))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Runs a whole campaign on `threads` workers and returns the report
/// (runs sorted by plan index). `progress` receives one line per
/// finished run as it completes.
pub fn run_sweep_with<F>(
    spec: &SweepSpec,
    threads: usize,
    progress: F,
) -> Result<CampaignReport, LabError>
where
    F: FnMut(&RunRecord),
{
    run_plans_with(&spec.name, expand(spec)?, threads, progress)
}

/// Runs an already-expanded plan list (lets callers expand once and
/// reuse the grid for counting/printing before running).
pub fn run_plans_with<F>(
    name: &str,
    plans: Vec<RunPlan>,
    threads: usize,
    progress: F,
) -> Result<CampaignReport, LabError>
where
    F: FnMut(&RunRecord),
{
    run_plans_opts(name, plans, threads, &RunOptions::default(), progress).map(|(rep, _)| rep)
}

/// [`run_plans_with`] plus observability: per-run journals land in
/// `opts.journal_dir` and, with `opts.trace`, every run's span log is
/// returned (sorted by plan index) for Chrome-trace export.
pub fn run_plans_opts<F>(
    name: &str,
    plans: Vec<RunPlan>,
    threads: usize,
    opts: &RunOptions,
    mut progress: F,
) -> Result<(CampaignReport, Vec<TraceOut>), LabError>
where
    F: FnMut(&RunRecord),
{
    if let Some(dir) = opts.journal_dir.as_ref() {
        std::fs::create_dir_all(dir)
            .map_err(|e| LabError::build(format!("journal dir {}: {e}", dir.display())))?;
    }
    let total = plans.len();
    let threads = threads.clamp(1, total.max(1));
    let campaign_started = Instant::now();

    let queue: Mutex<VecDeque<RunPlan>> = Mutex::new(plans.into());
    type Outcome = Result<(RunRecord, Option<SpanLog>), LabError>;
    let (tx, rx) = mpsc::channel::<Outcome>();

    let mut records: Vec<RunRecord> = Vec::with_capacity(total);
    let mut traces: Vec<TraceOut> = Vec::new();
    let mut first_error: Option<LabError> = None;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || loop {
                let plan = match queue.lock() {
                    Ok(mut q) => q.pop_front(),
                    Err(_) => None, // a sibling panicked; drain out
                };
                let Some(plan) = plan else { break };
                if tx.send(execute_plan_opts(&plan, opts)).is_err() {
                    break; // collector is gone (error short-circuit)
                }
            });
        }
        drop(tx);
        for outcome in rx {
            match outcome {
                Ok((rec, spans)) => {
                    progress(&rec);
                    if let Some(spans) = spans {
                        traces.push(TraceOut {
                            index: rec.index,
                            label: rec.label(),
                            spans,
                        });
                    }
                    records.push(rec);
                }
                Err(e) => {
                    // remember the first failure, stop handing out work
                    if first_error.is_none() {
                        first_error = Some(e);
                        if let Ok(mut q) = queue.lock() {
                            q.clear();
                        }
                    }
                }
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }

    records.sort_by_key(|r| r.index);
    traces.sort_by_key(|t| t.index);
    Ok((
        CampaignReport {
            name: name.to_string(),
            runs: records,
            threads,
            campaign_wall_seconds: campaign_started.elapsed().as_secs_f64(),
        },
        traces,
    ))
}

/// [`run_sweep_with`] without progress reporting.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<CampaignReport, LabError> {
    run_sweep_with(spec, threads, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn tiny_sweep(threads_field: Option<usize>) -> SweepSpec {
        let mut s = SweepSpec::from_toml(
            r#"
            name = "tiny"
            replicates = 2
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            [axes]
            ctrl_latency_us = [0, 1000]
            "#,
        )
        .unwrap();
        s.threads = threads_field;
        s
    }

    #[test]
    fn runs_complete_and_stay_ordered() {
        let spec = tiny_sweep(None);
        let report = run_sweep(&spec, 2).unwrap();
        assert_eq!(report.runs.len(), 4);
        for (i, r) in report.runs.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(
                r.metrics.count("sim.events") > 0,
                "run {i} simulated nothing"
            );
            assert!(r.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn thread_resolution_order() {
        let spec = tiny_sweep(Some(3));
        assert_eq!(resolve_threads(Some(2), &spec), 2, "CLI wins");
        assert_eq!(resolve_threads(None, &spec), 3, "spec next");
        let spec = tiny_sweep(None);
        assert!(resolve_threads(None, &spec) >= 1, "CPU fallback");
        assert_eq!(
            resolve_threads(Some(0), &tiny_sweep(Some(5))),
            5,
            "0 = unset"
        );
    }
}
