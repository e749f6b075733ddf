//! Campaign reports: deterministic per-run metrics plus campaign-level
//! aggregates, exported as CSV and JSON, with wall-clock timing kept
//! strictly separate (timing varies run-to-run; metrics must not).

use crate::runner::RunMetrics;
use crate::sweep::value_text;
use horse::monitoring::export::table_to_csv;
use horse::monitoring::series::{summarize, Summary};
use horse::results::{mean_epoch_batch, realloc_saved};
use serde::{Serialize, Value};

/// One finished run: its sweep coordinates, deterministic metrics and
/// (non-deterministic) wall time.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Plan index (stable ordering key).
    pub index: usize,
    /// `(axis, value)` coordinates, ending with `seed`.
    pub params: Vec<(String, Value)>,
    /// Deterministic metrics.
    pub metrics: RunMetrics,
    /// Wall-clock seconds this run took (excluded from metric exports).
    pub wall_seconds: f64,
}

impl RunRecord {
    /// The run's `axis=value` label.
    pub fn label(&self) -> String {
        self.params
            .iter()
            .map(|(k, v)| format!("{k}={}", value_text(v)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A completed campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// All runs, sorted by plan index.
    pub runs: Vec<RunRecord>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub campaign_wall_seconds: f64,
}

/// Extracts one scalar metric from a run for campaign aggregation.
type MetricFn = fn(&RunMetrics) -> f64;

/// The metrics every campaign aggregates across its runs, as
/// `(column, extractor)` pairs. Aggregating per-run summaries (each run
/// already summarizes its own flow population) keeps the report O(runs).
const AGGREGATED: &[(&str, MetricFn)] = &[
    ("fct_mean", |m| m.fct.mean),
    ("fct_p50", |m| m.fct.p50),
    ("fct_p99", |m| m.fct.p99),
    ("fct_p999", |m| m.fct.p999),
    ("throughput_bps", |m| m.throughput_bps),
    ("goodput_mean_bps", |m| m.goodput.mean),
    ("events", |m| m.count("sim.events") as f64),
    ("flows_completed", |m| m.flows_completed as f64),
    ("recovery_time", |m| m.recovery.mean),
];

/// The metric names reports embed under each run's `metrics` key (a
/// histogram's name brings its six statistics). A run records more: any
/// other name, registered or in a results table, stays out of the
/// reports. Adding a name here makes it reported, and moves every report
/// that has it.
#[rustfmt::skip]
pub const REPORTED: &[&str] = &[
    "alloc.byte_syncs", "alloc.component_flows", "alloc.components", "alloc.flows_touched",
    "alloc.macro_flows", "alloc.rounds", "alloc.runs",
    "chaos.cable_downs", "chaos.cable_ups", "chaos.ctrl_latency_spikes",
    "chaos.ctrl_msgs_buffered", "chaos.ctrl_outages", "chaos.flows_rerouted",
    "chaos.flows_stranded", "chaos.gray_events", "chaos.switch_crashes", "chaos.switch_rejoins",
    "hybrid.couple_passes", "links.peak_utilization", "openflow.table_hits",
    "openflow.table_misses",
    "pkt.burst_len_p2_0", "pkt.burst_len_p2_1", "pkt.burst_len_p2_2", "pkt.burst_len_p2_3",
    "pkt.burst_len_p2_4", "pkt.burst_len_p2_5", "pkt.burst_len_p2_6", "pkt.burst_len_p2_7",
    "pkt.bursts_formed", "pkt.cache_hits", "pkt.cache_invalidations", "pkt.cache_misses",
    "pkt.tx_packets",
    "queue.cancelled", "queue.clamped", "queue.compactions", "queue.delivered",
    "queue.peak_pending", "queue.scheduled", "queue.skipped",
    "sim.epochs", "sim.events",
];

/// Where one entry of a run's report comes from.
enum Src {
    /// A count of the run's metrics, by name.
    Count(&'static str),
    /// A value computed from the run.
    Value(fn(&RunMetrics) -> Value),
    /// A map computed from the run; the CSV flattens the listed
    /// `(column, key)` pairs of it.
    Map(
        fn(&RunMetrics) -> Value,
        &'static [(&'static str, &'static str)],
    ),
    /// The run's [`REPORTED`] metrics (JSON only).
    Reported,
}

/// A run's report entries in order, as `(JSON key, source)` pairs. A
/// scalar is also the CSV column of its key; the CSV columns follow the
/// `run` and axis columns.
#[rustfmt::skip]
const REPORT: &[(&str, Src)] = &[
    ("sim_secs", Src::Value(|m| m.sim_secs.to_value())),
    ("events", Src::Count("sim.events")),
    ("flows_admitted", Src::Value(|m| m.flows_admitted.to_value())),
    ("flows_completed", Src::Value(|m| m.flows_completed.to_value())),
    ("flows_dropped", Src::Value(|m| m.flows_dropped.to_value())),
    ("flows_active_at_end", Src::Value(|m| m.flows_active_at_end.to_value())),
    ("bytes_delivered", Src::Value(|m| m.bytes_delivered.to_value())),
    ("bytes_dropped", Src::Value(|m| m.bytes_dropped.to_value())),
    ("throughput_bps", Src::Value(|m| m.throughput_bps.to_value())),
    ("fct", Src::Map(|m| m.fct.to_value(), &[
        ("fct_mean", "mean"), ("fct_p50", "p50"), ("fct_p95", "p95"), ("fct_p99", "p99"),
        ("fct_p999", "p999"),
    ])),
    ("goodput", Src::Map(|m| m.goodput.to_value(), &[("goodput_mean_bps", "mean")])),
    ("msgs_to_controller", Src::Count("ctrl.msgs_to_controller")),
    ("msgs_to_switch", Src::Count("ctrl.msgs_to_switch")),
    ("flow_ins", Src::Count("ctrl.flow_ins")),
    ("epochs", Src::Count("sim.epochs")),
    ("epoch_batch_mean", Src::Value(|m| mean_epoch_batch(&m.metrics).to_value())),
    ("epoch_batch_max", Src::Count("sim.max_epoch_batch")),
    ("realloc_runs", Src::Count("alloc.runs")),
    ("realloc_saved", Src::Value(|m| realloc_saved(&m.metrics).to_value())),
    ("realloc_flows_touched", Src::Count("alloc.flows_touched")),
    ("macro_flows", Src::Count("alloc.macro_flows")),
    ("cold_solves", Src::Count("alloc.components")),
    ("pkt_bursts_formed", Src::Count("pkt.bursts_formed")),
    ("pkt_cache_hits", Src::Count("pkt.cache_hits")),
    ("pkt_cache_misses", Src::Count("pkt.cache_misses")),
    ("pkt_cache_invalidations", Src::Count("pkt.cache_invalidations")),
    ("queue_cancelled", Src::Count("queue.cancelled")),
    ("queue_peak_pending", Src::Count("queue.peak_pending")),
    ("recovery", Src::Map(|m| m.recovery.to_value(), &[
        ("recovery_time", "mean"), ("recovery_p99", "p99"),
    ])),
    ("chaos", Src::Map(|m| m.chaos.to_value(), &[
        ("flows_rerouted", "flows_rerouted"), ("flows_stranded", "flows_stranded"),
        ("cable_downs", "cable_downs"), ("cable_ups", "cable_ups"),
        ("switch_crashes", "switch_crashes"), ("switch_rejoins", "switch_rejoins"),
        ("gray_events", "gray_events"), ("ctrl_outages", "ctrl_outages"),
        ("ctrl_latency_spikes", "ctrl_latency_spikes"),
        ("ctrl_msgs_buffered", "ctrl_msgs_buffered"),
    ])),
    ("metrics", Src::Reported),
];

impl Src {
    fn value(&self, m: &RunMetrics) -> Value {
        match self {
            Src::Count(name) => m.count(name).to_value(),
            Src::Value(value) | Src::Map(value, _) => value(m),
            Src::Reported => Value::Map(
                (m.metrics.select(REPORTED))
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// The CSV columns of [`REPORT`], in order.
fn csv_columns() -> Vec<&'static str> {
    let mut cols = Vec::new();
    for (key, src) in REPORT {
        match src {
            Src::Count(_) | Src::Value(_) => cols.push(*key),
            Src::Map(_, pairs) => cols.extend(pairs.iter().map(|(col, _)| *col)),
            Src::Reported => {}
        }
    }
    cols
}

/// A run's CSV cells, in [`csv_columns`] order.
fn csv_cells(m: &RunMetrics) -> Vec<String> {
    let mut cells = Vec::new();
    for (_, src) in REPORT {
        match src {
            Src::Count(_) | Src::Value(_) => cells.push(value_text(&src.value(m))),
            Src::Map(value, pairs) => {
                let map = value(m);
                cells.extend(pairs.iter().map(|(_, key)| value_text(&map[*key])));
            }
            Src::Reported => {}
        }
    }
    cells
}

impl CampaignReport {
    /// Axis column names, in sweep order (taken from the first run —
    /// every run carries the same axes).
    pub fn param_columns(&self) -> Vec<String> {
        self.runs
            .first()
            .map(|r| r.params.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    }

    /// The deterministic per-run metrics table as CSV. Byte-identical
    /// across thread counts and machines for the same spec.
    pub fn metrics_csv(&self) -> String {
        let param_cols = self.param_columns();
        let header: Vec<&str> = std::iter::once("run")
            .chain(param_cols.iter().map(String::as_str))
            .chain(csv_columns())
            .collect();
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .map(|r| {
                std::iter::once(r.index.to_string())
                    .chain(r.params.iter().map(|(_, v)| value_text(v)))
                    .chain(csv_cells(&r.metrics))
                    .collect()
            })
            .collect();
        table_to_csv(&header, &rows)
    }

    /// Campaign-level aggregates: a [`Summary`] (mean/min/p50/p95/p99/max
    /// over runs) for each headline metric (FCT percentiles, throughput,
    /// goodput, events, completions).
    pub fn aggregate(&self) -> Vec<(String, Summary)> {
        AGGREGATED
            .iter()
            .map(|(name, extract)| {
                let values: Vec<f64> = self.runs.iter().map(|r| extract(&r.metrics)).collect();
                (name.to_string(), summarize(&values))
            })
            .collect()
    }

    /// The deterministic campaign report as pretty JSON: per-run params +
    /// metrics and the campaign aggregate. Excludes wall-clock and thread
    /// count so N-thread and 1-thread runs serialize identically.
    pub fn metrics_json(&self) -> String {
        let runs: Vec<Value> = self
            .runs
            .iter()
            .map(|r| {
                Value::Map(vec![
                    (
                        "run".to_string(),
                        Value::Number(serde::Number::UInt(r.index as u64)),
                    ),
                    ("params".to_string(), Value::Map(r.params.clone())),
                    (
                        "metrics".to_string(),
                        Value::Map(
                            (REPORT.iter())
                                .map(|(key, src)| (key.to_string(), src.value(&r.metrics)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let aggregate = Value::Map(
            self.aggregate()
                .into_iter()
                .map(|(k, s)| (k, s.to_value()))
                .collect(),
        );
        let doc = Value::Map(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "runs_total".to_string(),
                Value::Number(serde::Number::UInt(self.runs.len() as u64)),
            ),
            ("runs".to_string(), Value::Seq(runs)),
            ("aggregate".to_string(), aggregate),
        ]);
        serde_json::to_string_pretty(&doc).expect("report serializes")
    }

    /// Human-readable timing summary (wall-clock; intentionally not part
    /// of the metric exports).
    pub fn timing_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut runs_wall = 0.0f64;
        let mut events = 0u64;
        for r in &self.runs {
            let eps = if r.wall_seconds > 0.0 {
                r.metrics.count("sim.events") as f64 / r.wall_seconds
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "run {:>3}  {:>9.3}s wall  {:>12.0} events/s   {}",
                r.index,
                r.wall_seconds,
                eps,
                r.label()
            );
            runs_wall += r.wall_seconds;
            events += r.metrics.count("sim.events");
        }
        let wall = self.campaign_wall_seconds;
        let _ = writeln!(
            out,
            "campaign: {} runs on {} thread(s) in {:.3}s wall \
             ({:.2} runs/s; {:.0} events/s; {:.2}x thread speedup)",
            self.runs.len(),
            self.threads,
            wall,
            if wall > 0.0 {
                self.runs.len() as f64 / wall
            } else {
                0.0
            },
            if wall > 0.0 {
                events as f64 / wall
            } else {
                0.0
            },
            if wall > 0.0 { runs_wall / wall } else { 0.0 },
        );
        out
    }

    /// A compact aggregate table for terminal output.
    pub fn aggregate_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>12} {:>12}",
            "metric", "mean", "p50", "p99", "max"
        );
        for (name, s) in self.aggregate() {
            let _ = writeln!(
                out,
                "{name:<18} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
                s.mean, s.p50, s.p99, s.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_sweep;
    use crate::spec::SweepSpec;
    use horse::prelude::*;

    fn report() -> CampaignReport {
        let spec = SweepSpec::from_toml(
            r#"
            name = "rep"
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            [axes]
            ctrl_latency_us = [0, 1000]
            "#,
        )
        .unwrap();
        run_sweep(&spec, 1).unwrap()
    }

    #[test]
    fn csv_has_param_and_metric_columns() {
        let r = report();
        let csv = r.metrics_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("run,ctrl_latency_us,seed,sim_secs,"));
        assert!(
            header.contains(
                "macro_flows,cold_solves,pkt_bursts_formed,pkt_cache_hits,\
                 pkt_cache_misses,pkt_cache_invalidations,queue_cancelled"
            ),
            "packet-plane telemetry columns present: {header}"
        );
        assert_eq!(lines.count(), 2, "one row per run");
        assert!(!csv.contains("wall"), "wall time never enters metrics");
    }

    #[test]
    fn an_unreported_counter_moves_no_report() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "rep"
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            [axes]
            ctrl_latency_us = [0, 1000]
            "#,
        )
        .unwrap();
        let plans = crate::sweep::expand(&spec).unwrap();
        let campaign = |extra: bool| {
            let runs = (plans.iter())
                .map(|plan| {
                    let (scenario, config) = (plan.scenario.build(), plan.config.to_config());
                    let mut sim = Simulation::new(scenario.unwrap(), config.unwrap()).unwrap();
                    let tracer = SimTracer::new();
                    if extra {
                        tracer.registry().counter("test.extra").add(7);
                    }
                    sim.set_tracer(tracer);
                    let results = sim.run();
                    assert_eq!(results.metrics.get("test.extra").is_some(), extra);
                    RunRecord {
                        index: plan.index,
                        params: plan.params.clone(),
                        metrics: RunMetrics::from_results(&results),
                        wall_seconds: 0.0,
                    }
                })
                .collect();
            CampaignReport {
                name: spec.name.clone(),
                runs,
                threads: 1,
                campaign_wall_seconds: 0.0,
            }
        };
        let (plain, extra) = (campaign(false), campaign(true));
        assert_eq!(plain.metrics_csv(), extra.metrics_csv());
        assert_eq!(plain.metrics_json(), extra.metrics_json());
        assert_eq!(plain.metrics_json(), report().metrics_json());
    }

    #[test]
    fn json_parses_back_and_aggregates() {
        let r = report();
        let js = r.metrics_json();
        let v = serde_json::parse_value(&js).unwrap();
        assert_eq!(v["name"], "rep");
        assert_eq!(v["runs_total"], 2i64);
        assert_eq!(v["runs"][0]["params"]["ctrl_latency_us"], 0i64);
        let agg = &v["aggregate"]["events"];
        assert!(agg["mean"].as_number().unwrap().as_f64() > 0.0);
    }
}
