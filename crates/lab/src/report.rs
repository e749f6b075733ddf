//! Campaign reports: deterministic per-run metrics plus campaign-level
//! aggregates, exported as CSV and JSON, with wall-clock timing kept
//! strictly separate (timing varies run-to-run; metrics must not).

use crate::runner::RunMetrics;
use crate::sweep::value_text;
use horse::monitoring::export::table_to_csv;
use horse::monitoring::series::{summarize, Summary};
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
    ("events", |m| m.events as f64),
    ("flows_completed", |m| m.flows_completed as f64),
    ("recovery_time", |m| m.recovery.mean),
];

/// Renders one per-run metric as a CSV cell.
type CellFn = fn(&RunMetrics) -> String;

/// The metric columns of [`CampaignReport::metrics_csv`], in order, as
/// `(header, cell)` pairs; they follow the `run` and axis columns.
const COLUMNS: &[(&str, CellFn)] = &[
    ("sim_secs", |m| f(m.sim_secs)),
    ("events", |m| m.events.to_string()),
    ("flows_admitted", |m| m.flows_admitted.to_string()),
    ("flows_completed", |m| m.flows_completed.to_string()),
    ("flows_dropped", |m| m.flows_dropped.to_string()),
    ("flows_active_at_end", |m| m.flows_active_at_end.to_string()),
    ("bytes_delivered", |m| f(m.bytes_delivered)),
    ("bytes_dropped", |m| f(m.bytes_dropped)),
    ("throughput_bps", |m| f(m.throughput_bps)),
    ("fct_mean", |m| f(m.fct.mean)),
    ("fct_p50", |m| f(m.fct.p50)),
    ("fct_p95", |m| f(m.fct.p95)),
    ("fct_p99", |m| f(m.fct.p99)),
    ("fct_p999", |m| f(m.fct.p999)),
    ("goodput_mean_bps", |m| f(m.goodput.mean)),
    ("msgs_to_controller", |m| m.msgs_to_controller.to_string()),
    ("msgs_to_switch", |m| m.msgs_to_switch.to_string()),
    ("flow_ins", |m| m.flow_ins.to_string()),
    ("epochs", |m| m.epochs.to_string()),
    ("epoch_batch_mean", |m| f(m.epoch_batch_mean)),
    ("epoch_batch_max", |m| m.epoch_batch_max.to_string()),
    ("realloc_runs", |m| m.realloc_runs.to_string()),
    ("realloc_saved", |m| m.realloc_saved.to_string()),
    ("realloc_flows_touched", |m| {
        m.realloc_flows_touched.to_string()
    }),
    ("macro_flows", |m| m.macro_flows.to_string()),
    ("warm_hits", |m| m.warm_hits.to_string()),
    ("cold_solves", |m| m.cold_solves.to_string()),
    ("pkt_bursts_formed", |m| m.pkt_bursts_formed.to_string()),
    ("pkt_cache_hits", |m| m.pkt_cache_hits.to_string()),
    ("pkt_cache_misses", |m| m.pkt_cache_misses.to_string()),
    ("pkt_cache_invalidations", |m| {
        m.pkt_cache_invalidations.to_string()
    }),
    ("queue_cancelled", |m| m.queue_cancelled.to_string()),
    ("queue_peak_pending", |m| m.queue_peak_pending.to_string()),
    ("recovery_time", |m| f(m.recovery.mean)),
    ("recovery_p99", |m| f(m.recovery.p99)),
    ("flows_rerouted", |m| m.chaos.flows_rerouted.to_string()),
    ("flows_stranded", |m| m.chaos.flows_stranded.to_string()),
    ("cable_downs", |m| m.chaos.cable_downs.to_string()),
    ("cable_ups", |m| m.chaos.cable_ups.to_string()),
    ("switch_crashes", |m| m.chaos.switch_crashes.to_string()),
    ("switch_rejoins", |m| m.chaos.switch_rejoins.to_string()),
    ("gray_events", |m| m.chaos.gray_events.to_string()),
    ("ctrl_outages", |m| m.chaos.ctrl_outages.to_string()),
    ("ctrl_latency_spikes", |m| {
        m.chaos.ctrl_latency_spikes.to_string()
    }),
    ("ctrl_msgs_buffered", |m| {
        m.chaos.ctrl_msgs_buffered.to_string()
    }),
];

fn f(v: f64) -> String {
    format!("{v:?}")
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
            .chain(COLUMNS.iter().map(|(name, _)| *name))
            .collect();
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .map(|r| {
                std::iter::once(r.index.to_string())
                    .chain(r.params.iter().map(|(_, v)| value_text(v)))
                    .chain(COLUMNS.iter().map(|(_, cell)| cell(&r.metrics)))
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
                    ("metrics".to_string(), r.metrics.to_value()),
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
                r.metrics.events as f64 / r.wall_seconds
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
            events += r.metrics.events;
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
                "cold_solves,pkt_bursts_formed,pkt_cache_hits,\
                 pkt_cache_misses,pkt_cache_invalidations,queue_cancelled"
            ),
            "packet-plane telemetry columns present: {header}"
        );
        assert_eq!(lines.count(), 2, "one row per run");
        assert!(!csv.contains("wall"), "wall time never enters metrics");
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
