//! Simulation results.

use horse_events::QueueStats;
use horse_monitoring::collector::StatsCollector;
use horse_monitoring::series::{summarize, Summary};
use horse_trace::MetricsSnapshot;
use horse_types::{SimTime, Snap};
use serde::{Deserialize, Serialize};

/// Deterministic counters for injected faults and their fallout. All zero
/// in a fault-free run; the chaos engine and the failure handlers bump
/// them as events fire.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize, Snap)]
pub struct ChaosCounters {
    /// Cable-down events applied (scenario failures, flaps, crashes).
    pub cable_downs: u64,
    /// Cable-up events applied (flap recoveries, scenario recoveries).
    pub cable_ups: u64,
    /// Switch crashes applied (table wipe + ports down).
    pub switch_crashes: u64,
    /// Switch rejoins applied (ports restored, tables empty).
    pub switch_rejoins: u64,
    /// Gray-failure set/clear events applied to links.
    pub gray_events: u64,
    /// Controller outage windows entered.
    pub ctrl_outages: u64,
    /// Controller latency-spike windows entered.
    pub ctrl_latency_spikes: u64,
    /// Switch→controller messages buffered during an outage and replayed
    /// at recovery.
    pub ctrl_msgs_buffered: u64,
    /// Flows knocked off a failed element and later re-admitted.
    pub flows_rerouted: u64,
    /// Flows knocked off a failed element and never re-admitted (dropped
    /// or timed out at the controller).
    pub flows_stranded: u64,
}

/// Mean events per epoch (batch size) of a run's metrics; 0 before any
/// epoch ran.
pub fn mean_epoch_batch(m: &MetricsSnapshot) -> f64 {
    match m.count("sim.epochs") {
        0 => 0.0,
        epochs => m.count("sim.events") as f64 / epochs as f64,
    }
}

/// Allocator runs a run's epoch batching saved: reallocation requests
/// collapsed into an already-pending epoch run (0, never an underflow,
/// when the runs outnumber the requests).
pub fn realloc_saved(m: &MetricsSnapshot) -> u64 {
    (m.count("sim.realloc_requests")).saturating_sub(m.count("alloc.runs"))
}

/// Everything a run produced: the flow outcomes, summaries and series,
/// and every count by name in [`SimResults::metrics`].
///
/// A field marked *re-base* repeats a value the frozen benchmark harness
/// reads; it goes with the benchmark's next re-base, and new code reads
/// [`SimResults::metrics`] instead.
#[derive(Debug)]
pub struct SimResults {
    /// Final simulated time.
    pub sim_time: SimTime,
    /// Wall-clock seconds the run took (re-base).
    pub wall_seconds: f64,
    /// Events processed (`sim.events`; re-base).
    pub events: u64,
    /// Flows admitted into the data plane (re-base).
    pub flows_admitted: u64,
    /// Flows that ran to byte-completion (re-base).
    pub flows_completed: u64,
    /// Flows still active at the horizon (re-base).
    pub flows_active_at_end: u64,
    /// Flows dropped: policy, no-route, controller timeout, failure
    /// (re-base).
    pub flows_dropped: u64,
    /// Total bytes delivered end-to-end.
    pub bytes_delivered: f64,
    /// Total bytes lost to policers / CBR shortfall.
    pub bytes_dropped: f64,
    /// Flow-completion-time summary (completed flows only), seconds.
    pub fct: Summary,
    /// Average goodput summary over completed flows, bps.
    pub goodput: Summary,
    /// Switch→controller messages, flow-ins included
    /// (`ctrl.msgs_to_controller`; re-base).
    pub msgs_to_controller: u64,
    /// Controller→switch messages (`ctrl.msgs_to_switch`; re-base).
    pub msgs_to_switch: u64,
    /// Epochs drained: batches of events sharing one timestamp, each
    /// paying at most one allocator run (`sim.epochs`; re-base).
    pub epochs: u64,
    /// Largest single epoch batch (`sim.max_epoch_batch`; re-base).
    pub max_epoch_batch: u64,
    /// Completion events that popped for a flow already gone
    /// (`sim.stale_completions`; re-base). Expected 0: a rate change
    /// cancels the completion it supersedes and a fault cancels its
    /// victims', so every completion that fires is current.
    pub stale_completions: u64,
    /// Max-min allocator runs (`alloc.runs`; re-base).
    pub realloc_runs: u64,
    /// Flows touched across allocator runs (`alloc.flows_touched`; re-base).
    pub realloc_flows_touched: u64,
    /// Allocation variables solved after macro-flow aggregation
    /// (`alloc.macro_flows`; re-base).
    pub macro_flows: u64,
    /// Always 0: the allocator keeps no solve cache (re-base).
    pub warm_hits: u64,
    /// Component water-fills, one per discovered component
    /// (`alloc.components`; re-base).
    pub cold_solves: u64,
    /// FCT summary of completed packet-fidelity (foreground) flows.
    pub fct_foreground: Summary,
    /// Packet-plane decision-cache hits (`pkt.cache_hits`; re-base).
    pub pkt_cache_hits: u64,
    /// Packet-plane decision-cache misses (`pkt.cache_misses`; re-base).
    pub pkt_cache_misses: u64,
    /// Recovery-time summary: for each flow knocked off a failed element
    /// and re-admitted, seconds from the failure to re-admission.
    pub recovery: Summary,
    /// Fault-injection counters, all zero in a fault-free run
    /// (`chaos.*`; re-base).
    pub chaos: ChaosCounters,
    /// Event-queue statistics (`queue.*`; re-base).
    pub queue: QueueStats,
    /// Every count and histogram of the run by name, tracer or not.
    /// Deterministic quantities only; lab reports embed the names they
    /// declare.
    pub metrics: MetricsSnapshot,
    /// The monitoring collector (epoch reports, per-link series, alarms).
    pub collector: StatsCollector,
}

impl SimResults {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Simulated seconds per wall second (>1 ⇒ faster than real time).
    pub fn speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.sim_time.as_secs_f64() / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Builds the FCT/goodput summaries from completion records.
    pub fn summarize_records(records: &[horse_dataplane::FlowRecord]) -> (Summary, Summary) {
        let fcts: Vec<f64> = records
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.fct_secs())
            .collect();
        let goodputs: Vec<f64> = records
            .iter()
            .filter(|r| r.completed)
            .map(|r| r.avg_rate_bps())
            .collect();
        (summarize(&fcts), summarize(&goodputs))
    }

    /// A human-readable multi-line summary (examples print this).
    pub fn summary_table(&self) -> String {
        let m = &self.metrics;
        format!(
            "simulated {:.3}s in {:.3}s wall ({:.1}x real time)\n\
             events            {:>12}   ({:.0}/s)\n\
             flows admitted    {:>12}\n\
             flows completed   {:>12}\n\
             flows dropped     {:>12}\n\
             flows active@end  {:>12}\n\
             bytes delivered   {:>12.3e}\n\
             bytes dropped     {:>12.3e}\n\
             FCT p50/p95/p99   {:.4}s / {:.4}s / {:.4}s\n\
             ctrl msgs up/down {:>6} / {:<6} (flow-ins {})\n\
             epochs            {:>12}   (mean batch {:.2}, max {})\n\
             realloc runs      {:>12}   (flows touched {}, saved {})\n\
             alloc vars        {:>12}   (component solves {})\n\
             pkt bursts        {:>12}   (cache hits {}, misses {}, invalidations {})",
            self.sim_time.as_secs_f64(),
            self.wall_seconds,
            self.speedup(),
            self.events,
            self.events_per_sec(),
            self.flows_admitted,
            self.flows_completed,
            self.flows_dropped,
            self.flows_active_at_end,
            self.bytes_delivered,
            self.bytes_dropped,
            self.fct.p50,
            self.fct.p95,
            self.fct.p99,
            self.msgs_to_controller,
            self.msgs_to_switch,
            m.count("ctrl.flow_ins"),
            self.epochs,
            mean_epoch_batch(m),
            self.max_epoch_batch,
            self.realloc_runs,
            self.realloc_flows_touched,
            realloc_saved(m),
            self.macro_flows,
            self.cold_solves,
            m.count("pkt.bursts_formed"),
            self.pkt_cache_hits,
            self.pkt_cache_misses,
            m.count("pkt.cache_invalidations"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> SimResults {
        SimResults {
            sim_time: SimTime::from_secs(10),
            wall_seconds: 2.0,
            events: 1000,
            flows_admitted: 10,
            flows_completed: 8,
            flows_active_at_end: 1,
            flows_dropped: 1,
            bytes_delivered: 1e9,
            bytes_dropped: 1e6,
            fct: Summary::default(),
            goodput: Summary::default(),
            msgs_to_controller: 5,
            msgs_to_switch: 20,
            epochs: 800,
            max_epoch_batch: 7,
            stale_completions: 100,
            realloc_runs: 18,
            realloc_flows_touched: 40,
            macro_flows: 35,
            warm_hits: 0,
            cold_solves: 15,
            fct_foreground: Summary::default(),
            pkt_cache_hits: 0,
            pkt_cache_misses: 0,
            recovery: Summary::default(),
            chaos: ChaosCounters::default(),
            queue: QueueStats::default(),
            metrics: MetricsSnapshot::default(),
            collector: StatsCollector::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = blank();
        assert_eq!(r.events_per_sec(), 500.0);
        assert_eq!(r.speedup(), 5.0);
    }

    #[test]
    fn summary_table_contains_key_numbers() {
        let t = blank().summary_table();
        assert!(t.contains("flows admitted"));
        assert!(t.contains("1000"));
        assert!(t.contains("5.0x real time"));
    }

    #[test]
    fn zero_wall_time_is_safe() {
        let mut r = blank();
        r.wall_seconds = 0.0;
        assert_eq!(r.events_per_sec(), 0.0);
        assert_eq!(r.speedup(), 0.0);
    }

    fn counts(rows: &[(&str, u64)]) -> MetricsSnapshot {
        (rows.iter())
            .map(|&(k, v)| (k.to_string(), v as f64))
            .collect()
    }

    #[test]
    fn batch_metrics_derive() {
        let m = counts(&[
            ("sim.events", 1000),
            ("sim.epochs", 800),
            ("sim.realloc_requests", 30),
            ("alloc.runs", 18),
        ]);
        assert_eq!(mean_epoch_batch(&m), 1000.0 / 800.0);
        assert_eq!(realloc_saved(&m), 12);
        assert_eq!(mean_epoch_batch(&counts(&[("sim.events", 5)])), 0.0);
        // More runs than requests saturates, never underflows.
        let m = counts(&[("sim.realloc_requests", 30), ("alloc.runs", 99)]);
        assert_eq!(realloc_saved(&m), 0);
    }
}
