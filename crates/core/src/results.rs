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

/// Everything a run produced. The benchmark harness prints tables from
/// this; EXPERIMENTS.md records them.
#[derive(Debug)]
pub struct SimResults {
    /// Final simulated time.
    pub sim_time: SimTime,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Events processed.
    pub events: u64,
    /// Flows admitted into the data plane.
    pub flows_admitted: u64,
    /// Flows that ran to byte-completion.
    pub flows_completed: u64,
    /// Flows still active at the horizon.
    pub flows_active_at_end: u64,
    /// Flows dropped (policy, no-route, controller timeout, failure).
    pub flows_dropped: u64,
    /// Total bytes delivered end-to-end.
    pub bytes_delivered: f64,
    /// Total bytes lost to policers / CBR shortfall.
    pub bytes_dropped: f64,
    /// Flow-completion-time summary (completed flows only), seconds.
    pub fct: Summary,
    /// Average goodput summary over completed flows, bps.
    pub goodput: Summary,
    /// Switch→controller messages delivered (incl. flow-ins).
    pub msgs_to_controller: u64,
    /// Controller→switch messages delivered.
    pub msgs_to_switch: u64,
    /// `FlowIn` events among the controller messages.
    pub flow_ins: u64,
    /// Epochs drained: batches of events sharing one timestamp, each
    /// paying at most one allocator run.
    pub epochs: u64,
    /// Largest single epoch batch (events sharing one timestamp).
    pub max_epoch_batch: u64,
    /// Events that requested a reallocation; with epoch batching several
    /// requests of one epoch collapse into a single run, so
    /// `realloc_requests - realloc_runs` is the number of allocator runs
    /// batching saved.
    pub realloc_requests: u64,
    /// Completion events that popped for a flow already gone. Expected 0:
    /// a rate change cancels the completion it supersedes and a fault
    /// cancels its victims', so every completion that fires is current.
    pub stale_completions: u64,
    /// Max-min allocator runs.
    pub realloc_runs: u64,
    /// Total flows touched across allocator runs.
    pub realloc_flows_touched: u64,
    /// Allocation variables actually solved after macro-flow aggregation
    /// (equals `realloc_flows_touched` when aggregation is off or no two
    /// flows share a path class).
    pub macro_flows: u64,
    /// Always 0: the allocator keeps no solve cache. The field stays only
    /// because the frozen benchmark harness reads it, and goes with the
    /// next benchmark re-base.
    pub warm_hits: u64,
    /// Component water-fills executed (one per discovered component).
    pub cold_solves: u64,
    /// Packet-fidelity flows in the hybrid co-simulation (0 in a pure
    /// fluid run).
    pub pkt_flows: u64,
    /// FCT summary of completed packet-fidelity (foreground) flows.
    pub fct_foreground: Summary,
    /// Packet-plane burst events that modeled more than one packet
    /// (GSO-style batching; 0 with `pkt_burst = 1` or no hybrid plane).
    pub pkt_bursts_formed: u64,
    /// Packet-plane pipeline-decision cache hits (bursts that skipped the
    /// OpenFlow table walk entirely).
    pub pkt_cache_hits: u64,
    /// Packet-plane decision-cache misses (head packet walked the tables).
    pub pkt_cache_misses: u64,
    /// Cached decisions discarded because the switch generation advanced
    /// (flow/group/meter mod, port or cable change, chaos fault).
    pub pkt_cache_invalidations: u64,
    /// Recovery-time summary: for each flow knocked off a failed element
    /// and re-admitted, seconds from the failure to re-admission.
    pub recovery: Summary,
    /// Fault-injection counters (all zero in a fault-free run).
    pub chaos: ChaosCounters,
    /// Event-queue statistics (scheduling volume, cancellations, peak
    /// pending events) — all deterministic counts.
    pub queue: QueueStats,
    /// Snapshot of the run's metrics registry (empty without a tracer).
    /// Contains only deterministic quantities, so it may be embedded in
    /// reproducible reports.
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

    /// *Useful* events per wall-clock second: events minus
    /// [`SimResults::stale_completions`]. Superseded completions are
    /// cancelled rather than popped, so this equals
    /// [`SimResults::events_per_sec`] unless a stale completion slipped
    /// through.
    pub fn useful_events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events.saturating_sub(self.stale_completions) as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Mean events per epoch (batch size); 0 before any epoch ran.
    pub fn mean_epoch_batch(&self) -> f64 {
        if self.epochs > 0 {
            self.events as f64 / self.epochs as f64
        } else {
            0.0
        }
    }

    /// Allocator runs the epoch batching saved versus the per-event
    /// cadence (requests that were collapsed into an already-pending
    /// epoch run).
    pub fn realloc_saved(&self) -> u64 {
        self.realloc_requests.saturating_sub(self.realloc_runs)
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
            self.flow_ins,
            self.epochs,
            self.mean_epoch_batch(),
            self.max_epoch_batch,
            self.realloc_runs,
            self.realloc_flows_touched,
            self.realloc_saved(),
            self.macro_flows,
            self.cold_solves,
            self.pkt_bursts_formed,
            self.pkt_cache_hits,
            self.pkt_cache_misses,
            self.pkt_cache_invalidations,
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
            flow_ins: 5,
            epochs: 800,
            max_epoch_batch: 7,
            realloc_requests: 30,
            stale_completions: 100,
            realloc_runs: 18,
            realloc_flows_touched: 40,
            macro_flows: 35,
            warm_hits: 0,
            cold_solves: 15,
            pkt_flows: 0,
            fct_foreground: Summary::default(),
            pkt_bursts_formed: 0,
            pkt_cache_hits: 0,
            pkt_cache_misses: 0,
            pkt_cache_invalidations: 0,
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
        assert_eq!(r.useful_events_per_sec(), 0.0);
        assert_eq!(r.speedup(), 0.0);
    }

    #[test]
    fn batch_metrics_derive() {
        let r = blank();
        assert_eq!(r.mean_epoch_batch(), 1000.0 / 800.0);
        assert_eq!(r.realloc_saved(), 12);
        assert_eq!(r.useful_events_per_sec(), (1000.0 - 100.0) / 2.0);
        let mut empty = blank();
        empty.epochs = 0;
        assert_eq!(empty.mean_epoch_batch(), 0.0);
        empty.realloc_runs = 99;
        assert_eq!(empty.realloc_saved(), 0, "saturates, never underflows");
    }
}
