//! Support shared by the integration tests: one fingerprint of
//! everything deterministic a run produces, and the differential
//! lattice that compares fingerprints against the reference paths.

#![allow(dead_code)]

pub mod lattice;

use horse::compare::materialize_workload;
use horse::prelude::*;
use horse::tracing::journal::SharedBuf;
use horse::tracing::{parse_journal, JournalEntry};
use horse::Oracles;

/// Everything deterministic a run produces, with floats as bit patterns.
/// Wall-clock time is the only result left out.
#[derive(Clone, PartialEq, Debug)]
pub struct Fingerprint {
    pub sim_time: u64,
    pub events: u64,
    pub epochs: u64,
    pub max_epoch_batch: u64,
    pub realloc_requests: u64,
    pub realloc_runs: u64,
    pub stale_completions: u64,
    pub flows_admitted: u64,
    pub flows_completed: u64,
    pub flows_active_at_end: u64,
    pub flows_dropped: u64,
    pub bytes_delivered: u64,
    pub bytes_dropped: u64,
    pub msgs_to_controller: u64,
    pub msgs_to_switch: u64,
    pub flow_ins: u64,
    pub pkt_flows: u64,
    pub fct: [u64; 8],
    pub goodput: [u64; 8],
    pub fct_foreground: [u64; 8],
    pub recovery: [u64; 8],
    pub chaos: ChaosCounters,
    pub queue: horse::events::QueueStats,
    /// Fluid flow records in the order they closed.
    pub records: Vec<Record>,
    pub epochs_series: Vec<(u64, u64, u64, u64, usize, usize)>,
    pub aggregate_series: Vec<(u64, u64)>,
    pub active_flows_series: Vec<(u64, u64)>,
    /// Per-link utilization series, in link order.
    pub link_series: Vec<(LinkId, Vec<(u64, u64)>)>,
    /// `(link, time, utilization)` of every alarm raised.
    pub alarms: Vec<(LinkId, u64, u64)>,
    /// The hybrid packet plane, if the run had one.
    pub packet: Option<PacketPlaneFingerprint>,
    pub work: Work,
}

/// `(id, started ns, finished ns, completed, bytes bits, dropped bits)`.
pub type Record = (u64, u64, u64, bool, u64, u64);

/// The packet half of a hybrid run.
#[derive(Clone, PartialEq, Debug)]
pub struct PacketPlaneFingerprint {
    pub drops: u64,
    pub tx_packets: u64,
    pub bursts_formed: u64,
    /// `[pkt_events, couplings, couple_passes]` of the hybrid coupling.
    pub coupling: [u64; 3],
    /// Per packet flow: `(completed, bytes delivered, dropped bytes,
    /// started ns, finished ns)`.
    pub records: Vec<(bool, u64, u64, u64, u64)>,
}

/// How much work the engine did to compute a run: the only part of a
/// fingerprint a reference path may change.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Work {
    pub realloc_flows_touched: u64,
    pub macro_flows: u64,
    pub cold_solves: u64,
    /// Decision cache `[hits, misses, invalidations]`.
    pub pkt_cache: [u64; 3],
    /// The run's metrics: every count and histogram by name, tracer or
    /// not. A checkpoint carries the fields they read, so they resume
    /// seamlessly too.
    pub metrics: horse::tracing::MetricsSnapshot,
}

impl Fingerprint {
    /// A copy with the engine's work counters cleared.
    pub fn without_work(&self) -> Fingerprint {
        Fingerprint {
            work: Work::default(),
            ..self.clone()
        }
    }
}

/// `[count, mean, min, p50, p95, p99, p999, max]`.
fn summary_bits(s: &horse::monitoring::series::Summary) -> [u64; 8] {
    let q = [s.mean, s.min, s.p50, s.p95, s.p99, s.p999, s.max].map(f64::to_bits);
    [s.count as u64, q[0], q[1], q[2], q[3], q[4], q[5], q[6]]
}

fn series_bits(s: &horse::monitoring::series::TimeSeries) -> Vec<(u64, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.as_nanos(), v.to_bits()))
        .collect()
}

pub fn fingerprint(sim: &Simulation, r: &SimResults) -> Fingerprint {
    let c = &r.collector;
    Fingerprint {
        sim_time: r.sim_time.as_nanos(),
        events: r.events,
        epochs: r.epochs,
        max_epoch_batch: r.max_epoch_batch,
        realloc_requests: r.metrics.count("sim.realloc_requests"),
        realloc_runs: r.realloc_runs,
        stale_completions: r.stale_completions,
        flows_admitted: r.flows_admitted,
        flows_completed: r.flows_completed,
        flows_active_at_end: r.flows_active_at_end,
        flows_dropped: r.flows_dropped,
        bytes_delivered: r.bytes_delivered.to_bits(),
        bytes_dropped: r.bytes_dropped.to_bits(),
        msgs_to_controller: r.msgs_to_controller,
        msgs_to_switch: r.msgs_to_switch,
        flow_ins: r.metrics.count("ctrl.flow_ins"),
        pkt_flows: r.metrics.count("hybrid.pkt_flows"),
        fct: summary_bits(&r.fct),
        goodput: summary_bits(&r.goodput),
        fct_foreground: summary_bits(&r.fct_foreground),
        recovery: summary_bits(&r.recovery),
        chaos: r.chaos.clone(),
        queue: r.queue,
        records: sim
            .fluid()
            .records()
            .iter()
            .map(|rec| {
                (
                    rec.id.0,
                    rec.started.as_nanos(),
                    rec.finished.as_nanos(),
                    rec.completed,
                    rec.bytes.to_bits(),
                    rec.dropped_bytes.to_bits(),
                )
            })
            .collect(),
        epochs_series: c
            .epochs
            .iter()
            .map(|e| {
                (
                    e.time.as_nanos(),
                    e.aggregate_rate_bps.to_bits(),
                    e.max_utilization.to_bits(),
                    e.mean_busy_utilization.to_bits(),
                    e.active_flows,
                    e.completed_flows,
                )
            })
            .collect(),
        aggregate_series: series_bits(&c.aggregate),
        active_flows_series: series_bits(&c.active_flows),
        link_series: c
            .monitored_links()
            .into_iter()
            .map(|l| (l, c.link_series(l).map(series_bits).unwrap_or_default()))
            .collect(),
        alarms: c
            .alarms
            .iter()
            .map(|a| (a.link, a.time.as_nanos(), a.utilization.to_bits()))
            .collect(),
        packet: sim.hybrid().map(|h| {
            let p = h.plane();
            PacketPlaneFingerprint {
                drops: p.drops(),
                tx_packets: p.tx_packets(),
                bursts_formed: p.bursts_formed(),
                coupling: [h.pkt_events, h.couplings, h.couple_passes],
                records: h
                    .pkt_records(r.sim_time)
                    .iter()
                    .map(|rec| {
                        (
                            rec.completed,
                            rec.bytes_delivered,
                            rec.dropped_bytes,
                            rec.started.as_nanos(),
                            rec.finished.as_nanos(),
                        )
                    })
                    .collect(),
            }
        }),
        work: Work {
            realloc_flows_touched: r.realloc_flows_touched,
            macro_flows: r.macro_flows,
            cold_solves: r.cold_solves,
            pkt_cache: [
                r.pkt_cache_hits,
                r.pkt_cache_misses,
                r.metrics.count("pkt.cache_invalidations"),
            ],
            metrics: r.metrics.clone(),
        },
    }
}

/// Builds a simulation with `oracles` switched on.
pub fn build(scenario: Scenario, config: SimConfig, oracles: Oracles) -> Simulation {
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    sim.set_oracles(oracles);
    sim
}

/// Runs a scenario straight through to its fingerprint.
pub fn run_fingerprint(scenario: Scenario, config: SimConfig, oracles: Oracles) -> Fingerprint {
    let mut sim = build(scenario, config, oracles);
    let r = sim.run();
    fingerprint(&sim, &r)
}

/// Runs `sim` to its horizon with an event journal; returns the
/// fingerprint and the journal text.
pub fn run_journaled(mut sim: Simulation) -> (Fingerprint, String) {
    let buf = SharedBuf::new();
    sim.set_tracer(SimTracer::new().with_journal(buf.clone()));
    let r = sim.run();
    sim.take_tracer().expect("tracer").finish_journal();
    (fingerprint(&sim, &r), buf.contents())
}

/// The entries of a journal [`run_journaled`] returned.
pub fn entries(journal: &str) -> Vec<JournalEntry> {
    parse_journal(journal).expect("journal parses")
}

/// A deterministic gravity-workload scenario on the paper's Figure-1
/// fabric with `n` arrivals materialized and the first `foreground` at
/// packet fidelity.
pub fn hybrid_scenario(seed: u64, n: usize, foreground: usize, horizon_s: u64) -> Scenario {
    let ecmp = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    hybrid_scenario_on(
        builders::figure1_fabric(),
        ecmp,
        seed,
        n,
        foreground,
        horizon_s,
    )
}

/// [`hybrid_scenario`] on another fabric under another policy.
pub fn hybrid_scenario_on(
    f: builders::FabricHandles,
    policy: PolicySpec,
    seed: u64,
    n: usize,
    foreground: usize,
    horizon_s: u64,
) -> Scenario {
    // ≥1 MB flows (the hybrid_accuracy sizing): the sub-1% FCT claim is
    // for serializer-bound foreground flows, whose steady state the burst
    // model reproduces exactly (busy windows use full-burst serialization)
    // — not for sub-RTT mice whose FCT is all slow-start transient, where
    // the per-round ACK-batching skew is proportionally larger.
    let sizes = (1_000_000, 20_000_000);
    gravity_scenario(f, policy, sizes, seed, n, foreground, horizon_s)
}

/// A gravity workload of Pareto(1.3, `sizes`) flows on `f` under
/// `policy`: `n` arrivals materialized, the first `foreground` at packet
/// fidelity.
pub fn gravity_scenario(
    f: builders::FabricHandles,
    policy: PolicySpec,
    (min_bytes, max_bytes): (u64, u64),
    seed: u64,
    n: usize,
    foreground: usize,
    horizon_s: u64,
) -> Scenario {
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(horizon_s));
    s.members = f.members;
    s.policy = policy;
    let weights = TrafficMatrix::zipf_weights(s.members.len(), 0.8);
    s.workload = Some(WorkloadParams {
        matrix: TrafficMatrix::gravity(&weights, 4e9),
        sizes: FlowSizeDist::Pareto {
            alpha: 1.3,
            min_bytes,
            max_bytes,
        },
        apps: AppMix::default_ixp(),
        diurnal: None,
        udp_rate: Rate::mbps(4.0),
        seed,
    });
    materialize_workload(&mut s, n);
    for (_, spec) in s.explicit_flows.iter_mut().take(foreground) {
        spec.fidelity = Fidelity::Packet;
    }
    s
}
