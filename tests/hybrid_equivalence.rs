//! Degenerate-fidelity equivalence of the hybrid co-simulation
//! (`horse_core::hybrid`):
//!
//! * an **all-packet** hybrid run reproduces the standalone
//!   `horse-packetsim` baseline verbatim, flow by flow;
//! * a **mixed-fidelity** run reports foreground-flow FCTs close to a
//!   full packet-level run of the same inputs on the paper's
//!   figure1 fabric;
//! * an **all-fluid** hybrid run (machinery attached, zero packet
//!   flows) is byte-identical to the pure fluid engine: the
//!   `HybridAttached` point of the differential lattice
//!   (`support::lattice`), which also bounds the coupling passes of
//!   every hybrid case it runs by its epochs.

mod support;

use horse::controlplane::PolicyGenerator;
use horse::hybrid::pkt_flow_spec;
use horse::packetsim::{PacketNet, PacketSimConfig, PktFlowSpec};
use horse::prelude::*;
use support::lattice::{lattice, lattice_at, Case, Point};

/// A deterministic gravity workload of 200 kB–5 MB flows on the paper's
/// Figure-1 fabric (~10% of its 4×10G access aggregate) under ECMP, a
/// proactive policy (the packet baseline drops packets on table misses):
/// `n` arrivals over 20 s, the first `foreground` at packet fidelity.
fn figure1_fabric_scenario(seed: u64, n: usize, foreground: usize) -> Scenario {
    let f = builders::figure1_fabric();
    let ecmp = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    support::gravity_scenario(f, ecmp, (200_000, 5_000_000), seed, n, foreground, 20)
}

/// The comparison config: no periodic machinery (the standalone packet
/// baseline has neither stats epochs nor entry expiry) and the packet
/// plane's default control latency.
fn packet_aligned_config() -> SimConfig {
    SimConfig::default()
        .with_ctrl_latency(PacketSimConfig::default().ctrl_latency)
        .with_stats_epoch(None)
        .with_expiry_scan(None)
}

/// Attaching the hybrid machinery to a pure fluid Figure-1 run leaves it
/// bit for bit as it was, work counters included.
#[test]
fn all_fluid_hybrid_run_is_byte_identical_to_fluid_engine() {
    let scenario = Scenario::figure1(SimTime::from_secs(3), 11);
    let case = Case::new("figure1", scenario, SimConfig::default());
    let l = lattice_at(&[Point::HybridAttached], case);
    assert!(l.base.flows_completed > 0, "scenario must exercise flows");
    l.assert_engaged("figure1", &[Point::HybridAttached]);
}

#[test]
fn all_packet_hybrid_run_matches_packetsim_verbatim() {
    let horizon = SimTime::from_secs(20);
    // every explicit flow at packet fidelity
    let s = figure1_fabric_scenario(7, 12, 12);

    // ---- hybrid run (single queue, shared pipeline) ----
    let mut sim = Simulation::new(s.clone(), packet_aligned_config()).unwrap();
    let results = sim.run();
    let hybrid = sim.hybrid().expect("packet flows attach the hybrid half");
    assert_eq!(hybrid.flow_count(), s.explicit_flows.len());
    let hybrid_records = hybrid.pkt_records(horizon);

    // ---- standalone packet baseline over identical inputs ----
    let mut controller = PolicyGenerator::new(s.policy.clone(), &s.topology).unwrap();
    let specs: Vec<PktFlowSpec> = s
        .explicit_flows
        .iter()
        .map(|(at, f)| pkt_flow_spec(f, *at).expect("sized"))
        .collect();
    let net = PacketNet::new(s.topology.clone(), PacketSimConfig::default());
    let baseline = net.run(&mut controller, specs, horizon);

    assert_eq!(hybrid_records.len(), baseline.records.len());
    for (h, b) in hybrid_records.iter().zip(baseline.records.iter()) {
        assert_eq!(h.key, b.key, "flow order preserved");
        assert_eq!(h.completed, b.completed, "completion of {:?}", h.key);
        assert_eq!(
            h.bytes_delivered, b.bytes_delivered,
            "delivered bytes of {:?}",
            h.key
        );
        assert_eq!(
            h.finished.as_nanos(),
            b.finished.as_nanos(),
            "finish instant of {:?} must match to the nanosecond",
            h.key
        );
    }
    assert_eq!(
        hybrid.plane().drops(),
        baseline.drops,
        "drop counts must match"
    );
    // no fluid flows existed: the fluid plane carried nothing itself
    assert_eq!(
        results.metrics.count("hybrid.pkt_flows"),
        hybrid_records.len() as u64
    );
}

#[test]
fn hybrid_coupling_runs_at_most_once_per_epoch() {
    // Pre-epoch-batching, `reallocate` re-coupled the planes on *every*
    // trigger — several times per instant during arrival/transition
    // bursts. With epoch batching the coupling pass is guarded: however
    // many allocator runs an epoch's flush points force, the planes
    // exchange load at most once per epoch. The lattice checks that (and
    // that batching collapses same-epoch reallocation requests) on every
    // base it runs, this packet-aligned mix included.
    let s = figure1_fabric_scenario(21, 24, 6);
    let name = "packet-aligned hybrid figure1";
    let l = lattice(Case::new(name, s, packet_aligned_config()));
    let packet = l.base.packet.as_ref().expect("hybrid attached");
    assert!(
        packet.coupling[1] > 0,
        "the planes must actually exchange load"
    );
    l.assert_engaged(name, &[Point::UncachedPipeline]);
}

#[test]
fn mixed_fidelity_foreground_fct_tracks_full_packet_run() {
    let horizon = SimTime::from_secs(20);
    let foreground = 6usize;
    let s = figure1_fabric_scenario(21, 24, foreground);

    // ---- hybrid: packet foreground over fluid background ----
    let mut sim = Simulation::new(s.clone(), packet_aligned_config()).unwrap();
    let results = sim.run();
    let hybrid = sim.hybrid().expect("hybrid attached");
    let hybrid_records = hybrid.pkt_records(horizon);
    assert_eq!(hybrid_records.len(), foreground);
    assert_eq!(results.metrics.count("hybrid.pkt_flows"), foreground as u64);
    assert!(
        hybrid.couplings > 0,
        "the planes must actually exchange load at shared links"
    );

    // ---- full packet-level run of ALL flows ----
    let mut controller = PolicyGenerator::new(s.policy.clone(), &s.topology).unwrap();
    let specs: Vec<PktFlowSpec> = s
        .explicit_flows
        .iter()
        .map(|(at, f)| pkt_flow_spec(f, *at).expect("sized"))
        .collect();
    let net = PacketNet::new(s.topology.clone(), PacketSimConfig::default());
    let baseline = net.run(&mut controller, specs, horizon);

    // foreground flows are the first `foreground` records of both runs
    let mut errors = Vec::new();
    for (h, b) in hybrid_records
        .iter()
        .zip(baseline.records.iter())
        .take(foreground)
    {
        assert_eq!(h.key, b.key);
        assert!(
            h.completed && b.completed,
            "foreground flows complete in both runs ({:?}: hybrid {}, packet {})",
            h.key,
            h.completed,
            b.completed
        );
        let (hf, bf) = (h.fct_secs(), b.fct_secs());
        assert!(bf > 0.0);
        errors.push((hf - bf).abs() / bf);
    }
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(
        mean_err < 0.10,
        "foreground FCTs must track the full packet run within 10%: \
         mean rel err {mean_err:.4} (per-flow {errors:?})"
    );
}
