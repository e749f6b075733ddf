//! Degenerate-fidelity equivalence of the hybrid co-simulation
//! (`horse_core::hybrid`):
//!
//! * an **all-fluid** hybrid run (machinery attached, zero packet flows)
//!   is byte-identical to the pure fluid engine;
//! * an **all-packet** hybrid run reproduces the standalone
//!   `horse-packetsim` baseline verbatim, flow by flow;
//! * a **mixed-fidelity** run reports foreground-flow FCTs close to a
//!   full packet-level run of the same inputs on the paper's
//!   figure1 fabric.

mod support;

use horse::compare::materialize_workload;
use horse::controlplane::PolicyGenerator;
use horse::hybrid::pkt_flow_spec;
use horse::packetsim::{PacketNet, PacketSimConfig, PktFlowSpec};
use horse::prelude::*;

/// A deterministic gravity-workload scenario on the paper's Figure-1
/// fabric, with `n` arrivals materialized into explicit flows.
fn figure1_fabric_scenario(seed: u64, n: usize, horizon_s: u64) -> Scenario {
    let f = builders::figure1_fabric();
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(horizon_s));
    s.members = f.members;
    // proactive policy: the packet baseline drops packets on table misses
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    let weights = TrafficMatrix::zipf_weights(s.members.len(), 0.8);
    s.workload = Some(WorkloadParams {
        // ~10% of the 4×10G access aggregate: moderate background load
        matrix: TrafficMatrix::gravity(&weights, 4e9),
        sizes: FlowSizeDist::Pareto {
            alpha: 1.3,
            min_bytes: 200_000,
            max_bytes: 5_000_000,
        },
        apps: AppMix::default_ixp(),
        diurnal: None,
        udp_rate: Rate::mbps(4.0),
        seed,
    });
    materialize_workload(&mut s, n);
    s
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

#[test]
fn all_fluid_hybrid_run_is_byte_identical_to_fluid_engine() {
    let run = |enable_hybrid: bool| {
        let s = Scenario::figure1(SimTime::from_secs(3), 11);
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        if enable_hybrid {
            sim.enable_hybrid();
            assert!(sim.hybrid().is_some());
        }
        let r = sim.run();
        // The empty packet plane itself is the one difference.
        support::Fingerprint {
            packet: None,
            ..support::fingerprint(&sim, &r)
        }
    };
    assert_eq!(
        run(false),
        run(true),
        "results and records must match bit for bit"
    );
}

#[test]
fn all_packet_hybrid_run_matches_packetsim_verbatim() {
    let horizon = SimTime::from_secs(20);
    let mut s = figure1_fabric_scenario(7, 12, 20);
    // every explicit flow at packet fidelity
    for (_, spec) in s.explicit_flows.iter_mut() {
        spec.fidelity = Fidelity::Packet;
    }

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
    assert_eq!(results.pkt_flows, hybrid_records.len() as u64);
}

#[test]
fn hybrid_coupling_runs_at_most_once_per_epoch() {
    // Pre-epoch-batching, `reallocate` re-coupled the planes on *every*
    // trigger — several times per instant during arrival/transition
    // bursts. With epoch batching the coupling pass is guarded: however
    // many allocator runs an epoch's flush points force, the planes
    // exchange load at most once per epoch.
    let foreground = 6usize;
    let mut s = figure1_fabric_scenario(21, 24, 20);
    for (_, spec) in s.explicit_flows.iter_mut().take(foreground) {
        spec.fidelity = Fidelity::Packet;
    }
    let mut sim = Simulation::new(s, packet_aligned_config()).unwrap();
    let r = sim.run();
    let hybrid = sim.hybrid().expect("hybrid attached");
    assert!(
        hybrid.couplings > 0,
        "the planes must actually exchange load"
    );
    assert!(
        hybrid.couple_passes <= r.epochs,
        "coupling ran {} times over {} epochs — more than once per epoch",
        hybrid.couple_passes,
        r.epochs
    );
    assert!(
        r.realloc_runs <= r.realloc_requests,
        "batching collapses same-epoch reallocation requests"
    );
}

#[test]
fn mixed_fidelity_foreground_fct_tracks_full_packet_run() {
    let horizon = SimTime::from_secs(20);
    let foreground = 6usize;
    let mut s = figure1_fabric_scenario(21, 24, 20);
    for (_, spec) in s.explicit_flows.iter_mut().take(foreground) {
        spec.fidelity = Fidelity::Packet;
    }

    // ---- hybrid: packet foreground over fluid background ----
    let mut sim = Simulation::new(s.clone(), packet_aligned_config()).unwrap();
    let results = sim.run();
    let hybrid = sim.hybrid().expect("hybrid attached");
    let hybrid_records = hybrid.pkt_records(horizon);
    assert_eq!(hybrid_records.len(), foreground);
    assert_eq!(results.pkt_flows, foreground as u64);
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
