//! The replay/resume differential harness (PR 9 tentpole proof).
//!
//! Contract under test: **checkpointing is invisible**. For any scenario,
//! any snapshot time and any engine thread count,
//!
//! * `run_until(T)` → `checkpoint()` → `resume()` → run to the horizon
//!   is bit-identical to the uninterrupted run — results, per-flow
//!   records, collector series, *and* the event journal (the resumed
//!   journal is a byte-exact suffix of the straight-through one);
//! * `fork()` with late what-if events is bit-identical to a
//!   straight-through run whose scenario scheduled those events at build
//!   time (the reserved-band trick);
//! * `serialize → restore → re-serialize` is byte-identical, including
//!   snapshots taken mid-chaos-outage and mid-controller-buffering.
//!
//! Wall-clock (`wall_seconds`) and the scraped metrics registry are the
//! only observables allowed to differ: both are explicitly observability,
//! not simulation state (hot-path registry counters accumulate live and
//! a resumed run only sees its own suffix of the work).

use horse::prelude::*;
use horse::tracing::journal::SharedBuf;
use horse::types::{ByteSize, LinkId, SimTime, TableId};

/// Everything deterministic a run produces, with floats as bit patterns.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    events: u64,
    epochs: u64,
    max_epoch_batch: u64,
    realloc_requests: u64,
    realloc_runs: u64,
    realloc_flows_touched: u64,
    stale_completions: u64,
    flows_admitted: u64,
    flows_completed: u64,
    flows_active_at_end: u64,
    flows_dropped: u64,
    bytes_delivered: u64,
    bytes_dropped: u64,
    msgs_to_controller: u64,
    msgs_to_switch: u64,
    flow_ins: u64,
    pkt_flows: u64,
    fct: [u64; 4],
    goodput: [u64; 4],
    fct_foreground: [u64; 4],
    recovery: [u64; 4],
    chaos: ChaosCounters,
    queue: horse::events::QueueStats,
    // The registry snapshot is covered too: checkpoints carry a lossless
    // metrics dump, so even observability counters resume seamlessly.
    metrics: horse::tracing::MetricsSnapshot,
    records: Vec<(u64, u64, u64, u64, bool)>,
    epochs_series: Vec<(u64, u64, u64, u64, usize, usize)>,
    aggregate_series: Vec<(u64, u64)>,
}

fn summary_bits(s: &horse::monitoring::series::Summary) -> [u64; 4] {
    [
        s.mean.to_bits(),
        s.p50.to_bits(),
        s.p99.to_bits(),
        s.max.to_bits(),
    ]
}

fn fingerprint(sim: &Simulation, r: &SimResults) -> Fingerprint {
    Fingerprint {
        events: r.events,
        epochs: r.epochs,
        max_epoch_batch: r.max_epoch_batch,
        realloc_requests: r.realloc_requests,
        realloc_runs: r.realloc_runs,
        realloc_flows_touched: r.realloc_flows_touched,
        stale_completions: r.stale_completions,
        flows_admitted: r.flows_admitted,
        flows_completed: r.flows_completed,
        flows_active_at_end: r.flows_active_at_end,
        flows_dropped: r.flows_dropped,
        bytes_delivered: r.bytes_delivered.to_bits(),
        bytes_dropped: r.bytes_dropped.to_bits(),
        msgs_to_controller: r.msgs_to_controller,
        msgs_to_switch: r.msgs_to_switch,
        flow_ins: r.flow_ins,
        pkt_flows: r.pkt_flows,
        fct: summary_bits(&r.fct),
        goodput: summary_bits(&r.goodput),
        fct_foreground: summary_bits(&r.fct_foreground),
        recovery: summary_bits(&r.recovery),
        chaos: r.chaos.clone(),
        queue: r.queue,
        metrics: r.metrics.clone(),
        records: sim
            .fluid()
            .records()
            .iter()
            .map(|rec| {
                (
                    rec.id.0,
                    rec.bytes.to_bits(),
                    rec.started.as_nanos(),
                    rec.finished.as_nanos(),
                    rec.completed,
                )
            })
            .collect(),
        epochs_series: r
            .collector
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
        aggregate_series: r
            .collector
            .aggregate
            .points()
            .iter()
            .map(|&(t, v)| (t.as_nanos(), v.to_bits()))
            .collect(),
    }
}

/// Straight-through journaling run.
fn straight(scenario: Scenario, config: SimConfig) -> (Fingerprint, String) {
    let buf = SharedBuf::new();
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    sim.set_tracer(SimTracer::new().with_journal(buf.clone()));
    let r = sim.run();
    sim.take_tracer().expect("tracer").finish_journal();
    (fingerprint(&sim, &r), buf.contents())
}

/// Run to `t_snap`, checkpoint, drop the original, resume, and finish
/// the run. Returns the fingerprint and the *concatenated* prefix +
/// suffix journal.
fn resumed(scenario: Scenario, config: SimConfig, t_snap: SimTime) -> (Fingerprint, String) {
    let prefix = SharedBuf::new();
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    sim.set_tracer(SimTracer::new().with_journal(prefix.clone()));
    sim.run_until(t_snap);
    let snapshot = sim.checkpoint();
    sim.take_tracer().expect("tracer").finish_journal();
    drop(sim);

    let mut sim = Simulation::resume(&snapshot).expect("snapshot resumes");
    let suffix = SharedBuf::new();
    sim.set_tracer(SimTracer::new().with_journal(suffix.clone()));
    let r = sim.run();
    sim.take_tracer().expect("tracer").finish_journal();
    (
        fingerprint(&sim, &r),
        prefix.contents() + &suffix.contents(),
    )
}

/// A small scenario zoo covering the families and fidelity modes the
/// engine supports; index-driven so the property test can sweep it.
fn scenario_zoo(idx: usize, seed: u64) -> Scenario {
    match idx % 5 {
        0 => Scenario::figure1(SimTime::from_secs(2), seed),
        1 => {
            let mut p = IxpScenarioParams::default();
            p.fabric.members = 8;
            p.fabric.edge_switches = 2;
            p.horizon = SimTime::from_secs(2);
            p.offered_bps = 2e9;
            p.seed = seed;
            Scenario::ixp(&p)
        }
        2 => {
            let mut p = FabricScenarioParams::default();
            p.generator.kind = generators::TopologyKind::LeafSpine;
            p.generator.switches = 4;
            p.generator.hosts = 8;
            p.horizon = SimTime::from_secs(2);
            p.seed = seed;
            Scenario::fabric(&p).expect("leaf-spine generates")
        }
        3 => {
            // Chaos: faults and a controller outage straddling mid-run.
            let mut s = Scenario::figure1(SimTime::from_secs(2), seed);
            s.chaos = Some(ChaosSpec {
                seed: seed.wrapping_mul(31).wrapping_add(7),
                start_secs: 0.2,
                link_flaps: 2,
                flap_rate_per_sec: 1.0,
                flap_downtime_secs: 0.3,
                ctrl_outages: 1,
                ctrl_outage_secs: 0.8,
                ..Default::default()
            });
            s
        }
        _ => {
            // Hybrid: a packet-fidelity foreground over the fluid bulk.
            let mut s = Scenario::figure1(SimTime::from_secs(2), seed);
            s.packet_foreground = 2;
            s
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole: resume is invisible — property over scenarios × snapshot
// times × packet-plane knobs.
// ---------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn resume_is_bit_identical_to_straight_through(
        idx in 0usize..5,
        seed in 1u64..1000,
        snap_pct in 5u64..95,
        pkt_variant in 0usize..3,
    ) {
        let horizon = scenario_zoo(idx, seed).horizon;
        let t_snap = SimTime::from_nanos(horizon.as_nanos() / 100 * snap_pct);
        // The packet-plane knobs are a harness axis too: default bursts,
        // the per-packet oracle, and a small cap that puts most snapshot
        // times mid-burst (serializer busy with a multi-packet event).
        let (burst, cache) = [(32, true), (1, false), (4, true)][pkt_variant];
        let config = SimConfig::default()
            .with_pkt_burst(burst)
            .with_pkt_decision_cache(cache);
        let (want, want_journal) = straight(scenario_zoo(idx, seed), config);
        let (got, got_journal) = resumed(scenario_zoo(idx, seed), config, t_snap);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_journal, want_journal);
    }
}

// ---------------------------------------------------------------------
// Satellite: mid-burst snapshots. With bursts on, most snapshot times
// land while a serializer is busy with a multi-packet event and the
// decision cache is warm; cutting there and resuming must still be
// bit-identical (the cache and in-flight bursts are part of the image).
// ---------------------------------------------------------------------

#[test]
fn mid_burst_snapshot_resumes_bit_identically() {
    // Hybrid zoo entry: packet foreground over fluid bulk, bursts on.
    for (burst, cache) in [(32u32, true), (8, true), (8, false)] {
        let config = SimConfig::default()
            .with_pkt_burst(burst)
            .with_pkt_decision_cache(cache);
        let (want, want_journal) = straight(scenario_zoo(4, 77), config);
        for snap_ms in [300u64, 650, 1100] {
            let (got, got_journal) =
                resumed(scenario_zoo(4, 77), config, SimTime::from_millis(snap_ms));
            assert_eq!(
                got, want,
                "burst={burst} cache={cache} snap={snap_ms}ms drifted"
            );
            assert_eq!(
                got_journal, want_journal,
                "burst={burst} cache={cache} snap={snap_ms}ms journal drifted"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 1: snapshot round-trip — serialize → restore → re-serialize
// must be byte-identical, for every family/fidelity and at awkward
// moments (mid-chaos-outage, mid-controller-buffering).
// ---------------------------------------------------------------------

#[test]
fn snapshot_roundtrip_is_byte_identical_across_zoo() {
    for idx in 0..5 {
        let mut sim = Simulation::new(scenario_zoo(idx, 7), SimConfig::default()).expect("builds");
        sim.run_until(SimTime::from_millis(700));
        let bytes = sim.checkpoint();
        let sim2 = Simulation::resume(&bytes).expect("resumes");
        let bytes2 = sim2.checkpoint();
        assert_eq!(bytes, bytes2, "zoo {idx} re-serialization drifted");
    }
}

/// A reactive star with the controller dark over the snapshot time:
/// flows arrive during the outage, so `ToController` messages are
/// sitting in the replay buffer when the snapshot is cut.
fn mid_buffering_scenario() -> Scenario {
    let f = builders::star(4, horse::types::Rate::gbps(1.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(3));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::MacLearning);
    for i in 0..3u64 {
        let spec = s
            .flow_between(
                s.members[i as usize % 3],
                s.members[(i as usize + 1) % 3],
                AppClass::Http,
                1000 + i as u16,
                Some(ByteSize::mib(1)),
                DemandModel::Greedy,
            )
            .expect("hosts have addresses");
        // Arrivals at 1.1 s, 1.2 s, 1.3 s — inside the outage window.
        s.explicit_flows
            .push((SimTime::from_millis(1100 + 100 * i), spec));
    }
    s.chaos = Some(ChaosSpec {
        seed: 3,
        start_secs: 1.0,
        ctrl_outages: 1,
        ctrl_outage_secs: 1.0,
        ..Default::default()
    });
    s
}

#[test]
fn mid_outage_buffered_messages_survive_the_snapshot() {
    // The scenario really does buffer controller messages…
    let (want, want_journal) = straight(mid_buffering_scenario(), SimConfig::default());
    assert!(
        want.chaos.ctrl_msgs_buffered > 0,
        "scenario must exercise the outage replay buffer"
    );
    // …and a snapshot cut mid-outage (buffer non-empty, outage depth 1)
    // restores it all: round-trip bytes and final results both hold.
    let t_snap = SimTime::from_millis(1500);
    let mut sim = Simulation::new(mid_buffering_scenario(), SimConfig::default()).unwrap();
    sim.run_until(t_snap);
    let bytes = sim.checkpoint();
    let sim2 = Simulation::resume(&bytes).expect("mid-outage snapshot resumes");
    assert_eq!(bytes, sim2.checkpoint(), "mid-outage round-trip drifted");
    let (got, got_journal) = resumed(mid_buffering_scenario(), SimConfig::default(), t_snap);
    assert_eq!(got, want);
    assert_eq!(got_journal, want_journal);
}

/// A switch that crashes *and rejoins* while the controller is dark: its
/// rejoin notification waits in the replay buffer behind the neighbors'
/// port-status reports, and is what gets its tables back on recovery.
fn rejoin_inside_outage_scenario() -> Scenario {
    let f = builders::ixp_fabric(&IxpFabricParams {
        members: 4,
        edge_switches: 2,
        core_switches: 2,
        ..Default::default()
    });
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(3));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    for i in 0..4usize {
        let spec = s
            .flow_between(
                f.members[i],
                f.members[(i + 1) % 4],
                AppClass::Http,
                1000 + i as u16,
                Some(ByteSize::mib(64)),
                DemandModel::Greedy,
            )
            .expect("hosts have addresses");
        s.explicit_flows
            .push((SimTime::from_millis(100 + 600 * i as u64), spec));
    }
    let ms = SimTime::from_millis;
    s.late_events = vec![
        (ms(1000), LateEvent::CtrlDown),
        (ms(1100), LateEvent::SwitchDown(f.cores[0])),
        (ms(1300), LateEvent::SwitchUp(f.cores[0])),
        (ms(2000), LateEvent::CtrlUp),
    ];
    s
}

#[test]
fn rejoin_buffered_during_an_outage_survives_the_snapshot() {
    let scenario = rejoin_inside_outage_scenario();
    let rejoined = match scenario.late_events[1].1 {
        LateEvent::SwitchDown(node) => node,
        other => panic!("script changed: {other:?}"),
    };
    let (want, want_journal) = straight(scenario, SimConfig::default());
    assert_eq!(want.chaos.switch_rejoins, 1);
    // Cut while the rejoin sits in the buffer (outage depth 1).
    let t_snap = SimTime::from_millis(1500);
    let mut sim = Simulation::new(rejoin_inside_outage_scenario(), SimConfig::default()).unwrap();
    sim.run_until(t_snap);
    let bytes = sim.checkpoint();
    let mut sim2 = Simulation::resume(&bytes).expect("mid-outage snapshot resumes");
    assert_eq!(bytes, sim2.checkpoint(), "round-trip drifted");
    // The resumed controller hears about the rejoin and refills the
    // blank switch: plumbing plus a forwarding entry per member.
    sim2.run();
    let entries = |t: u8| {
        let table = sim2.fluid().switch(rejoined).unwrap().table(TableId(t));
        table.unwrap().entries().count()
    };
    assert_eq!((entries(0), entries(1)), (1, 4), "rejoined switch tables");
    let (got, got_journal) = resumed(
        rejoin_inside_outage_scenario(),
        SimConfig::default(),
        t_snap,
    );
    assert_eq!(got, want);
    assert_eq!(got_journal, want_journal);
}

// ---------------------------------------------------------------------
// Fork: a what-if branch through the reserved band is bit-identical to
// a straight-through run that scheduled the same events at build time.
// ---------------------------------------------------------------------

#[test]
fn fork_matches_straight_through_variant() {
    // Variant: cable 0 fails at 1.5 s and recovers at 1.8 s. The shared
    // prefix reserves two band slots; the straight-through variant
    // schedules the same two events through the same band.
    let late = vec![
        (SimTime::from_millis(1500), LateEvent::CableDown(LinkId(0))),
        (SimTime::from_millis(1800), LateEvent::CableUp(LinkId(0))),
    ];
    let variant = |seed| {
        let mut s = Scenario::figure1(SimTime::from_secs(2), seed);
        s.late_events = late.clone();
        s.late_band = 2;
        s
    };
    let prefix = |seed| {
        let mut s = Scenario::figure1(SimTime::from_secs(2), seed);
        s.late_band = 2;
        s
    };
    let (want, want_journal) = straight(variant(21), SimConfig::default());
    assert!(
        want.chaos.cable_downs > 0,
        "variant must exercise its failure"
    );

    let pj = SharedBuf::new();
    let mut sim = Simulation::new(prefix(21), SimConfig::default()).unwrap();
    sim.set_tracer(SimTracer::new().with_journal(pj.clone()));
    sim.run_until(SimTime::from_millis(1000));
    let snapshot = sim.checkpoint();
    sim.take_tracer().unwrap().finish_journal();
    drop(sim);

    let mut forked = Simulation::fork(
        &snapshot,
        &ForkSpec {
            late_events: late.clone(),
            ..Default::default()
        },
    )
    .expect("fork applies late events");
    let sj = SharedBuf::new();
    forked.set_tracer(SimTracer::new().with_journal(sj.clone()));
    let r = forked.run();
    forked.take_tracer().unwrap().finish_journal();

    assert_eq!(fingerprint(&forked, &r), want);
    assert_eq!(pj.contents() + &sj.contents(), want_journal);
}

#[test]
fn fork_rejects_band_overflow_and_unlate_events() {
    let mut s = Scenario::figure1(SimTime::from_secs(2), 5);
    s.late_band = 1;
    let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
    sim.run_until(SimTime::from_millis(1000));
    let snapshot = sim.checkpoint();

    // Two events into a one-slot band: rejected.
    let overflow = ForkSpec {
        late_events: vec![
            (SimTime::from_millis(1500), LateEvent::CtrlDown),
            (SimTime::from_millis(1600), LateEvent::CtrlUp),
        ],
        ..Default::default()
    };
    assert!(matches!(
        Simulation::fork(&snapshot, &overflow),
        Err(ResumeError::BandExhausted { band: 1 })
    ));

    // An event at/before the checkpoint time: the straight-through run
    // it claims to reproduce would already have processed it.
    let unlate = ForkSpec {
        late_events: vec![(SimTime::from_millis(500), LateEvent::CtrlDown)],
        ..Default::default()
    };
    assert!(matches!(
        Simulation::fork(&snapshot, &unlate),
        Err(ResumeError::LateEventNotLate { .. })
    ));
}

// ---------------------------------------------------------------------
// Edges: pre-start checkpoints and malformed snapshot bytes.
// ---------------------------------------------------------------------

#[test]
fn pre_start_checkpoint_resumes_the_whole_run() {
    let sim = Simulation::new(scenario_zoo(0, 9), SimConfig::default()).unwrap();
    let snapshot = sim.checkpoint(); // before start(): nothing has run
    drop(sim);
    let (want, want_journal) = straight(scenario_zoo(0, 9), SimConfig::default());
    let mut sim = Simulation::resume(&snapshot).unwrap();
    let buf = SharedBuf::new();
    sim.set_tracer(SimTracer::new().with_journal(buf.clone()));
    let r = sim.run();
    sim.take_tracer().unwrap().finish_journal();
    assert_eq!(fingerprint(&sim, &r), want);
    assert_eq!(buf.contents(), want_journal);
}

/// Resumes every `step`-th proper prefix of `good` (and the one missing
/// only its last byte), demanding `Corrupt` each time: a truncated
/// snapshot must never panic and never resume half a state.
fn assert_truncations_are_corrupt(good: &[u8], step: usize) {
    let cuts = (0..good.len()).step_by(step).chain([good.len() - 1]);
    for cut in cuts {
        match std::panic::catch_unwind(|| Simulation::resume(&good[..cut]).map(|_| ())) {
            Ok(Err(ResumeError::Corrupt(_))) => {}
            Ok(other) => panic!("truncation at {cut}/{} gave {other:?}", good.len()),
            Err(_) => panic!("truncation at {cut}/{} panicked", good.len()),
        }
    }
}

#[test]
fn malformed_snapshots_fail_loudly() {
    assert!(matches!(
        Simulation::resume(b"not a snapshot at all, sorry"),
        Err(ResumeError::BadMagic) | Err(ResumeError::Corrupt(_))
    ));
    // Every byte of a mid-wave snapshot: pending and cancelled
    // completions, active fluid flows, controller and collector state.
    let mut sim = Simulation::new(wave_scenario(), SimConfig::default()).unwrap();
    sim.run_until(SimTime::from_millis(1100));
    assert_truncations_are_corrupt(&sim.checkpoint(), 1);
    // A richer zoo snapshot (~1.3 MB, too big to cut everywhere in a
    // debug build) at a prime stride, so cuts land at varied offsets
    // inside its records.
    let mut sim = Simulation::new(scenario_zoo(0, 3), SimConfig::default()).unwrap();
    sim.run_until(SimTime::from_millis(500));
    let good = sim.checkpoint();
    assert_truncations_are_corrupt(&good, 9973);
    // A bumped version byte is refused by number, not misparsed.
    let mut versioned = good.clone();
    // magic = 8-byte length prefix + 9 bytes; version u32 LE follows.
    versioned[17] = 99;
    assert!(matches!(
        Simulation::resume(&versioned),
        Err(ResumeError::BadVersion(99))
    ));
    // So is the previous format: version 5 keyed the packet plane's
    // port queues by `(node, port)` instead of one per directed link.
    assert_eq!(horse::sim::SNAPSHOT_VERSION, 6);
    versioned[17] = 5;
    assert!(matches!(
        Simulation::resume(&versioned),
        Err(ResumeError::BadVersion(5))
    ));
}

/// A completion wave on a star: six equal flows and a short one into one
/// sink at t = 1 s, four more into the same sink at 1.2 s. The short
/// flow's departure (≈1.06 s) and the late arrivals each supersede, and
/// so cancel, every pending wave completion.
fn wave_scenario() -> Scenario {
    let f = builders::star(10, horse::types::Rate::gbps(1.0));
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(4));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    for i in 0..11usize {
        let (at_ms, mib) = match i {
            0..=5 => (1000, 8),
            6 => (1000, 1),
            _ => (1200, 4),
        };
        let spec = s
            .flow_between(
                s.members[i % 9],
                s.members[9],
                AppClass::Https,
                5000 + i as u16,
                Some(ByteSize::mib(mib)),
                DemandModel::Greedy,
            )
            .expect("hosts have addresses");
        s.explicit_flows.push((SimTime::from_millis(at_ms), spec));
    }
    s
}

#[test]
fn mid_wave_snapshot_resumes_with_cancellations_on_both_sides() {
    let (want, want_journal) = straight(wave_scenario(), SimConfig::default());
    assert_eq!(want.stale_completions, 0);
    let t_snap = SimTime::from_millis(1100);
    let mut prefix = Simulation::new(wave_scenario(), SimConfig::default()).unwrap();
    prefix.run_until(t_snap);
    let at_cut = prefix.finish().queue.cancelled;
    assert!(
        at_cut > 0 && at_cut < want.queue.cancelled,
        "cancellations before ({at_cut}) and after the cut (of {})",
        want.queue.cancelled
    );
    let (got, got_journal) = resumed(wave_scenario(), SimConfig::default(), t_snap);
    assert_eq!(got, want);
    assert_eq!(got_journal, want_journal);
}

/// The hybrid fabric of the packet-burst tests: Figure 1 under ECMP, 18
/// gravity-workload flows of which the first 5 run at packet fidelity.
fn hybrid_fabric_scenario() -> Scenario {
    let mut s = fluid_fabric_scenario();
    for (_, spec) in s.explicit_flows.iter_mut().take(5) {
        spec.fidelity = Fidelity::Packet;
    }
    s
}

/// [`hybrid_fabric_scenario`] with every flow at fluid fidelity.
fn fluid_fabric_scenario() -> Scenario {
    let f = builders::figure1_fabric();
    let mut s = Scenario::bare(f.topology, SimTime::from_secs(20));
    s.members = f.members;
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    let weights = TrafficMatrix::zipf_weights(s.members.len(), 0.8);
    s.workload = Some(WorkloadParams {
        matrix: TrafficMatrix::gravity(&weights, 4e9),
        sizes: FlowSizeDist::Pareto {
            alpha: 1.3,
            min_bytes: 1_000_000,
            max_bytes: 20_000_000,
        },
        apps: AppMix::default_ixp(),
        diurnal: None,
        udp_rate: horse::types::Rate::mbps(4.0),
        seed: 7,
    });
    horse::compare::materialize_workload(&mut s, 18);
    s
}

/// [`fluid_fabric_scenario`] cut to 600 ms under a chaos schedule from
/// 100 ms on. At 300 ms a flapped cable is down, one switch is crashed
/// and the controller is dark with six messages buffered.
fn chaos_fabric_scenario() -> Scenario {
    let mut s = fluid_fabric_scenario();
    s.horizon = SimTime::from_millis(600);
    s.chaos = Some(ChaosSpec {
        seed: 3,
        start_secs: 0.1,
        link_flaps: 2,
        flap_rate_per_sec: 8.0,
        flap_downtime_secs: 0.3,
        switch_crashes: 1,
        crash_downtime_secs: 0.5,
        gray_links: 1,
        gray_loss_frac: 0.1,
        ctrl_outages: 1,
        ctrl_outage_secs: 0.5,
        ..Default::default()
    });
    s
}

/// A checkpoint of `scenario` at 300 ms.
fn snapshot_at_300ms(scenario: Scenario) -> (Vec<u8>, SimTime) {
    let t_snap = SimTime::from_millis(300);
    let mut sim = Simulation::new(scenario, SimConfig::default()).unwrap();
    sim.run_until(t_snap);
    (sim.checkpoint(), t_snap)
}

/// A checkpoint of [`hybrid_fabric_scenario`] at 300 ms: packets queued
/// and in flight, retransmission timers pending, cached decisions.
fn hybrid_snapshot() -> (Vec<u8>, SimTime) {
    snapshot_at_300ms(hybrid_fabric_scenario())
}

/// Resumes `bytes` and, if that succeeds, runs the simulation until
/// `until`. `Err` carries a panic; an `Ok(Err(_))` is a refusal.
fn resume_and_step(bytes: &[u8], until: SimTime) -> std::thread::Result<Result<(), ResumeError>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Simulation::resume(bytes).map(|mut sim| sim.run_until(until))
    }))
}

#[test]
fn bit_flipped_hybrid_snapshots_never_panic() {
    // One flipped bit every 17 bytes (cycling through the bit positions)
    // of a hybrid, a fluid-only and a chaos snapshot: each mutant must be
    // refused or resume into 50 ms of simulation without panicking. The
    // whole hybrid sweep (every byte, three bits each) was run once
    // off-line; this stride keeps the debug-build cost bounded.
    let mut panics = Vec::new();
    for (name, scenario) in [
        ("hybrid", hybrid_fabric_scenario()),
        ("fluid-only", fluid_fabric_scenario()),
        ("chaos", chaos_fabric_scenario()),
    ] {
        let (good, t_snap) = snapshot_at_300ms(scenario);
        let until = t_snap + SimDuration::from_millis(50);
        for (k, at) in (0..good.len()).step_by(17).enumerate() {
            let mut bad = good.clone();
            bad[at] ^= 1 << (k % 8);
            if resume_and_step(&bad, until).is_err() {
                panics.push((name, at, k % 8));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "mutants (snapshot, byte, bit) panicked: {panics:?}"
    );
}

#[test]
fn out_of_range_packet_timer_is_refused() {
    // A pending retransmission timer for a packet flow that does not
    // exist must be refused at resume, not resumed into a panic when the
    // timer fires.
    let (good, t_snap) = hybrid_snapshot();
    let pattern = |flow: u64| {
        let mut p = vec![16u8, 4]; // SimEvent::Pkt, PktEvent::Rto
        p.extend_from_slice(&flow.to_le_bytes());
        p
    };
    let at = (0..5)
        .find_map(|flow| good.windows(10).position(|w| w == pattern(flow).as_slice()))
        .expect("a packet flow has a retransmission timer armed at the cut");
    let mut bad = good.clone();
    bad[at + 2..at + 10].copy_from_slice(&99u64.to_le_bytes());
    match resume_and_step(&bad, t_snap + SimDuration::from_secs(2)) {
        Ok(Err(ResumeError::Corrupt(e))) => {
            assert!(e.to_string().contains("flow 99"), "{e}")
        }
        Ok(Err(other)) => panic!("expected Corrupt, got {other:?}"),
        Ok(Ok(())) => panic!("a timer for flow 99 of 5 resumed and ran"),
        Err(_) => panic!("a timer for flow 99 of 5 panicked"),
    }
}
