//! The differential lattice (`support::lattice`) on a scenario zoo:
//! hand-built epoch shapes, allocator features, reactive forwarding in
//! the hybrid plane and the bases of sweep specs. Every case runs as
//! shipped and once per reference path that applies to it, and every
//! test asserts that the fast paths it names engaged.

mod support;

use horse::prelude::*;
use support::lattice::{lattice, lattice_at, Case, Lattice, Point};
use support::{hybrid_scenario, hybrid_scenario_on};

// ---------------------------------------------------------------------
// Hand-built epoch shapes, pinned so a failure names the scenario.
// ---------------------------------------------------------------------

/// The adaptive load balancer polls port counters (`StatsRequest` over
/// the control channel) and re-weights its select groups from the byte
/// deltas — the one control-plane path that *reads* state the deferred
/// reallocation writes. With zero control latency the 5 s poll's stats
/// requests land in the epoch of two flow arrivals (which set the
/// pending-reallocation flag first, by seq order). The second shares the
/// 3 Gbit/s access link of a CBR background flow unsynced since t = 1 s,
/// so that flow's rate changes at the poll instant: the per-event
/// cadence syncs it before the poll reads the counters, and the batched
/// cadence must too. A read point that skipped its flush and sync would
/// hand the poll seconds' worth of missing bytes, re-weighting the
/// groups and routing the post-poll flows elsewhere.
#[test]
fn adaptive_lb_poll() {
    let f = builders::ixp_fabric(&builders::IxpFabricParams {
        members: 8,
        edge_switches: 2,
        core_switches: 2,
        // tight links: which core a flow hashes to decides how much
        // bandwidth it shares with the background load, so a wrong
        // adaptive weight is visible in FCTs, not just routes
        member_port_speeds: vec![Rate::gbps(3.0)],
        uplink_speed: Rate::gbps(3.0),
        ..Default::default()
    });
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(8));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing {
        mode: LbMode::Adaptive,
    });
    let mut add = |ms: u64, src: usize, dst: usize, port: u16, mib: Option<u64>, demand| {
        let (a, b) = (f.members[src], f.members[dst]);
        let size = mib.map(ByteSize::mib);
        let spec = s.flow_between(a, b, AppClass::Https, port, size, demand);
        s.explicit_flows
            .push((SimTime::from_millis(ms), spec.unwrap()));
    };
    // Background load across an uplink (members sit round-robin on the
    // two edges), never completing on its own.
    add(1000, 0, 1, 4000, None, DemandModel::Cbr(Rate::gbps(2.0)));
    let greedy = DemandModel::Greedy;
    add(5000, 1, 2, 4001, Some(16), greedy);
    add(5000, 0, 1, 4002, Some(16), greedy);
    // Post-poll flows, routed by the adapted weights.
    for i in 0..6u64 {
        let (src, dst) = (i as usize % 8, (i as usize + 3) % 8);
        add(
            5500 + 100 * i,
            src,
            dst,
            4100 + i as u16,
            Some(8 + 4 * i),
            greedy,
        );
    }
    // No periodic stats export or expiry scan: both are epoch-aligned
    // flush points that would refresh the counters right before the poll
    // and mask the path under test.
    let config = SimConfig::default()
        .with_ctrl_latency(SimDuration::ZERO)
        .with_stats_epoch(None)
        .with_expiry_scan(None);
    let l = lattice(Case::new("adaptive poll", s, config));
    assert!(
        l.base.msgs_to_controller > 0,
        "the poll must actually produce stats replies"
    );
    l.assert_engaged("adaptive poll", &[Point::Full]);
}

/// Four equal flows into one sink, all at t = 1 s: they share the sink's
/// access link, complete at the same instant, and that completion wave
/// is itself one epoch — the shape the batching exists for.
#[test]
fn arrival_wave() {
    let f = builders::star(8, Rate::gbps(1.0));
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(10));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    for i in 0..4usize {
        let (a, b, port) = (f.members[i], f.members[7], 3000 + i as u16);
        let size = Some(ByteSize::mib(10));
        let spec = s.flow_between(a, b, AppClass::Https, port, size, DemandModel::Greedy);
        s.explicit_flows
            .push((SimTime::from_secs(1), spec.unwrap()));
    }
    let l = lattice(Case::new("arrival wave", s, SimConfig::default()));
    let (batched, per_event) = (&l.base, l.point(Point::PerEvent).unwrap());
    assert_eq!(batched.flows_completed, 4);
    assert_eq!(batched.records, per_event.records, "identical records");
    assert!(batched.max_epoch_batch >= 4, "the wave forms one batch");
    // 4 arrival requests + 4 completion requests collapse into one
    // allocator run each, and no completion is ever scheduled against a
    // rate the same instant supersedes. The per-event side pays one run
    // per request and supersedes 12 completions, which are cancelled
    // instead of popping stale. (Wall-clock consequence: `ixp_waves` in
    // `benchmark/`.)
    assert_eq!((batched.realloc_runs, batched.queue.cancelled), (2, 0));
    assert_eq!((per_event.realloc_runs, per_event.queue.cancelled), (8, 12));
    assert_eq!(per_event.realloc_runs, per_event.realloc_requests);
}

/// The nanosecond on which the wave of [`completion_wave`] finishes.
const WAVE_NS: u64 = 1_411_041_792;

/// Six equal flows into one sink plus a short seventh, all at t = 1 s:
/// the short flow's departure re-divides the sink link, superseding the
/// six completions, which then all land on [`WAVE_NS`]. Four more flows
/// arrive on exactly that nanosecond, so the completion wave shares its
/// epoch with arrivals.
fn completion_wave() -> Scenario {
    let f = builders::star(10, Rate::gbps(1.0));
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(5));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    let add = |s: &mut Scenario, at: SimTime, src: usize, dst: usize, port: u16, mib: u64| {
        let (a, b, size) = (f.members[src], f.members[dst], Some(ByteSize::mib(mib)));
        let spec = s.flow_between(a, b, AppClass::Https, port, size, DemandModel::Greedy);
        s.explicit_flows.push((at, spec.unwrap()));
    };
    for i in 0..6 {
        add(&mut s, SimTime::from_secs(1), i, 9, 5000 + i as u16, 8);
    }
    add(&mut s, SimTime::from_secs(1), 6, 9, 5006, 1);
    for i in 0..4 {
        let at = SimTime::from_nanos(WAVE_NS);
        add(&mut s, at, 7 + i % 2, i, 5100 + i as u16, 2);
    }
    s
}

/// Pins the same-instant completion order: the `(finished, id)` sequence
/// of flow records — the order completion events popped in — and every
/// flow's completion time to the nanosecond (each one derives from the
/// `RateChange` completion prediction that scheduled it).
#[test]
fn completion_wave_order_is_pinned() {
    let config = SimConfig::default()
        .with_stats_epoch(None)
        .with_expiry_scan(None);
    let l = lattice(Case::new("completion wave", completion_wave(), config));
    assert_eq!(l.base.flows_completed, 11);
    let got: Vec<(u64, u64, u64)> = l
        .base
        .records
        .iter()
        .map(|&(id, started, finished, ..)| (finished, id, finished - started))
        .collect();
    // Recorded before completions became cancellable; ties pop in the
    // order their events were scheduled (ascending id within one run).
    let golden: Vec<(u64, u64, u64)> = vec![
        (1_058_720_256, 6, 58_720_256),
        (WAVE_NS, 0, 411_041_792),
        (WAVE_NS, 1, 411_041_792),
        (WAVE_NS, 2, 411_041_792),
        (WAVE_NS, 3, 411_041_792),
        (WAVE_NS, 4, 411_041_792),
        (WAVE_NS, 5, 411_041_792),
        (1_444_596_224, 7, 33_554_432),
        (1_444_596_224, 8, 33_554_432),
        (1_444_596_224, 9, 33_554_432),
        (1_444_596_224, 10, 33_554_432),
    ];
    assert_eq!(got, golden);
    l.assert_engaged("completion wave", &[Point::PerEvent]);
}

// ---------------------------------------------------------------------
// Allocator features: each case exercises one path that marks links
// dirty, so a missing mark shows as a `Full` disagreement.
// ---------------------------------------------------------------------

/// A k = 4 fat-tree under ECMP with four flapping cables and one
/// aggregation switch crash (the `chaos` sweep's fabric).
fn chaos_fat_tree() -> Scenario {
    let mut p = FabricScenarioParams::default();
    p.generator.fat_tree_k = 4;
    p.load_factor = 2.0;
    p.horizon = SimTime::from_secs(2);
    p.seed = 11;
    let mut s = Scenario::fabric(&p).expect("fat-tree generates");
    s.chaos = Some(ChaosSpec {
        seed: 11,
        start_secs: 0.2,
        link_flaps: 4,
        flap_rate_per_sec: 2.0,
        flap_downtime_secs: 0.05,
        switch_crashes: 1,
        crash_downtime_secs: 0.3,
        ..Default::default()
    });
    s
}

/// The GÉANT WAN with three trunks squeezed to 1% of their capacity for
/// a second at a time (the `chaos_wan` sweep's gray failures).
fn gray_wan() -> Scenario {
    let mut p = FabricScenarioParams::default();
    p.generator.kind = TopologyKind::Wan;
    p.generator.wan = Some(
        horse::topology::generators::load_topology_spec(std::path::Path::new(
            "examples/topologies/geant.json",
        ))
        .expect("shipped WAN graph"),
    );
    p.generator.hosts_per_pop = 1;
    p.load_factor = 3.0;
    p.horizon = SimTime::from_secs(2);
    p.seed = 5;
    let mut s = Scenario::fabric(&p).expect("WAN generates");
    s.chaos = Some(ChaosSpec {
        seed: 5,
        start_secs: 0.2,
        gray_links: 3,
        gray_capacity_factor: 0.01,
        gray_loss_frac: 0.1,
        gray_duration_secs: 1.0,
        ..Default::default()
    });
    s
}

/// Max-min allocation is unique and bytes are integrated only when a
/// rate changes, so re-solving every flow on every run syncs the same
/// flows at the same instants in the same order as re-solving only what
/// changed — through cable flaps and a switch crash, gray capacity
/// squeezes and the hybrid plane's external demands (the Figure-1 ECMP
/// fabric with 5 of 18 flows at packet fidelity). Dropping the dirty
/// mark of `set_gray` or of `set_external_demand` makes the gray or the
/// hybrid case disagree.
#[test]
fn allocator_feature_zoo() {
    let config = SimConfig::default();
    // A figure1 run takes seconds; the other points engage on cheaper
    // cases.
    let figure1 = Scenario::figure1(SimTime::from_secs(4), 3);
    let l = lattice_at(&[Point::Full], Case::new("figure1", figure1, config));
    assert!(l.base.flows_completed > 0);
    l.assert_engaged("figure1", &[Point::Full]);
    let l = lattice(Case::new("chaos fat-tree", chaos_fat_tree(), config));
    assert!(l.base.chaos.cable_downs > 0 && l.base.chaos.switch_crashes > 0);
    l.assert_engaged("chaos fat-tree", &[Point::Full]);
    let l = lattice(Case::new("gray WAN", gray_wan(), config));
    assert!(l.base.chaos.gray_events > 0);
    l.assert_engaged("gray WAN", &[Point::Full]);
    let l = lattice(Case::new(
        "hybrid figure1",
        hybrid_scenario(7, 18, 5, 2),
        config,
    ));
    assert!(l.base.pkt_flows > 0);
    l.assert_engaged("hybrid figure1", &[Point::Full, Point::UncachedPipeline]);
}

/// Reactive forwarding on a star: every foreground flow's first packets
/// miss, flood and raise packet `FlowIn`s before the learned rules land,
/// so cached flood verdicts must give way to the learned ones. A cache
/// that served a verdict older than its switch's tables would keep
/// flooding.
#[test]
fn hybrid_mac_learning() {
    let star = builders::star(6, Rate::gbps(10.0));
    let policy = PolicySpec::new().with(PolicyRule::MacLearning);
    let s = hybrid_scenario_on(star, policy, 3, 18, 5, 20);
    let l = lattice(Case::new("hybrid mac_learning", s, SimConfig::default()));
    assert!(l.base.flow_ins > 0 && l.base.work.pkt_cache[2] > 0);
    l.assert_engaged(
        "hybrid mac_learning",
        &[Point::Full, Point::UncachedPipeline],
    );
}

// ---------------------------------------------------------------------
// Sweep specs, built through the lab's spec path: two plain IXPs and the
// packet-burst ablation sweep.
// ---------------------------------------------------------------------

/// A 50-member IXP under ECMP and a 25-member one under the default
/// policy. No two of their flows share a path class and demand, so
/// macro-flows stay idle and the per-flow point must change nothing;
/// `figure1` is where it engages.
const IXP_SPECS: [&str; 2] = [
    r#"
    name = "ixp50_ecmp"
    [scenario]
    kind = "ixp"
    members = 50
    horizon_secs = 1.0
    [[scenario.policies]]
    type = "load_balancing"
    mode = "ecmp"
    "#,
    r#"
    name = "ixp25"
    [scenario]
    kind = "ixp"
    members = 25
    horizon_secs = 1.0
    "#,
];

/// Runs the lattice on every plan of a sweep spec; returns the lattices.
fn sweep_lattices(toml_text: &str) -> Vec<(String, Lattice)> {
    let spec = SweepSpec::from_toml(toml_text).expect("spec parses");
    expand(&spec)
        .expect("spec expands")
        .into_iter()
        .map(|plan| {
            let case = format!("{} [{}]", spec.name, plan.label());
            let scenario = plan.scenario.build().expect("scenario builds");
            let config = plan.config.to_config().expect("config folds");
            let l = lattice(Case::new(&case, scenario, config));
            (case, l)
        })
        .collect()
}

#[test]
fn sweep_spec_bases() {
    for toml_text in IXP_SPECS {
        for (case, l) in sweep_lattices(toml_text) {
            assert!(l.base.flows_completed > 0, "{case}");
            l.assert_engaged(&case, &[Point::Full]);
        }
    }
    let plans = sweep_lattices(include_str!("../examples/sweeps/pkt_burst_ablation.toml"));
    assert_eq!(plans.len(), 4, "pkt_burst [1, 32] x 2 replicates");
    for (case, l) in plans {
        l.assert_engaged(&case, &[Point::UncachedPipeline]);
    }
}
