//! End-to-end integration: scenario → policy generator → fluid plane →
//! monitoring, across every workspace crate.

use horse::controlplane::{ControllerCtx, Outbox, PolicyGenerator};
use horse::openflow::messages::StatsReply;
use horse::prelude::*;

#[test]
fn figure1_runs_and_reports() {
    let scenario = Scenario::figure1(SimTime::from_secs(5), 42);
    let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid scenario");
    let r = sim.run();
    assert!(r.flows_admitted > 0);
    assert!(r.flows_completed > 0);
    assert!(r.bytes_delivered > 0.0);
    assert!(r.events > 0);
    assert!(!r.collector.epochs.is_empty());
    // the blackhole policy must account for some drops
    assert!(r.flows_dropped > 0);
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed| {
        let scenario = Scenario::figure1(SimTime::from_secs(4), seed);
        let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid");
        let r = sim.run();
        (
            r.events,
            r.flows_admitted,
            r.flows_completed,
            r.flows_dropped,
            format!("{:.6e}", r.bytes_delivered),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn incremental_and_full_allocation_agree() {
    let run = |mode| {
        let scenario = Scenario::figure1(SimTime::from_secs(4), 3);
        let cfg = SimConfig::default().with_alloc_mode(mode);
        let mut sim = Simulation::new(scenario, cfg).expect("valid");
        let r = sim.run();
        (r.flows_completed, format!("{:.6e}", r.bytes_delivered))
    };
    assert_eq!(
        run(AllocMode::Full),
        run(AllocMode::Incremental),
        "max-min allocation is unique — the modes must agree exactly"
    );
}

#[test]
fn conservation_bytes_never_exceed_offered() {
    let scenario = Scenario::figure1(SimTime::from_secs(5), 11);
    let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid");
    let r = sim.run();
    // delivered bytes can never exceed what the workload offered: offered
    // = delivered + dropped + still-in-flight; just check sane magnitude
    // against the configured 16 Gbps peak for 5 s.
    let ceiling = 16e9 / 8.0 * 5.0 * 1.5;
    assert!(
        r.bytes_delivered < ceiling,
        "delivered {} exceeds physical ceiling {}",
        r.bytes_delivered,
        ceiling
    );
}

#[test]
fn stats_epochs_and_alarms_fire_under_congestion() {
    // tiny fabric, huge offered load => utilization alarms must fire
    let mut params = IxpScenarioParams::default();
    params.fabric.members = 8;
    params.fabric.member_port_speeds = vec![Rate::mbps(100.0)];
    params.fabric.uplink_speed = Rate::mbps(200.0);
    params.offered_bps = 2e9;
    params.sizes = FlowSizeDist::Fixed { bytes: 4_000_000 };
    params.horizon = SimTime::from_secs(5);
    let scenario = Scenario::ixp(&params);
    let mut cfg = SimConfig::default().with_stats_epoch(Some(SimDuration::from_millis(250)));
    cfg.alarm_threshold = Some(0.9);
    let mut sim = Simulation::new(scenario, cfg).expect("valid");
    let r = sim.run();
    assert!(
        !r.collector.alarms.is_empty(),
        "an oversubscribed fabric must raise utilization alarms"
    );
    let max_util = r
        .collector
        .epochs
        .iter()
        .map(|e| e.max_utilization)
        .fold(0.0, f64::max);
    assert!(max_util > 0.9);
}

#[test]
fn open_ended_flows_survive_to_horizon() {
    let fabric = builders::star(3, Rate::gbps(1.0));
    let mut scenario = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(3));
    scenario.members = fabric.members.clone();
    scenario.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    let spec = scenario
        .flow_between(
            fabric.members[0],
            fabric.members[1],
            AppClass::Https,
            1,
            None, // open-ended
            horse::dataplane::DemandModel::Cbr(Rate::mbps(100.0)),
        )
        .unwrap();
    scenario.explicit_flows.push((SimTime::from_secs(1), spec));
    let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid");
    let r = sim.run();
    assert_eq!(r.flows_active_at_end, 1);
    assert_eq!(r.flows_completed, 0);
    // 2 s at 100 Mbps = 25 MB
    assert!((r.bytes_delivered - 25e6).abs() < 1e6);
}

#[test]
fn fat_tree_k8_runs_the_allocator_at_most_once_per_request() {
    let mut params = FabricScenarioParams::default();
    params.generator.kind = TopologyKind::FatTree;
    params.generator.fat_tree_k = 8;
    params.horizon = SimTime::from_secs(1);
    params.seed = 3;
    let scenario = Scenario::fabric(&params).expect("fat-tree builds");
    let r = Simulation::new(scenario, SimConfig::default())
        .expect("valid")
        .run();
    assert!(r.flows_admitted > 0, "scenario must offer traffic");
    assert!(
        r.realloc_runs > 0 && r.realloc_runs <= r.realloc_requests,
        "allocator runs ({}) never exceed the events that requested one ({})",
        r.realloc_runs,
        r.realloc_requests
    );
}

/// A reactive `mac_learning` star: the only flow's hop installs an
/// exact-match flood entry with a 1 s idle timeout. The flow is
/// open-ended and alone, so nothing recomputes its rate after admission;
/// each 1 s expiry scan must still find its entry in use.
#[test]
fn open_ended_flow_keeps_its_idle_timed_entries_across_scans() {
    let fabric = builders::star(3, Rate::gbps(1.0));
    let mut scenario = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(6));
    scenario.members = fabric.members.clone();
    scenario.policy = PolicySpec::new().with(PolicyRule::MacLearning);
    let spec = scenario
        .flow_between(
            fabric.members[0],
            fabric.members[1],
            AppClass::Https,
            1,
            None,
            DemandModel::Cbr(Rate::mbps(100.0)),
        )
        .unwrap();
    scenario
        .explicit_flows
        .push((SimTime::from_millis(500), spec));
    // No stats export: it syncs every flow too and would mask the scan.
    let config = SimConfig::default().with_stats_epoch(None);
    let mut sim = Simulation::new(scenario, config).expect("valid");
    let hub = fabric.edges[0];
    let idle_timed = |sim: &Simulation| {
        sim.fluid()
            .switch(hub)
            .and_then(|sw| sw.table(horse::types::TableId(1)))
            .map_or(0, |t| {
                t.entries()
                    .filter(|e| e.idle_timeout == SimDuration::from_secs(1))
                    .count()
            })
    };
    for scan in 1..=6 {
        sim.run_until(SimTime::from_secs(scan));
        assert_eq!(sim.fluid().active_flow_count(), 1, "the flow never ends");
        assert_eq!(
            idle_timed(&sim),
            1,
            "the scan at {scan} s expired the live flow's flood entry"
        );
    }
}

/// Forwards the callbacks a fault-free run makes (start, flow-in, stats,
/// timer) to the policy generator and keeps the largest port `tx_bytes`
/// of each stats reply, with its arrival time.
struct PortStatsSpy {
    inner: Box<dyn Controller>,
    seen: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, u64)>>>,
}

impl Controller for PortStatsSpy {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.inner.on_start(ctx, out)
    }
    fn on_flow_in(
        &mut self,
        switch: NodeId,
        in_port: horse::types::PortNo,
        key: &FlowKey,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        self.inner.on_flow_in(switch, in_port, key, ctx, out)
    }
    fn on_stats(
        &mut self,
        switch: NodeId,
        reply: &StatsReply,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        if let StatsReply::Port(rows) = reply {
            let tx = rows.iter().map(|r| r.tx_bytes).max().unwrap_or(0);
            self.seen.borrow_mut().push((ctx.now, tx));
        }
        self.inner.on_stats(switch, reply, ctx, out)
    }
    fn on_timer(&mut self, token: u64, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.inner.on_timer(token, ctx, out)
    }
}

/// An adaptive load balancer polls the edge port counters every 5 s. A
/// lone open-ended 1 Gbit/s flow starts at 1 s and nothing recomputes
/// its rate afterwards; the poll must still see the bytes it moved.
#[test]
fn adaptive_poll_of_a_quiet_path_sees_its_bytes() {
    let f = builders::ixp_fabric(&IxpFabricParams {
        members: 4,
        edge_switches: 2,
        core_switches: 2,
        ..Default::default()
    });
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(6));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing {
        mode: LbMode::Adaptive,
    });
    let flow = s
        .flow_between(
            f.members[0],
            f.members[1],
            AppClass::Https,
            4000,
            None,
            DemandModel::Cbr(Rate::gbps(1.0)),
        )
        .unwrap();
    s.explicit_flows.push((SimTime::from_secs(1), flow));
    // No stats export or expiry scan: both sync every flow and would
    // refresh the counters right before the poll.
    let config = SimConfig::default()
        .with_stats_epoch(None)
        .with_expiry_scan(None);
    let seen = std::rc::Rc::default();
    let spy = PortStatsSpy {
        inner: Box::new(PolicyGenerator::new(s.policy.clone(), &s.topology).unwrap()),
        seen: std::rc::Rc::clone(&seen),
    };
    let r = Simulation::with_controller(s, config, Box::new(spy))
        .expect("valid")
        .run();
    assert_eq!(r.flows_active_at_end, 1);
    let seen = seen.borrow();
    assert!(!seen.is_empty(), "the 5 s poll produced port stats");
    // 4 s at 1 Gbit/s since the flow started.
    let moved = 4.0 * 1e9 / 8.0;
    for &(at, tx) in seen.iter() {
        assert!(
            tx as f64 >= moved,
            "poll at {at:?} read {tx} tx bytes, the flow had moved {moved}"
        );
    }
}

/// Fingerprint of a run's deterministic aggregates, floats as bits.
fn result_bits(r: &SimResults) -> [u64; 7] {
    [
        r.events,
        r.epochs,
        r.realloc_runs,
        r.flows_completed,
        r.bytes_delivered.to_bits(),
        r.fct.p50.to_bits(),
        r.fct.p99.to_bits(),
    ]
}

/// The frozen benchmark harness still sets the retired allocator thread
/// count through three doors: the config builder, the sweep spec key and
/// the fork override. Each is accepted and changes nothing.
#[test]
fn retired_engine_threads_surface_is_accepted_and_ignored() {
    let scenario = || Scenario::figure1(SimTime::from_secs(2), 5);
    let serial = Simulation::new(scenario(), SimConfig::default())
        .unwrap()
        .run();
    assert!(serial.flows_completed > 0, "scenario must exercise flows");

    let built = Simulation::new(scenario(), SimConfig::default().with_engine_threads(2))
        .unwrap()
        .run();
    assert_eq!(result_bits(&built), result_bits(&serial), "builder");

    let mut sim = Simulation::new(scenario(), SimConfig::default()).unwrap();
    sim.run_until(SimTime::from_millis(900));
    let snapshot = sim.checkpoint();
    let forked = Simulation::fork(
        &snapshot,
        &ForkSpec {
            engine_threads: Some(2),
            ..Default::default()
        },
    )
    .expect("snapshot forks")
    .run();
    assert_eq!(result_bits(&forked), result_bits(&serial), "fork override");

    let spec = |config: &str| {
        SweepSpec::from_toml(&format!(
            "name = \"retired\"\n[scenario]\nkind = \"ixp\"\nmembers = 6\nhorizon_secs = 0.5\n{config}"
        ))
        .expect("spec parses")
    };
    let plain = run_sweep(&spec(""), 1).unwrap();
    let keyed = run_sweep(&spec("[config]\nengine_threads = 2\n"), 1).unwrap();
    assert!(plain.runs[0].metrics.events > 0);
    assert_eq!(keyed.runs[0].metrics, plain.runs[0].metrics, "spec key");
}
