//! Link-failure dynamics across the full stack: failure event → port
//! status → controller path recomputation → rule replacement → traffic
//! continues on the surviving path.

use horse::controlplane::{PathDb, PolicyGenerator};
use horse::dataplane::DemandModel;
use horse::prelude::*;
use horse::topology::LinkState;

fn two_core_fabric() -> horse::topology::builders::FabricHandles {
    builders::ixp_fabric(&IxpFabricParams {
        members: 4,
        edge_switches: 2,
        core_switches: 2,
        member_port_speeds: vec![Rate::gbps(10.0)],
        uplink_speed: Rate::gbps(10.0),
        ..Default::default()
    })
}

fn uplink_of(fabric: &horse::topology::builders::FabricHandles, edge: usize) -> LinkId {
    fabric
        .topology
        .out_links(fabric.edges[edge])
        .find(|(_, l)| {
            fabric
                .topology
                .node(l.dst)
                .map(|n| n.kind.is_switch())
                .unwrap_or(false)
        })
        .map(|(id, _)| id)
        .expect("uplink exists")
}

#[test]
fn ecmp_fabric_survives_single_uplink_failure() {
    let fabric = two_core_fabric();
    let cable = uplink_of(&fabric, 0);
    let mut s = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(20));
    s.members = fabric.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
    for i in 0..6u16 {
        let spec = s
            .flow_between(
                fabric.members[0],
                fabric.members[1],
                AppClass::Https,
                1_000 + i * 13,
                None,
                DemandModel::Cbr(Rate::mbps(200.0)),
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
    }
    s.failures.push((SimTime::from_secs(10), cable, false));
    let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
    let r = sim.run();
    assert_eq!(r.flows_dropped, 0, "all flows reroute through core 2");
    assert_eq!(r.flows_active_at_end, 6);
    // 6 × 200 Mbps × 19 s ≈ 2.85 GB; the failover transient is sub-second
    assert!(
        r.bytes_delivered > 0.95 * (6.0 * 200e6 * 19.0 / 8.0),
        "delivered {}",
        r.bytes_delivered
    );
}

#[test]
fn single_path_fabric_drops_and_recovers() {
    // a chain has no alternate path: flows die with the cable and a
    // re-injected flow works again after recovery
    let fabric = builders::linear(2, Rate::gbps(1.0));
    let cable = fabric
        .topology
        .out_links(fabric.edges[0])
        .find(|(_, l)| {
            fabric
                .topology
                .node(l.dst)
                .map(|n| n.kind.is_switch())
                .unwrap_or(false)
        })
        .map(|(id, _)| id)
        .unwrap();
    let mut s = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(30));
    s.members = fabric.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    let mk = |port: u16| {
        let mut sc = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(30));
        sc.members = fabric.members.clone();
        sc.flow_between(
            fabric.members[0],
            fabric.members[1],
            AppClass::Https,
            port,
            None,
            DemandModel::Cbr(Rate::mbps(100.0)),
        )
        .unwrap()
    };
    s.explicit_flows.push((SimTime::from_secs(1), mk(1)));
    s.failures.push((SimTime::from_secs(5), cable, false));
    s.failures.push((SimTime::from_secs(10), cable, true));
    // a second flow starts after recovery
    s.explicit_flows.push((SimTime::from_secs(15), mk(2)));
    let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
    let r = sim.run();
    // first flow died at the failure (no alternate path)
    assert_eq!(r.flows_dropped, 1);
    // second flow runs to the horizon
    assert_eq!(r.flows_active_at_end, 1);
    // delivered ≈ 4 s (flow 1) + 15 s (flow 2) at 100 Mbps
    let expected = (4.0 + 15.0) * 100e6 / 8.0;
    assert!(
        (r.bytes_delivered - expected).abs() < 0.1 * expected,
        "delivered {} vs {expected}",
        r.bytes_delivered
    );
}

#[test]
fn controller_sees_port_status_and_reinstalls() {
    let fabric = two_core_fabric();
    let cable = uplink_of(&fabric, 0);
    let mut s = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(10));
    s.members = fabric.members.clone();
    let policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    s.policy = policy.clone();
    s.failures.push((SimTime::from_secs(2), cable, false));
    let mut sim = Simulation::new(s, SimConfig::default()).expect("valid");
    let r = sim.run();
    // two PortStatus messages (one per endpoint switch) reached the
    // controller
    assert_eq!(r.msgs_to_controller, 2);

    // What it pushed back down is the path delta, not a recompile: one
    // entry per dirty (switch, member) cell — the cut uplink was every
    // such cell's lowest-id next hop, so each one's entry moved. The
    // first report finds them all; the second finds nothing left to do.
    let compile = PolicyGenerator::new(policy, &fabric.topology)
        .expect("valid")
        .compile(&fabric.topology)
        .msgs
        .len() as u64;
    let mut cut = fabric.topology.clone();
    cut.set_cable_state(cable, LinkState::Down).unwrap();
    let dirty = PathDb::build(&cut).dirty_cells(&PathDb::build(&fabric.topology));
    assert_eq!((compile, dirty.len()), (20, 6));
    assert_eq!(r.msgs_to_switch, compile + dirty.len() as u64);
}
