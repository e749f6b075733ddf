//! F1 — the paper's Figure 1 as an executable integration test: all five
//! policy classes coexist on the edge/core fabric and each shapes traffic
//! as specified, with the composition validator holding the whole thing
//! together.

use horse::controlplane::{validate_rules, PolicyGenerator};
use horse::dataplane::DemandModel;
use horse::prelude::*;

fn fig1_scenario() -> Scenario {
    let mut s = Scenario::figure1(SimTime::from_secs(20), 1);
    s.workload = None;
    s
}

fn run_one_flow(scenario: &mut Scenario, src: usize, dst: usize, app: AppClass) -> SimResults {
    let spec = scenario
        .flow_between(
            scenario.members[src],
            scenario.members[dst],
            app,
            12_345,
            Some(ByteSize::mib(16)),
            DemandModel::Greedy,
        )
        .expect("members exist");
    scenario.explicit_flows.push((SimTime::from_secs(1), spec));
    let mut sim = Simulation::new(scenario.clone(), SimConfig::default()).expect("valid");
    sim.run()
}

#[test]
fn compiled_rules_are_conflict_free() {
    let s = fig1_scenario();
    let mut gen = PolicyGenerator::new(s.policy.clone(), &s.topology).expect("valid");
    let out = gen.compile(&s.topology);
    let report = validate_rules(&out.msgs);
    assert!(report.is_ok(), "{report}");
    // all five policy modules plus plumbing and forwarding contributed
    assert!(out.msgs.len() > 20, "only {} messages", out.msgs.len());
}

#[test]
fn rate_limit_polices_tcp_at_three_quarters() {
    let mut s = fig1_scenario();
    let r = run_one_flow(&mut s, 1, 3, AppClass::Https); // m2 -> m4
    assert_eq!(r.flows_completed, 1);
    // 500 Mbps policer, TCP AIMD penalty => 375 Mbps
    assert!(
        (r.goodput.p50 - 375e6).abs() < 2e6,
        "goodput {} != 375 Mbps",
        r.goodput.p50
    );
}

#[test]
fn blackhole_swallows_victim_traffic() {
    let mut s = fig1_scenario();
    let r = run_one_flow(&mut s, 0, 1, AppClass::Https); // m1 -> m2 (victim)
    assert_eq!(r.flows_completed, 0);
    assert_eq!(r.flows_dropped, 1);
}

#[test]
fn source_routing_pins_the_waypoint_core() {
    let mut s = fig1_scenario();
    let spec = s
        .flow_between(
            s.members[0],
            s.members[3],
            AppClass::Https,
            5_000,
            None,
            DemandModel::Cbr(Rate::mbps(100.0)),
        )
        .unwrap();
    s.explicit_flows.push((SimTime::from_secs(1), spec));
    let mut sim = Simulation::new(s.clone(), SimConfig::default()).expect("valid");
    let _ = sim.run();
    // the flow must traverse c2 (the spec says via c2)
    let c2 = s.topology.node_by_name("c2").unwrap();
    let mut crossed_c2 = false;
    for (lid, l) in s.topology.links() {
        if l.src == c2 {
            let stats = sim.fluid().link_stats()[lid.index()];
            if stats.bytes > 0.0 {
                crossed_c2 = true;
            }
        }
    }
    assert!(crossed_c2, "source-routed flow must cross c2");
}

#[test]
fn app_peering_separates_http_from_other_traffic() {
    // m1 -> m3: http is pinned to the rank-1 path, https follows LB
    let mut s = fig1_scenario();
    for (port, app) in [(20_001u16, AppClass::Http), (20_002, AppClass::Https)] {
        let spec = s
            .flow_between(
                s.members[0],
                s.members[2],
                app,
                port,
                None,
                DemandModel::Cbr(Rate::mbps(50.0)),
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
    }
    let mut sim = Simulation::new(s.clone(), SimConfig::default()).expect("valid");
    let _ = sim.run();
    let fluid = sim.fluid();
    // find the two active flows
    let flows: Vec<_> = (0..10u64)
        .filter_map(|i| fluid.flow(horse::types::FlowId(i)))
        .collect();
    assert_eq!(flows.len(), 2, "both CBR flows still active");
    let http = flows.iter().find(|f| f.spec.key.tp_dst == 80).unwrap();
    let https = flows.iter().find(|f| f.spec.key.tp_dst == 443).unwrap();

    // the http flow must follow exactly the pinned rank-1 path…
    let db = horse::controlplane::PathDb::build(&s.topology);
    let pinned = db
        .kth_path(&s.topology, s.members[0], s.members[2], 1)
        .expect("rank-1 path exists");
    assert_eq!(
        http.route.links, pinned.links,
        "http must ride the pinned alternate path"
    );
    // …matched by app-peering rules (cookie namespace), while https is
    // matched by plain forwarding rules.
    use horse::controlplane::cookies;
    let http_ns: Vec<u64> = http.route.hops[0]
        .matched
        .iter()
        .map(|m| cookies::namespace(m.cookie))
        .collect();
    assert!(
        http_ns.contains(&cookies::APP_PEERING),
        "http hop must match an app-peering rule, got {http_ns:?}"
    );
    let https_ns: Vec<u64> = https.route.hops[0]
        .matched
        .iter()
        .map(|m| cookies::namespace(m.cookie))
        .collect();
    assert!(
        !https_ns.contains(&cookies::APP_PEERING),
        "https must not match the peering rule, got {https_ns:?}"
    );
}

#[test]
fn validator_blocks_bad_composition_end_to_end() {
    let mut s = fig1_scenario();
    s.policy = s.policy.clone().with(PolicyRule::MacForwarding); // second forwarding owner
    assert!(Simulation::new(s, SimConfig::default()).is_err());
}
