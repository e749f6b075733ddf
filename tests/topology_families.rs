//! End-to-end runs over the generated topology families: every family
//! must carry a workload through the full engine (policy install, ECMP
//! groups, admission, allocation, completion), and a fat-tree must
//! actually *use* its multipath — traffic observed on several
//! aggregation uplinks and several core switches, not one deterministic
//! spine.

use horse::prelude::*;

fn run_family(kind: TopologyKind) -> (Scenario, Simulation) {
    let mut params = FabricScenarioParams::default();
    params.generator.kind = kind;
    params.horizon = SimTime::from_secs(2);
    params.load_factor = 2.0;
    params.seed = 3;
    if kind == TopologyKind::Wan {
        let path = std::path::Path::new("examples/topologies/abilene.json");
        params.generator.wan =
            Some(horse::topology::generators::load_topology_spec(path).expect("shipped WAN graph"));
        params.generator.hosts_per_pop = 2;
    }
    let scenario = Scenario::fabric(&params).expect("fabric scenario builds");
    let sim =
        Simulation::new(scenario.clone(), SimConfig::default()).expect("fabric scenario simulates");
    (scenario, sim)
}

#[test]
fn every_family_completes_flows() {
    for kind in [
        TopologyKind::FatTree,
        TopologyKind::LeafSpine,
        TopologyKind::Jellyfish,
        TopologyKind::Linear,
        TopologyKind::Ring,
        TopologyKind::Wan,
    ] {
        let (_, mut sim) = run_family(kind);
        let r = sim.run();
        assert!(r.flows_admitted > 0, "{kind}: nothing admitted");
        assert!(r.flows_completed > 0, "{kind}: nothing completed");
        assert!(r.bytes_delivered > 0.0, "{kind}: nothing delivered");
    }
}

#[test]
fn fat_tree_multipath_is_actually_used() {
    let (scenario, mut sim) = run_family(TopologyKind::FatTree);
    let r = sim.run();
    assert!(r.flows_completed > 10, "need a real workload to judge");

    // Count the distinct aggregation uplinks (edge→agg) and core
    // switches (agg→core) that carried bytes.
    let topo = &scenario.topology;
    let stats = sim.fluid().link_stats();
    let mut agg_uplinks_used = std::collections::BTreeSet::new();
    let mut cores_used = std::collections::BTreeSet::new();
    for (id, link) in topo.links() {
        if stats[id.index()].bytes <= 0.0 {
            continue;
        }
        let src = &topo.node(link.src).unwrap().name;
        let dst = &topo.node(link.dst).unwrap().name;
        if src.starts_with("edge_") && dst.starts_with("agg_") {
            agg_uplinks_used.insert(id);
        }
        if dst.starts_with("core_") {
            cores_used.insert(dst.clone());
        }
    }
    // k = 4: each edge has 2 agg uplinks and there are 4 cores. ECMP
    // select groups hash flows across them; a single-path setup would
    // light up at most one uplink per edge and one core per agg slot.
    assert!(
        agg_uplinks_used.len() >= 6,
        "only {} edge→agg uplinks carried traffic — multipath unused",
        agg_uplinks_used.len()
    );
    assert!(
        cores_used.len() >= 3,
        "only {cores_used:?} cores carried traffic — multipath unused"
    );
}

/// The k=16 fat-tree's start: the load balancer keeps one select group
/// per ECMP port set, so each of the 128 edge and 128 aggregation
/// switches holds exactly one (its up-port set) and the cores none, and
/// start sends 328,256 messages: 320 table-0 fall-throughs, 327,680
/// forwarding entries (320 switches × 1,024 hosts) and the 256 groups.
/// Too slow for the debug suite; CI runs it in release with `--ignored`.
#[test]
#[ignore = "k=16 start; run in release with --ignored"]
fn fat_tree_k16_group_census() {
    let mut params = FabricScenarioParams::default();
    params.generator.kind = TopologyKind::FatTree;
    params.generator.fat_tree_k = 16;
    params.horizon = SimTime::from_millis(100);
    let scenario = Scenario::fabric(&params).expect("fat-tree builds");
    let mut sim = Simulation::new(scenario.clone(), SimConfig::default()).expect("simulates");
    let r = sim.run();
    assert_eq!(r.msgs_to_switch, 328_256);
    let topo = &scenario.topology;
    let mut groups = 0;
    for sw in topo.switches() {
        let of = sim.fluid().switch(sw).expect("switch exists");
        let held = (1..)
            .take_while(|&g| of.group(horse::openflow::GroupId(g)).is_some())
            .count();
        let name = &topo.node(sw).expect("node exists").name;
        let want = usize::from(!name.starts_with("core_"));
        assert_eq!(held, want, "{name}");
        groups += held;
    }
    assert_eq!(groups, 256);
    assert!(r.flows_completed > 0, "traffic crossed the groups");
}

#[test]
fn oversubscription_throttles_leaf_spine() {
    // The same workload through a non-blocking and an 8:1-oversubscribed
    // leaf-spine: the oversubscribed fabric must deliver no more, and
    // its uplinks must be the bottleneck (strictly fewer bytes through).
    let run = |oversub: f64| {
        let mut params = FabricScenarioParams::default();
        params.generator.kind = TopologyKind::LeafSpine;
        params.generator.oversubscription = oversub;
        params.horizon = SimTime::from_secs(2);
        // offer well above the oversubscribed uplink capacity
        params.offered_bps = Some(60e9);
        params.sizes = FlowSizeDist::Fixed { bytes: 50_000_000 };
        params.seed = 5;
        let scenario = Scenario::fabric(&params).unwrap();
        let mut sim = Simulation::new(scenario, SimConfig::default()).unwrap();
        sim.run().bytes_delivered
    };
    let full = run(1.0);
    let throttled = run(8.0);
    assert!(
        throttled < full * 0.75,
        "8:1 oversubscription should bottleneck: {throttled:.3e} vs {full:.3e}"
    );
}
