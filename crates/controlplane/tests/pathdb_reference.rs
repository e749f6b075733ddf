//! The dense path database against the per-pair reference it replaces a
//! loop over: on random fat-tree / jellyfish / WAN fabrics with random
//! cables down — partitions included — every `(switch, host)` cell must
//! answer what `shortest_path` and `ecmp_paths` answer for that pair.

use horse_controlplane::PathDb;
use horse_topology::generators::{generate, load_topology_spec, GeneratorParams, TopologyKind};
use horse_topology::routing::{ecmp_paths, shortest_path, Metric};
use horse_topology::{LinkState, Topology};
use horse_types::{LinkId, NodeId, PortNo};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn fabric(family: usize, size: usize, seed: u64) -> Topology {
    let params = match family % 3 {
        0 => GeneratorParams {
            kind: TopologyKind::FatTree,
            fat_tree_k: [2, 4][size % 2],
            ..Default::default()
        },
        1 => GeneratorParams {
            kind: TopologyKind::Jellyfish,
            switches: 6 + size * 2,
            degree: 3 + size % 2,
            hosts: 4 + size * 3,
            seed,
            ..Default::default()
        },
        _ => {
            let name = ["abilene", "nsfnet"][size % 2];
            let path = format!(
                "{}/../../examples/topologies/{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            GeneratorParams {
                kind: TopologyKind::Wan,
                wan: Some(load_topology_spec(std::path::Path::new(&path)).expect("shipped graph")),
                hosts_per_pop: 1 + size % 2,
                ..Default::default()
            }
        }
    };
    generate(&params).expect("family generates").topology
}

fn port_of(topo: &Topology, link: LinkId) -> PortNo {
    topo.link(link).expect("path link exists").src_port
}

fn assert_matches_reference(topo: &Topology) {
    let db = PathDb::build(topo);
    let hosts: Vec<NodeId> = topo.hosts().collect();
    assert_eq!(db.hosts(), hosts.as_slice());
    for &h in &hosts {
        let access = topo.out_links(h).find(|(_, l)| l.is_up());
        assert_eq!(
            db.attachment(h),
            access.map(|(_, l)| (l.dst, l.dst_port)),
            "attachment of {h}"
        );
        for sw in topo.switches() {
            let path = shortest_path(topo, sw, h, Metric::Hops);
            let want_hop = path.and_then(|p| p.links.first().map(|&l| port_of(topo, l)));
            assert_eq!(db.next_hop(sw, h), want_hop, "next hop {sw} -> {h}");
            let want_ecmp: BTreeSet<PortNo> = ecmp_paths(topo, sw, h, 1 << 16)
                .iter()
                .filter_map(|p| p.links.first().map(|&l| port_of(topo, l)))
                .collect();
            let want_ecmp: Vec<PortNo> = want_ecmp.into_iter().collect();
            assert_eq!(db.ecmp(sw, h), want_ecmp.as_slice(), "ECMP set {sw} -> {h}");
            if want_hop.is_none() {
                assert!(db.ecmp(sw, h).is_empty(), "unreachable {sw} -> {h}");
            }
        }
        // a host is not a row, a switch is not a column
        assert_eq!(db.next_hop(h, h), None);
        assert!(db.ecmp(h, h).is_empty());
    }
    for sw in topo.switches() {
        assert_eq!(db.next_hop(sw, sw), None);
        assert_eq!(db.attachment(sw), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_pathdb_equals_per_pair_reference(
        family in 0usize..3,
        size in 0usize..4,
        seed in 1u64..u64::MAX,
        down_pct in 0u64..4,
    ) {
        let mut topo = fabric(family, size, seed);
        assert_matches_reference(&topo);
        // Each cable goes down with probability 5 / 20 / 50 / 80 %: the
        // low end reroutes, the high end partitions.
        let pct = [5, 20, 50, 80][down_pct as usize];
        let mut x = seed | 1;
        let cables: Vec<LinkId> = topo.links().map(|(id, _)| id).collect();
        for id in cables {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 100 < pct {
                topo.set_cable_state(id, LinkState::Down).expect("cable exists");
            }
        }
        assert_matches_reference(&topo);
    }
}
