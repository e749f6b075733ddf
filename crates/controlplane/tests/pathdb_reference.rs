//! The dense path database against the references it replaces: on random
//! fat-tree / leaf-spine / jellyfish / WAN fabrics with random cables or
//! single link directions down — partitions included — every
//! `(switch, host)` cell must answer what `shortest_path` and
//! `ecmp_paths` answer for that pair; and on a k=16 fat-tree (ignored in
//! the debug suite) every cell must equal a per-host build, one reverse
//! Dijkstra per host.

use horse_controlplane::PathDb;
use horse_topology::generators::{generate, load_topology_spec, GeneratorParams, TopologyKind};
use horse_topology::routing::{ecmp_paths, shortest_path, Metric};
use horse_topology::{LinkState, Topology};
use horse_types::{LinkId, MacAddr, NodeId, PortNo, Rate, SimDuration};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

fn fabric(family: usize, size: usize, seed: u64) -> Topology {
    let params = match family % 4 {
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
        2 => {
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
        _ => GeneratorParams {
            kind: TopologyKind::LeafSpine,
            leaves: 2 + size,
            spines: 1 + size % 3,
            hosts_per_leaf: 1 + size % 2,
            oversubscription: 1.0,
            ..Default::default()
        },
    };
    generate(&params).expect("family generates").topology
}

/// Four switches in a ring with one chord, a single-homed host on each of
/// three, one host cabled to two switches (a WAN spec may define such a
/// host) and one host with no links at all.
fn hand_built() -> Topology {
    let mut t = Topology::new();
    let (c, d) = (Rate::gbps(10.0), SimDuration::from_micros(1));
    let sw: Vec<NodeId> = (0..4)
        .map(|i| t.add_edge_switch(&format!("s{i}")).expect("fresh name"))
        .collect();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
        t.connect(sw[a], sw[b], c, d).expect("ports left");
    }
    let host = |t: &mut Topology, i: u32| {
        let ip = format!("10.0.0.{}", i + 1).parse().expect("ip");
        t.add_host(&format!("h{i}"), MacAddr::local_from_id(i), ip)
            .expect("fresh host")
    };
    for (i, &s) in sw[..3].iter().enumerate() {
        let h = host(&mut t, i as u32);
        t.connect(h, s, c, d).expect("ports left");
    }
    let multi = host(&mut t, 10);
    t.connect(multi, sw[1], c, d).expect("ports left");
    t.connect(multi, sw[3], c, d).expect("ports left");
    host(&mut t, 11);
    t
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

/// Every host's access link, each direction down on its own (the
/// attachment then still hears the host, or the host still hears it).
fn assert_matches_with_each_access_direction_down(base: &Topology) {
    let hosts: Vec<NodeId> = base.hosts().collect();
    for h in hosts {
        let access: Vec<LinkId> = base.out_links(h).map(|(id, _)| id).collect();
        for out in access {
            let into = base.reverse_of(out).expect("cable");
            for down in [out, into] {
                let mut t = base.clone();
                t.set_link_state(down, LinkState::Down)
                    .expect("link exists");
                assert_matches_reference(&t);
            }
        }
    }
}

#[test]
fn multi_homed_and_isolated_hosts_match_reference() {
    let base = hand_built();
    assert_matches_reference(&base);
    for (down, _) in base.links() {
        let mut t = base.clone();
        t.set_link_state(down, LinkState::Down)
            .expect("link exists");
        assert_matches_reference(&t);
    }
}

#[test]
fn each_direction_of_an_access_link_matches_reference() {
    for family in [0, 3] {
        assert_matches_with_each_access_direction_down(&fabric(family, 1, 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_pathdb_equals_per_pair_reference(
        family in 0usize..4,
        size in 0usize..4,
        seed in 1u64..u64::MAX,
        down_pct in 0u64..4,
        one_way in 0u8..2,
    ) {
        let mut topo = fabric(family, size, seed);
        assert_matches_reference(&topo);
        // Each cable (or, `one_way`, each link direction) goes down with
        // probability 5 / 20 / 50 / 80 %: the low end reroutes, the high
        // end partitions.
        let pct = [5, 20, 50, 80][down_pct as usize];
        let mut x = seed | 1;
        let links: Vec<LinkId> = topo.links().map(|(id, _)| id).collect();
        for id in links {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 100 < pct {
                if one_way == 1 {
                    topo.set_link_state(id, LinkState::Down).expect("link exists");
                } else {
                    topo.set_cable_state(id, LinkState::Down).expect("cable exists");
                }
            }
        }
        assert_matches_reference(&topo);
    }
}

/// Hop-count Dijkstra from `root` over `edges[node] = [(link, next)]`
/// (ascending link ids): each node's distance, and the first link of its
/// path, where the lowest-id link among equal-cost ones into a node sets
/// its path.
fn heap_walk(
    edges: &[Vec<(LinkId, NodeId)>],
    root: NodeId,
) -> (Vec<Option<u32>>, Vec<Option<LinkId>>) {
    let n = edges.len();
    let (mut dist, mut prev, mut first) = (vec![None; n], vec![None; n], vec![None; n]);
    let mut heap = BinaryHeap::from([Reverse((0u32, root))]);
    dist[root.index()] = Some(0);
    while let Some(Reverse((d, node))) = heap.pop() {
        if dist[node.index()] < Some(d) {
            continue;
        }
        let first_here: Option<LinkId> = first[node.index()];
        for &(lid, next) in &edges[node.index()] {
            let i = next.index();
            let shorter = dist[i].is_none_or(|old| d + 1 < old);
            if shorter || (dist[i] == Some(d + 1) && Some(lid) < prev[i]) {
                dist[i] = Some(d + 1);
                prev[i] = Some(lid);
                first[i] = first_here.or(Some(lid));
                if shorter {
                    heap.push(Reverse((d + 1, next)));
                }
            }
        }
    }
    (dist, first)
}

/// The per-host build the dense database replaced: a forward walk per
/// switch for the next hops, a reverse walk per host for the ECMP sets.
/// Indexed `[row][column]` like the database, each cell a next hop and an
/// ECMP set.
fn per_host_build(topo: &Topology) -> Vec<Vec<(Option<PortNo>, Vec<PortNo>)>> {
    let mut out_edges = vec![Vec::new(); topo.node_count()];
    let mut in_edges = vec![Vec::new(); topo.node_count()];
    for (id, l) in topo.links().filter(|(_, l)| l.is_up()) {
        out_edges[l.src.index()].push((id, l.dst));
        in_edges[l.dst.index()].push((id, l.src));
    }
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let reverse: Vec<Vec<Option<u32>>> = hosts.iter().map(|&h| heap_walk(&in_edges, h).0).collect();
    topo.switches()
        .map(|sw| {
            let first = heap_walk(&out_edges, sw).1;
            hosts
                .iter()
                .zip(&reverse)
                .map(|(&h, dist)| {
                    let hop = first[h.index()].map(|l| port_of(topo, l));
                    let here = dist[sw.index()];
                    let ecmp = topo
                        .out_links(sw)
                        .filter(|(_, l)| l.is_up() && here.is_some())
                        .filter(|(_, l)| dist[l.dst.index()].map(|d| d + 1) == here)
                        .map(|(_, l)| l.src_port)
                        .collect();
                    (hop, ecmp)
                })
                .collect()
        })
        .collect()
}

fn assert_matches_per_host_build(topo: &Topology) {
    let db = PathDb::build(topo);
    let want = per_host_build(topo);
    let hosts: Vec<NodeId> = topo.hosts().collect();
    for (sw, row) in topo.switches().zip(&want) {
        for (&h, (hop, ecmp)) in hosts.iter().zip(row) {
            assert_eq!(db.next_hop(sw, h), *hop, "next hop {sw} -> {h}");
            assert_eq!(db.ecmp(sw, h), ecmp.as_slice(), "ECMP set {sw} -> {h}");
        }
    }
}

/// Every one of a k=16 fat-tree's 327,680 cells against the per-host
/// build, intact and with one core uplink down in one direction (the
/// other direction stays up, so the two walks see different graphs).
#[test]
#[ignore = "k=16: about 0.4 s in a release build"]
fn k16_fat_tree_equals_per_host_build() {
    let params = GeneratorParams {
        fat_tree_k: 16,
        ..Default::default()
    };
    let fabric = generate(&params).expect("k=16 generates");
    let mut topo = fabric.topology;
    assert_matches_per_host_build(&topo);
    // the interconnect lists aggregation switches, then cores
    let core = *fabric.cores.last().expect("a core switch");
    let (uplink, _) = topo
        .links()
        .find(|(_, l)| l.dst == core)
        .expect("an aggregation uplink into the core");
    topo.set_link_state(uplink, LinkState::Down)
        .expect("link exists");
    assert_matches_per_host_build(&topo);
}
