//! Property tests for the topology generator suite: every generated
//! topology — whatever the family, shape or seed — must be connected,
//! have fully symmetric cables, carry unique names/MACs/IPs, and build
//! byte-identically from the same parameters.

use horse_topology::generators::{generate, GeneratorParams, TopologyKind};
use horse_topology::routing::{shortest_path, Metric};
use horse_topology::{builders, Topology, TopologySpec};
use horse_types::{LinkId, NodeId, PortNo, Rate};
use proptest::prelude::*;
use std::collections::HashSet;

const FAMILIES: [TopologyKind; 5] = [
    TopologyKind::FatTree,
    TopologyKind::LeafSpine,
    TopologyKind::Jellyfish,
    TopologyKind::Linear,
    TopologyKind::Ring,
];

/// Shapes the sampled index space into valid per-family parameters.
fn params_for(family: usize, size: usize, seed: u64) -> GeneratorParams {
    let kind = FAMILIES[family % FAMILIES.len()];
    GeneratorParams {
        kind,
        fat_tree_k: [2, 4, 6, 8][size % 4],
        leaves: 1 + size,
        spines: 1 + size % 3,
        hosts_per_leaf: 1 + size,
        oversubscription: [0.5, 1.0, 2.0, 4.0][size % 4],
        switches: 3 + size * 3,
        degree: 2 + size,
        hosts: size * 7, // 0 hosts is a legal (traffic-less) topology
        seed,
        ..Default::default()
    }
}

fn assert_connected(t: &Topology) {
    let Some((first, _)) = t.nodes().next() else {
        return;
    };
    for (id, n) in t.nodes() {
        assert!(
            shortest_path(t, first, id, Metric::Hops).is_some(),
            "node {} ({}) unreachable",
            id,
            n.name
        );
    }
}

fn assert_symmetric_cables(t: &Topology) {
    for (id, l) in t.links() {
        let rev = t
            .reverse_of(id)
            .unwrap_or_else(|| panic!("link {id} has no reverse"));
        let r = t.link(rev).unwrap();
        assert_eq!((l.src, l.src_port), (r.dst, r.dst_port));
        assert_eq!((l.dst, l.dst_port), (r.src, r.src_port));
        assert_eq!(l.capacity, r.capacity, "asymmetric capacity on {id}");
        assert_eq!(l.delay, r.delay, "asymmetric delay on {id}");
    }
}

/// The adjacency contract: `out_links`, `ports`, `link_from` and
/// `reverse_of` agree with a brute-force scan of `links()` (out-links in
/// ascending id order, the i-th through port i + 1; a cable's links are
/// `id` and `id ^ 1`), unknown nodes or ports resolve to `None`, and a
/// spec round trip rebuilds every link at the same id.
fn assert_port_lookups_match_scan(t: &Topology) {
    for (id, _) in t.nodes() {
        let out: Vec<LinkId> = t.out_links(id).map(|(lid, _)| lid).collect();
        let scan: Vec<LinkId> = t
            .links()
            .filter(|(_, l)| l.src == id)
            .map(|(lid, _)| lid)
            .collect();
        assert_eq!(out, scan, "out_links({id})");
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "out_links({id}) ascends"
        );
        let out_ports: Vec<PortNo> = t.out_links(id).map(|(_, l)| l.src_port).collect();
        let dense: Vec<PortNo> = (1..=out.len() as u16).map(PortNo).collect();
        assert_eq!(
            out_ports, dense,
            "out-link i leaves through port i + 1 on {id}"
        );
        assert_eq!(t.ports(id).collect::<Vec<_>>(), dense, "ports({id})");
    }
    for (id, _) in t.nodes() {
        let ports = t.port_count(id) as u16;
        for p in 0..=ports + 1 {
            let port = PortNo(p);
            let scan = t
                .links()
                .find(|(_, l)| l.src == id && l.src_port == port)
                .map(|(lid, _)| lid);
            assert_eq!(t.link_from(id, port), scan, "link_from({id}, {port:?})");
        }
        assert_eq!(t.link_from(id, PortNo(u16::MAX)), None);
    }
    let unknown = NodeId::from_index(t.node_count());
    assert_eq!(t.link_from(unknown, PortNo(1)), None, "unknown node");
    for (id, l) in t.links() {
        let scan = t
            .links()
            .find(|(_, r)| {
                (r.src, r.src_port, r.dst, r.dst_port) == (l.dst, l.dst_port, l.src, l.src_port)
            })
            .map(|(rid, _)| rid);
        assert_eq!(t.reverse_of(id), scan, "reverse_of({id})");
        assert_eq!(t.reverse_of(id), Some(LinkId(id.0 ^ 1)), "reverse_of({id})");
    }
    assert_eq!(t.reverse_of(LinkId::from_index(t.link_count())), None);
    let rebuilt = TopologySpec::from_topology(t)
        .build()
        .expect("a captured topology rebuilds");
    assert_eq!(rebuilt.link_count(), t.link_count());
    for ((id, l), (rid, r)) in t.links().zip(rebuilt.links()) {
        assert_eq!(id, rid);
        assert_eq!(
            (l.src, l.src_port, l.dst, l.dst_port, l.capacity, l.delay),
            (r.src, r.src_port, r.dst, r.dst_port, r.capacity, r.delay),
            "spec round trip of link {id}"
        );
    }
}

fn assert_unique_identity(t: &Topology) {
    let mut names = HashSet::new();
    let mut macs = HashSet::new();
    let mut ips = HashSet::new();
    for (_, n) in t.nodes() {
        assert!(names.insert(n.name.clone()), "duplicate name {}", n.name);
        if let Some(mac) = n.mac() {
            assert!(macs.insert(mac), "duplicate MAC {mac}");
        }
        if let Some(ip) = n.ip() {
            assert!(ips.insert(ip), "duplicate IP {ip}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The four structural invariants hold for every family × shape ×
    /// seed, and the build is reproducible byte-for-byte.
    #[test]
    fn generated_topologies_uphold_invariants(
        family in 0usize..5,
        size in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let params = params_for(family, size, seed);
        let fabric = generate(&params)
            .unwrap_or_else(|e| panic!("{params:?}: {e}"));
        let t = &fabric.topology;

        assert_connected(t);
        assert_symmetric_cables(t);
        assert_port_lookups_match_scan(t);
        assert_unique_identity(t);

        // handles are consistent with the graph
        prop_assert_eq!(fabric.members.len(), t.hosts().count());
        for &m in &fabric.members {
            prop_assert!(t.node(m).unwrap().kind.is_host());
        }
        for &sw in fabric.edges.iter().chain(fabric.cores.iter()) {
            prop_assert!(t.node(sw).unwrap().kind.is_switch());
        }

        // byte-identical rebuild from the same parameters
        let a = serde_json::to_string(&TopologySpec::from_topology(t)).unwrap();
        let again = generate(&params).unwrap();
        let b = serde_json::to_string(&TopologySpec::from_topology(&again.topology)).unwrap();
        prop_assert_eq!(a, b, "same params + seed must rebuild identically");
    }
}

#[test]
fn shipped_wan_graphs_uphold_invariants() {
    for file in ["abilene.json", "geant.json", "nsfnet.json"] {
        let path = std::path::Path::new("../../examples/topologies").join(file);
        let spec = horse_topology::generators::load_topology_spec(&path)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let params = GeneratorParams {
            kind: TopologyKind::Wan,
            wan: Some(spec),
            hosts_per_pop: 2,
            ..Default::default()
        };
        let fabric = generate(&params).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_connected(&fabric.topology);
        assert_symmetric_cables(&fabric.topology);
        assert_port_lookups_match_scan(&fabric.topology);
        assert_unique_identity(&fabric.topology);
        assert!(!fabric.members.is_empty(), "{file}: no hosts attached");
        // reproducible load + build
        let a = serde_json::to_string(&TopologySpec::from_topology(&fabric.topology)).unwrap();
        let again = generate(&params).unwrap();
        let b = serde_json::to_string(&TopologySpec::from_topology(&again.topology)).unwrap();
        assert_eq!(a, b, "{file}: WAN build must be reproducible");
    }
}

#[test]
fn builder_fabrics_resolve_ports_like_a_scan() {
    let ixp = builders::ixp_fabric(&builders::IxpFabricParams::default());
    for t in [
        &ixp.topology,
        &builders::figure1_fabric().topology,
        &builders::star(5, Rate::gbps(1.0)).topology,
        &builders::linear(4, Rate::gbps(1.0)).topology,
        &Topology::new(),
    ] {
        assert_port_lookups_match_scan(t);
    }
    // A lookup between two `connect`s sees the links added so far.
    let mut t = builders::star(2, Rate::gbps(1.0)).topology;
    assert_port_lookups_match_scan(&t);
    let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
    t.connect(a, b, Rate::gbps(1.0), Default::default())
        .unwrap();
    assert_port_lookups_match_scan(&t);
}
