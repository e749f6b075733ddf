//! The path database policy modules consult.
//!
//! Built once per topology (and rebuilt on port-status changes), it caches
//! host locations and answers "which egress port at switch S leads toward
//! host H" — the primitive every forwarding policy compiles down to.

use horse_topology::routing::{dist_to, k_shortest_paths, shortest_path, sssp, Metric, Path};
use horse_topology::Topology;
use horse_types::{MacAddr, NodeId, PortNo};
use std::collections::HashMap;

/// Cached paths over a topology snapshot. The default is the empty
/// database: no hosts, every query answers `None`.
#[derive(Default)]
pub struct PathDb {
    /// All host node ids, sorted.
    hosts: Vec<NodeId>,
    /// MAC → host node.
    mac_to_host: HashMap<MacAddr, NodeId>,
    /// Host → the edge switch it attaches to (via its first up link).
    attachment: HashMap<NodeId, (NodeId, PortNo)>,
    /// `(switch, dst host)` → egress port on the deterministic shortest
    /// path.
    next_hop: HashMap<(NodeId, NodeId), PortNo>,
    /// `(switch, dst host)` → every equal-cost egress port (ECMP set).
    ecmp_ports: HashMap<(NodeId, NodeId), Vec<PortNo>>,
}

// Checkpoints serialize the database rather than rebuilding it: between a
// port-status change and the (latency-delayed) controller callback the
// cached paths intentionally reflect the OLD topology, and a resumed run
// must reproduce that staleness window exactly.
horse_types::impl_snap_struct!(PathDb {
    hosts,
    mac_to_host,
    attachment,
    next_hop,
    ecmp_ports,
});

impl PathDb {
    /// Builds the database from the current topology state (down links are
    /// excluded, so rebuilding after a failure yields repaired paths).
    pub fn build(topo: &Topology) -> Self {
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let mut mac_to_host = HashMap::new();
        let mut attachment = HashMap::new();
        for &h in &hosts {
            if let Some(mac) = topo.node(h).and_then(|n| n.mac()) {
                mac_to_host.insert(mac, h);
            }
            if let Some((lid, l)) = topo.out_links(h).find(|(_, l)| l.is_up()) {
                let _ = lid;
                attachment.insert(h, (l.dst, l.dst_port));
            }
        }
        let mut next_hop = HashMap::new();
        let mut ecmp_ports = HashMap::new();
        let switches: Vec<NodeId> = topo.switches().collect();
        // ECMP first-hop sets come from one *reverse* shortest-path tree
        // per host: an egress link is in the set iff it steps one unit
        // closer to the host. Identical sets to enumerating every
        // equal-cost path and keeping the first links — but without the
        // enumeration, whose DFS walks the whole radius-d DAG ball and
        // dominated the build on fat-trees (~700 ms at k=8; this build
        // runs at simulation start *and* on every port-status change).
        let reverse: Vec<_> = hosts
            .iter()
            .map(|&h| dist_to(topo, h, Metric::Hops))
            .collect();
        for &sw in &switches {
            // One forward tree per switch answers every next-hop query
            // with the same deterministic (lowest-link-id) path choice
            // as a per-pair `shortest_path` call.
            let tree = sssp(topo, sw, Metric::Hops);
            for (hi, &h) in hosts.iter().enumerate() {
                if let Some(p) = tree.path_to(topo, h) {
                    if let Some(&first_link) = p.links.first() {
                        let port = topo.link(first_link).expect("link exists").src_port;
                        next_hop.insert((sw, h), port);
                    }
                }
                let links = reverse[hi].ecmp_links(topo, sw);
                if !links.is_empty() {
                    let mut ports: Vec<PortNo> = links
                        .iter()
                        .map(|&l| topo.link(l).expect("link exists").src_port)
                        .collect();
                    ports.sort();
                    ports.dedup();
                    ecmp_ports.insert((sw, h), ports);
                }
            }
        }
        PathDb {
            hosts,
            mac_to_host,
            attachment,
            next_hop,
            ecmp_ports,
        }
    }

    /// All hosts.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The host owning a MAC.
    pub fn host_by_mac(&self, mac: MacAddr) -> Option<NodeId> {
        self.mac_to_host.get(&mac).copied()
    }

    /// The `(edge switch, port)` a host attaches to.
    pub fn attachment(&self, host: NodeId) -> Option<(NodeId, PortNo)> {
        self.attachment.get(&host).copied()
    }

    /// Deterministic shortest-path egress port at `switch` toward `host`.
    pub fn next_hop(&self, switch: NodeId, host: NodeId) -> Option<PortNo> {
        self.next_hop.get(&(switch, host)).copied()
    }

    /// All equal-cost egress ports at `switch` toward `host`.
    pub fn ecmp(&self, switch: NodeId, host: NodeId) -> &[PortNo] {
        self.ecmp_ports
            .get(&(switch, host))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// An explicit path visiting `waypoints` in order (shortest segments
    /// in between), for source routing. Returns the concatenated path.
    pub fn via_path(
        &self,
        topo: &Topology,
        src: NodeId,
        waypoints: &[NodeId],
        dst: NodeId,
    ) -> Option<Path> {
        let mut stops = Vec::with_capacity(waypoints.len() + 2);
        stops.push(src);
        stops.extend_from_slice(waypoints);
        stops.push(dst);
        let mut nodes = vec![src];
        let mut links = Vec::new();
        for w in stops.windows(2) {
            let seg = shortest_path(topo, w[0], w[1], Metric::Hops)?;
            if seg.nodes.len() > 1 {
                nodes.extend_from_slice(&seg.nodes[1..]);
                links.extend_from_slice(&seg.links);
            }
        }
        Some(Path { nodes, links })
    }

    /// The k-th shortest path between two nodes (k = 0 is the shortest),
    /// for peering policies that pin alternate routes.
    pub fn kth_path(&self, topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Option<Path> {
        let paths = k_shortest_paths(topo, src, dst, k + 1, Metric::Hops);
        paths.into_iter().nth(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_topology::builders;

    #[test]
    fn next_hop_reaches_every_host() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        assert_eq!(db.hosts().len(), 8);
        for &sw in &f.edges {
            for &h in &f.members {
                assert!(db.next_hop(sw, h).is_some(), "no next hop from {sw} to {h}");
            }
        }
    }

    #[test]
    fn ecmp_width_equals_core_count_for_remote_members() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 3,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        // member 1 attaches to edge 1; from edge 0 it is reachable through
        // each of the 3 cores.
        let remote = f.members[1];
        let ports = db.ecmp(f.edges[0], remote);
        assert_eq!(ports.len(), 3);
    }

    #[test]
    fn attachment_and_mac_lookup() {
        let f = builders::star(3, horse_types::Rate::gbps(1.0));
        let db = PathDb::build(&f.topology);
        let h0 = f.members[0];
        let mac = f.topology.node(h0).unwrap().mac().unwrap();
        assert_eq!(db.host_by_mac(mac), Some(h0));
        let (sw, _port) = db.attachment(h0).unwrap();
        assert_eq!(sw, f.edges[0]);
    }

    #[test]
    fn via_path_respects_waypoints() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let (m0, m1) = (f.members[0], f.members[1]);
        let via_c2 = db
            .via_path(&f.topology, m0, &[f.cores[1]], m1)
            .expect("path exists");
        assert!(via_c2.nodes.contains(&f.cores[1]));
        assert_eq!(via_c2.src(), m0);
        assert_eq!(via_c2.dst(), m1);
    }

    #[test]
    fn kth_path_distinct_from_shortest() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let p0 = db
            .kth_path(&f.topology, f.members[0], f.members[1], 0)
            .unwrap();
        let p1 = db
            .kth_path(&f.topology, f.members[0], f.members[1], 1)
            .unwrap();
        assert_ne!(p0.links, p1.links);
    }

    #[test]
    fn rebuild_after_failure_avoids_dead_link() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let mut topo = f.topology.clone();
        let db = PathDb::build(&topo);
        let m1 = f.members[1];
        let e0 = f.edges[0];
        let old_port = db.next_hop(e0, m1).unwrap();
        // fail the link behind that port
        let dead = topo.link_from(e0, old_port).unwrap();
        topo.set_cable_state(dead, horse_topology::LinkState::Down)
            .unwrap();
        let db2 = PathDb::build(&topo);
        let new_port = db2.next_hop(e0, m1).expect("alternate path exists");
        assert_ne!(new_port, old_port);
    }
}
