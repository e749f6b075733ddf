//! The path database policy modules consult.
//!
//! Built once at start and rebuilt on every topology change, it caches
//! host locations and answers "which egress port at switch S leads toward
//! host H" — the primitive every forwarding policy compiles down to.
//!
//! The answers live in one dense `switch × host` table (rows and columns
//! in ascending node id): a next-hop port per cell and, per cell, the
//! index of its ECMP port set in a list that holds each distinct set
//! once. Next hops come from one breadth-first tree per switch, ECMP sets
//! from one reverse tree per *attachment*: a host with a single cable
//! shares its attachment's tree, so a k=16 fat-tree needs 128 reverse
//! trees for its 1,024 hosts. A rebuild takes about 0.5 ms on a k=8
//! fat-tree, 13 ms on a k=16 one and 0.9 s on a k=32 one (one core of a
//! 2-vCPU VM). Because two builds of the same fabric have the same
//! shape, [`PathDb::dirty_cells`] compares them cell by cell — that diff
//! is what the policy generator installs after a fault instead of
//! recompiling everything.

use horse_topology::routing::{hops_to, k_shortest_paths, shortest_path, sssp, Metric, Path};
use horse_topology::Topology;
use horse_types::{MacAddr, NodeId, PortNo, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;

/// `slot` value of a node id that is neither a row nor a column.
const NO_SLOT: u32 = u32::MAX;

/// Cached paths over a topology snapshot. The default is the empty
/// database: no hosts, every query answers `None`.
#[derive(Default)]
pub struct PathDb {
    /// All host node ids, ascending — the table's columns.
    hosts: Vec<NodeId>,
    /// All switch node ids, ascending — the table's rows.
    switches: Vec<NodeId>,
    /// Node index → its row (switches) or column (hosts). Derived from
    /// the two lists, so it is rebuilt rather than serialized.
    slot: Vec<u32>,
    /// MAC → host node.
    mac_to_host: HashMap<MacAddr, NodeId>,
    /// Per host column: the edge switch it attaches to (via its first up
    /// link).
    attachment: Vec<Option<(NodeId, PortNo)>>,
    /// Per cell (`row * hosts + column`): egress port on the
    /// deterministic shortest path, [`PortNo::NONE`] when unreachable.
    next_hop: Vec<PortNo>,
    /// Per cell: its ECMP set, an index into `set_off`.
    ecmp_set: Vec<u32>,
    /// Per distinct ECMP set: where it starts in `set_ports` (one
    /// trailing entry closes the last set). Set 0 is the empty set.
    set_off: Vec<u32>,
    /// Every distinct set's equal-cost egress ports, ascending within a
    /// set.
    set_ports: Vec<PortNo>,
}

// Checkpoints serialize the database rather than rebuilding it: between a
// port-status change and the (latency-delayed) controller callback the
// cached paths intentionally reflect the OLD topology, and a resumed run
// must reproduce that staleness window exactly.
impl Snap for PathDb {
    fn snap(&self, w: &mut SnapWriter) {
        self.hosts.snap(w);
        self.switches.snap(w);
        self.mac_to_host.snap(w);
        self.attachment.snap(w);
        self.next_hop.snap(w);
        self.ecmp_set.snap(w);
        self.set_off.snap(w);
        self.set_ports.snap(w);
    }

    /// Checks every dimension and index the queries follow, so a
    /// truncated or bit-flipped blob is a [`SnapError`] here and never an
    /// index panic on a later query.
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let at = r.position();
        let bad = |what: &str| SnapError::new(format!("path database: {what}"), at);
        let hosts: Vec<NodeId> = Snap::unsnap(r)?;
        let switches: Vec<NodeId> = Snap::unsnap(r)?;
        let slot = slots(&switches, &hosts).ok_or_else(|| bad("node lists are not a partition"))?;
        let db = PathDb {
            hosts,
            switches,
            slot,
            mac_to_host: Snap::unsnap(r)?,
            attachment: Snap::unsnap(r)?,
            next_hop: Snap::unsnap(r)?,
            ecmp_set: Snap::unsnap(r)?,
            set_off: Snap::unsnap(r)?,
            set_ports: Snap::unsnap(r)?,
        };
        let cells = db.switches.len().checked_mul(db.hosts.len());
        let Some(cells) = cells.filter(|&c| {
            db.attachment.len() == db.hosts.len()
                && db.next_hop.len() == c
                && db.ecmp_set.len() == c
        }) else {
            return Err(bad("table dimensions disagree with the node lists"));
        };
        // `forget_switch` points cells at set 0, so it must be empty
        let offsets_ok = match db.set_off.as_slice() {
            [] => cells == 0 && db.set_ports.is_empty(),
            off => {
                off.len() >= 2
                    && off[..2] == [0, 0]
                    && off.windows(2).all(|w| w[0] <= w[1])
                    && off[off.len() - 1] as usize == db.set_ports.len()
            }
        };
        if !offsets_ok {
            return Err(bad("ECMP set offsets do not tile the port list"));
        }
        let sets = db.set_off.len().saturating_sub(1);
        if db.ecmp_set.iter().any(|&s| s as usize >= sets) {
            return Err(bad("a cell names an ECMP set that does not exist"));
        }
        Ok(db)
    }
}

/// The node-index → row/column map for the given rows and columns, or
/// `None` unless each list is strictly ascending and together they are
/// exactly the ids `0..n` (which also bounds the map by the lists read).
fn slots(switches: &[NodeId], hosts: &[NodeId]) -> Option<Vec<u32>> {
    let mut slot = vec![NO_SLOT; switches.len() + hosts.len()];
    for list in [switches, hosts] {
        if !list.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        for (i, n) in list.iter().enumerate() {
            let s = slot.get_mut(n.index())?;
            if *s != NO_SLOT {
                return None;
            }
            *s = u32::try_from(i).ok()?;
        }
    }
    Some(slot)
}

/// The reverse tree that answers each host column's ECMP sets, as
/// `(root, column, the root's port toward the host)`, sorted by root.
///
/// A host with a single cable whose attachment→host direction is up is
/// one hop past its attachment `a` from every other node (hosts are only
/// entered through their in-links, and its one in-link leaves `a`). So at
/// every switch but `a` its ECMP set is `a`'s, and at `a` it is the port
/// toward the host. Any other host — multi-homed, isolated, or whose one
/// in-link is down — is its own root (the port is then unused).
fn tree_roots(topo: &Topology, hosts: &[NodeId]) -> Vec<(NodeId, usize, PortNo)> {
    let mut roots: Vec<_> = hosts
        .iter()
        .enumerate()
        .map(|(col, &h)| {
            let mut links = topo.out_links(h);
            match (links.next(), links.next()) {
                (Some((out, l)), None)
                    if topo
                        .reverse_of(out)
                        .and_then(|into| topo.link(into))
                        .is_some_and(|into| into.is_up()) =>
                {
                    (l.dst, col, l.dst_port)
                }
                _ => (h, col, PortNo::NONE),
            }
        })
        .collect();
    roots.sort_unstable();
    roots
}

/// Builds the list of distinct ECMP sets, handing out one index per set.
struct SetTable {
    off: Vec<u32>,
    ports: Vec<PortNo>,
    index: HashMap<Vec<PortNo>, u32>,
    scratch: Vec<PortNo>,
}

impl SetTable {
    /// Holds the empty set, as set 0.
    fn new() -> Self {
        SetTable {
            off: vec![0, 0],
            ports: Vec::new(),
            index: HashMap::from([(Vec::new(), 0)]),
            scratch: Vec::new(),
        }
    }

    /// The index of the set of `ports`, adding it if it is new.
    fn intern(&mut self, ports: impl IntoIterator<Item = PortNo>) -> u32 {
        self.scratch.clear();
        self.scratch.extend(ports);
        if let Some(&i) = self.index.get(self.scratch.as_slice()) {
            return i;
        }
        let i = u32::try_from(self.off.len() - 1).expect("ECMP set count fits u32");
        self.ports.extend_from_slice(&self.scratch);
        self.off
            .push(u32::try_from(self.ports.len()).expect("ECMP port list fits u32"));
        self.index.insert(self.scratch.clone(), i);
        i
    }
}

impl PathDb {
    /// Builds the database from the current topology state (down links are
    /// excluded, so rebuilding after a failure yields repaired paths).
    pub fn build(topo: &Topology) -> Self {
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let switches: Vec<NodeId> = topo.switches().collect();
        let slot = slots(&switches, &hosts).expect("every node is a host or a switch");
        let mut mac_to_host = HashMap::new();
        let mut attachment = Vec::with_capacity(hosts.len());
        for &h in &hosts {
            if let Some(mac) = topo.node(h).and_then(|n| n.mac()) {
                mac_to_host.insert(mac, h);
            }
            attachment.push(
                topo.out_links(h)
                    .find(|(_, l)| l.is_up())
                    .map(|(_, l)| (l.dst, l.dst_port)),
            );
        }
        let cols = hosts.len();
        let mut next_hop = Vec::with_capacity(switches.len() * cols);
        for &sw in &switches {
            // One forward tree per switch answers every next-hop query
            // with the same deterministic (lowest-link-id) path choice
            // as a per-pair `shortest_path` call.
            let tree = sssp(topo, sw, Metric::Hops);
            next_hop.extend(hosts.iter().map(|&h| {
                tree.first_link_to(h).map_or(PortNo::NONE, |l| {
                    topo.link(l).expect("link exists").src_port
                })
            }));
        }
        // ECMP first-hop sets come from one reverse tree per root: an
        // egress link is in the set iff it steps one hop closer. Identical
        // sets to enumerating every equal-cost path and keeping the first
        // links — but without the enumeration.
        let mut sets = SetTable::new();
        let mut ecmp_set = vec![0; next_hop.len()];
        for group in tree_roots(topo, &hosts).chunk_by(|a, b| a.0 == b.0) {
            let root = group[0].0;
            let tree = hops_to(topo, root);
            for (row, &sw) in switches.iter().enumerate() {
                // egress links come in port order, so each set is
                // ascending and duplicate-free
                let shared = sets.intern(tree.ecmp_out_links(topo, sw).map(|(_, l)| l.src_port));
                for &(_, col, port) in group {
                    ecmp_set[row * cols + col] = if sw == root {
                        sets.intern([port])
                    } else {
                        shared
                    };
                }
            }
        }
        PathDb {
            hosts,
            switches,
            slot,
            mac_to_host,
            attachment,
            next_hop,
            ecmp_set,
            set_off: sets.off,
            set_ports: sets.ports,
        }
    }

    /// The row of a switch / the column of a host.
    fn index_in(&self, list: &[NodeId], node: NodeId) -> Option<usize> {
        let i = *self.slot.get(node.index())? as usize;
        (list.get(i) == Some(&node)).then_some(i)
    }

    fn cell(&self, switch: NodeId, host: NodeId) -> Option<usize> {
        let row = self.index_in(&self.switches, switch)?;
        let col = self.index_in(&self.hosts, host)?;
        Some(row * self.hosts.len() + col)
    }

    fn ecmp_at(&self, cell: usize) -> &[PortNo] {
        let set = self.ecmp_set[cell] as usize;
        &self.set_ports[self.set_off[set] as usize..self.set_off[set + 1] as usize]
    }

    /// Empties `switch`'s row (no next hop, no ECMP port toward any host):
    /// what the database must say about a switch that rejoined blank, so
    /// that a diff against it re-installs the whole row.
    pub fn forget_switch(&mut self, switch: NodeId) {
        let Some(row) = self.index_in(&self.switches, switch) else {
            return;
        };
        let cols = self.hosts.len();
        let row = row * cols..(row + 1) * cols;
        self.next_hop[row.clone()].fill(PortNo::NONE);
        self.ecmp_set[row].fill(0);
    }

    /// The `(switch, host)` cells whose answers differ from `old`'s, in
    /// ascending `(switch, host)` order: the next hop, the ECMP set, or
    /// the host's attachment changed. Every cell when the two databases
    /// do not describe the same switches and hosts (`old` is the empty
    /// default, say).
    pub fn dirty_cells(&self, old: &PathDb) -> Vec<(NodeId, NodeId)> {
        let same_shape = self.switches == old.switches && self.hosts == old.hosts;
        let cols = self.hosts.len();
        let mut dirty = Vec::new();
        for (row, &sw) in self.switches.iter().enumerate() {
            for (col, &h) in self.hosts.iter().enumerate() {
                let cell = row * cols + col;
                if !same_shape
                    || self.next_hop[cell] != old.next_hop[cell]
                    || self.ecmp_at(cell) != old.ecmp_at(cell)
                    || self.attachment[col] != old.attachment[col]
                {
                    dirty.push((sw, h));
                }
            }
        }
        dirty
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
        self.attachment[self.index_in(&self.hosts, host)?]
    }

    /// Deterministic shortest-path egress port at `switch` toward `host`.
    pub fn next_hop(&self, switch: NodeId, host: NodeId) -> Option<PortNo> {
        Some(self.next_hop[self.cell(switch, host)?]).filter(|&p| p != PortNo::NONE)
    }

    /// All equal-cost egress ports at `switch` toward `host`.
    pub fn ecmp(&self, switch: NodeId, host: NodeId) -> &[PortNo] {
        self.cell(switch, host).map_or(&[], |c| self.ecmp_at(c))
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
    /// Every query, over every node id the topology knows plus one it
    /// does not: must answer, whatever the database holds.
    fn exercise(db: &PathDb, topo: &Topology) {
        let ids: Vec<NodeId> = (0..=topo.node_count()).map(NodeId::from_index).collect();
        for &a in &ids {
            let _ = db.attachment(a);
            for &b in &ids {
                let _ = (db.next_hop(a, b), db.ecmp(a, b));
            }
        }
        let _ = db.dirty_cells(&PathDb::build(topo));
    }

    fn snapped(db: &PathDb) -> Vec<u8> {
        let mut w = SnapWriter::new();
        db.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trips_and_rejects_hostile_bytes() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 6,
            edge_switches: 3,
            core_switches: 2,
            ..Default::default()
        });
        let topo = &f.topology;
        let db = PathDb::build(topo);
        let bytes = snapped(&db);
        let back = PathDb::unsnap(&mut SnapReader::new(&bytes)).expect("round trip");
        assert!(back.dirty_cells(&db).is_empty());
        assert_eq!(snapped(&back), bytes, "canonical re-encoding");
        let empty = snapped(&PathDb::default());
        let back = PathDb::unsnap(&mut SnapReader::new(&empty)).expect("empty round trip");
        assert_eq!(snapped(&back), empty);

        // Truncation anywhere is an error.
        for cut in 0..bytes.len() {
            assert!(
                PathDb::unsnap(&mut SnapReader::new(&bytes[..cut])).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // A flipped bit is an error or a database that still answers
        // every query — never an index panic.
        let mut rejected = 0;
        for at in 0..bytes.len() {
            for bit in [0, 3, 7] {
                let mut hostile = bytes.clone();
                hostile[at] ^= 1 << bit;
                match PathDb::unsnap(&mut SnapReader::new(&hostile)) {
                    Ok(db) => exercise(&db, topo),
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(rejected > 0, "dimension checks must reject something");

        // A cell naming a set past the last one, or a set 0 that is not
        // empty (what `forget_switch` points a row at), is refused.
        let sets = db.set_off.len() - 1;
        for (cell, set) in [(0, sets), (db.ecmp_set.len() - 1, u32::MAX as usize)] {
            let mut forged = PathDb::build(topo);
            forged.ecmp_set[cell] = set as u32;
            let err = PathDb::unsnap(&mut SnapReader::new(&snapped(&forged)));
            assert!(err.is_err(), "cell {cell} names set {set} of {sets}");
        }
        let mut forged = PathDb::build(topo);
        forged.set_off[1] = 1;
        forged.set_ports.insert(0, PortNo(1));
        for off in &mut forged.set_off[2..] {
            *off += 1;
        }
        let err = PathDb::unsnap(&mut SnapReader::new(&snapped(&forged)));
        assert!(err.is_err(), "set 0 holds a port");
    }

    #[test]
    fn dirty_cells_name_exactly_what_moved() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let mut topo = f.topology.clone();
        let before = PathDb::build(&topo);
        assert!(PathDb::build(&topo).dirty_cells(&before).is_empty());
        // against the empty database every cell is dirty
        assert_eq!(before.dirty_cells(&PathDb::default()).len(), 4 * 4);

        let uplink = topo
            .out_links(f.edges[0])
            .find(|(_, l)| l.dst == f.cores[0])
            .map(|(id, _)| id)
            .unwrap();
        topo.set_cable_state(uplink, horse_topology::LinkState::Down)
            .unwrap();
        let after = PathDb::build(&topo);
        let dirty = after.dirty_cells(&before);
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "ascending");
        for sw in topo.switches() {
            for &h in after.hosts() {
                let moved = after.next_hop(sw, h) != before.next_hop(sw, h)
                    || after.ecmp(sw, h) != before.ecmp(sw, h);
                assert_eq!(dirty.contains(&(sw, h)), moved, "cell ({sw}, {h})");
            }
        }
        assert!(!dirty.is_empty() && dirty.len() < 4 * 4);
    }

    #[test]
    fn forgetting_a_switch_empties_its_row_only() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        for &gone in f.edges.iter().chain(&f.cores) {
            let mut forgot = PathDb::build(&f.topology);
            forgot.forget_switch(gone);
            for sw in f.topology.switches() {
                for &h in db.hosts() {
                    if sw == gone {
                        assert_eq!(forgot.next_hop(sw, h), None);
                        assert!(forgot.ecmp(sw, h).is_empty());
                    } else {
                        assert_eq!(forgot.next_hop(sw, h), db.next_hop(sw, h));
                        assert_eq!(forgot.ecmp(sw, h), db.ecmp(sw, h));
                    }
                }
            }
            // the whole row (every host is reachable here) and nothing else
            let row: Vec<_> = db.hosts().iter().map(|&h| (gone, h)).collect();
            assert_eq!(db.dirty_cells(&forgot), row);
            let bytes = snapped(&forgot);
            PathDb::unsnap(&mut SnapReader::new(&bytes)).expect("still well-formed");
        }
    }
}
