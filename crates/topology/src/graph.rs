//! The [`Topology`] container.
//!
//! Nodes and links live in dense vectors indexed by [`NodeId`]/[`LinkId`];
//! a parallel petgraph `DiGraph` mirrors the connectivity for path
//! computation. Node and link ids are never reused, so petgraph indices
//! and Horse ids stay aligned by construction.

use crate::link::{Link, LinkState};
use crate::node::{Node, NodeKind, SwitchRole};
use horse_types::{LinkId, MacAddr, NodeId, PortNo, Rate, SimDuration};
use petgraph::graph::{DiGraph, NodeIndex};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// Errors raised by topology construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node name was used twice.
    DuplicateName(String),
    /// A host MAC address was used twice.
    DuplicateMac(MacAddr),
    /// Referenced node does not exist.
    UnknownNode(NodeId),
    /// Referenced link does not exist.
    UnknownLink(LinkId),
    /// Tried to connect a node to itself.
    SelfLoop(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            TopologyError::DuplicateMac(m) => write!(f, "duplicate host MAC {m}"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A network topology: hosts, switches and directed links.
///
/// ```
/// use horse_topology::Topology;
/// use horse_types::{MacAddr, Rate, SimDuration};
///
/// let mut t = Topology::new();
/// let h1 = t.add_host("h1", MacAddr::local_from_id(1), "10.0.0.1".parse().unwrap()).unwrap();
/// let s1 = t.add_edge_switch("s1").unwrap();
/// let (fwd, rev) = t.connect(h1, s1, Rate::gbps(10.0), SimDuration::from_micros(5)).unwrap();
/// assert_eq!(t.link(fwd).unwrap().src, h1);
/// assert_eq!(t.link(rev).unwrap().src, s1);
/// ```
#[derive(Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    graph: DiGraph<NodeId, LinkId>,
    by_name: HashMap<String, NodeId>,
    by_mac: HashMap<MacAddr, NodeId>,
    by_ip: HashMap<Ipv4Addr, NodeId>,
    /// Next free port number per node (ports are allocated 1, 2, 3, …).
    next_port: Vec<u16>,
    /// `(node, egress port) → directed link`, keyed by [`port_key`].
    port_links: HashMap<u64, LinkId, BuildHasherDefault<PortKeyHasher>>,
}

/// A `(node, port)` pair packed into one word: the key of
/// [`Topology::link_from`]'s map.
fn port_key(node: NodeId, port: PortNo) -> u64 {
    (u64::from(node.0) << 16) | u64::from(port.0)
}

/// A multiplicative hash for [`port_key`]s: one multiply and a fold of
/// the high half into the low bits the table indexes by, instead of
/// SipHash over a tuple on every packet's egress lookup.
#[derive(Default)]
struct PortKeyHasher(u64);

impl Hasher for PortKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("port keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology {
            nodes: Vec::new(),
            links: Vec::new(),
            graph: DiGraph::new(),
            by_name: HashMap::new(),
            by_mac: HashMap::new(),
            by_ip: HashMap::new(),
            next_port: Vec::new(),
            port_links: HashMap::default(),
        }
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> Result<NodeId, TopologyError> {
        if self.by_name.contains_key(name) {
            return Err(TopologyError::DuplicateName(name.to_string()));
        }
        if let NodeKind::Host { mac, .. } = kind {
            if self.by_mac.contains_key(&mac) {
                return Err(TopologyError::DuplicateMac(mac));
            }
        }
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
        });
        let gidx = self.graph.add_node(id);
        debug_assert_eq!(gidx.index(), id.index());
        self.by_name.insert(name.to_string(), id);
        if let NodeKind::Host { mac, ip } = kind {
            self.by_mac.insert(mac, id);
            self.by_ip.insert(ip, id);
        }
        self.next_port.push(1);
        Ok(id)
    }

    /// Adds a host with the given MAC and IP.
    pub fn add_host(
        &mut self,
        name: &str,
        mac: MacAddr,
        ip: Ipv4Addr,
    ) -> Result<NodeId, TopologyError> {
        self.add_node(name, NodeKind::Host { mac, ip })
    }

    /// Adds an edge switch.
    pub fn add_edge_switch(&mut self, name: &str) -> Result<NodeId, TopologyError> {
        self.add_node(
            name,
            NodeKind::Switch {
                role: SwitchRole::Edge,
            },
        )
    }

    /// Adds a core switch.
    pub fn add_core_switch(&mut self, name: &str) -> Result<NodeId, TopologyError> {
        self.add_node(
            name,
            NodeKind::Switch {
                role: SwitchRole::Core,
            },
        )
    }

    /// Connects two nodes with a full-duplex cable: creates the `a → b` and
    /// `b → a` directed links (same capacity and delay each way) and returns
    /// their ids in that order. Fresh ports are allocated on both ends.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Rate,
        delay: SimDuration,
    ) -> Result<(LinkId, LinkId), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if a.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(b));
        }
        let pa = PortNo(self.next_port[a.index()]);
        let pb = PortNo(self.next_port[b.index()]);
        self.next_port[a.index()] += 1;
        self.next_port[b.index()] += 1;

        let fwd = self.push_link(Link {
            src: a,
            src_port: pa,
            dst: b,
            dst_port: pb,
            capacity,
            delay,
            state: LinkState::Up,
        });
        let rev = self.push_link(Link {
            src: b,
            src_port: pb,
            dst: a,
            dst_port: pa,
            capacity,
            delay,
            state: LinkState::Up,
        });
        Ok((fwd, rev))
    }

    fn push_link(&mut self, link: Link) -> LinkId {
        let id = LinkId::from_index(self.links.len());
        self.port_links
            .insert(port_key(link.src, link.src_port), id);
        let eidx = self.graph.add_edge(
            NodeIndex::new(link.src.index()),
            NodeIndex::new(link.dst.index()),
            id,
        );
        debug_assert_eq!(eidx.index(), id.index());
        self.links.push(link);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// Iterates `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates `(id, link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId::from_index(i), l))
    }

    /// All switch node ids.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|(_, n)| n.kind.is_switch())
            .map(|(i, _)| i)
    }

    /// All host node ids.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|(_, n)| n.kind.is_host())
            .map(|(i, _)| i)
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks a host up by MAC address.
    pub fn host_by_mac(&self, mac: MacAddr) -> Option<NodeId> {
        self.by_mac.get(&mac).copied()
    }

    /// Looks a host up by IPv4 address.
    pub fn host_by_ip(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.by_ip.get(&ip).copied()
    }

    /// The directed link leaving `node` through `port`, if any.
    pub fn link_from(&self, node: NodeId, port: PortNo) -> Option<LinkId> {
        self.port_links.get(&port_key(node, port)).copied()
    }

    /// All directed links leaving `node` (its egress adjacency).
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = (LinkId, &Link)> {
        self.graph
            .edges(NodeIndex::new(node.index()))
            .map(move |e| (*e.weight(), &self.links[e.weight().index()]))
    }

    /// Physical egress ports of `node`, ascending.
    ///
    /// Ports are allocated densely by [`connect`](Self::connect) and never
    /// removed, so this is a constant-time range — no allocation, safe to
    /// call on hot paths (the packet plane resolves a host's access port
    /// per emitted packet).
    pub fn ports(&self, node: NodeId) -> impl ExactSizeIterator<Item = PortNo> + Clone {
        let end = self.next_port.get(node.index()).copied().unwrap_or(1);
        (1..end).map(PortNo)
    }

    /// Number of physical ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.ports(node).len()
    }

    /// Sets the state of one directed link.
    pub fn set_link_state(&mut self, id: LinkId, state: LinkState) -> Result<(), TopologyError> {
        let l = self
            .links
            .get_mut(id.index())
            .ok_or(TopologyError::UnknownLink(id))?;
        l.state = state;
        Ok(())
    }

    /// Sets the state of a directed link *and its reverse* (the physical
    /// cable), returning the ids affected. The reverse is found by matching
    /// endpoint/port pairs.
    pub fn set_cable_state(
        &mut self,
        id: LinkId,
        state: LinkState,
    ) -> Result<Vec<LinkId>, TopologyError> {
        let l = self
            .links
            .get(id.index())
            .ok_or(TopologyError::UnknownLink(id))?
            .clone();
        let mut affected = vec![id];
        if let Some(rev) = self.reverse_of(id) {
            affected.push(rev);
        }
        let _ = l;
        for lid in &affected {
            self.links[lid.index()].state = state;
        }
        Ok(affected)
    }

    /// The reverse direction of a directed link (same cable).
    pub fn reverse_of(&self, id: LinkId) -> Option<LinkId> {
        let l = self.links.get(id.index())?;
        self.link_from(l.dst, l.dst_port).filter(|r| {
            let rl = &self.links[r.index()];
            rl.dst == l.src && rl.dst_port == l.src_port
        })
    }

    /// The petgraph view (for algorithms). Edge weights are [`LinkId`]s.
    pub fn petgraph(&self) -> &DiGraph<NodeId, LinkId> {
        &self.graph
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Topology({} nodes, {} directed links)",
            self.nodes.len(),
            self.links.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts_one_switch() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let h1 = t
            .add_host("h1", MacAddr::local_from_id(1), Ipv4Addr::new(10, 0, 0, 1))
            .unwrap();
        let h2 = t
            .add_host("h2", MacAddr::local_from_id(2), Ipv4Addr::new(10, 0, 0, 2))
            .unwrap();
        let s = t.add_edge_switch("s1").unwrap();
        t.connect(h1, s, Rate::gbps(1.0), SimDuration::from_micros(1))
            .unwrap();
        t.connect(h2, s, Rate::gbps(1.0), SimDuration::from_micros(1))
            .unwrap();
        (t, h1, h2, s)
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_edge_switch("s").unwrap();
        assert_eq!(
            t.add_core_switch("s"),
            Err(TopologyError::DuplicateName("s".into()))
        );
    }

    #[test]
    fn duplicate_macs_rejected() {
        let mut t = Topology::new();
        let m = MacAddr::local_from_id(7);
        t.add_host("a", m, Ipv4Addr::new(10, 0, 0, 1)).unwrap();
        assert_eq!(
            t.add_host("b", m, Ipv4Addr::new(10, 0, 0, 2)),
            Err(TopologyError::DuplicateMac(m))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let s = t.add_edge_switch("s").unwrap();
        assert_eq!(
            t.connect(s, s, Rate::gbps(1.0), SimDuration::ZERO),
            Err(TopologyError::SelfLoop(s))
        );
    }

    #[test]
    fn connect_allocates_fresh_ports() {
        let (t, h1, _, s) = two_hosts_one_switch();
        assert_eq!(t.ports(h1).collect::<Vec<_>>(), vec![PortNo(1)]);
        assert_eq!(t.ports(s).collect::<Vec<_>>(), vec![PortNo(1), PortNo(2)]);
        assert_eq!(t.port_count(s), 2);
        assert_eq!(t.ports(NodeId(99)).len(), 0, "unknown node has no ports");
    }

    #[test]
    fn lookups_work() {
        let (t, h1, h2, s) = two_hosts_one_switch();
        assert_eq!(t.node_by_name("h1"), Some(h1));
        assert_eq!(t.host_by_mac(MacAddr::local_from_id(2)), Some(h2));
        assert_eq!(t.host_by_ip(Ipv4Addr::new(10, 0, 0, 1)), Some(h1));
        assert_eq!(t.node_by_name("nope"), None);
        assert_eq!(t.switches().collect::<Vec<_>>(), vec![s]);
        assert_eq!(t.hosts().collect::<Vec<_>>(), vec![h1, h2]);
    }

    #[test]
    fn link_from_port_resolves() {
        let (t, h1, _, s) = two_hosts_one_switch();
        let l = t.link_from(h1, PortNo(1)).unwrap();
        assert_eq!(t.link(l).unwrap().dst, s);
        assert!(t.link_from(h1, PortNo(9)).is_none());
    }

    #[test]
    fn reverse_of_pairs_up() {
        let (t, _, _, _) = two_hosts_one_switch();
        for (id, _) in t.links() {
            let rev = t.reverse_of(id).expect("every link has a reverse");
            assert_eq!(t.reverse_of(rev), Some(id));
            let l = t.link(id).unwrap();
            let r = t.link(rev).unwrap();
            assert_eq!(l.src, r.dst);
            assert_eq!(l.src_port, r.dst_port);
        }
    }

    #[test]
    fn cable_state_affects_both_directions() {
        let (mut t, h1, _, _) = two_hosts_one_switch();
        let l = t.link_from(h1, PortNo(1)).unwrap();
        let affected = t.set_cable_state(l, LinkState::Down).unwrap();
        assert_eq!(affected.len(), 2);
        for id in affected {
            assert!(!t.link(id).unwrap().is_up());
        }
    }

    #[test]
    fn out_links_adjacency() {
        let (t, _, _, s) = two_hosts_one_switch();
        let outs: Vec<_> = t.out_links(s).collect();
        assert_eq!(outs.len(), 2);
        for (_, l) in outs {
            assert_eq!(l.src, s);
        }
    }

    #[test]
    fn unknown_ids_error() {
        let mut t = Topology::new();
        assert!(t.set_link_state(LinkId(0), LinkState::Down).is_err());
        let s = t.add_edge_switch("s").unwrap();
        assert!(t
            .connect(s, NodeId(99), Rate::gbps(1.0), SimDuration::ZERO)
            .is_err());
    }
}
