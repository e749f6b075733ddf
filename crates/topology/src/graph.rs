//! The [`Topology`] container.
//!
//! Nodes and links live in dense vectors indexed by [`NodeId`]/[`LinkId`].
//! One adjacency answers every connectivity question: per node, the links
//! leaving it in port order, so the link through port `p` sits at slot
//! `p - 1`. Ids and ports are never reused or removed.

use crate::link::{Link, LinkState};
use crate::node::{Node, NodeKind, SwitchRole};
use horse_types::{LinkId, MacAddr, NodeId, PortNo, Rate, SimDuration};
use std::collections::HashMap;
use std::fmt;
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
    /// The node's next port would leave the physical range
    /// ([`PortNo::is_physical`]).
    PortsExhausted(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            TopologyError::DuplicateMac(m) => write!(f, "duplicate host MAC {m}"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on {n}"),
            TopologyError::PortsExhausted(n) => write!(f, "no physical port left on {n}"),
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
    /// Per node, the links leaving it in port order: the link through
    /// port `p` is `out[node][p - 1]`.
    out: Vec<Vec<LinkId>>,
    by_name: HashMap<String, NodeId>,
    by_mac: HashMap<MacAddr, NodeId>,
    by_ip: HashMap<Ipv4Addr, NodeId>,
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
            out: Vec::new(),
            by_name: HashMap::new(),
            by_mac: HashMap::new(),
            by_ip: HashMap::new(),
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
        self.by_name.insert(name.to_string(), id);
        if let NodeKind::Host { mac, ip } = kind {
            self.by_mac.insert(mac, id);
            self.by_ip.insert(ip, id);
        }
        self.out.push(Vec::new());
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
    /// their ids in that order. Each end gets its next port (1, 2, 3, …).
    ///
    /// The two links get consecutive ids, the forward one even, so the
    /// reverse of any link `id` is `id ^ 1` ([`reverse_of`](Self::reverse_of)).
    /// Fails, changing nothing, when either end has no physical port left.
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
        let pa = self.fresh_port(a)?;
        let pb = self.fresh_port(b)?;
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

    /// The port [`connect`](Self::connect) gives `node` next.
    fn fresh_port(&self, node: NodeId) -> Result<PortNo, TopologyError> {
        let used = self
            .out
            .get(node.index())
            .ok_or(TopologyError::UnknownNode(node))?
            .len();
        u16::try_from(used + 1)
            .map(PortNo)
            .ok()
            .filter(|p| p.is_physical())
            .ok_or(TopologyError::PortsExhausted(node))
    }

    fn push_link(&mut self, link: Link) -> LinkId {
        let id = LinkId::from_index(self.links.len());
        self.out[link.src.index()].push(id);
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
        let slot = usize::from(port.0).checked_sub(1)?;
        self.out.get(node.index())?.get(slot).copied()
    }

    /// All directed links leaving `node` (its egress adjacency), ascending
    /// by [`LinkId`], which is also port order: the i-th leaves through
    /// port i + 1. An unknown node has none.
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = (LinkId, &Link)> {
        self.out
            .get(node.index())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(move |&id| (id, &self.links[id.index()]))
    }

    /// Physical egress ports of `node`, ascending.
    ///
    /// Ports are allocated densely by [`connect`](Self::connect) and never
    /// removed, so this is a constant-time range — no allocation, safe to
    /// call on hot paths (the packet plane resolves a host's access port
    /// per emitted packet).
    pub fn ports(&self, node: NodeId) -> impl ExactSizeIterator<Item = PortNo> + Clone {
        // `connect` keeps every port physical, so the count fits a u16
        (1..=self.port_count(node) as u16).map(PortNo)
    }

    /// Number of physical ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.out.get(node.index()).map_or(0, Vec::len)
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
    /// cable), returning the ids affected.
    pub fn set_cable_state(
        &mut self,
        id: LinkId,
        state: LinkState,
    ) -> Result<Vec<LinkId>, TopologyError> {
        let rev = self.reverse_of(id).ok_or(TopologyError::UnknownLink(id))?;
        for lid in [id, rev] {
            self.links[lid.index()].state = state;
        }
        Ok(vec![id, rev])
    }

    /// The reverse direction of a directed link (same cable): `id ^ 1`,
    /// since [`connect`](Self::connect) creates a cable's links back to back.
    pub fn reverse_of(&self, id: LinkId) -> Option<LinkId> {
        (id.index() < self.links.len()).then(|| LinkId::from_index(id.index() ^ 1))
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
    fn ports_stop_short_of_the_reserved_range() {
        let mut t = Topology::new();
        let a = t.add_edge_switch("a").unwrap();
        let b = t.add_edge_switch("b").unwrap();
        let c = t.add_edge_switch("c").unwrap();
        for _ in 0..65_533 {
            t.connect(a, b, Rate::gbps(1.0), SimDuration::ZERO).unwrap();
        }
        assert_eq!(t.ports(a).last(), Some(PortNo(65_533)));
        assert!(t.ports(a).all(PortNo::is_physical));
        let links = t.link_count();
        for (x, y, full) in [(a, b, a), (b, a, b), (c, a, a)] {
            assert_eq!(
                t.connect(x, y, Rate::gbps(1.0), SimDuration::ZERO),
                Err(TopologyError::PortsExhausted(full))
            );
        }
        assert_eq!(t.link_count(), links);
        assert_eq!((t.port_count(a), t.port_count(b)), (65_533, 65_533));
        assert_eq!(t.port_count(c), 0, "a failed connect allocates nothing");
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
