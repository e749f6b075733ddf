//! Path computation.
//!
//! All algorithms skip links that are
//! [`LinkState::Down`](crate::link::LinkState::Down), so recomputing a
//! path after a failure event automatically routes around it.
//!
//! * [`shortest_path`] — a breadth-first walk by hop count, Dijkstra by
//!   latency, both with deterministic tie-breaking (lowest link id wins).
//! * [`hops_to`] — the reverse breadth-first tree toward one destination,
//!   whose equal-cost first hops are the ECMP sets.
//! * [`ecmp_paths`] — every minimum-cost path, enumerated from the
//!   shortest-path DAG (bounded by `max_paths` to stay safe on dense cores).
//! * [`k_shortest_paths`] — Yen's algorithm for source-routing alternatives.

use crate::graph::Topology;
use crate::link::Link;
use horse_types::{LinkId, NodeId};
use std::collections::{BinaryHeap, HashSet};

/// Cost metric for path computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Every link costs 1.
    Hops,
    /// Every link costs its propagation delay in nanoseconds (plus one so
    /// zero-delay links still carry a positive cost).
    Latency,
}

impl Metric {
    fn cost(self, topo: &Topology, link: LinkId) -> u64 {
        match self {
            Metric::Hops => 1,
            Metric::Latency => topo.link(link).map(|l| l.delay.as_nanos() + 1).unwrap_or(1),
        }
    }
}

/// A loop-free path through the topology.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    /// Visited nodes, `src` first, `dst` last.
    pub nodes: Vec<NodeId>,
    /// Directed links, one per hop (`nodes.len() - 1` entries).
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops (links).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Total cost under `metric`.
    pub fn cost(&self, topo: &Topology, metric: Metric) -> u64 {
        self.links.iter().map(|&l| metric.cost(topo, l)).sum()
    }

    /// The source node.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }
}

#[derive(PartialEq, Eq)]
struct QueueEntry {
    cost: u64,
    node: NodeId,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap on (cost, node id) — node id tie-break keeps Dijkstra
        // deterministic across runs.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// `dist` value of a node no live path reaches.
const UNREACHED: u64 = u64::MAX;

/// A single-source shortest-path tree: per-node best cost plus the
/// deterministic incoming link, computed once and queried for every
/// destination. Bulk consumers (the control plane's path database builds
/// a next hop toward *every* host from *every* switch) share one tree per
/// source instead of re-running the walk per pair — identical results,
/// orders of magnitude less work. A [`Metric::Hops`] tree is a
/// breadth-first scan, a [`Metric::Latency`] tree Dijkstra; both give
/// each node the lowest-id in-link among those on a minimum-cost path.
///
/// All per-node state is a `Vec` indexed by [`NodeId::index`]; a node id
/// outside the topology is simply unreachable.
pub struct SsspTree {
    src: NodeId,
    metric: Metric,
    /// Best cost per node, [`UNREACHED`] where no live path exists.
    dist: Vec<u64>,
    /// Incoming link on the best path (lowest link id among ties).
    prev: Vec<Option<LinkId>>,
    /// First link of the best path from `src`, propagated down the tree
    /// (`first[n] = first[prev[n].src]`) while it is built.
    first: Vec<Option<LinkId>>,
}

/// Dijkstra from `src`, honouring link state and an optional ban-list of
/// links/nodes (used by Yen's spur computation and by latency trees).
fn dijkstra_metric(
    topo: &Topology,
    src: NodeId,
    metric: Metric,
    banned_links: &HashSet<LinkId>,
    banned_nodes: &HashSet<NodeId>,
) -> SsspTree {
    let n = topo.node_count();
    let mut tree = SsspTree {
        src,
        metric,
        dist: vec![UNREACHED; n],
        prev: vec![None; n],
        first: vec![None; n],
    };
    let mut heap = BinaryHeap::new();
    if src.index() < n {
        tree.dist[src.index()] = 0;
        heap.push(QueueEntry { cost: 0, node: src });
    }

    while let Some(QueueEntry { cost, node }) = heap.pop() {
        if cost > tree.dist[node.index()] {
            continue;
        }
        // Costs are positive, so `node`'s own entries are final by now.
        let first_here = tree.first[node.index()];
        // `out_links` ascends by link id: a deterministic relaxation order
        let live = topo.out_links(node).filter(|(id, l)| {
            l.is_up() && !banned_links.contains(id) && !banned_nodes.contains(&l.dst)
        });
        for (lid, l) in live {
            let nxt = l.dst;
            let nc = cost.saturating_add(metric.cost(topo, lid));
            let d = tree.dist[nxt.index()];
            if nc < d || (nc == d && Some(lid) < tree.prev[nxt.index()]) {
                tree.dist[nxt.index()] = nc;
                tree.prev[nxt.index()] = Some(lid);
                tree.first[nxt.index()] = first_here.or(Some(lid));
                heap.push(QueueEntry {
                    cost: nc,
                    node: nxt,
                });
            }
        }
    }
    tree
}

/// The [`Metric::Hops`] tree from `src` without a heap: a FIFO scan
/// settles every node at distance d before any at d + 1, so it is the
/// tree `dijkstra_metric` builds. A node's `prev` is its lowest-id live
/// in-link from distance d − 1 (whichever of those the scan meets first),
/// and `first` follows it. Every node at distance d − 1 is scanned, with
/// its own `first` final, before any node at distance d is.
fn bfs_hops(topo: &Topology, src: NodeId) -> SsspTree {
    let n = topo.node_count();
    let mut tree = SsspTree {
        src,
        metric: Metric::Hops,
        dist: vec![UNREACHED; n],
        prev: vec![None; n],
        first: vec![None; n],
    };
    let mut queue = Vec::with_capacity(n);
    if src.index() < n {
        tree.dist[src.index()] = 0;
        queue.push(src);
    }
    let mut head = 0;
    while let Some(&node) = queue.get(head) {
        head += 1;
        let d = tree.dist[node.index()] + 1;
        let first_here = tree.first[node.index()];
        for (lid, l) in topo.out_links(node).filter(|(_, l)| l.is_up()) {
            let nxt = l.dst.index();
            if tree.dist[nxt] == UNREACHED {
                tree.dist[nxt] = d;
                queue.push(l.dst);
            } else if tree.dist[nxt] != d || Some(lid) > tree.prev[nxt] {
                continue;
            }
            tree.prev[nxt] = Some(lid);
            tree.first[nxt] = first_here.or(Some(lid));
        }
    }
    tree
}

/// Computes the shortest-path tree from `src` under `metric` (honouring
/// link state, like every algorithm here).
pub fn sssp(topo: &Topology, src: NodeId, metric: Metric) -> SsspTree {
    match metric {
        Metric::Hops => bfs_hops(topo, src),
        Metric::Latency => dijkstra_metric(topo, src, metric, &HashSet::new(), &HashSet::new()),
    }
}

impl SsspTree {
    /// The tree's source node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Best-path cost to `dst`, if reachable.
    pub fn cost_to(&self, dst: NodeId) -> Option<u64> {
        self.dist
            .get(dst.index())
            .copied()
            .filter(|&d| d != UNREACHED)
    }

    /// The first link of [`SsspTree::path_to`]`(dst)` without building the
    /// path: `None` for the source itself and for unreachable nodes.
    pub fn first_link_to(&self, dst: NodeId) -> Option<LinkId> {
        self.first.get(dst.index()).copied().flatten()
    }

    /// The minimum-cost path to `dst` — exactly what
    /// [`shortest_path`] returns for the same endpoints.
    pub fn path_to(&self, topo: &Topology, dst: NodeId) -> Option<Path> {
        self.cost_to(dst)?;
        let mut links_rev = Vec::new();
        let mut nodes_rev = vec![dst];
        let mut cur = dst;
        while cur != self.src {
            let lid = self.prev[cur.index()]?;
            links_rev.push(lid);
            cur = topo.link(lid)?.src;
            nodes_rev.push(cur);
        }
        nodes_rev.reverse();
        links_rev.reverse();
        Some(Path {
            nodes: nodes_rev,
            links: links_rev,
        })
    }

    /// Every minimum-hop path to `dst`, up to `max_paths` — exactly what
    /// [`ecmp_paths`] returns for the same endpoints.
    ///
    /// # Panics
    ///
    /// Panics unless the tree was built with [`Metric::Hops`]: the DAG
    /// membership test is `dist + 1`, which is meaningless for weighted
    /// metrics, and returning silently-wrong path sets would be worse
    /// than refusing.
    pub fn ecmp_paths_to(&self, topo: &Topology, dst: NodeId, max_paths: usize) -> Vec<Path> {
        assert_eq!(self.metric, Metric::Hops, "ECMP enumerates hop DAGs");
        if max_paths == 0 {
            return vec![];
        }
        if dst == self.src {
            return vec![Path {
                nodes: vec![self.src],
                links: vec![],
            }];
        }
        let Some(best) = self.cost_to(dst) else {
            return vec![];
        };
        let mut out = Vec::new();
        let mut stack_nodes = vec![self.src];
        let mut stack_links: Vec<LinkId> = vec![];
        ecmp_dfs(
            topo,
            self.src,
            dst,
            best,
            &self.dist,
            &mut stack_nodes,
            &mut stack_links,
            &mut out,
            max_paths,
        );
        out
    }
}

/// Hop counts **to** one destination over live links: the reverse
/// breadth-first tree. Where [`SsspTree`] answers "how far from S to
/// everywhere", this answers "how far from everywhere to D" — and with
/// it, whether an edge lies on *some* minimum-hop path to D, which is the
/// membership test ECMP sets need. The control plane's path database
/// gets exact equal-cost **first-hop sets** from one such tree per
/// destination instead of enumerating every path per (switch,
/// destination) pair.
pub struct HopsTo {
    dst: NodeId,
    /// Hops from each node ([`NodeId::index`]) to `dst`, `u32::MAX` where
    /// no live path to `dst` exists.
    dist: Vec<u32>,
}

/// Computes the reverse breadth-first tree toward `dst` (honouring link
/// state, like every algorithm here). The links into a node are the
/// reverses of the links out of it, so the walk needs no second
/// adjacency; it checks each reverse link's own state, since one
/// direction of a cable can be down on its own.
pub fn hops_to(topo: &Topology, dst: NodeId) -> HopsTo {
    let mut dist = vec![u32::MAX; topo.node_count()];
    let mut queue = Vec::with_capacity(dist.len());
    if dst.index() < dist.len() {
        dist[dst.index()] = 0;
        queue.push(dst);
    }
    let mut head = 0;
    while let Some(&node) = queue.get(head) {
        head += 1;
        let d = dist[node.index()] + 1;
        for (out, l) in topo.out_links(node) {
            if dist[l.dst.index()] != u32::MAX {
                continue;
            }
            let into = topo.reverse_of(out).and_then(|id| topo.link(id));
            if into.is_some_and(Link::is_up) {
                dist[l.dst.index()] = d;
                queue.push(l.dst);
            }
        }
    }
    HopsTo { dst, dist }
}

impl HopsTo {
    /// The tree's destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Fewest hops from `node` to the destination, if reachable.
    pub fn hops_from(&self, node: NodeId) -> Option<u32> {
        self.dist
            .get(node.index())
            .copied()
            .filter(|&d| d != u32::MAX)
    }

    /// Every live egress link at `node` that lies on some minimum-hop
    /// path to the destination, ascending by link id, without allocating
    /// — exactly the first links of the paths [`ecmp_paths`] enumerates
    /// for the same endpoints (without the enumeration, and without its
    /// `max_paths` truncation).
    pub fn ecmp_out_links<'a>(
        &'a self,
        topo: &'a Topology,
        node: NodeId,
    ) -> impl Iterator<Item = (LinkId, &'a Link)> + 'a {
        // the destination (and an unreachable node) has no such egress
        let closer = self
            .hops_from(node)
            .filter(|_| node != self.dst)
            .map(|d| d - 1);
        topo.out_links(node)
            .filter(move |(_, l)| l.is_up() && closer.is_some() && self.hops_from(l.dst) == closer)
    }
}

/// The minimum-cost path from `src` to `dst`, or `None` if unreachable.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId, metric: Metric) -> Option<Path> {
    if src == dst {
        return Some(Path {
            nodes: vec![src],
            links: vec![],
        });
    }
    sssp(topo, src, metric).path_to(topo, dst)
}

/// Every minimum-hop path from `src` to `dst`, up to `max_paths`, in a
/// deterministic order. This is the path set an ECMP select-group spreads
/// flows over.
///
/// The enumeration walks the shortest-path DAG forward: edges with
/// `dist[u] + 1 == dist[v]` lie on some minimum-hop path, pruned at `dst`.
pub fn ecmp_paths(topo: &Topology, src: NodeId, dst: NodeId, max_paths: usize) -> Vec<Path> {
    if max_paths == 0 {
        return vec![];
    }
    if src == dst {
        return vec![Path {
            nodes: vec![src],
            links: vec![],
        }];
    }
    sssp(topo, src, Metric::Hops).ecmp_paths_to(topo, dst, max_paths)
}

#[allow(clippy::too_many_arguments)] // recursion state, not an API
fn ecmp_dfs(
    topo: &Topology,
    cur: NodeId,
    dst: NodeId,
    best: u64,
    dist: &[u64],
    stack_nodes: &mut Vec<NodeId>,
    stack_links: &mut Vec<LinkId>,
    out: &mut Vec<Path>,
    max_paths: usize,
) {
    if out.len() >= max_paths {
        return;
    }
    if cur == dst {
        out.push(Path {
            nodes: stack_nodes.clone(),
            links: stack_links.clone(),
        });
        return;
    }
    let d_cur = dist[cur.index()];
    if d_cur >= best {
        return;
    }
    for (lid, l) in topo.out_links(cur).filter(|(_, l)| l.is_up()) {
        let nxt = l.dst;
        let d_nxt = dist[nxt.index()];
        if d_nxt == d_cur + 1 && d_nxt <= best {
            stack_nodes.push(nxt);
            stack_links.push(lid);
            ecmp_dfs(
                topo,
                nxt,
                dst,
                best,
                dist,
                stack_nodes,
                stack_links,
                out,
                max_paths,
            );
            stack_nodes.pop();
            stack_links.pop();
        }
    }
}

/// Yen's k-shortest loop-free paths (by `metric`), deterministic.
///
/// Source-routing policies pick among these explicit alternatives.
pub fn k_shortest_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    metric: Metric,
) -> Vec<Path> {
    let Some(first) = shortest_path(topo, src, dst, metric) else {
        return vec![];
    };
    if k <= 1 {
        return vec![first];
    }
    let mut paths = vec![first];
    let mut candidates: Vec<Path> = Vec::new();

    while paths.len() < k {
        let last = paths.last().expect("at least one path").clone();
        for i in 0..last.links.len() {
            let spur_node = last.nodes[i];
            let root_nodes = &last.nodes[..=i];
            let root_links = &last.links[..i];

            // Ban links that would recreate an already-found path with the
            // same root, and ban root nodes to keep paths loop-free.
            let mut banned_links = HashSet::new();
            for p in paths.iter().chain(candidates.iter()) {
                if p.links.len() > i && p.links[..i] == *root_links {
                    banned_links.insert(p.links[i]);
                }
            }
            let banned_nodes: HashSet<NodeId> =
                root_nodes[..root_nodes.len() - 1].iter().copied().collect();

            let tree = dijkstra_metric(topo, spur_node, metric, &banned_links, &banned_nodes);
            if let Some(spur) = tree.path_to(topo, dst) {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut links = root_links.to_vec();
                links.extend_from_slice(&spur.links);
                let cand = Path { nodes, links };
                if !paths.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Lowest total cost first; ties broken by link-id sequence for
        // determinism.
        candidates.sort_by(|a, b| {
            a.cost(topo, metric)
                .cmp(&b.cost(topo, metric))
                .then_with(|| a.links.cmp(&b.links))
        });
        paths.push(candidates.remove(0));
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use horse_types::{MacAddr, Rate, SimDuration};
    use std::net::Ipv4Addr;

    /// Diamond: s0 -> {s1, s2} -> s3, plus a long way s0 -> s4 -> s5 -> s3.
    fn diamond() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..6)
            .map(|i| t.add_edge_switch(&format!("s{i}")).unwrap())
            .collect();
        let c = Rate::gbps(10.0);
        let d = SimDuration::from_micros(1);
        t.connect(ids[0], ids[1], c, d).unwrap();
        t.connect(ids[0], ids[2], c, d).unwrap();
        t.connect(ids[1], ids[3], c, d).unwrap();
        t.connect(ids[2], ids[3], c, d).unwrap();
        t.connect(ids[0], ids[4], c, d).unwrap();
        t.connect(ids[4], ids[5], c, d).unwrap();
        t.connect(ids[5], ids[3], c, d).unwrap();
        (t, ids)
    }

    #[test]
    fn shortest_path_finds_two_hops() {
        let (t, ids) = diamond();
        let p = shortest_path(&t, ids[0], ids[3], Metric::Hops).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.src(), ids[0]);
        assert_eq!(p.dst(), ids[3]);
        // consecutive links connect
        for w in p.links.windows(2) {
            assert_eq!(t.link(w[0]).unwrap().dst, t.link(w[1]).unwrap().src);
        }
    }

    #[test]
    fn shortest_path_same_node_is_empty() {
        let (t, ids) = diamond();
        let p = shortest_path(&t, ids[0], ids[0], Metric::Hops).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.nodes, vec![ids[0]]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_edge_switch("a").unwrap();
        let b = t.add_edge_switch("b").unwrap();
        assert!(shortest_path(&t, a, b, Metric::Hops).is_none());
    }

    #[test]
    fn down_links_are_avoided() {
        let (mut t, ids) = diamond();
        let p = shortest_path(&t, ids[0], ids[3], Metric::Hops).unwrap();
        // kill the first link of the chosen path (both directions)
        t.set_cable_state(p.links[0], crate::link::LinkState::Down)
            .unwrap();
        let p2 = shortest_path(&t, ids[0], ids[3], Metric::Hops).unwrap();
        assert_eq!(p2.hop_count(), 2, "other two-hop branch still up");
        assert_ne!(p2.links[0], p.links[0]);
    }

    #[test]
    fn ecmp_finds_both_branches() {
        let (t, ids) = diamond();
        let paths = ecmp_paths(&t, ids[0], ids[3], 8);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.hop_count(), 2);
        }
        assert_ne!(paths[0].links, paths[1].links);
    }

    #[test]
    fn ecmp_respects_max_paths() {
        let (t, ids) = diamond();
        assert_eq!(ecmp_paths(&t, ids[0], ids[3], 1).len(), 1);
        assert!(ecmp_paths(&t, ids[0], ids[3], 0).is_empty());
    }

    #[test]
    fn ecmp_is_deterministic() {
        let (t, ids) = diamond();
        let a = ecmp_paths(&t, ids[0], ids[3], 8);
        let b = ecmp_paths(&t, ids[0], ids[3], 8);
        assert_eq!(a, b);
    }

    #[test]
    fn yen_orders_by_cost() {
        let (t, ids) = diamond();
        let ps = k_shortest_paths(&t, ids[0], ids[3], 3, Metric::Hops);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].hop_count(), 2);
        assert_eq!(ps[1].hop_count(), 2);
        assert_eq!(ps[2].hop_count(), 3, "long way round comes last");
        // all loop-free
        for p in &ps {
            let mut seen = std::collections::HashSet::new();
            assert!(p.nodes.iter().all(|n| seen.insert(*n)), "loop in {p:?}");
        }
    }

    #[test]
    fn yen_k1_equals_shortest() {
        let (t, ids) = diamond();
        let ps = k_shortest_paths(&t, ids[0], ids[3], 1, Metric::Hops);
        let sp = shortest_path(&t, ids[0], ids[3], Metric::Hops).unwrap();
        assert_eq!(ps, vec![sp]);
    }

    #[test]
    fn yen_exhausts_gracefully() {
        let mut t = Topology::new();
        let a = t.add_edge_switch("a").unwrap();
        let b = t.add_edge_switch("b").unwrap();
        t.connect(a, b, Rate::gbps(1.0), SimDuration::ZERO).unwrap();
        let ps = k_shortest_paths(&t, a, b, 10, Metric::Hops);
        assert_eq!(ps.len(), 1, "only one simple path exists");
    }

    #[test]
    fn latency_metric_prefers_fast_path() {
        let mut t = Topology::new();
        let a = t.add_edge_switch("a").unwrap();
        let b = t.add_edge_switch("b").unwrap();
        let m = t.add_edge_switch("mid").unwrap();
        // direct but slow
        t.connect(a, b, Rate::gbps(1.0), SimDuration::from_millis(50))
            .unwrap();
        // two fast hops
        t.connect(a, m, Rate::gbps(1.0), SimDuration::from_micros(10))
            .unwrap();
        t.connect(m, b, Rate::gbps(1.0), SimDuration::from_micros(10))
            .unwrap();
        let hops = shortest_path(&t, a, b, Metric::Hops).unwrap();
        assert_eq!(hops.hop_count(), 1);
        let lat = shortest_path(&t, a, b, Metric::Latency).unwrap();
        assert_eq!(lat.hop_count(), 2);
    }

    #[test]
    fn leaf_spine_ecmp_width_matches_spines() {
        let fabric = builders::leaf_spine(4, 3, 0, Rate::gbps(40.0), Rate::gbps(10.0));
        let l0 = fabric.edges[0];
        let l1 = fabric.edges[1];
        let paths = ecmp_paths(&fabric.topology, l0, l1, 16);
        assert_eq!(paths.len(), 3, "one path per spine");
    }

    #[test]
    fn hops_to_matches_forward_ecmp_first_hops() {
        // On several topologies, the reverse-tree first-hop set must
        // equal the first links of the enumerated equal-cost paths.
        let fabrics = [
            builders::ixp_fabric(&builders::IxpFabricParams {
                members: 8,
                edge_switches: 4,
                core_switches: 3,
                ..Default::default()
            }),
            builders::leaf_spine(
                4,
                3,
                2,
                horse_types::Rate::gbps(40.0),
                horse_types::Rate::gbps(10.0),
            ),
        ];
        for f in &fabrics {
            let t = &f.topology;
            for &m in &f.members {
                let rev = hops_to(t, m);
                for src in t.switches() {
                    let enumerated: std::collections::BTreeSet<LinkId> = ecmp_paths(t, src, m, 64)
                        .iter()
                        .filter_map(|p| p.links.first().copied())
                        .collect();
                    let direct: std::collections::BTreeSet<LinkId> =
                        rev.ecmp_out_links(t, src).map(|(id, _)| id).collect();
                    assert_eq!(enumerated, direct, "src {src} dst {m}");
                    let tree = sssp(t, src, Metric::Hops);
                    assert_eq!(
                        rev.hops_from(src).map(u64::from),
                        tree.cost_to(m),
                        "distances agree"
                    );
                    assert_eq!(
                        tree.first_link_to(m),
                        tree.path_to(t, m).and_then(|p| p.links.first().copied()),
                        "propagated first hop is the path's first link"
                    );
                }
            }
        }
    }

    fn ecmp_links(rev: &HopsTo, t: &Topology, node: NodeId) -> Vec<LinkId> {
        rev.ecmp_out_links(t, node).map(|(id, _)| id).collect()
    }

    #[test]
    fn hops_to_respects_link_state() {
        let (mut t, ids) = diamond();
        let rev = hops_to(&t, ids[3]);
        assert_eq!(ecmp_links(&rev, &t, ids[0]).len(), 2, "both branches");
        // kill one branch
        let branch = ecmp_links(&rev, &t, ids[0])[0];
        t.set_cable_state(branch, crate::link::LinkState::Down)
            .unwrap();
        let rev = hops_to(&t, ids[3]);
        assert_eq!(ecmp_links(&rev, &t, ids[0]).len(), 1, "one branch left");
        assert_eq!(rev.hops_from(ids[3]), Some(0));
        assert_eq!(ecmp_links(&rev, &t, ids[3]), vec![], "dst has no egress");
    }

    /// Reference reverse tree: live links grouped by destination node,
    /// then Dijkstra over those in-links.
    fn reference_hops_to(t: &Topology, dst: NodeId) -> Vec<Option<u32>> {
        let mut in_links = vec![Vec::new(); t.node_count()];
        for (id, l) in t.links() {
            if l.is_up() {
                in_links[l.dst.index()].push((id, l.src));
            }
        }
        let mut dist = vec![None; t.node_count()];
        let mut heap = BinaryHeap::new();
        dist[dst.index()] = Some(0);
        heap.push(QueueEntry { cost: 0, node: dst });
        while let Some(QueueEntry { cost, node }) = heap.pop() {
            if dist[node.index()] < Some(cost as u32) {
                continue;
            }
            for &(_, src) in &in_links[node.index()] {
                let nc = cost as u32 + 1;
                if dist[src.index()].is_none_or(|d| nc < d) {
                    dist[src.index()] = Some(nc);
                    heap.push(QueueEntry {
                        cost: u64::from(nc),
                        node: src,
                    });
                }
            }
        }
        dist
    }

    #[test]
    fn hops_to_matches_in_link_reference_with_one_direction_down() {
        let diamond = diamond().0;
        let fat_tree = crate::generators::fat_tree(&crate::GeneratorParams {
            fat_tree_k: 4,
            ..Default::default()
        })
        .unwrap()
        .topology;
        let ixp = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 4,
            core_switches: 3,
            ..Default::default()
        })
        .topology;
        for base in [diamond, fat_tree, ixp] {
            for (down, _) in base.links() {
                let mut t = base.clone();
                t.set_link_state(down, crate::link::LinkState::Down)
                    .unwrap();
                let rev = t.reverse_of(down).unwrap();
                assert!(t.link(rev).unwrap().is_up(), "only one direction is down");
                for (dst, _) in t.nodes() {
                    let tree = hops_to(&t, dst);
                    let reference = reference_hops_to(&t, dst);
                    for (n, _) in t.nodes() {
                        let here = reference[n.index()].filter(|_| n != dst);
                        let expected: Vec<LinkId> = t
                            .links()
                            .filter(|(_, l)| {
                                l.src == n
                                    && l.is_up()
                                    && here.is_some()
                                    && reference[l.dst.index()].map(|d| d + 1) == here
                            })
                            .map(|(id, _)| id)
                            .collect();
                        assert_eq!(tree.hops_from(n), reference[n.index()], "{down} {dst} {n}");
                        assert_eq!(ecmp_links(&tree, &t, n), expected, "{down} {dst} {n}");
                    }
                }
            }
        }
    }

    /// Random fabrics of three families: jellyfish (seeded wiring), fat-tree
    /// and the shipped WAN graphs.
    fn random_fabrics() -> Vec<Topology> {
        use crate::generators::{generate, load_topology_spec, GeneratorParams, TopologyKind};
        let mut out = Vec::new();
        for seed in 1..=6 {
            let params = GeneratorParams {
                kind: TopologyKind::Jellyfish,
                switches: 8 + 2 * seed as usize,
                degree: 3 + seed as usize % 2,
                hosts: 6 + seed as usize,
                seed,
                ..Default::default()
            };
            out.push(generate(&params).unwrap().topology);
        }
        for k in [2, 4] {
            let params = GeneratorParams {
                fat_tree_k: k,
                ..Default::default()
            };
            out.push(generate(&params).unwrap().topology);
        }
        for name in ["abilene", "nsfnet"] {
            let path = format!(
                "{}/../../examples/topologies/{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let params = GeneratorParams {
                kind: TopologyKind::Wan,
                wan: Some(load_topology_spec(std::path::Path::new(&path)).unwrap()),
                hosts_per_pop: 1,
                ..Default::default()
            };
            out.push(generate(&params).unwrap().topology);
        }
        out
    }

    /// The breadth-first hop tree is the heap walk's tree: the same cost,
    /// path and first link toward every node, from every node, with and
    /// without links down in one direction only.
    #[test]
    fn breadth_first_sssp_equals_heap_walk_with_one_direction_down() {
        let (no_links, no_nodes) = (HashSet::new(), HashSet::new());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for base in random_fabrics() {
            for down_pct in [0, 5, 15, 40] {
                let mut t = base.clone();
                let ids: Vec<LinkId> = t.links().map(|(id, _)| id).collect();
                for id in ids {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 100 < down_pct {
                        t.set_link_state(id, crate::link::LinkState::Down).unwrap();
                    }
                }
                for (src, _) in t.nodes() {
                    let bfs = sssp(&t, src, Metric::Hops);
                    let heap = dijkstra_metric(&t, src, Metric::Hops, &no_links, &no_nodes);
                    for (n, _) in t.nodes() {
                        assert_eq!(bfs.cost_to(n), heap.cost_to(n), "{src} -> {n}");
                        assert_eq!(bfs.path_to(&t, n), heap.path_to(&t, n), "{src} -> {n}");
                        assert_eq!(bfs.first_link_to(n), heap.first_link_to(n), "{src} -> {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn host_to_host_via_ixp_fabric() {
        let fabric = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        });
        let t = &fabric.topology;
        let m0 = fabric.members[0];
        let m5 = fabric.members[5];
        let p = shortest_path(t, m0, m5, Metric::Hops).unwrap();
        // member -> edge -> core -> edge -> member
        assert_eq!(p.hop_count(), 4);
        let _ = MacAddr::local_from_id(0);
        let _ = Ipv4Addr::new(0, 0, 0, 0);
    }
}
