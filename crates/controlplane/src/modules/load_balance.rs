//! Load balancing ("load balancing: edge->core" in Fig. 2).
//!
//! At every switch where the path database reports **more than one**
//! equal-cost egress port toward a destination host, traffic is sent
//! through a **select group** whose buckets are those ports; the
//! deterministic flow-key hash keeps each flow on one path. Where the
//! shortest path is unique (core switches of a two-tier fabric, the last
//! hop toward a host) a plain next-hop output rule is installed, and
//! local hosts always get a direct output rule.
//!
//! A switch holds **one select group per distinct ECMP port set**, the
//! way switch hardware keeps ECMP next-hop groups: every host whose set
//! is the same shares the group, and each host's forwarding entry points
//! at it. Group ids are allocated per switch, 1, 2, … in the order the
//! compile first meets each set, and a set keeps its id for the rest of
//! the run (groups are never deleted, so their number is bounded by the
//! distinct sets a switch has ever had). An edge or aggregation switch of
//! a fat-tree has one such set; bucket selection reads only the flow key,
//! the switch seed and bucket liveness and weights, never the group id,
//! so sharing a group moves no flow.
//!
//! A forwarding entry that points at a group always travels in the same
//! outbox as that group's `GroupMod`, after it: control-latency spikes
//! reorder messages of different callbacks, and an entry landing before
//! its group would drop traffic as a dead group.
//!
//! On the paper's two-tier IXP fabric this reduces to the classic
//! "groups at the edge, next-hop at the core" layout; on a fat-tree it
//! additionally spreads pod-aggregation traffic over the core tier, and
//! on Jellyfish/WAN graphs (where every switch is an edge) multipath is
//! used wherever the random graph offers it.
//!
//! In [`LbMode::Adaptive`] the module polls edge port counters every
//! `poll_interval` and re-weights the group buckets inversely to each
//! uplink's observed utilization — the "reaction of the controller to
//! specific network events (e.g., a change in the path of a flow due to
//! link congestion)" called out in the paper's introduction. A re-weight
//! republishes each of the switch's groups once.
//!
//! [`LbMode::Adaptive`]: crate::spec::LbMode::Adaptive

use super::{CompileCtx, PolicyModule};
use crate::api::{Outbox, Sink};
use crate::pathdb::PathDb;
use crate::spec::LbMode;
use crate::{cookies, priorities};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::group::{Bucket, GroupEntry, GroupType};
use horse_openflow::messages::{
    CtrlMsg, FlowMod, FlowModCommand, GroupMod, StatsReply, StatsRequest,
};
use horse_openflow::table::FlowEntry;
use horse_openflow::GroupId;
use horse_topology::SwitchRole;
use horse_types::{MacAddr, NodeId, PortNo, SimDuration, Snap, SnapError, TableId};
use std::collections::{BTreeMap, HashMap};

/// Timer token namespace for this module.
pub const LB_TIMER_TOKEN: u64 = 0x1b00;

/// Per switch, the select group of each ECMP port set.
type GroupIds = BTreeMap<NodeId, BTreeMap<Vec<PortNo>, GroupId>>;

/// What a switch's forwarding entry toward one host does.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Route<'a> {
    /// Spread over these equal-cost ports by the switch's select group
    /// for the set.
    Group(&'a [PortNo]),
    /// Out of the one next-hop port.
    Output(PortNo),
}

/// See module docs.
#[derive(Debug)]
pub struct LoadBalanceModule {
    /// ECMP (static equal weights) or adaptive weighted.
    pub mode: LbMode,
    /// Stats polling period in adaptive mode.
    pub poll_interval: SimDuration,
    /// Last observed tx_bytes per (edge switch, uplink port).
    last_tx: BTreeMap<(NodeId, PortNo), u64>,
    /// Current weights per (edge switch, uplink port), 1..=100.
    weights: BTreeMap<(NodeId, PortNo), u32>,
    /// Uplink ports per edge switch (ports toward core switches).
    uplinks: HashMap<NodeId, Vec<PortNo>>,
    /// Groups re-published since the last weight update (metric).
    pub group_updates: u64,
    /// Every ECMP port set each switch was ever compiled with, and its
    /// group id: per switch exactly `1..=n`, in first-use order.
    group_ids: GroupIds,
}

impl LoadBalanceModule {
    /// Creates the module.
    pub fn new(mode: LbMode) -> Self {
        LoadBalanceModule {
            mode,
            poll_interval: SimDuration::from_secs(5),
            last_tx: BTreeMap::new(),
            weights: BTreeMap::new(),
            uplinks: HashMap::new(),
            group_updates: 0,
            group_ids: BTreeMap::new(),
        }
    }

    /// What `sw`'s forwarding entry toward `host` does by `paths`: a
    /// select group where the host is remote and the shortest-path DAG
    /// offers more than one egress port, the next hop otherwise, `None`
    /// while the host is unreachable.
    fn route(paths: &PathDb, sw: NodeId, host: NodeId) -> Option<Route<'_>> {
        let set = paths.ecmp(sw, host);
        if set.len() > 1 && paths.attachment(host).map(|(at, _)| at) != Some(sw) {
            Some(Route::Group(set))
        } else {
            paths.next_hop(sw, host).map(Route::Output)
        }
    }

    /// The entry `sw` needs toward `host` (its MAC and route) when the
    /// route differs from what `prev` compiled to; `None` when it does not
    /// or there is no entry to install.
    fn fresh_route<'a>(
        sw: NodeId,
        host: NodeId,
        prev: &PathDb,
        ctx: &CompileCtx<'a>,
    ) -> Option<(MacAddr, Route<'a>)> {
        let mac = ctx.topo.node(host).and_then(|n| n.mac())?;
        let route = Self::route(ctx.paths, sw, host)?;
        (Self::route(prev, sw, host) != Some(route)).then_some((mac, route))
    }

    /// A `GroupMod` adding `sw`'s select group `id` over `set`, with the
    /// current bucket weights.
    fn group_mod(
        weights: &BTreeMap<(NodeId, PortNo), u32>,
        sw: NodeId,
        id: GroupId,
        set: &[PortNo],
    ) -> CtrlMsg {
        let buckets = set
            .iter()
            .map(|&p| Bucket::weighted_output(p, *weights.get(&(sw, p)).unwrap_or(&1)))
            .collect();
        CtrlMsg::GroupMod(GroupMod::Add(GroupEntry {
            id,
            group_type: GroupType::Select,
            buckets,
        }))
    }

    /// Discovers uplinks: live edge-switch ports whose link lands on a
    /// core. Redone on every topology change — the adaptive poll reads
    /// exactly these ports.
    fn discover_uplinks(&mut self, ctx: &CompileCtx<'_>) {
        self.uplinks.clear();
        for sw in ctx.topo.switches() {
            let role = ctx.topo.node(sw).and_then(|n| n.role());
            if role != Some(SwitchRole::Edge) {
                continue;
            }
            let mut ups: Vec<PortNo> = ctx
                .topo
                .out_links(sw)
                .filter(|(_, l)| {
                    l.is_up()
                        && ctx
                            .topo
                            .node(l.dst)
                            .and_then(|n| n.role())
                            .map(|r| r == SwitchRole::Core)
                            .unwrap_or(false)
                })
                .map(|(_, l)| l.src_port)
                .collect();
            ups.sort();
            for &p in &ups {
                self.weights.entry((sw, p)).or_insert(1);
            }
            self.uplinks.insert(sw, ups);
        }
    }

    /// The first half of one switch's share of the compile, for the given
    /// destination hosts: the groups that the entries `prev` did not
    /// already compile to point at, each once in first-use order with its
    /// port set. A set the switch meets for the first time gets the next
    /// id.
    fn plan_groups<'a>(
        &mut self,
        sw: NodeId,
        hosts: impl Iterator<Item = NodeId>,
        prev: &PathDb,
        ctx: &CompileCtx<'a>,
    ) -> Vec<(GroupId, &'a [PortNo])> {
        let ids = self.group_ids.entry(sw).or_default();
        let mut planned = Vec::new();
        // seen[i]: group i + 1 is planned already (ids are dense per switch)
        let mut seen: Vec<bool> = Vec::new();
        for host in hosts {
            let Some((_, Route::Group(set))) = Self::fresh_route(sw, host, prev, ctx) else {
                continue;
            };
            let id = match ids.get(set) {
                Some(&id) => id,
                None => {
                    let id = GroupId(u32::try_from(ids.len() + 1).expect("group ids fit u32"));
                    ids.insert(set.to_vec(), id);
                    id
                }
            };
            let i = id.0 as usize - 1;
            if i >= seen.len() {
                seen.resize(i + 1, false);
            }
            if !std::mem::replace(&mut seen[i], true) {
                planned.push((id, set));
            }
        }
        planned
    }

    /// The second half: publishes the planned groups with the current
    /// bucket weights, then the forwarding entries that point at them or
    /// at a next hop — only those `prev` did not already compile to.
    /// Local hosts get direct output; remote hosts a group where the ECMP
    /// set is wider than one port, a next-hop rule otherwise (none while
    /// the host is unreachable).
    fn install_switch(
        &mut self,
        sw: NodeId,
        groups: &[(GroupId, &[PortNo])],
        hosts: impl Iterator<Item = NodeId>,
        prev: &PathDb,
        ctx: &CompileCtx<'_>,
        out: &mut dyn Sink,
    ) {
        for &(id, set) in groups {
            out.send(sw, Self::group_mod(&self.weights, sw, id, set));
        }
        self.group_updates += groups.len() as u64;
        let ids = &self.group_ids[&sw];
        for host in hosts {
            let Some((mac, route)) = Self::fresh_route(sw, host, prev, ctx) else {
                continue;
            };
            let instruction = match route {
                Route::Group(set) => Instruction::group(ids[set]),
                Route::Output(port) => Instruction::output(port),
            };
            out.send(
                sw,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        priorities::FORWARDING,
                        FlowMatch::ANY.with_eth_dst(mac),
                        instruction,
                    )
                    .with_cookie(cookies::FORWARDING | host.0 as u64),
                }),
            );
        }
    }
}

impl PolicyModule for LoadBalanceModule {
    fn name(&self) -> &'static str {
        "load_balancing"
    }

    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut dyn Sink) {
        self.discover_uplinks(ctx);
        // Per switch, ascending id — edges precede cores in the canned
        // fabrics, preserving the historical message order.
        let blank = PathDb::default();
        let hosts = ctx.paths.hosts();
        for sw in ctx.topo.switches() {
            let groups = self.plan_groups(sw, hosts.iter().copied(), &blank, ctx);
            self.install_switch(sw, &groups, hosts.iter().copied(), &blank, ctx, out);
        }
        // Adaptive mode: arm the polling timer (once — a reinstall must
        // not start a second polling chain).
        if self.mode == LbMode::Adaptive {
            out.set_timer(self.poll_interval, LB_TIMER_TOKEN);
        }
    }

    fn reinstall(
        &mut self,
        ctx: &CompileCtx<'_>,
        prev: &PathDb,
        dirty: &[(NodeId, NodeId)],
        out: &mut Outbox,
    ) {
        self.discover_uplinks(ctx);
        for cells in dirty.chunk_by(|a, b| a.0 == b.0) {
            let (sw, hosts) = (cells[0].0, cells.iter().map(|c| c.1));
            let groups = self.plan_groups(sw, hosts.clone(), prev, ctx);
            self.install_switch(sw, &groups, hosts, prev, ctx, out);
        }
    }

    fn on_timer(&mut self, token: u64, _ctx: &CompileCtx<'_>, out: &mut Outbox) -> bool {
        if token != LB_TIMER_TOKEN {
            return false;
        }
        let mut edges: Vec<NodeId> = self.uplinks.keys().copied().collect();
        edges.sort();
        for edge in edges {
            out.send(edge, CtrlMsg::StatsRequest(StatsRequest::Port(None)));
        }
        out.set_timer(self.poll_interval, LB_TIMER_TOKEN);
        true
    }

    fn on_stats(
        &mut self,
        switch: NodeId,
        reply: &StatsReply,
        _ctx: &CompileCtx<'_>,
        out: &mut Outbox,
    ) {
        if self.mode != LbMode::Adaptive {
            return;
        }
        let StatsReply::Port(rows) = reply else {
            return;
        };
        let Some(uplinks) = self.uplinks.get(&switch).cloned() else {
            return;
        };
        // Delta tx bytes per uplink since the last poll.
        let mut deltas: Vec<(PortNo, u64)> = Vec::new();
        for row in rows {
            if !uplinks.contains(&row.port) {
                continue;
            }
            let prev = self
                .last_tx
                .insert((switch, row.port), row.tx_bytes)
                .unwrap_or(0);
            deltas.push((row.port, row.tx_bytes.saturating_sub(prev)));
        }
        if deltas.is_empty() {
            return;
        }
        // Weight inversely to load: least-loaded uplink gets weight 100,
        // the most-loaded gets at least 1.
        let max_delta = deltas.iter().map(|(_, d)| *d).max().unwrap_or(0);
        let mut changed = false;
        for (port, delta) in deltas {
            // the zero check is semantic (all-equal loads => uniform
            // weight), not a guard to fold into checked_div
            #[allow(clippy::manual_checked_ops)]
            let w = if max_delta == 0 {
                1
            } else {
                // linear inverse scaling into [1, 100]
                (1 + (99 * (max_delta - delta)) / max_delta) as u32
            };
            let old = self.weights.insert((switch, port), w);
            if old != Some(w) {
                changed = true;
            }
        }
        if changed {
            for (set, &id) in self.group_ids.get(&switch).into_iter().flatten() {
                out.send(switch, Self::group_mod(&self.weights, switch, id, set));
                self.group_updates += 1;
            }
        }
    }

    fn snapshot_state(&self, w: &mut horse_types::SnapWriter) {
        self.last_tx.snap(w);
        self.weights.snap(w);
        self.uplinks.snap(w);
        self.group_updates.snap(w);
        self.group_ids.snap(w);
    }

    fn restore_state(&mut self, r: &mut horse_types::SnapReader) -> Result<(), SnapError> {
        self.last_tx = Snap::unsnap(r)?;
        self.weights = Snap::unsnap(r)?;
        self.uplinks = Snap::unsnap(r)?;
        self.group_updates = Snap::unsnap(r)?;
        let at = r.position();
        let group_ids: GroupIds = Snap::unsnap(r)?;
        for ids in group_ids.values() {
            let mut dense: Vec<u32> = ids.values().map(|id| id.0).collect();
            dense.sort_unstable();
            if !dense.iter().copied().eq(1..=dense.len() as u32) {
                return Err(SnapError::new("load balancer: group ids are not 1..=n", at));
            }
        }
        self.group_ids = group_ids;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PolicyGenerator;
    use crate::spec::{PolicyRule, PolicySpec};
    use horse_openflow::messages::PortStatsEntry;
    use horse_openflow::switch::{OpenFlowSwitch, Verdict};
    use horse_topology::builders::{self, FabricHandles};
    use horse_topology::generators::{generate, GeneratorParams, TopologyKind};
    use horse_topology::Topology;
    use horse_types::{FlowKey, SimTime};
    use std::collections::BTreeSet;

    fn fabric() -> (FabricHandles, PathDb) {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        (f, db)
    }

    fn two_core_ixp() -> FabricHandles {
        builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        })
    }

    fn fat_tree(k: usize) -> FabricHandles {
        generate(&GeneratorParams {
            kind: TopologyKind::FatTree,
            fat_tree_k: k,
            ..Default::default()
        })
        .expect("fat-tree generates")
    }

    fn ctx<'a>(topo: &'a Topology, paths: &'a PathDb) -> CompileCtx<'a> {
        CompileCtx {
            topo,
            paths,
            now: SimTime::ZERO,
        }
    }

    /// The distinct ECMP port sets `sw` reaches remote hosts through.
    fn distinct_sets(paths: &PathDb, sw: NodeId) -> BTreeSet<&[PortNo]> {
        paths
            .hosts()
            .iter()
            .filter_map(|&h| match LoadBalanceModule::route(paths, sw, h) {
                Some(Route::Group(set)) => Some(set),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn installs_groups_for_remote_hosts_only() {
        let (f, db) = fabric();
        let mut m = LoadBalanceModule::new(LbMode::Ecmp);
        let mut out = Outbox::new();
        m.install(&ctx(&f.topology, &db), &mut out);
        // Each of 2 edges reaches its 2 remote hosts over both cores: one
        // group per edge, with one bucket per core.
        let groups: Vec<_> = out
            .msgs
            .iter()
            .filter_map(|(sw, msg)| match msg {
                CtrlMsg::GroupMod(GroupMod::Add(g)) => Some((*sw, g)),
                _ => None,
            })
            .collect();
        assert_eq!(groups.len(), 2);
        for (sw, g) in &groups {
            assert!(f.edges.contains(sw));
            assert_eq!(g.id, GroupId(1));
            assert_eq!(g.group_type, GroupType::Select);
            assert_eq!(g.buckets.len(), 2);
        }
        // Every remote host's entry points at its edge's group, after it.
        for &edge in &f.edges {
            let group_at = out
                .msgs
                .iter()
                .position(|(sw, msg)| *sw == edge && matches!(msg, CtrlMsg::GroupMod(_)))
                .expect("edge has a group");
            let mut remote = 0;
            for (i, (sw, msg)) in out.msgs.iter().enumerate() {
                let CtrlMsg::FlowMod(fm) = msg else { continue };
                let host = NodeId((fm.entry.cookie & 0xffff_ffff) as u32);
                if *sw != edge || db.attachment(host).map(|(at, _)| at) == Some(edge) {
                    continue;
                }
                assert_eq!(fm.entry.instructions, vec![Instruction::group(GroupId(1))]);
                assert!(i > group_at, "entry toward {host} precedes its group");
                remote += 1;
            }
            assert_eq!(remote, 2);
        }
        // No timer in ECMP mode.
        assert!(out.timers.is_empty());
    }

    #[test]
    fn one_group_per_distinct_ecmp_set() {
        for (name, f) in [
            ("fat-tree k=4", fat_tree(4)),
            ("fat-tree k=8", fat_tree(8)),
            ("2-core IXP", two_core_ixp()),
        ] {
            let db = PathDb::build(&f.topology);
            let mut m = LoadBalanceModule::new(LbMode::Ecmp);
            let mut out = Outbox::new();
            m.install(&ctx(&f.topology, &db), &mut out);
            let mut total = 0;
            for sw in f.topology.switches() {
                let sets = distinct_sets(&db, sw);
                let groups: Vec<&GroupEntry> = out
                    .msgs
                    .iter()
                    .filter_map(|(s, msg)| match msg {
                        CtrlMsg::GroupMod(GroupMod::Add(g)) if *s == sw => Some(g),
                        _ => None,
                    })
                    .collect();
                assert_eq!(groups.len(), sets.len(), "{name}: {sw}");
                // ids 1..=n, one per set
                for (i, g) in groups.iter().enumerate() {
                    assert_eq!(g.id, GroupId(i as u32 + 1), "{name}: {sw}");
                }
                let published: BTreeSet<Vec<PortNo>> = groups
                    .iter()
                    .map(|g| g.buckets.iter().map(|b| b.watch_port).collect())
                    .collect();
                let want: BTreeSet<Vec<PortNo>> = sets.iter().map(|s| s.to_vec()).collect();
                assert_eq!(published, want, "{name}: {sw}");
                total += groups.len();
            }
            assert!(total > 0, "{name}: no multipath anywhere");
        }
        // a k=8 edge or aggregation switch has exactly one set
        let f = fat_tree(8);
        let db = PathDb::build(&f.topology);
        let with_groups = f
            .topology
            .switches()
            .filter(|&sw| !distinct_sets(&db, sw).is_empty())
            .count();
        assert_eq!(with_groups, 64);
        assert!(f
            .topology
            .switches()
            .all(|sw| distinct_sets(&db, sw).len() <= 1));
    }

    #[test]
    fn shared_groups_pick_the_per_host_reference_bucket() {
        let f = fat_tree(4);
        let topo = &f.topology;
        let db = PathDb::build(topo);
        let spec = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
        let mut gen = PolicyGenerator::new(spec, topo).expect("valid policy");
        let out = gen.compile(topo);
        let mut switches: BTreeMap<NodeId, OpenFlowSwitch> = topo
            .switches()
            .map(|sw| {
                let ports: Vec<PortNo> = topo.out_links(sw).map(|(_, l)| l.src_port).collect();
                (sw, OpenFlowSwitch::new(sw, 2, &ports))
            })
            .collect();
        for (sw, msg) in &out.msgs {
            switches
                .get_mut(sw)
                .expect("message for a switch")
                .apply(msg, SimTime::ZERO);
        }
        let node = |n: NodeId| topo.node(n).expect("node exists");
        let mut checked = 0;
        for (&sw, of) in &mut switches {
            for &dst in db.hosts() {
                if db.attachment(dst).map(|(at, _)| at) == Some(sw) {
                    continue;
                }
                for (i, &src) in db.hosts().iter().enumerate().take(6) {
                    let key = FlowKey::tcp(
                        node(src).mac().expect("host mac"),
                        node(dst).mac().expect("host mac"),
                        node(src).ip().expect("host ip"),
                        node(dst).ip().expect("host ip"),
                        40_000 + 37 * i as u16,
                        443,
                    );
                    let set = db.ecmp(sw, dst);
                    let want = if set.len() > 1 {
                        let reference = GroupEntry::ecmp(GroupId(dst.0 + 1), set);
                        let picked = reference.resolve(&key, sw.0 as u64, |_| true);
                        vec![set[picked[0]]]
                    } else {
                        vec![db.next_hop(sw, dst).expect("reachable")]
                    };
                    let got = of.process(PortNo(1), &key, SimTime::ZERO).verdict;
                    assert_eq!(got, Verdict::Forward(want), "{sw} toward {dst}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "{checked} lookups");
    }

    #[test]
    fn adaptive_mode_arms_timer_and_polls() {
        let (f, db) = fabric();
        let ctx = ctx(&f.topology, &db);
        let mut m = LoadBalanceModule::new(LbMode::Adaptive);
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        assert_eq!(out.timers, vec![(m.poll_interval, LB_TIMER_TOKEN)]);
        // fire the timer: stats requests to both edges + rearm
        let mut out2 = Outbox::new();
        assert!(m.on_timer(LB_TIMER_TOKEN, &ctx, &mut out2));
        let polls = out2
            .msgs
            .iter()
            .filter(|(_, msg)| matches!(msg, CtrlMsg::StatsRequest(_)))
            .count();
        assert_eq!(polls, 2);
        assert_eq!(out2.timers.len(), 1);
        assert!(!m.on_timer(0xdead, &ctx, &mut Outbox::new()));
    }

    #[test]
    fn adaptive_reweights_away_from_hot_uplink() {
        let f = two_core_ixp();
        let db = PathDb::build(&f.topology);
        let ctx = ctx(&f.topology, &db);
        let mut m = LoadBalanceModule::new(LbMode::Adaptive);
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        let edge = *m.uplinks.keys().min().unwrap();
        let ups = m.uplinks[&edge].clone();
        assert_eq!(ups.len(), 2);
        // report port stats: uplink 0 carried 1 GB, uplink 1 nothing
        let row = |port, tx_bytes| PortStatsEntry {
            port,
            rx_packets: 0,
            tx_packets: 0,
            rx_bytes: 0,
            tx_bytes,
            drops: 0,
        };
        let reply = StatsReply::Port(vec![row(ups[0], 1_000_000_000), row(ups[1], 0)]);
        let before = m.group_updates;
        let mut out2 = Outbox::new();
        m.on_stats(edge, &reply, &ctx, &mut out2);
        assert_eq!(m.weights[&(edge, ups[0])], 1, "hot uplink de-weighted");
        assert_eq!(m.weights[&(edge, ups[1])], 100, "cold uplink favoured");
        // the edge's one set is republished once with the new weights,
        // not once per remote host
        let remote = db
            .hosts()
            .iter()
            .filter(|&&h| db.attachment(h).map(|(at, _)| at) != Some(edge))
            .count();
        assert_eq!(remote, 6);
        assert_eq!(distinct_sets(&db, edge).len(), 1);
        assert_eq!(m.group_updates - before, 1);
        let republished: Vec<_> = out2
            .msgs
            .iter()
            .filter_map(|(sw, msg)| match msg {
                CtrlMsg::GroupMod(GroupMod::Add(g)) => Some((*sw, g)),
                _ => None,
            })
            .collect();
        assert_eq!(republished.len(), 1);
        let (sw, g) = republished[0];
        assert_eq!((sw, g.id), (edge, GroupId(1)));
        let weights: Vec<u32> = g.buckets.iter().map(|b| b.weight).collect();
        assert_eq!(weights, vec![1, 100]);
    }
}
