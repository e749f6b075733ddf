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
//! link congestion)" called out in the paper's introduction.
//!
//! [`LbMode::Adaptive`]: crate::spec::LbMode::Adaptive

use super::{CompileCtx, PolicyModule};
use crate::api::Outbox;
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
use horse_types::{NodeId, PortNo, SimDuration, Snap, TableId};
use std::collections::{BTreeMap, HashMap};

/// Timer token namespace for this module.
pub const LB_TIMER_TOKEN: u64 = 0x1b00;

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
        }
    }

    /// The select-group id used for a destination host (per-switch id
    /// space: host index + 1).
    fn group_for(host: NodeId) -> GroupId {
        GroupId(host.0 + 1)
    }

    /// True when, by `paths`, `sw` should reach `host` through a select
    /// group: the host is remote and the shortest-path DAG offers more
    /// than one egress port.
    fn wants_group(paths: &PathDb, sw: NodeId, host: NodeId) -> bool {
        paths.attachment(host).map(|(at, _)| at) != Some(sw) && paths.ecmp(sw, host).len() > 1
    }

    /// What `sw`'s forwarding entry toward `host` does by `paths`: the
    /// select group where it wants one, the next hop otherwise, `None`
    /// while the host is unreachable.
    fn instruction(paths: &PathDb, sw: NodeId, host: NodeId) -> Option<Instruction> {
        if Self::wants_group(paths, sw, host) {
            Some(Instruction::group(Self::group_for(host)))
        } else {
            paths.next_hop(sw, host).map(Instruction::output)
        }
    }

    /// Publishes `sw`'s select group toward `host` with the current
    /// bucket weights.
    fn publish_group(&mut self, sw: NodeId, host: NodeId, ctx: &CompileCtx<'_>, out: &mut Outbox) {
        let buckets: Vec<Bucket> = ctx
            .paths
            .ecmp(sw, host)
            .iter()
            .map(|&p| {
                let w = *self.weights.get(&(sw, p)).unwrap_or(&1);
                Bucket::weighted_output(p, w)
            })
            .collect();
        out.send(
            sw,
            CtrlMsg::GroupMod(GroupMod::Add(GroupEntry {
                id: Self::group_for(host),
                group_type: GroupType::Select,
                buckets,
            })),
        );
        self.group_updates += 1;
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

    /// One switch's share of the compile, for the given destination
    /// hosts: the multipath groups first, then the forwarding entries
    /// that reference them — in both cases only those `prev` did not
    /// already compile to. Local hosts get direct output; remote hosts a
    /// group where the ECMP set is wider than one port, a next-hop rule
    /// otherwise (none while the host is unreachable).
    fn install_switch(
        &mut self,
        sw: NodeId,
        hosts: impl Iterator<Item = NodeId> + Clone,
        prev: &PathDb,
        ctx: &CompileCtx<'_>,
        out: &mut Outbox,
    ) {
        for host in hosts.clone() {
            if Self::wants_group(ctx.paths, sw, host)
                && !(Self::wants_group(prev, sw, host)
                    && prev.ecmp(sw, host) == ctx.paths.ecmp(sw, host))
            {
                self.publish_group(sw, host, ctx, out);
            }
        }
        for host in hosts {
            let Some(mac) = ctx.topo.node(host).and_then(|n| n.mac()) else {
                continue;
            };
            let Some(instruction) = Self::instruction(ctx.paths, sw, host) else {
                continue;
            };
            if Self::instruction(prev, sw, host).as_ref() == Some(&instruction) {
                continue;
            }
            out.send(
                sw,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        priorities::FORWARDING,
                        FlowMatch::ANY.with_eth_dst(mac),
                        vec![instruction],
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

    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut Outbox) {
        self.discover_uplinks(ctx);
        // Per switch, ascending id — edges precede cores in the canned
        // fabrics, preserving the historical message order.
        let blank = PathDb::default();
        // At most one group and one forwarding entry per (switch, host)
        // pair: one allocation instead of a doubling chain of copies,
        // which left set-up's peak RSS at the mercy of heap layout.
        let pairs = ctx.paths.hosts().len() * ctx.topo.switches().count();
        out.msgs.reserve(2 * pairs);
        for sw in ctx.topo.switches() {
            self.install_switch(sw, ctx.paths.hosts().iter().copied(), &blank, ctx, out);
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
            self.install_switch(cells[0].0, cells.iter().map(|c| c.1), prev, ctx, out);
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
        ctx: &CompileCtx<'_>,
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
            for &host in ctx.paths.hosts() {
                if Self::wants_group(ctx.paths, switch, host) {
                    self.publish_group(switch, host, ctx, out);
                }
            }
        }
    }

    fn snapshot_state(&self, w: &mut horse_types::SnapWriter) {
        self.last_tx.snap(w);
        self.weights.snap(w);
        self.uplinks.snap(w);
        self.group_updates.snap(w);
    }

    fn restore_state(
        &mut self,
        r: &mut horse_types::SnapReader,
    ) -> Result<(), horse_types::SnapError> {
        self.last_tx = Snap::unsnap(r)?;
        self.weights = Snap::unsnap(r)?;
        self.uplinks = Snap::unsnap(r)?;
        self.group_updates = Snap::unsnap(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_openflow::messages::PortStatsEntry;
    use horse_topology::builders;
    use horse_types::SimTime;

    fn fabric() -> (horse_topology::builders::FabricHandles, PathDb) {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        (f, db)
    }

    #[test]
    fn installs_groups_for_remote_hosts_only() {
        let (f, db) = fabric();
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
        let mut m = LoadBalanceModule::new(LbMode::Ecmp);
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        // Each of 2 edges: 2 remote hosts => 2 groups each.
        let groups: Vec<_> = out
            .msgs
            .iter()
            .filter(|(_, msg)| matches!(msg, CtrlMsg::GroupMod(_)))
            .collect();
        assert_eq!(groups.len(), 4);
        // Each group has one bucket per core.
        for (_, msg) in groups {
            if let CtrlMsg::GroupMod(GroupMod::Add(g)) = msg {
                assert_eq!(g.group_type, GroupType::Select);
                assert_eq!(g.buckets.len(), 2);
            }
        }
        // No timer in ECMP mode.
        assert!(out.timers.is_empty());
    }

    #[test]
    fn adaptive_mode_arms_timer_and_polls() {
        let (f, db) = fabric();
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
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
        let (f, db) = fabric();
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
        let mut m = LoadBalanceModule::new(LbMode::Adaptive);
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        let edge = *m.uplinks.keys().min().unwrap();
        let ups = m.uplinks[&edge].clone();
        assert_eq!(ups.len(), 2);
        // report port stats: uplink 0 carried 1 GB, uplink 1 nothing
        let reply = StatsReply::Port(vec![
            PortStatsEntry {
                port: ups[0],
                rx_packets: 0,
                tx_packets: 0,
                rx_bytes: 0,
                tx_bytes: 1_000_000_000,
                drops: 0,
            },
            PortStatsEntry {
                port: ups[1],
                rx_packets: 0,
                tx_packets: 0,
                rx_bytes: 0,
                tx_bytes: 0,
                drops: 0,
            },
        ]);
        let mut out2 = Outbox::new();
        m.on_stats(edge, &reply, &ctx, &mut out2);
        assert_eq!(m.weights[&(edge, ups[0])], 1, "hot uplink de-weighted");
        assert_eq!(m.weights[&(edge, ups[1])], 100, "cold uplink favoured");
        // groups republished with the new weights
        let republished = out2
            .msgs
            .iter()
            .any(|(_, msg)| matches!(msg, CtrlMsg::GroupMod(_)));
        assert!(republished);
    }
}
