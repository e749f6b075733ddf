//! Application-specific peering ("application based peering: e1->e3 :
//! http" in Fig. 2).
//!
//! Steers one member pair's traffic of one application class over a pinned
//! alternate path (the `path_rank`-th shortest), leaving all their other
//! traffic on the default forwarding. Compiled as per-hop table-0 rules
//! matching `(eth_src, eth_dst, ip_proto, tp_dst)`.

use super::{CompileCtx, PolicyModule};
use crate::api::Sink;
use crate::{cookies, priorities};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand};
use horse_openflow::table::FlowEntry;
use horse_types::{AppClass, MacAddr, NodeId, TableId};

/// See module docs.
#[derive(Debug)]
pub struct AppPeeringModule {
    /// Source member host.
    pub src: NodeId,
    /// Destination member host.
    pub dst: NodeId,
    /// Source member MAC.
    pub src_mac: MacAddr,
    /// Destination member MAC.
    pub dst_mac: MacAddr,
    /// Steered application class.
    pub app: AppClass,
    /// Which alternate path to pin (0 = shortest).
    pub path_rank: usize,
    /// Instance index (keeps cookies of multiple peering policies apart).
    pub index: u64,
}

impl PolicyModule for AppPeeringModule {
    fn name(&self) -> &'static str {
        "app_peering"
    }

    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut dyn Sink) {
        let Some(path) = ctx
            .paths
            .kth_path(ctx.topo, self.src, self.dst, self.path_rank)
            .or_else(|| ctx.paths.kth_path(ctx.topo, self.src, self.dst, 0))
        else {
            return; // partitioned — nothing to pin
        };
        let matcher = FlowMatch::ANY
            .with_eth_src(self.src_mac)
            .with_eth_dst(self.dst_mac)
            .with_ip_proto(self.app.transport())
            .with_tp_dst(self.app.dst_port());
        // One rule per switch hop, outputting on the path's next link.
        for (i, node) in path.nodes.iter().enumerate() {
            if ctx.topo.node(*node).map(|n| n.kind.is_switch()) != Some(true) {
                continue;
            }
            let Some(&link) = path.links.get(i) else {
                continue;
            };
            let port = ctx.topo.link(link).expect("path link exists").src_port;
            out.send(
                *node,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        priorities::APP_PEERING,
                        matcher,
                        Instruction::output(port),
                    )
                    .with_cookie(cookies::APP_PEERING | self.index),
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Outbox;
    use crate::pathdb::PathDb;
    use horse_topology::builders;
    use horse_types::SimTime;

    #[test]
    fn pins_http_on_alternate_path() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
        let (src, dst) = (f.members[0], f.members[1]);
        let mut m = AppPeeringModule {
            src,
            dst,
            src_mac: f.topology.node(src).unwrap().mac().unwrap(),
            dst_mac: f.topology.node(dst).unwrap().mac().unwrap(),
            app: AppClass::Http,
            path_rank: 1,
            index: 0,
        };
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        // path m0 -> e1 -> cX -> e2 -> m1: three switch hops
        assert_eq!(out.msgs.len(), 3);
        for (_, msg) in &out.msgs {
            match msg {
                CtrlMsg::FlowMod(fm) => {
                    assert_eq!(fm.entry.priority, priorities::APP_PEERING);
                    assert_eq!(fm.entry.matcher.tp_dst, Some(80));
                    assert_eq!(
                        fm.entry.matcher.ip_proto,
                        Some(horse_types::IpProtocol::Tcp)
                    );
                }
                _ => panic!("unexpected message"),
            }
        }
        // rank-1 path differs from the shortest
        let p0 = db.kth_path(&f.topology, src, dst, 0).unwrap();
        let p1 = db.kth_path(&f.topology, src, dst, 1).unwrap();
        assert_ne!(p0.links, p1.links);
    }

    #[test]
    fn falls_back_to_shortest_when_rank_unavailable() {
        let f = builders::linear(2, horse_types::Rate::gbps(1.0));
        let db = PathDb::build(&f.topology);
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
        let (src, dst) = (f.members[0], f.members[1]);
        let mut m = AppPeeringModule {
            src,
            dst,
            src_mac: f.topology.node(src).unwrap().mac().unwrap(),
            dst_mac: f.topology.node(dst).unwrap().mac().unwrap(),
            app: AppClass::Dns,
            path_rank: 5, // only one simple path exists
            index: 1,
        };
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        assert_eq!(out.msgs.len(), 2, "both chain switches get a rule");
    }
}
