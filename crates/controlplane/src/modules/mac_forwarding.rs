//! Proactive MAC forwarding — the paper's "basic forwarding based on
//! source and destination Media Access Control (MAC)" baseline config.
//!
//! For every (switch, destination host) pair, installs a table-1 entry
//! matching `eth_dst` and outputting on the deterministic shortest-path
//! port. No controller round-trips at flow time: this is the cheapest
//! (and least flexible) configuration of the evaluation sweep (E5).

use super::{CompileCtx, PolicyModule};
use crate::api::{Outbox, Sink};
use crate::pathdb::PathDb;
use crate::{cookies, priorities};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand};
use horse_openflow::table::FlowEntry;
use horse_types::{NodeId, TableId};

/// See module docs.
#[derive(Debug, Default)]
pub struct MacForwardingModule;

impl PolicyModule for MacForwardingModule {
    fn name(&self) -> &'static str {
        "mac_forwarding"
    }

    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut dyn Sink) {
        let blank = PathDb::default();
        for sw in ctx.topo.switches() {
            for &host in ctx.paths.hosts() {
                rule(ctx, &blank, sw, host, out);
            }
        }
    }

    fn reinstall(
        &mut self,
        ctx: &CompileCtx<'_>,
        prev: &PathDb,
        dirty: &[(NodeId, NodeId)],
        out: &mut Outbox,
    ) {
        for &(sw, host) in dirty {
            rule(ctx, prev, sw, host, out);
        }
    }
}

/// The forwarding entry of one `(switch, host)` cell, unless `prev`
/// already compiled to the same one. A cell with no path (partitioned)
/// emits nothing and keeps whatever entry it had.
fn rule(ctx: &CompileCtx<'_>, prev: &PathDb, sw: NodeId, host: NodeId, out: &mut dyn Sink) {
    let Some(mac) = ctx.topo.node(host).and_then(|n| n.mac()) else {
        return;
    };
    let Some(port) = ctx.paths.next_hop(sw, host) else {
        return;
    };
    if prev.next_hop(sw, host) == Some(port) {
        return;
    }
    out.send(
        sw,
        CtrlMsg::FlowMod(FlowMod {
            table: TableId(1),
            command: FlowModCommand::Add,
            entry: FlowEntry::new(
                priorities::FORWARDING,
                FlowMatch::ANY.with_eth_dst(mac),
                Instruction::output(port),
            )
            .with_cookie(cookies::FORWARDING | host.0 as u64),
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_topology::builders;
    use horse_types::SimTime;

    #[test]
    fn installs_one_rule_per_switch_host_pair() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let paths = PathDb::build(&f.topology);
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut m = MacForwardingModule;
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        // 4 switches × 4 hosts
        assert_eq!(out.msgs.len(), 16);
        // all go to table 1 at the forwarding priority
        for (_, msg) in &out.msgs {
            match msg {
                CtrlMsg::FlowMod(fm) => {
                    assert_eq!(fm.table, TableId(1));
                    assert_eq!(fm.entry.priority, priorities::FORWARDING);
                    assert_eq!(cookies::namespace(fm.entry.cookie), cookies::FORWARDING);
                }
                _ => panic!("unexpected message"),
            }
        }
    }
}
