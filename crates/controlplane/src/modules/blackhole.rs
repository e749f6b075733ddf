//! Blackholing — drop all traffic destined to a victim member at every
//! edge switch (the classic IXP DDoS mitigation the paper's Fig. 1 shows).
//!
//! Rules live in table 0 at the highest priority band, so they override
//! every other policy — the composition validator warns when another
//! policy targets the victim and would be shadowed.

use super::{CompileCtx, PolicyModule};
use crate::api::Sink;
use crate::{cookies, priorities};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand};
use horse_openflow::table::FlowEntry;
use horse_topology::SwitchRole;
use horse_types::{MacAddr, TableId};

/// See module docs.
#[derive(Debug)]
pub struct BlackholeModule {
    /// Victim MAC address (resolved from the member name by the generator).
    pub victim_mac: MacAddr,
    /// Victim host node id.
    pub victim: horse_types::NodeId,
}

impl PolicyModule for BlackholeModule {
    fn name(&self) -> &'static str {
        "blackhole"
    }

    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut dyn Sink) {
        for sw in ctx.topo.switches() {
            if ctx.topo.node(sw).and_then(|n| n.role()) != Some(SwitchRole::Edge) {
                continue;
            }
            out.send(
                sw,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(0),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        priorities::BLACKHOLE,
                        FlowMatch::ANY.with_eth_dst(self.victim_mac),
                        Instruction::drop(),
                    )
                    .with_cookie(cookies::BLACKHOLE | self.victim.0 as u64),
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
    fn drop_rules_on_every_edge_not_core() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 3,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
        let victim = f.members[1];
        let mut m = BlackholeModule {
            victim_mac: f.topology.node(victim).unwrap().mac().unwrap(),
            victim,
        };
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        assert_eq!(out.msgs.len(), 3, "one rule per edge switch");
        for (sw, msg) in &out.msgs {
            assert!(f.edges.contains(sw));
            match msg {
                CtrlMsg::FlowMod(fm) => {
                    assert_eq!(fm.table, TableId(0));
                    assert_eq!(fm.entry.priority, priorities::BLACKHOLE);
                    assert_eq!(fm.entry.instructions, vec![Instruction::drop()]);
                }
                _ => panic!("unexpected message"),
            }
        }
    }
}
