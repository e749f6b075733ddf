//! Reactive MAC learning — the classic learning-switch controller.
//!
//! Every table miss reaches the controller as a `FlowIn`. The module
//! learns `eth_src → in_port` at the reporting switch; if the destination
//! is already known there it installs an exact `eth_dst` rule (table 1,
//! idle-timed), otherwise a short-lived exact-match **flood** entry so the
//! flow makes progress while the reverse direction teaches the switch.
//!
//! This is the highest-controller-load configuration of the evaluation
//! sweep — every new flow costs at least one control-channel round trip,
//! which is precisely the control/data coupling the paper wants observable.

use super::{CompileCtx, PolicyModule};
use crate::api::{Outbox, Sink};
use crate::{cookies, priorities};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand};
use horse_openflow::table::FlowEntry;
use horse_types::{FlowKey, MacAddr, NodeId, PortNo, SimDuration, Snap, TableId};
use std::collections::HashMap;

/// See module docs.
#[derive(Debug)]
pub struct MacLearningModule {
    /// Per-switch learned station table.
    learned: HashMap<NodeId, HashMap<MacAddr, PortNo>>,
    /// Idle timeout for learned forwarding entries.
    pub idle_timeout: SimDuration,
    /// Idle timeout for transient flood entries.
    pub flood_timeout: SimDuration,
    /// Number of flow-ins handled (exported metric).
    pub handled: u64,
}

impl Default for MacLearningModule {
    fn default() -> Self {
        MacLearningModule {
            learned: HashMap::new(),
            idle_timeout: SimDuration::from_secs(30),
            flood_timeout: SimDuration::from_secs(1),
            handled: 0,
        }
    }
}

impl MacLearningModule {
    /// What this switch has learned so far (tests/diagnostics).
    pub fn stations(&self, switch: NodeId) -> Option<&HashMap<MacAddr, PortNo>> {
        self.learned.get(&switch)
    }
}

impl PolicyModule for MacLearningModule {
    fn name(&self) -> &'static str {
        "mac_learning"
    }

    fn install(&mut self, _ctx: &CompileCtx<'_>, _out: &mut dyn Sink) {
        // Purely reactive — nothing proactive to install. (The generator's
        // plumbing fall-through still sends table-0 misses to table 1,
        // whose misses reach the controller.)
    }

    fn on_flow_in(
        &mut self,
        switch: NodeId,
        in_port: PortNo,
        key: &FlowKey,
        _ctx: &CompileCtx<'_>,
        out: &mut Outbox,
    ) -> bool {
        self.handled += 1;
        let table = self.learned.entry(switch).or_default();
        table.insert(key.eth_src, in_port);
        if let Some(&port) = table.get(&key.eth_dst) {
            out.send(
                switch,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        priorities::LEARNED,
                        FlowMatch::ANY.with_eth_dst(key.eth_dst),
                        Instruction::output(port),
                    )
                    .with_cookie(cookies::MAC_LEARNING)
                    .with_idle_timeout(self.idle_timeout),
                }),
            );
        } else {
            // Unknown destination: exact-match transient flood.
            out.send(
                switch,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        priorities::LEARNED,
                        FlowMatch::exact(key),
                        Instruction::output(PortNo::FLOOD),
                    )
                    .with_cookie(cookies::MAC_LEARNING)
                    .with_idle_timeout(self.flood_timeout),
                }),
            );
        }
        true
    }

    fn snapshot_state(&self, w: &mut horse_types::SnapWriter) {
        self.learned.snap(w);
        self.handled.snap(w);
    }

    fn restore_state(
        &mut self,
        r: &mut horse_types::SnapReader,
    ) -> Result<(), horse_types::SnapError> {
        self.learned = horse_types::Snap::unsnap(r)?;
        self.handled = horse_types::Snap::unsnap(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathdb::PathDb;
    use horse_topology::builders;
    use horse_types::{Rate, SimTime};
    use std::net::Ipv4Addr;

    fn ctx_fixture() -> (horse_topology::Topology, PathDb) {
        let f = builders::star(2, Rate::gbps(1.0));
        let paths = PathDb::build(&f.topology);
        (f.topology, paths)
    }

    fn key(src: u32, dst: u32) -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(src),
            MacAddr::local_from_id(dst),
            Ipv4Addr::new(10, 0, 0, src as u8),
            Ipv4Addr::new(10, 0, 0, dst as u8),
            1000,
            80,
        )
    }

    #[test]
    fn unknown_destination_floods_then_learns() {
        let (topo, paths) = ctx_fixture();
        let ctx = CompileCtx {
            topo: &topo,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut m = MacLearningModule::default();
        let sw = NodeId(0);
        let mut out = Outbox::new();
        // first packet h1 -> h2: dst unknown => flood entry
        assert!(m.on_flow_in(sw, PortNo(1), &key(1, 2), &ctx, &mut out));
        assert_eq!(out.msgs.len(), 1);
        match &out.msgs[0].1 {
            CtrlMsg::FlowMod(fm) => {
                assert_eq!(
                    fm.entry.instructions,
                    vec![Instruction::output(PortNo::FLOOD)]
                );
                assert_eq!(fm.entry.idle_timeout, m.flood_timeout);
            }
            _ => panic!(),
        }
        // reverse direction: h2 -> h1; h1's MAC was learned on port 1
        let mut out2 = Outbox::new();
        m.on_flow_in(sw, PortNo(2), &key(2, 1), &ctx, &mut out2);
        match &out2.msgs[0].1 {
            CtrlMsg::FlowMod(fm) => {
                assert_eq!(fm.entry.instructions, vec![Instruction::output(PortNo(1))]);
                assert_eq!(fm.entry.idle_timeout, m.idle_timeout);
            }
            _ => panic!(),
        }
        assert_eq!(m.handled, 2);
        assert_eq!(
            m.stations(sw).unwrap().get(&MacAddr::local_from_id(2)),
            Some(&PortNo(2))
        );
    }
}
