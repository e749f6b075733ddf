//! The in-memory control channel.
//!
//! The paper's design explicitly avoids real OpenFlow connections "to
//! reduce the state that needs to be kept" — control messages are plain
//! values. The core simulator delivers them between switch and controller
//! with a configurable latency, preserving the *decoupled control/data
//! plane* timing the abstraction must capture.

use crate::flow_match::FlowMatch;
use crate::group::GroupEntry;
use crate::meter::MeterEntry;
use crate::table::{FlowEntry, RemovalReason};
use horse_types::id::{GroupId, MeterId};
use horse_types::{ByteSize, FlowKey, NodeId, PortNo, Rate, Snap, TableId};
use serde::{Deserialize, Serialize};

/// FlowMod verb.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
pub enum FlowModCommand {
    /// Install (replacing an identical match+priority entry).
    Add,
    /// Delete matching entries (non-strict: subset matching).
    Delete {
        /// Exact match+priority only.
        strict: bool,
    },
}

/// A flow-table modification.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub struct FlowMod {
    /// Target table.
    pub table: TableId,
    /// Add or delete.
    pub command: FlowModCommand,
    /// The entry (for `Add`) or the match template (for `Delete`).
    pub entry: FlowEntry,
}

impl FlowMod {
    /// Shorthand for an Add into table 0.
    pub fn add(entry: FlowEntry) -> Self {
        FlowMod {
            table: TableId(0),
            command: FlowModCommand::Add,
            entry,
        }
    }

    /// Shorthand for a non-strict delete in table 0.
    pub fn delete(matcher: FlowMatch) -> Self {
        FlowMod {
            table: TableId(0),
            command: FlowModCommand::Delete { strict: false },
            entry: FlowEntry::new(0, matcher, vec![]),
        }
    }
}

/// Group-table modification.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub enum GroupMod {
    /// Install or replace a group.
    Add(GroupEntry),
    /// Remove a group.
    Delete(GroupId),
}

/// Meter-table modification.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub enum MeterMod {
    /// Install or replace a meter.
    Add {
        /// Meter id.
        id: MeterId,
        /// Token rate (the limit).
        rate: Rate,
        /// Bucket depth.
        burst: ByteSize,
    },
    /// Remove a meter.
    Delete(MeterId),
}

impl MeterMod {
    /// Builds the meter entry for an `Add`; `None` for `Delete`.
    pub fn to_entry(&self) -> Option<MeterEntry> {
        match self {
            MeterMod::Add { id, rate, burst } => Some(MeterEntry::new(*id, *rate, *burst)),
            MeterMod::Delete(_) => None,
        }
    }
}

/// Statistics request kinds (the "Monitor" block of Fig. 2 polls these).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
pub enum StatsRequest {
    /// Per-entry stats of one table.
    Flow(TableId),
    /// Per-port counters (`None` = all ports).
    Port(Option<PortNo>),
    /// Table lookup/match counters.
    Table,
}

/// One row of a flow-stats reply.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub struct FlowStatsEntry {
    /// Table the entry lives in.
    pub table: TableId,
    /// Entry priority.
    pub priority: u16,
    /// Entry match.
    pub matcher: FlowMatch,
    /// Controller cookie.
    pub cookie: u64,
    /// Packets counted.
    pub packets: u64,
    /// Bytes counted.
    pub bytes: u64,
}

/// One row of a port-stats reply.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, Snap)]
pub struct PortStatsEntry {
    /// The port.
    pub port: PortNo,
    /// Received packets.
    pub rx_packets: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
    /// Received bytes.
    pub rx_bytes: u64,
    /// Transmitted bytes.
    pub tx_bytes: u64,
    /// Drops on this port.
    pub drops: u64,
}

/// One row of a table-stats reply.
#[derive(Clone, Copy, Debug, Serialize, Deserialize, Snap)]
pub struct TableStatsEntry {
    /// The table.
    pub table: TableId,
    /// Active entry count.
    pub active_entries: u64,
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that matched.
    pub matches: u64,
}

/// Statistics replies.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub enum StatsReply {
    /// Flow stats rows.
    Flow(Vec<FlowStatsEntry>),
    /// Port stats rows.
    Port(Vec<PortStatsEntry>),
    /// Table stats rows.
    Table(Vec<TableStatsEntry>),
}

/// Controller → switch messages.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub enum CtrlMsg {
    /// Modify a flow table.
    FlowMod(FlowMod),
    /// Modify the group table.
    GroupMod(GroupMod),
    /// Modify the meter table.
    MeterMod(MeterMod),
    /// Request statistics.
    StatsRequest(StatsRequest),
    /// Fence: the switch replies `BarrierReply` once preceding messages are
    /// applied (application is immediate in-memory, so this orders events).
    Barrier,
}

/// Switch → controller messages.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub enum SwitchMsg {
    /// A flow hit a table miss (or an explicit send-to-controller rule) —
    /// the flow-level analogue of OpenFlow `PACKET_IN`.
    FlowIn {
        /// Reporting switch.
        switch: NodeId,
        /// Ingress port of the flow.
        in_port: PortNo,
        /// The flow's header fields.
        key: FlowKey,
    },
    /// An entry with `notify_removal` was removed.
    FlowRemoved {
        /// Reporting switch.
        switch: NodeId,
        /// Table it lived in.
        table: TableId,
        /// Entry priority.
        priority: u16,
        /// Entry match.
        matcher: FlowMatch,
        /// Controller cookie.
        cookie: u64,
        /// Why it was removed.
        reason: RemovalReason,
        /// Final packet count.
        packets: u64,
        /// Final byte count.
        bytes: u64,
    },
    /// A port changed state.
    PortStatus {
        /// Reporting switch.
        switch: NodeId,
        /// The port.
        port: PortNo,
        /// New state.
        up: bool,
    },
    /// Statistics reply.
    StatsReply {
        /// Reporting switch.
        switch: NodeId,
        /// The payload.
        reply: StatsReply,
    },
    /// Barrier acknowledgement.
    BarrierReply {
        /// Reporting switch.
        switch: NodeId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::{Action, Instruction};
    use crate::counters::FlowCounters;
    use crate::group::{Bucket, GroupType};
    use horse_types::{MacAddr, SimDuration, SnapReader, SnapWriter};

    #[test]
    fn flowmod_shorthands() {
        let fm = FlowMod::add(FlowEntry::new(
            5,
            FlowMatch::ANY,
            vec![Instruction::output(PortNo(1))],
        ));
        assert_eq!(fm.table, TableId(0));
        assert_eq!(fm.command, FlowModCommand::Add);
        let del = FlowMod::delete(FlowMatch::ANY.with_tp_dst(80));
        assert_eq!(del.command, FlowModCommand::Delete { strict: false });
    }

    #[test]
    fn metermod_to_entry() {
        let mm = MeterMod::Add {
            id: MeterId(3),
            rate: Rate::mbps(500.0),
            burst: ByteSize::kib(64),
        };
        let e = mm.to_entry().unwrap();
        assert_eq!(e.id, MeterId(3));
        assert_eq!(e.rate, Rate::mbps(500.0));
        assert!(MeterMod::Delete(MeterId(3)).to_entry().is_none());
    }

    #[test]
    fn messages_serde_roundtrip() {
        let msg = CtrlMsg::StatsRequest(StatsRequest::Port(None));
        let js = serde_json::to_string(&msg).unwrap();
        let back: CtrlMsg = serde_json::from_str(&js).unwrap();
        assert!(matches!(
            back,
            CtrlMsg::StatsRequest(StatsRequest::Port(None))
        ));
    }

    /// The list-valued types as they were encoded before entries held
    /// their lists inline: every list a `Vec`, every field in order.
    mod vec_encoded {
        use super::*;

        #[derive(Serialize, Snap)]
        pub enum Instruction {
            ApplyActions(Vec<Action>),
            Meter(MeterId),
            GotoTable(TableId),
        }

        #[derive(Serialize, Snap)]
        pub struct FlowEntry {
            pub priority: u16,
            pub matcher: FlowMatch,
            pub instructions: Vec<Instruction>,
            pub cookie: u64,
            pub idle_timeout: SimDuration,
            pub hard_timeout: SimDuration,
            pub counters: FlowCounters,
            pub notify_removal: bool,
        }

        #[derive(Serialize, Snap)]
        pub struct Bucket {
            pub weight: u32,
            pub watch_port: PortNo,
            pub actions: Vec<Action>,
        }

        #[derive(Serialize, Snap)]
        pub struct GroupEntry {
            pub id: GroupId,
            pub group_type: GroupType,
            pub buckets: Vec<Bucket>,
        }
    }

    fn snap_bytes<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    fn unsnap_all<T: Snap>(bytes: &[u8]) -> T {
        let mut r = SnapReader::new(bytes);
        let v = T::unsnap(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0, "decoding left bytes behind");
        v
    }

    fn actions(n: usize) -> Vec<Action> {
        [
            Action::SetEthDst(MacAddr::local_from_id(9)),
            Action::SetVlan(100),
            Action::Group(GroupId(4)),
        ][..n]
            .to_vec()
    }

    /// Every instruction list of up to 3 instructions, each an
    /// `ApplyActions`, a `Meter` or a `GotoTable`.
    fn instruction_kinds() -> Vec<Vec<u32>> {
        (0..=3u32)
            .flat_map(|len| {
                (0..3u32.pow(len))
                    .map(move |code| (0..len).map(|i| code / 3u32.pow(i) % 3).collect())
            })
            .collect()
    }

    #[test]
    fn inline_lists_encode_exactly_as_vecs() {
        let mut cases = 0;
        for kinds in instruction_kinds() {
            for n_actions in 0..=3 {
                let vec_ins = |k: u32| match k {
                    0 => vec_encoded::Instruction::ApplyActions(actions(n_actions)),
                    1 => vec_encoded::Instruction::Meter(MeterId(7)),
                    _ => vec_encoded::Instruction::GotoTable(TableId(2)),
                };
                let ins = |k: u32| match k {
                    0 => Instruction::ApplyActions(actions(n_actions).into()),
                    1 => Instruction::Meter(MeterId(7)),
                    _ => Instruction::GotoTable(TableId(2)),
                };
                let matcher = FlowMatch::ANY.with_tp_dst(80);
                let entry = FlowEntry::new(
                    9,
                    matcher,
                    kinds.iter().map(|&k| ins(k)).collect::<Vec<_>>(),
                )
                .with_cookie(0xbeef)
                .with_idle_timeout(SimDuration::from_millis(5))
                .with_removal_notification();
                let old = vec_encoded::FlowEntry {
                    priority: 9,
                    matcher,
                    instructions: kinds.iter().map(|&k| vec_ins(k)).collect(),
                    cookie: 0xbeef,
                    idle_timeout: SimDuration::from_millis(5),
                    hard_timeout: SimDuration::ZERO,
                    counters: FlowCounters::default(),
                    notify_removal: true,
                };
                let bytes = snap_bytes(&entry);
                assert_eq!(bytes, snap_bytes(&old), "{kinds:?} x {n_actions}");
                let json = serde_json::to_value(&entry).unwrap();
                assert_eq!(json, serde_json::to_value(&old).unwrap(), "{kinds:?}");

                let decoded: FlowEntry = unsnap_all(&bytes);
                assert_eq!(decoded.instructions, entry.instructions);
                assert_eq!(snap_bytes(&decoded), bytes);
                let parsed: FlowEntry = serde::from_value(&json).unwrap();
                assert_eq!(parsed.instructions, entry.instructions);
                assert_eq!(snap_bytes(&parsed), bytes);
                cases += 1;
            }
        }
        assert_eq!(cases, 40 * 4);
    }

    #[test]
    fn inline_bucket_lists_encode_exactly_as_vecs() {
        for n_buckets in 0..=3 {
            for n_actions in 0..=3 {
                let group = GroupEntry {
                    id: GroupId(3),
                    group_type: GroupType::Select,
                    buckets: (0..n_buckets)
                        .map(|b| Bucket {
                            weight: b + 1,
                            watch_port: PortNo(b as u16),
                            actions: actions(n_actions).into(),
                        })
                        .collect(),
                };
                let old = vec_encoded::GroupEntry {
                    id: GroupId(3),
                    group_type: GroupType::Select,
                    buckets: (0..n_buckets)
                        .map(|b| vec_encoded::Bucket {
                            weight: b + 1,
                            watch_port: PortNo(b as u16),
                            actions: actions(n_actions),
                        })
                        .collect(),
                };
                let bytes = snap_bytes(&group);
                assert_eq!(bytes, snap_bytes(&old), "{n_buckets} x {n_actions}");
                let json = serde_json::to_value(&group).unwrap();
                assert_eq!(json, serde_json::to_value(&old).unwrap());
                assert_eq!(unsnap_all::<GroupEntry>(&bytes), group);
                assert_eq!(serde::from_value::<GroupEntry>(&json).unwrap(), group);
            }
        }
    }
}
