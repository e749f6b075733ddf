//! # horse-openflow
//!
//! The abstracted OpenFlow switch model. Per the paper, Horse keeps the
//! *semantics* of OpenFlow — flow tables, priorities, wildcards, groups,
//! meters, counters, and the controller message vocabulary — while dropping
//! the wire protocol: "there are no real OpenFlow connections between the
//! control and the data plane"; messages are plain Rust values handed
//! across with a configurable latency.
//!
//! Modules:
//!
//! * [`flow_match`] — wildcard match over [`horse_types::FlowKey`] +
//!   ingress port, with overlap/subset tests used by policy validation.
//! * [`actions`] — actions and instructions (output, group, set-field,
//!   meter, goto-table).
//! * [`list`] — the inline-first list entries, instructions and buckets
//!   hold their instructions and actions in.
//! * [`table`] — a priority-ordered flow table with idle/hard timeouts.
//! * [`group`] — group table: `all`, `select` (deterministic-hash ECMP,
//!   weighted), `fast-failover` (liveness-watched buckets).
//! * [`meter`] — token-bucket meters (drop band), enforced as rate caps by
//!   the fluid plane and as token buckets by the packet plane.
//! * [`counters`] — flow/port/table counters ("OpenFlow counters" are one
//!   of the paper's monitoring primitives).
//! * [`switch`] — the multi-table pipeline: classification, group
//!   resolution, counter attribution, timeout expiry, message application.
//! * [`messages`] — the in-memory control channel vocabulary (FlowMod,
//!   GroupMod, MeterMod, FlowIn, FlowRemoved, PortStatus, stats).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod counters;
pub mod flow_match;
pub mod group;
pub mod list;
pub mod messages;
pub mod meter;
pub mod switch;
pub mod table;

pub use actions::{Action, Instruction};
pub use counters::{FlowCounters, PortCounters, TableCounters};
pub use flow_match::FlowMatch;
pub use group::{Bucket, GroupEntry, GroupType};
pub use list::SmallList;
pub use messages::{
    CtrlMsg, FlowMod, FlowModCommand, GroupMod, MeterMod, StatsReply, StatsRequest, SwitchMsg,
};
pub use meter::MeterEntry;
pub use switch::{DropReason, OpenFlowSwitch, PipelineResult, Switches, Verdict};
pub use table::{FlowEntry, FlowTable, MatchedEntry};

/// Re-export of the group id newtype (defined with the other ids).
pub use horse_types::id::GroupId;
/// Re-export of the meter id newtype (defined with the other ids).
pub use horse_types::id::MeterId;
