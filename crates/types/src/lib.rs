//! # horse-types
//!
//! Network primitives shared by every crate of the Horse simulator:
//!
//! * [`addr`] — MAC and IPv4 addresses, IPv4 prefixes.
//! * [`id`] — strongly-typed identifiers (nodes, ports, links, flows, …).
//! * [`units`] — simulation time, data rates and byte sizes.
//! * [`flow`] — the flow key (the paper's "aggregate of packets with equal
//!   values of the header fields") and application classes.
//!
//! The crate is dependency-light (only `serde`) and every type is `Copy`
//! where possible so the hot simulation loops stay allocation-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Lets `#[derive(Snap)]` name `::horse_types` inside this crate too.
extern crate self as horse_types;

pub mod addr;
pub mod flow;
pub mod id;
pub mod snap;
pub mod units;

pub use addr::{Ipv4Net, MacAddr};
pub use flow::{AppClass, FlowKey, IpProtocol};
pub use id::{FlowId, LinkId, NodeId, PortNo, TableId};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use units::{ByteSize, Rate, SimDuration, SimTime};
