//! # horse-topology
//!
//! Data-plane building block (2) of the paper: the **Topology**.
//!
//! * [`node`] — hosts and switches (edge/core roles, per Fig. 1).
//! * [`link`] — directed links with capacity, propagation delay and
//!   operational state (link failures are first-class events in Horse).
//! * [`graph`] — the [`Topology`] container: dense node and link vectors
//!   and one per-node adjacency in port order.
//! * [`routing`] — shortest path (hops or latency), Yen k-shortest paths,
//!   and equal-cost multipath enumeration; all respect link state.
//! * [`builders`] — canned topologies: linear, star, leaf-spine and the
//!   two-tier **IXP fabric** used by the paper's evaluation.
//! * [`generators`] — parameterized, seed-deterministic families: k-ary
//!   fat-tree, oversubscribed leaf-spine, Jellyfish random graphs,
//!   linear/ring chains and Topology-Zoo-style WAN graphs.
//! * [`spec`] — serde (JSON/TOML) round-trip of topologies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod generators;
pub mod graph;
pub mod link;
pub mod node;
pub mod routing;
pub mod spec;

pub use builders::{FabricHandles, IxpFabricParams};
pub use generators::{generate, GeneratorParams, TopologyKind};
pub use graph::Topology;
pub use link::{Link, LinkState};
pub use node::{Node, NodeKind, SwitchRole};
pub use routing::{Metric, Path};
pub use spec::TopologySpec;
