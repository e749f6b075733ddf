//! # horse-workloads
//!
//! Workload generation: the paper's "data flows … set in the form of a
//! traffic matrix, or … generated by the simulator itself", plus the
//! synthetic stand-in for the promised IXP-trace replay (real IXP data is
//! proprietary; DESIGN.md §4 documents the substitution).
//!
//! * [`tm`] — traffic matrices: gravity (Zipf member weights), uniform,
//!   hotspot, each kept as its shape in O(members); [`TrafficPattern`]
//!   describes the shape declaratively so scenario families derive a
//!   matrix per topology; serde round-trip.
//! * [`sizes`] — heavy-tailed flow size distributions (bounded Pareto,
//!   log-normal, fixed) — the elephant/mouse mix link dynamics depend on.
//! * [`apps`] — application mixes over [`horse_types::AppClass`]
//!   (HTTP/HTTPS-dominated, as measured at large IXPs).
//! * [`diurnal`] — the diurnal load profile (IXPs publicly report ≈2–3×
//!   peak-to-trough swings).
//! * [`flowgen`] — [`FlowGenerator`]: a deterministic, seeded,
//!   non-homogeneous Poisson arrival stream over member pairs, yielding
//!   [`Arrival`] events the simulator turns into flows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod diurnal;
pub mod flowgen;
pub mod sizes;
pub mod tm;

pub use apps::AppMix;
pub use diurnal::DiurnalProfile;
pub use flowgen::{Arrival, DemandKind, FlowGenerator, WorkloadParams};
pub use sizes::FlowSizeDist;
pub use tm::{TrafficMatrix, TrafficPattern};
