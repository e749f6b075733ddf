//! # horse-dataplane
//!
//! The **flow-level fluid data plane** — the paper's central abstraction.
//! Traffic is "an aggregate of packets with equal values of the header
//! fields" carrying a rate, not individual packets; this is what buys Horse
//! its scalability over packet-level simulators (the fs-sdn argument).
//!
//! * [`maxmin`] — progressive-filling max-min fair rate allocation with
//!   per-flow demand caps (round-scan implementation, bit-identical to the
//!   naive filler) over the subproblem the engine hands it.
//! * [`flow`] — flow specifications (CBR vs greedy/TCP demand models,
//!   finite or open-ended sizes) and resolved routes.
//! * [`tcp`] — the analytic TCP model: greedy demand, policer degradation
//!   (the paper's "rate limiting can undermine a TCP transmission"), and
//!   the Mathis throughput formula for reference.
//! * [`stats`] — per-link cumulative statistics and flow completion
//!   records ("traffic statistics and the state of the topology are
//!   updated after every event").
//! * [`engine`] — [`FluidNet`]: route resolution through OpenFlow
//!   pipelines, admission, rate reallocation, lazy byte accounting,
//!   completion prediction, link failure handling.
//!
//! The crate is deliberately event-loop-agnostic: `FluidNet` mutates state
//! and *returns* what should happen (completion deadlines, controller
//! messages); the `horse` core crate owns the event queue and the
//! control-plane latency model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
pub mod engine;
pub mod flow;
pub mod maxmin;
mod slab;
pub mod stats;
pub mod tcp;

pub use engine::{AdmitOutcome, FluidConfig, FluidNet, RateChange, ReallocTiming};
pub use flow::{ActiveFlow, DemandModel, Fidelity, FlowSpec, Route, RouteHop};
pub use maxmin::{max_min_allocate, max_min_allocate_csr, MaxMinScratch};
pub use stats::{DropRecord, FlowRecord, LinkStats};
