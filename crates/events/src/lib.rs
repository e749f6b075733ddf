//! # horse-events
//!
//! The discrete-event core of Horse: the paper's data plane is driven by
//! "a temporally ordered set of inputs for the topology" — this crate
//! provides that ordering.
//!
//! * [`queue`] — the future event list: an indexed binary heap keyed by
//!   `(SimTime, sequence)` so that events at equal timestamps pop in
//!   scheduling (FIFO) order, making every run deterministic, and any
//!   pending event can be cancelled in O(log n). The
//!   [`EventQueue::pop_if_at`](queue::EventQueue::pop_if_at) primitive
//!   drains all events sharing one timestamp as a single **epoch batch**
//!   (still in seq order), which is what lets the simulator run its
//!   allocator once per epoch instead of once per event.
//! * [`engine`] — a small driver that repeatedly pops events, advances the
//!   clock and hands them to a handler, with run-until-time /
//!   run-until-empty / single-step modes and wall-clock accounting.
//!
//! The event loop itself is synchronous and single-threaded: simulation is
//! CPU-bound, so an async runtime buys nothing here. Parallelism lives at
//! two levels *around* the loop instead: across replications (the lab
//! runner) and, within one simulation, across the disjoint allocation
//! components of an epoch (the data plane's component-parallel solve) —
//! both engineered to be bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;

pub use engine::{EngineStats, EventLoop, HandlerOutcome};
pub use queue::{
    EventHandle, EventQueue, QueueSnapshot, QueueStats, ScheduledEvent, SnapshotEntry,
};
