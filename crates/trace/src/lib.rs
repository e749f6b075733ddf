//! # horse-trace
//!
//! The determinism-safe observability layer of the Horse workspace.
//! Three independent pieces, composable by the embedding simulator:
//!
//! * [`metrics`] — plain metric values: the power-of-two [`Hist`] a
//!   subsystem keeps as a field beside the state it measures (observing
//!   never allocates, pinned down by `crates/dataplane/tests/alloc_free.rs`),
//!   and the name-sorted [`MetricsSnapshot`] a run's counts are listed
//!   into. Snapshots contain **only deterministic quantities** — they may
//!   be embedded in reproducible reports.
//! * [`span`] — a [`SpanLog`] of wall-clock phase spans plus a
//!   [`chrome_trace`] exporter producing Chrome-trace / Perfetto JSON.
//!   Wall clock never feeds deterministic outputs: span logs live next
//!   to, never inside, metric reports.
//! * [`journal`] — a sim-time JSONL event journal (one line per applied
//!   simulation event: ordinal, timestamp, kind, chained state digest)
//!   and [`first_divergence`], the bisector behind `horse-trace diff`,
//!   which turns "the reports differ" into "first divergence: event #N
//!   at t=…, kind=…".
//!
//! The crate is a leaf: it knows nothing about the simulator and is
//! reusable by any deterministic event loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod metrics;
pub mod span;

pub use journal::{
    describe_divergence, first_divergence, fold_digest, parse_journal, read_journal, Divergence,
    JournalEntry, JournalWriter,
};
pub use metrics::{Hist, MetricsSnapshot};
pub use span::{chrome_trace, SpanLog, SpanRec};
