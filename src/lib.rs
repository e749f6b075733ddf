//! # Horse — an SDN traffic dynamics simulator for large-scale networks
//!
//! Umbrella crate: re-exports the simulation engine ([`horse_core`]) and
//! the experiment-orchestration subsystem ([`horse_lab`]), and hosts the
//! repository-level `examples/` and `tests/`.
//!
//! * Engine entry points: [`Scenario`], [`SimConfig`], [`Simulation`].
//! * Experiment lab: [`lab`] — declarative sweep specs, cartesian
//!   expansion and a parallel batch runner (`cargo run -p horse-lab`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub use horse_core::Oracles;
pub use horse_core::{
    bisect, chaos, compare, config, event, hybrid, results, scenario, sim, trace,
};
pub use horse_core::{
    compare_planes, AccuracyReport, ChaosCounters, ChaosError, ChaosSpec, FidelityMode, ForkSpec,
    HybridNet, IxpScenarioParams, LateEvent, ResumeError, Scenario, SimConfig, SimResults,
    SimTracer, Simulation,
};

// Component crates under stable names (mirrors `horse_core`'s aliases).
pub use horse_core::{
    controlplane, dataplane, events, monitoring, openflow, packetsim, topology, tracing, types,
    workloads,
};

/// The experiment-orchestration subsystem (`horse-lab`).
pub use horse_lab as lab;

/// Convenient glob import for examples and tests: the engine prelude
/// plus the experiment-lab types.
pub mod prelude {
    pub use horse_core::prelude::*;
    pub use horse_lab::prelude::*;
}
