//! # horse-lab — declarative experiment sweeps for Horse
//!
//! The paper's pitch is *scale*: flow-level abstraction so one machine can
//! sweep large networks and many workloads. This crate turns that sweep
//! into data instead of code, in three layers:
//!
//! 1. **Specs** ([`spec`]) — a scenario and simulator config described in
//!    TOML/JSON ([`SweepSpec`], [`ScenarioSpec`], [`SimConfigSpec`]),
//!    lowering to the engine's [`Scenario`](horse::Scenario) /
//!    [`SimConfig`](horse::SimConfig) through the canned builders.
//! 2. **Sweeps** ([`sweep`]) — named axes expand into a cartesian grid of
//!    concrete [`RunPlan`]s (`axes × replicates`), each fully independent.
//! 3. **Runner** ([`runner`]) — a shared-queue thread pool executes plans
//!    in parallel and streams per-run metrics into a [`CampaignReport`]
//!    ([`report`]) exporting deterministic CSV/JSON: the same spec
//!    produces byte-identical metric reports at any thread count.
//!
//! ```no_run
//! use horse_lab::prelude::*;
//!
//! let spec = SweepSpec::from_toml(r#"
//!     name = "quick"
//!     [scenario]
//!     kind = "ixp"
//!     members = 25
//!     horizon_secs = 1.0
//!     [axes]
//!     ctrl_latency_us = [0, 1000]
//! "#).unwrap();
//! let report = run_sweep(&spec, 2).unwrap();
//! println!("{}", report.aggregate_text());
//! ```
//!
//! The `horse-lab` binary wraps this as
//! `cargo run -p horse-lab -- run examples/sweeps/ctrl_latency.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod whatif;

pub use report::{CampaignReport, RunRecord};
pub use runner::{
    execute_plan, execute_plan_opts, run_plans_opts, run_plans_with, run_sweep, run_sweep_with,
    RunMetrics, RunOptions, TraceOut,
};
pub use spec::{Axes, CommonKnobs, ScenarioFamily, ScenarioSpec, SimConfigSpec, SweepSpec};
pub use sweep::{expand, RunPlan};
pub use whatif::{fork_groups, run_forked, ForkGroup, ForkOptions, ForkStats};

use std::fmt;

/// Errors from spec parsing, sweep expansion, run execution or the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabError {
    /// The spec itself is invalid (parse error, bad field, bad axis).
    Spec(String),
    /// A run failed to build or execute.
    Build(String),
    /// Command-line / filesystem problems.
    Cli(String),
}

impl LabError {
    pub(crate) fn spec(msg: impl Into<String>) -> Self {
        LabError::Spec(msg.into())
    }

    pub(crate) fn build(msg: impl Into<String>) -> Self {
        LabError::Build(msg.into())
    }

    pub(crate) fn cli(msg: impl Into<String>) -> Self {
        LabError::Cli(msg.into())
    }
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Spec(m) => write!(f, "spec error: {m}"),
            LabError::Build(m) => write!(f, "run error: {m}"),
            LabError::Cli(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for LabError {}

/// Glob import for tests, examples and the umbrella crate's prelude.
pub mod prelude {
    pub use crate::report::{CampaignReport, RunRecord};
    pub use crate::runner::{
        execute_plan, execute_plan_opts, run_plans_opts, run_plans_with, run_sweep, run_sweep_with,
        RunMetrics, RunOptions, TraceOut,
    };
    pub use crate::spec::{
        Axes, CommonKnobs, ScenarioFamily, ScenarioSpec, SimConfigSpec, SweepSpec,
    };
    pub use crate::sweep::{expand, RunPlan};
    pub use crate::whatif::{fork_groups, run_forked, ForkGroup, ForkOptions, ForkStats};
    pub use crate::LabError;
}
