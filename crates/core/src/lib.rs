//! # Horse — an SDN traffic dynamics simulator for large-scale networks
//!
//! Reproduction of *"Horse: towards an SDN traffic dynamics simulator for
//! large scale networks"* (Fernandes, Antichi, Castro, Uhlig — SIGCOMM
//! 2016). Horse simulates SDN networks at **flow granularity**: a data
//! flow is an aggregate of packets with equal header fields carrying a
//! rate, which buys orders of magnitude in scale over packet-level tools
//! while keeping the control-plane/data-plane interaction observable.
//!
//! ## Quickstart
//!
//! ```
//! use horse_core::prelude::*;
//!
//! // The paper's Figure-1 fabric (4 edge + 2 core switches, 4 members)
//! // with its full policy mix, driven by a gravity-model workload.
//! let scenario = Scenario::figure1(SimTime::from_secs(5), 42);
//! let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid scenario");
//! let results = sim.run();
//! assert!(results.flows_completed > 0);
//! println!("{}", results.summary_table());
//! ```
//!
//! ## Architecture (paper Fig. 2)
//!
//! ```text
//!   ┌────────────────────────────┐      ┌───────────────────────────────┐
//!   │  Control plane             │      │  Data plane                   │
//!   │  ┌──────────────────────┐  │ msgs │  ┌─────────┐  ┌────────────┐  │
//!   │  │ Policy generator     │◄─┼──────┼─►│ Events  │─►│ Topology   │  │
//!   │  │ (horse-controlplane) │  │ +lat │  │ (queue) │  │ + OpenFlow │  │
//!   │  └──────────────────────┘  │      │  └─────────┘  └────────────┘  │
//!   │  ┌──────────────────────┐  │      │  ┌──────────────────────────┐ │
//!   │  │ Monitor              │◄─┼──────┼──│ Traffic stats & state    │ │
//!   │  │ (horse-monitoring)   │  │      │  │ (horse-dataplane)        │ │
//!   │  └──────────────────────┘  │      │  └──────────────────────────┘ │
//!   └────────────────────────────┘      └───────────────────────────────┘
//! ```
//!
//! The [`Simulation`] couples a fluid data plane
//! ([`horse_dataplane::FluidNet`]) with any
//! [`Controller`](horse_controlplane::Controller)
//! implementation; control messages cross with configurable latency
//! ([`SimConfig::ctrl_latency`]) instead of real OpenFlow connections.
//! [`compare`] runs the same scenario through the packet-level baseline
//! ([`horse_packetsim`]) to quantify the abstraction's accuracy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod chaos;
pub mod compare;
pub mod config;
pub mod event;
pub mod hybrid;
pub mod results;
pub mod scenario;
pub mod sim;
pub mod trace;

pub use chaos::{ChaosError, ChaosSpec};
pub use compare::{compare_planes, AccuracyReport};
#[doc(hidden)]
pub use config::Oracles;
pub use config::SimConfig;
pub use hybrid::HybridNet;
pub use results::{ChaosCounters, SimResults};
pub use scenario::{
    default_traffic_pattern, FabricScenarioParams, FidelityMode, IxpScenarioParams, LateEvent,
    Scenario,
};
pub use sim::{ForkSpec, ResumeError, Simulation, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use trace::SimTracer;

// Re-export the component crates under stable names.
pub use horse_controlplane as controlplane;
pub use horse_dataplane as dataplane;
pub use horse_events as events;
pub use horse_monitoring as monitoring;
pub use horse_openflow as openflow;
pub use horse_packetsim as packetsim;
pub use horse_topology as topology;
pub use horse_trace as tracing;
pub use horse_types as types;
pub use horse_workloads as workloads;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::chaos::{ChaosError, ChaosSpec};
    pub use crate::config::{AllocMode, SimConfig};
    pub use crate::hybrid::HybridNet;
    pub use crate::results::{ChaosCounters, SimResults};
    pub use crate::scenario::{
        default_traffic_pattern, FabricScenarioParams, FidelityMode, IxpScenarioParams, LateEvent,
        Scenario,
    };
    pub use crate::sim::{ForkSpec, ResumeError, Simulation};
    pub use crate::trace::SimTracer;
    pub use horse_controlplane::{Controller, LbMode, PolicyRule, PolicySpec};
    pub use horse_dataplane::{DemandModel, Fidelity, FlowSpec};
    pub use horse_topology::builders::{self, IxpFabricParams};
    pub use horse_topology::generators::{self, generate, GeneratorParams, TopologyKind};
    pub use horse_topology::{Topology, TopologySpec};
    pub use horse_types::{
        AppClass, ByteSize, FlowKey, LinkId, MacAddr, NodeId, Rate, SimDuration, SimTime,
    };
    pub use horse_workloads::{
        AppMix, DiurnalProfile, FlowGenerator, FlowSizeDist, TrafficMatrix, TrafficPattern,
        WorkloadParams,
    };
}
