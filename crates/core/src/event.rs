//! The unified simulation event type.
//!
//! "Events are a temporally ordered set of inputs for the topology (i.e.,
//! data traffic, link failure)" — plus the control-plane crossings the
//! decoupled architecture introduces.

use horse_dataplane::FlowSpec;
use horse_openflow::messages::{CtrlMsg, SwitchMsg};
use horse_packetsim::PktEvent;
use horse_types::{FlowId, LinkId, NodeId, Snap};

/// Everything that can happen in a Horse simulation.
///
/// Checkpoints carry the whole future event list, so every variant has a
/// binary form; its tag is the variant's position, so a new variant goes
/// at the end (and a reorder is a snapshot version bump).
#[derive(Clone, Debug, Snap)]
pub enum SimEvent {
    /// A data flow arrives (from the traffic matrix / generator / API).
    FlowArrival {
        /// What to admit.
        spec: FlowSpec,
        /// `true` when this arrival came from the workload generator and
        /// the next generator arrival must be scheduled after it.
        from_workload: bool,
    },
    /// Retry a flow admission after the controller acted.
    AdmitRetry {
        /// The reserved flow id.
        id: FlowId,
    },
    /// A sized flow finished transferring. Each flow has at most one
    /// pending: a rate change cancels it and schedules its successor.
    Completion {
        /// The flow.
        id: FlowId,
    },
    /// A switch→controller message crosses the control channel.
    ToController {
        /// The message.
        msg: Box<SwitchMsg>,
        /// When this `FlowIn` blocks a pending admission, its flow id.
        retry: Option<FlowId>,
    },
    /// A controller→switch message crosses the control channel.
    ToSwitch {
        /// Target switch.
        switch: NodeId,
        /// The message.
        msg: Box<CtrlMsg>,
    },
    /// A controller timer fires.
    ControllerTimer {
        /// The token the controller registered.
        token: u64,
    },
    /// A cable fails (both directions).
    CableDown(LinkId),
    /// A cable recovers.
    CableUp(LinkId),
    /// A switch crashes: flow tables wiped, every port down, all
    /// incident cables cut (both directions).
    SwitchDown(NodeId),
    /// A crashed switch rejoins, empty, with its cables restored
    /// (except those whose peer is itself down).
    SwitchUp(NodeId),
    /// A gray failure starts or clears on a cable: the link stays *up*
    /// but runs at `capacity_factor` of nominal capacity and drops
    /// `loss_frac` of the traffic it does carry. `capacity_factor = 1`
    /// with `loss_frac = 0` clears the failure.
    GraySet {
        /// The affected cable (applied to both directions).
        link: LinkId,
        /// Fraction of nominal capacity retained, in `(0, 1]`.
        capacity_factor: f64,
        /// Fraction of carried traffic dropped, in `[0, 1)`.
        loss_frac: f64,
    },
    /// The controller goes dark: switch→controller messages buffer
    /// until the matching [`SimEvent::CtrlUp`].
    CtrlDown,
    /// The controller recovers and replays buffered messages in order.
    CtrlUp,
    /// The control channel's latency is multiplied by `factor`
    /// (`factor = 1` restores the configured latency).
    CtrlLatency {
        /// Multiplier applied to `SimConfig::ctrl_latency`.
        factor: f64,
    },
    /// Periodic statistics export.
    StatsEpoch,
    /// Periodic flow-entry timeout scan.
    ExpiryScan,
    /// A packet-plane event of the hybrid co-simulation (only scheduled
    /// when packet-fidelity flows are present).
    Pkt(PktEvent),
}
