//! The controller programming interface.
//!
//! The paper's control plane is event-driven: the data plane exports
//! statistics and network state after every event, and the controller
//! reacts by emitting OpenFlow instructions. [`Controller`] is that
//! contract. A callback emits through a [`Sink`]: the start compile's
//! sink is an [`ApplyNow`], which applies each message to its switch as
//! it is emitted (the fabric is configured at t = 0, before traffic);
//! every later callback fills an [`Outbox`], whose contents the `horse`
//! core carries to the switches after the control-channel latency.

use horse_openflow::messages::{CtrlMsg, StatsReply, SwitchMsg};
use horse_openflow::switch::Switches;
use horse_openflow::table::RemovalReason;
use horse_topology::Topology;
use horse_types::{
    FlowKey, NodeId, PortNo, SimDuration, SimTime, SnapError, SnapReader, SnapWriter,
};

/// Where a controller callback's messages and timer requests go.
pub trait Sink {
    /// Emits a message for `switch`.
    fn send(&mut self, switch: NodeId, msg: CtrlMsg);

    /// Requests a timer callback after `delay` carrying `token`: the core
    /// fires [`Controller::on_timer`] with `token` then.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
}

/// Messages and timer requests a callback produced, collected for the
/// core to deliver after the control-channel latency.
#[derive(Debug, Default)]
pub struct Outbox {
    /// OpenFlow messages to deliver, in order.
    pub msgs: Vec<(NodeId, CtrlMsg)>,
    /// Timer requests: `(delay, token)`.
    pub timers: Vec<(SimDuration, u64)>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// True when nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty() && self.timers.is_empty()
    }
}

impl Sink for Outbox {
    fn send(&mut self, switch: NodeId, msg: CtrlMsg) {
        self.msgs.push((switch, msg));
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }
}

/// A [`Sink`] that applies each message to its switch the moment it is
/// emitted, all at one instant, so no message is held: a start compile
/// reaches the fabric without a second copy of the rule set. A message
/// for a node that is not a switch is counted and dropped. What the
/// switches reply and the timers requested are kept, in emission order,
/// for the caller to schedule.
pub struct ApplyNow<'a> {
    switches: &'a mut Switches,
    now: SimTime,
    /// Messages sent, applied or dropped.
    pub sent: u64,
    /// The switches' replies, in the order their messages were applied.
    pub replies: Vec<SwitchMsg>,
    /// Timer requests: `(delay, token)`.
    pub timers: Vec<(SimDuration, u64)>,
}

impl<'a> ApplyNow<'a> {
    /// A sink applying to `switches` at `now`.
    pub fn new(switches: &'a mut Switches, now: SimTime) -> Self {
        ApplyNow {
            switches,
            now,
            sent: 0,
            replies: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl Sink for ApplyNow<'_> {
    fn send(&mut self, switch: NodeId, msg: CtrlMsg) {
        self.sent += 1;
        if let Some(sw) = self.switches.get_mut(switch) {
            self.replies.extend(sw.apply_owned(msg, self.now));
        }
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }
}

/// Read-only view handed to controller callbacks.
///
/// Real SDN controllers learn the topology via discovery (LLDP); the
/// paper's abstraction skips that protocol and exposes the topology (with
/// current link states) directly — the "network state" export of Fig. 2.
pub struct ControllerCtx<'a> {
    /// The topology, including current link states.
    pub topo: &'a Topology,
    /// Current simulated time.
    pub now: SimTime,
}

/// An SDN controller. All callbacks are optional except flow-in, which is
/// the reactive heart of the control plane.
pub trait Controller {
    /// Human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Called once at simulation start — install proactive rules here.
    /// The core passes an [`ApplyNow`], so what is sent lands at once, in
    /// emission order.
    fn on_start(&mut self, _ctx: &ControllerCtx<'_>, _out: &mut dyn Sink) {}

    /// A switch reported a flow with no matching entry (table miss).
    fn on_flow_in(
        &mut self,
        switch: NodeId,
        in_port: PortNo,
        key: &FlowKey,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    );

    /// A flow entry the controller marked for notification was removed.
    fn on_flow_removed(
        &mut self,
        _switch: NodeId,
        _cookie: u64,
        _reason: RemovalReason,
        _ctx: &ControllerCtx<'_>,
        _out: &mut Outbox,
    ) {
    }

    /// A switch port changed state (link failure/recovery).
    fn on_port_status(
        &mut self,
        _switch: NodeId,
        _port: PortNo,
        _up: bool,
        _ctx: &ControllerCtx<'_>,
        _out: &mut Outbox,
    ) {
    }

    /// A statistics reply arrived (the Monitor block's polling loop).
    fn on_stats(
        &mut self,
        _switch: NodeId,
        _reply: &StatsReply,
        _ctx: &ControllerCtx<'_>,
        _out: &mut Outbox,
    ) {
    }

    /// A previously requested timer fired.
    fn on_timer(&mut self, _token: u64, _ctx: &ControllerCtx<'_>, _out: &mut Outbox) {}

    /// A crashed switch rejoined with empty tables. Reinstall whatever
    /// proactive state the switch needs — a rejoining switch remembers
    /// nothing. (Port-status callbacks for its restored cables arrive
    /// separately; this hook is for the table/group/meter contents.)
    fn on_switch_up(&mut self, _switch: NodeId, _ctx: &ControllerCtx<'_>, _out: &mut Outbox) {}

    /// Serializes the controller's mutable state for a checkpoint.
    ///
    /// Stateless controllers need not override this; stateful ones must
    /// write every field that influences future callbacks so that a
    /// resumed run continues bit-identically. The default writes nothing.
    fn snapshot_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`Controller::snapshot_state`] into a
    /// freshly constructed controller of the same configuration.
    fn restore_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }

    /// Convenience dispatcher used by the core simulator.
    fn dispatch(&mut self, msg: &SwitchMsg, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        match msg {
            SwitchMsg::FlowIn {
                switch,
                in_port,
                key,
            } => self.on_flow_in(*switch, *in_port, key, ctx, out),
            SwitchMsg::FlowRemoved {
                switch,
                cookie,
                reason,
                ..
            } => self.on_flow_removed(*switch, *cookie, *reason, ctx, out),
            SwitchMsg::PortStatus { switch, port, up } => {
                self.on_port_status(*switch, *port, *up, ctx, out)
            }
            SwitchMsg::StatsReply { switch, reply } => self.on_stats(*switch, reply, ctx, out),
            SwitchMsg::BarrierReply { .. } => {}
        }
    }
}

/// A controller that drops every flow-in (useful as a null baseline and in
/// tests: with it, only proactively installed rules carry traffic).
#[derive(Debug, Default, Clone)]
pub struct NullController;

impl Controller for NullController {
    fn name(&self) -> &str {
        "null"
    }

    fn on_flow_in(
        &mut self,
        _switch: NodeId,
        _in_port: PortNo,
        _key: &FlowKey,
        _ctx: &ControllerCtx<'_>,
        _out: &mut Outbox,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_types::MacAddr;

    #[test]
    fn outbox_collects() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId(1), CtrlMsg::Barrier);
        out.set_timer(SimDuration::from_secs(1), 42);
        assert_eq!(out.msgs.len(), 1);
        assert_eq!(out.timers, vec![(SimDuration::from_secs(1), 42)]);
        assert!(!out.is_empty());
    }

    #[test]
    fn apply_now_applies_in_emission_order() {
        use horse_openflow::flow_match::FlowMatch;
        use horse_openflow::messages::FlowMod;
        use horse_openflow::switch::OpenFlowSwitch;
        use horse_openflow::table::FlowEntry;
        use horse_types::TableId;

        let mut switches: Switches = [OpenFlowSwitch::new(NodeId(1), 2, &[PortNo(1)])]
            .into_iter()
            .collect();
        let mut sink = ApplyNow::new(&mut switches, SimTime::ZERO);
        let add = |cookie| {
            CtrlMsg::FlowMod(FlowMod::add(
                FlowEntry::new(5, FlowMatch::ANY, vec![]).with_cookie(cookie),
            ))
        };
        // The same match and priority twice: the later add replaces the
        // earlier one, so the surviving cookie shows the order applied.
        sink.send(NodeId(1), add(1));
        sink.send(NodeId(1), CtrlMsg::Barrier);
        sink.send(NodeId(1), add(2));
        sink.send(NodeId(7), add(3)); // not a switch: counted, dropped
        sink.set_timer(SimDuration::from_secs(1), 42);
        assert_eq!(sink.sent, 4);
        assert_eq!(sink.replies.len(), 1, "the barrier's reply");
        assert_eq!(sink.timers, vec![(SimDuration::from_secs(1), 42)]);
        let table = switches.get(NodeId(1)).unwrap().table(TableId(0)).unwrap();
        assert_eq!(table.entries().map(|e| e.cookie).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn null_controller_ignores_everything() {
        let topo = Topology::new();
        let ctx = ControllerCtx {
            topo: &topo,
            now: SimTime::ZERO,
        };
        let mut c = NullController;
        let mut out = Outbox::new();
        let key = FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1,
            80,
        );
        c.dispatch(
            &SwitchMsg::FlowIn {
                switch: NodeId(0),
                in_port: PortNo(1),
                key,
            },
            &ctx,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(c.name(), "null");
    }
}
