//! Policy modules — one per policy class of the paper's Fig. 1.
//!
//! Each module compiles its policy into OpenFlow messages through
//! [`PolicyModule::install`] — the full compile, run once at start — and
//! [`PolicyModule::reinstall`] — the scoped install after a topology
//! change, which re-emits only what the change in the path database
//! moved. Both emit `FlowMod::Add`s, which replace
//! same-match-same-priority entries, so whatever is re-sent overwrites in
//! place. A module may also react to flow-ins, statistics and timers. The
//! [`PolicyGenerator`] owns a list of modules and dispatches to them —
//! the paper's "lightweight and modular controller".
//!
//! [`PolicyGenerator`]: crate::generator::PolicyGenerator

pub mod app_peering;
pub mod blackhole;
pub mod load_balance;
pub mod mac_forwarding;
pub mod mac_learning;
pub mod rate_limit;
pub mod source_routing;

pub use app_peering::AppPeeringModule;
pub use blackhole::BlackholeModule;
pub use load_balance::LoadBalanceModule;
pub use mac_forwarding::MacForwardingModule;
pub use mac_learning::MacLearningModule;
pub use rate_limit::RateLimitModule;
pub use source_routing::SourceRoutingModule;

use crate::api::{Outbox, Sink};
use crate::pathdb::PathDb;
use horse_openflow::messages::StatsReply;
use horse_topology::Topology;
use horse_types::{FlowKey, NodeId, PortNo, SimTime, SnapError, SnapReader, SnapWriter};

/// Read-only compile context for module installation and reactions.
pub struct CompileCtx<'a> {
    /// Topology with current link states.
    pub topo: &'a Topology,
    /// Path database built from the current topology state.
    pub paths: &'a PathDb,
    /// Current time.
    pub now: SimTime,
}

/// A pluggable policy module.
pub trait PolicyModule {
    /// Module name (reports, validation messages).
    fn name(&self) -> &'static str;

    /// Emits all of the module's proactive rules: the full compile, run
    /// at simulation start, where `out` applies each message as it is
    /// sent.
    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut dyn Sink);

    /// Re-emits rules after a topology change. `ctx.paths` is the rebuilt
    /// database; `prev` is the one the switches' current rules were
    /// compiled from (a switch that just rejoined blank has an empty row
    /// in it); `dirty` lists, ascending, the `(switch, host)` cells where
    /// the two differ. Modules whose rule count is O(switches × hosts)
    /// override this to emit, for those cells only and in the relative
    /// order `install` would, the messages that differ from what `prev`
    /// compiled to, each preceded in the same outbox by what it depends
    /// on (the select group an entry points at); the default re-runs
    /// `install`, which is right for a module with a handful of rules.
    fn reinstall(
        &mut self,
        ctx: &CompileCtx<'_>,
        _prev: &PathDb,
        _dirty: &[(NodeId, NodeId)],
        out: &mut Outbox,
    ) {
        self.install(ctx, out);
    }

    /// Reactive hook. Returns `true` when this module handled the miss.
    fn on_flow_in(
        &mut self,
        _switch: NodeId,
        _in_port: PortNo,
        _key: &FlowKey,
        _ctx: &CompileCtx<'_>,
        _out: &mut Outbox,
    ) -> bool {
        false
    }

    /// Statistics reply (adaptive modules).
    fn on_stats(
        &mut self,
        _switch: NodeId,
        _reply: &StatsReply,
        _ctx: &CompileCtx<'_>,
        _out: &mut Outbox,
    ) {
    }

    /// Timer callback. Returns `true` when the token belonged to this
    /// module.
    fn on_timer(&mut self, _token: u64, _ctx: &CompileCtx<'_>, _out: &mut Outbox) -> bool {
        false
    }

    /// Serializes the module's mutable state for a checkpoint. Stateless
    /// modules keep the default (writes nothing); stateful ones must
    /// write everything that influences future reactions.
    fn snapshot_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`PolicyModule::snapshot_state`].
    fn restore_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }
}
