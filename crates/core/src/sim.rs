//! The simulation driver.
//!
//! [`Simulation`] owns the event queue, the fluid data plane, the
//! controller and the monitoring collector, and implements the coupling
//! rules of the paper's architecture:
//!
//! * **Traffic statistics and network state are updated after every
//!   event** — byte accounting is lazily integrated per flow and forced
//!   at every statistics export.
//! * **Events sharing a timestamp form one epoch** — the loop drains the
//!   whole batch (intra-epoch order preserved by queue seq) and runs the
//!   max-min allocator **once per epoch** instead of once per triggering
//!   event; handlers that read allocation-dependent state flush the
//!   pending run first, so observable state matches the per-event
//!   cadence (kept as a test-support oracle, `Simulation::set_oracles`).
//! * **No real OpenFlow connections** — messages are values crossing the
//!   control channel with [`SimConfig::ctrl_latency`] delay in each
//!   direction; a reactive flow setup therefore costs two crossings
//!   before the flow is admitted (retried up to
//!   [`SimConfig::admit_retry_limit`] times for multi-switch setups).
//! * **Events are the only inputs** — traffic arrivals, link failures,
//!   timer fires, stats epochs.

use crate::chaos::{self, ChaosError};
use crate::config::{AllocMode, Oracles, SimConfig};
use crate::event::SimEvent;
use crate::hybrid::{pkt_flow_spec, HybridNet};
use crate::results::{ChaosCounters, SimResults};
use crate::scenario::{LateEvent, Scenario};
use crate::trace::{event_fingerprint, SimTracer};
use horse_controlplane::{ApplyNow, Controller, ControllerCtx, Outbox, PolicyGenerator};
use horse_dataplane::stats::DropCause;
use horse_dataplane::{AdmitOutcome, DemandModel, Fidelity, FlowSpec, FluidNet, RateChange};
use horse_events::{EventHandle, EventQueue, QueueSnapshot, QueueStats};
use horse_monitoring::collector::StatsCollector;
use horse_monitoring::series::summarize;
use horse_openflow::messages::SwitchMsg;
use horse_packetsim::PktEvent;
use horse_trace::MetricsSnapshot;
use horse_types::{
    ByteSize, FlowId, NodeId, SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter,
};
use horse_workloads::{DemandKind, FlowGenerator};
use std::collections::HashMap;
use std::time::Instant;

/// Errors raised while building a simulation.
#[derive(Debug)]
pub enum BuildError {
    /// The policy spec failed validation.
    InvalidPolicy(horse_controlplane::ValidationReport),
    /// The failure schedule references a link the topology does not have
    /// (the engine would silently ignore the cable event, so the
    /// experiment would quietly run without its failure — reject it).
    UnknownFailureLink {
        /// The dangling link id.
        link: horse_types::LinkId,
        /// When the failure was scheduled.
        at: SimTime,
    },
    /// The chaos spec failed validation or could not be expanded against
    /// this topology.
    InvalidChaos(ChaosError),
    /// The workload's traffic matrix does not cover exactly the
    /// scenario's members (its pair indices name members).
    WorkloadMembers {
        /// Members the traffic matrix spans.
        matrix: usize,
        /// Members the scenario lists.
        members: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidPolicy(rep) => write!(f, "invalid policy spec:\n{rep}"),
            BuildError::UnknownFailureLink { link, at } => write!(
                f,
                "failure schedule references {link} (at t={:.3}s), which is not in the topology",
                at.as_secs_f64()
            ),
            BuildError::InvalidChaos(e) => write!(f, "invalid chaos spec: {e}"),
            BuildError::WorkloadMembers { matrix, members } => write!(
                f,
                "the workload's traffic matrix covers {matrix} members, the scenario lists {members}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Magic prefix of the checkpoint format.
pub const SNAPSHOT_MAGIC: &[u8; 9] = b"HORSESNAP";
/// Current checkpoint format version.
pub const SNAPSHOT_VERSION: u32 = 12;

/// Errors raised while resuming or forking from a checkpoint.
#[derive(Debug)]
pub enum ResumeError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot's format version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The snapshot failed to decode (truncation, corruption, or a
    /// scenario/controller mismatch).
    Corrupt(SnapError),
    /// Rebuilding the simulation from the embedded scenario failed.
    Build(BuildError),
    /// A fork asked for more late events than the scenario's reserved
    /// what-if band has slots left.
    BandExhausted {
        /// Total band size reserved at build time.
        band: u64,
    },
    /// A fork scheduled a late event at or before the checkpoint time —
    /// the straight-through run it is supposed to reproduce would have
    /// already processed it.
    LateEventNotLate {
        /// The offending event time.
        at: SimTime,
        /// The checkpoint's simulation time.
        now: SimTime,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::BadMagic => write!(f, "not a Horse snapshot (bad magic)"),
            ResumeError::BadVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
            ),
            ResumeError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
            ResumeError::Build(e) => write!(f, "rebuilding from snapshot header failed: {e}"),
            ResumeError::BandExhausted { band } => write!(
                f,
                "fork exceeds the reserved what-if band ({band} slots total)"
            ),
            ResumeError::LateEventNotLate { at, now } => write!(
                f,
                "fork late event at t={:.6}s is not after the checkpoint time t={:.6}s",
                at.as_secs_f64(),
                now.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<SnapError> for ResumeError {
    fn from(e: SnapError) -> Self {
        ResumeError::Corrupt(e)
    }
}

impl From<BuildError> for ResumeError {
    fn from(e: BuildError) -> Self {
        ResumeError::Build(e)
    }
}

/// What a fork may change relative to the checkpointed run. Every knob
/// is chosen so the forked run is *provably* reproducible by a
/// straight-through run: control latency and late events only shape the
/// future, and late events land in the scenario's reserved sequence band
/// so their `(time, seq)` coordinates match a run that scheduled them at
/// build time (see [`Scenario::late_band`]).
#[derive(Clone, Debug, Default)]
pub struct ForkSpec {
    /// Accepted and ignored, like [`SimConfig::engine_threads`]: the
    /// frozen benchmark harness still sets it. ROADMAP direction 2's
    /// benchmark PR deletes it.
    pub engine_threads: Option<usize>,
    /// Override [`SimConfig::ctrl_latency`] from the fork point on.
    pub ctrl_latency: Option<SimDuration>,
    /// Extra fault events, each strictly after the checkpoint time,
    /// scheduled into the reserved what-if band.
    pub late_events: Vec<(SimTime, LateEvent)>,
}

/// The Horse simulator (see module docs).
pub struct Simulation {
    fluid: FluidNet,
    /// The packet half of the hybrid co-simulation; only materializes
    /// when packet-fidelity flows exist (see [`crate::hybrid`]).
    hybrid: Option<Box<HybridNet>>,
    controller: Box<dyn Controller>,
    queue: EventQueue<SimEvent>,
    config: SimConfig,
    /// Test-support reference paths; not snapshotted.
    oracles: Oracles,
    horizon: SimTime,
    /// Flows waiting on the controller: id → (spec, attempts, arrival).
    pending: HashMap<FlowId, (FlowSpec, u32, SimTime)>,
    /// Flows detached by a fault and re-admitted: new id → fault time.
    /// Resolved into `recovery_samples` (re-admitted) or
    /// `chaos.flows_stranded` (terminally dropped).
    recovering: HashMap<FlowId, SimTime>,
    /// Seconds from fault to successful re-admission, per rerouted flow.
    recovery_samples: Vec<f64>,
    /// Controller outage nesting depth (overlapping chaos windows stack;
    /// the controller is up only at depth 0).
    ctrl_down_depth: u32,
    /// Controller inputs that arrived during an outage, in arrival
    /// order, replayed on recovery.
    ctrl_buffer: Vec<CtrlInput>,
    /// Control-channel latency multiplier (1.0 = the configured latency;
    /// chaos latency-spike windows raise it).
    ctrl_latency_factor: f64,
    /// Chaos/fault counters (exported with results).
    chaos_ctr: ChaosCounters,
    workload: Option<WorkloadAdapter>,
    collector: StatsCollector,
    /// Scratch for rate changes copied out of the fluid plane (reused so
    /// the per-epoch reallocation path stays allocation-free).
    realloc_buf: Vec<RateChange>,
    /// Each fluid flow's pending completion event, indexed by
    /// `FlowId::index()` (a stale or `NULL` handle when none is pending).
    /// Not snapshotted: rebuilt from the restored queue.
    completions: Vec<EventHandle>,
    /// An event of the current epoch asked for a reallocation; consumed
    /// by the end-of-epoch (or flush-point) allocator run.
    realloc_pending: bool,
    /// Observability (metrics/spans/journal/progress); `None` unless
    /// [`Simulation::set_tracer`] installed one. Tracing never feeds
    /// back into simulation state — results are byte-identical with it
    /// on or off.
    tracer: Option<Box<SimTracer>>,
    /// The scenario the simulation was built from, kept verbatim so
    /// checkpoints are self-describing (the header embeds it).
    scenario: Scenario,
    /// Bootstrap ran (guards [`Simulation::start`]'s idempotence; part
    /// of the snapshot so a pre-start checkpoint restores faithfully).
    started: bool,
    /// Wall-clock seconds accumulated across `start`/`run_until` calls.
    /// Deliberately *not* snapshotted: a resumed run reports its own
    /// wall time, while simulation state stays bit-identical.
    wall_accum: f64,
    /// First sequence number of the reserved what-if band.
    late_base: u64,
    /// Total slots in the reserved what-if band.
    late_band: u64,
    /// Band slots consumed (by scenario late events and forks).
    late_used: u64,
    /// Journal continuation carried through a checkpoint when the
    /// original run journaled: `(digest, entries)` at snapshot time.
    /// [`Simulation::set_tracer`] seeds a new tracer from it so the
    /// resumed journal is a byte-exact suffix.
    journal_cont: Option<(u64, u64)>,
    // Counters.
    events: u64,
    epochs: u64,
    max_epoch_batch: u64,
    realloc_requests: u64,
    stale_completions: u64,
    flows_admitted: u64,
    flows_completed: u64,
    msgs_to_controller: u64,
    msgs_to_switch: u64,
    flow_ins: u64,
}

/// One input the controller reacts to. Live inputs are handed over as
/// they arrive; during an outage they wait in `ctrl_buffer`.
#[derive(Snap)]
enum CtrlInput {
    /// A switch→controller message, and the pending flow to retry once
    /// the reaction has landed.
    Msg(SwitchMsg, Option<FlowId>),
    /// A crashed switch rejoined blank (the out-of-band
    /// [`Controller::on_switch_up`] hook).
    Rejoin(NodeId),
}

/// `id`'s entry in the per-flow completion-handle table, grown on first
/// use.
fn completion_slot(table: &mut Vec<EventHandle>, id: FlowId) -> &mut EventHandle {
    let i = id.index();
    if i >= table.len() {
        table.resize(i + 1, EventHandle::NULL);
    }
    &mut table[i]
}

struct WorkloadAdapter {
    generator: FlowGenerator,
    members: Vec<NodeId>,
    /// The first `packet_foreground` emitted arrivals get
    /// [`Fidelity::Packet`] — the scenario's hybrid foreground.
    packet_foreground: usize,
    emitted: usize,
}

impl WorkloadAdapter {
    /// Pulls the next arrival and converts member indices to hosts.
    fn next_spec(&mut self, topo: &horse_topology::Topology) -> Option<(SimTime, FlowSpec)> {
        loop {
            let a = self.generator.next_arrival()?;
            // in range: `with_controller` refuses a matrix that does not
            // span exactly the members
            let (src, dst) = (self.members[a.src], self.members[a.dst]);
            let (Some(sn), Some(dn)) = (topo.node(src), topo.node(dst)) else {
                continue;
            };
            let (Some(smac), Some(dmac), Some(sip), Some(dip)) =
                (sn.mac(), dn.mac(), sn.ip(), dn.ip())
            else {
                continue;
            };
            let key = horse_types::FlowKey {
                eth_src: smac,
                eth_dst: dmac,
                eth_type: horse_types::flow::ether_type::IPV4,
                vlan: None,
                ip_src: sip,
                ip_dst: dip,
                ip_proto: a.app.transport(),
                tp_src: a.src_port,
                tp_dst: a.app.dst_port(),
            };
            let demand = match a.demand {
                DemandKind::Greedy => DemandModel::Greedy,
                DemandKind::Cbr(bps) => DemandModel::Cbr(horse_types::Rate::bps(bps)),
            };
            let fidelity = if self.emitted < self.packet_foreground {
                Fidelity::Packet
            } else {
                Fidelity::Fluid
            };
            self.emitted += 1;
            return Some((
                a.at,
                FlowSpec {
                    key,
                    src,
                    dst,
                    demand,
                    size: Some(ByteSize::bytes(a.size_bytes)),
                    fidelity,
                },
            ));
        }
    }
}

impl Simulation {
    /// Builds a simulation from a scenario, using the policy generator as
    /// the controller.
    pub fn new(scenario: Scenario, config: SimConfig) -> Result<Self, BuildError> {
        let generator = PolicyGenerator::new(scenario.policy.clone(), &scenario.topology)
            .map_err(BuildError::InvalidPolicy)?;
        Self::with_controller(scenario, config, Box::new(generator))
    }

    /// Builds a simulation with a custom controller implementation.
    /// Validates the failure schedule (dangling links were previously a
    /// silent no-op for programmatically built scenarios), checks that
    /// the workload's traffic matrix spans exactly the members, and
    /// expands the chaos spec, if any, into its seed-deterministic fault
    /// schedule.
    pub fn with_controller(
        scenario: Scenario,
        config: SimConfig,
        controller: Box<dyn Controller>,
    ) -> Result<Self, BuildError> {
        if let Some(w) = &scenario.workload {
            if w.matrix.len() != scenario.members.len() {
                return Err(BuildError::WorkloadMembers {
                    matrix: w.matrix.len(),
                    members: scenario.members.len(),
                });
            }
        }
        let fluid = FluidNet::new(scenario.topology.clone(), config.fluid());
        let mut queue = EventQueue::new();
        for (at, spec) in &scenario.explicit_flows {
            queue.schedule_at(
                *at,
                SimEvent::FlowArrival {
                    spec: spec.clone(),
                    from_workload: false,
                },
            );
        }
        for (at, link, up) in &scenario.failures {
            if scenario.topology.link(*link).is_none() {
                return Err(BuildError::UnknownFailureLink {
                    link: *link,
                    at: *at,
                });
            }
            queue.schedule_at(
                *at,
                if *up {
                    SimEvent::CableUp(*link)
                } else {
                    SimEvent::CableDown(*link)
                },
            );
        }
        if let Some(spec) = &scenario.chaos {
            let schedule = chaos::expand(spec, &scenario.topology, scenario.horizon)
                .map_err(BuildError::InvalidChaos)?;
            for (at, ev) in schedule {
                queue.schedule_at(at, ev);
            }
        }
        // What-if band: sequence numbers reserved *after* the base
        // schedule and *before* anything the run loop schedules, so a
        // fork that fills a slot later lands its event at exactly the
        // `(time, seq)` coordinates a straight-through run with that
        // event in `late_events` produced.
        let late_band = scenario.late_band.max(scenario.late_events.len()) as u64;
        let late_base = queue.reserve_seq_band(late_band);
        let mut late_used = 0u64;
        for &(at, ev) in &scenario.late_events {
            queue.schedule_at_seq(late_base + late_used, at, ev.to_sim_event());
            late_used += 1;
        }
        let workload = scenario.workload.as_ref().map(|params| WorkloadAdapter {
            generator: FlowGenerator::new(params.clone()),
            members: scenario.members.clone(),
            packet_foreground: scenario.packet_foreground,
            emitted: 0,
        });
        let mut collector = StatsCollector::new();
        if let Some(th) = config.alarm_threshold {
            collector = collector.with_alarm_threshold(th);
        }
        // The packet half attaches up front when the scenario declares
        // packet-fidelity traffic (explicit tags or a workload
        // foreground); otherwise it materializes lazily on the first
        // packet-fidelity injection.
        let wants_hybrid = (scenario.packet_foreground > 0 && scenario.workload.is_some())
            || scenario
                .explicit_flows
                .iter()
                .any(|(_, s)| s.fidelity.is_packet());
        let hybrid =
            wants_hybrid.then(|| Box::new(HybridNet::new(fluid.topology().link_count(), &config)));
        Ok(Simulation {
            fluid,
            hybrid,
            controller,
            queue,
            config,
            oracles: Oracles::default(),
            horizon: scenario.horizon,
            pending: HashMap::new(),
            recovering: HashMap::new(),
            recovery_samples: Vec::new(),
            ctrl_down_depth: 0,
            ctrl_buffer: Vec::new(),
            ctrl_latency_factor: 1.0,
            chaos_ctr: ChaosCounters::default(),
            workload,
            collector,
            realloc_buf: Vec::new(),
            completions: Vec::new(),
            realloc_pending: false,
            tracer: None,
            scenario,
            started: false,
            wall_accum: 0.0,
            late_base,
            late_band,
            late_used,
            journal_cont: None,
            events: 0,
            epochs: 0,
            max_epoch_batch: 0,
            realloc_requests: 0,
            stale_completions: 0,
            flows_admitted: 0,
            flows_completed: 0,
            msgs_to_controller: 0,
            msgs_to_switch: 0,
            flow_ins: 0,
        })
    }

    /// Read access to the fluid plane (inspection in tests/examples).
    pub fn fluid(&self) -> &FluidNet {
        &self.fluid
    }

    /// Read access to the hybrid packet half, if any packet-fidelity
    /// traffic exists.
    pub fn hybrid(&self) -> Option<&HybridNet> {
        self.hybrid.as_deref()
    }

    /// Attaches the hybrid machinery up front even without packet-fidelity
    /// flows (the degenerate-equivalence tests pin down that doing so is
    /// byte-identical to a pure fluid run).
    pub fn enable_hybrid(&mut self) {
        if self.hybrid.is_none() {
            let links = self.fluid.topology().link_count();
            self.hybrid = Some(Box::new(HybridNet::new(links, &self.config)));
            self.set_oracles(self.oracles);
        }
    }

    /// Test support: runs the reference paths of [`Oracles`]. Not part
    /// of checkpoints: set them again after a resume or fork.
    #[doc(hidden)]
    pub fn set_oracles(&mut self, oracles: Oracles) {
        self.oracles = oracles;
        self.fluid
            .set_per_flow_variables(oracles.per_flow_variables);
        if let Some(h) = self.hybrid.as_mut() {
            h.set_uncached_pipeline(oracles.uncached_pipeline);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed so far (what a checkpoint at this instant would
    /// let a fork skip — the lab's `prefix_events_saved` accounting).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Installs a tracer and enables allocator phase timing when span
    /// collection is on. Metrics need no tracer: a tracer changes no
    /// count. Call before [`Simulation::run`].
    pub fn set_tracer(&mut self, mut tracer: SimTracer) {
        // On a simulation resumed from a journaling run's checkpoint the
        // new journal continues the old one: same digest chain, ordinals
        // picking up after the prefix's last line.
        if let Some((digest, entries)) = self.journal_cont {
            tracer.seed_journal_cont(digest, entries);
        }
        self.fluid.set_phase_timing(tracer.spans_enabled());
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes and returns the tracer (span export, journal flush).
    /// The journal sink is *not* flushed here — call
    /// [`SimTracer::finish_journal`] on the returned tracer.
    pub fn take_tracer(&mut self) -> Option<SimTracer> {
        self.fluid.set_phase_timing(false);
        self.tracer.take().map(|b| *b)
    }

    /// Schedules an explicit flow arrival (before or during a run).
    pub fn inject_flow(&mut self, at: SimTime, spec: FlowSpec) {
        self.queue.schedule_at(
            at,
            SimEvent::FlowArrival {
                spec,
                from_workload: false,
            },
        );
    }

    /// Schedules a cable failure.
    pub fn schedule_cable_down(&mut self, at: SimTime, link: horse_types::LinkId) {
        self.queue.schedule_at(at, SimEvent::CableDown(link));
    }

    /// Schedules a cable recovery.
    pub fn schedule_cable_up(&mut self, at: SimTime, link: horse_types::LinkId) {
        self.queue.schedule_at(at, SimEvent::CableUp(link));
    }

    /// Schedules a switch crash (tables wiped, ports down, cables cut).
    pub fn schedule_switch_down(&mut self, at: SimTime, switch: NodeId) {
        self.queue.schedule_at(at, SimEvent::SwitchDown(switch));
    }

    /// Schedules a crashed switch's rejoin.
    pub fn schedule_switch_up(&mut self, at: SimTime, switch: NodeId) {
        self.queue.schedule_at(at, SimEvent::SwitchUp(switch));
    }

    /// The control channel's current one-way latency: the configured
    /// value, stretched by the chaos latency factor during a spike
    /// window. The exact-1.0 guard keeps fault-free runs bit-identical
    /// to builds that never multiply.
    fn ctrl_latency(&self) -> SimDuration {
        if self.ctrl_latency_factor == 1.0 {
            self.config.ctrl_latency
        } else {
            SimDuration::from_secs_f64(
                self.config.ctrl_latency.as_secs_f64() * self.ctrl_latency_factor,
            )
        }
    }

    /// Delivers the controller's bootstrap rules synchronously (time 0),
    /// seeds workload/epoch/expiry events, then runs the event loop to the
    /// horizon and returns the results. Equivalent to
    /// [`Simulation::start`] + [`Simulation::run_until`]`(horizon)` +
    /// [`Simulation::finish`] — the checkpointing API uses the pieces.
    pub fn run(&mut self) -> SimResults {
        self.start();
        self.run_until(self.horizon);
        self.finish()
    }

    /// Bootstraps the run: proactive rules apply instantaneously at
    /// t = 0 (the fabric is configured before traffic starts), the first
    /// workload arrival and the periodic machinery are seeded. Idempotent;
    /// a no-op on a simulation resumed from a post-start checkpoint.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let t0 = Instant::now();

        // Each start message lands on its switch as the controller emits
        // it, so the rule set is never held twice; the rare replies and
        // the timers are scheduled afterwards, in the order they arose.
        let (topo, switches, _, _) = self.fluid.packet_plane_parts();
        let mut sink = ApplyNow::new(switches, SimTime::ZERO);
        let ctx = ControllerCtx {
            topo,
            now: SimTime::ZERO,
        };
        self.controller.on_start(&ctx, &mut sink);
        let (sent, replies, timers) = (sink.sent, sink.replies, sink.timers);
        self.msgs_to_switch += sent;
        for r in replies {
            self.schedule_to_controller(SimTime::ZERO, r, None);
        }
        for (delay, token) in timers {
            self.queue
                .schedule_at(SimTime::ZERO + delay, SimEvent::ControllerTimer { token });
        }

        // First workload arrival.
        self.schedule_next_workload_arrival();

        // Periodic machinery.
        if let Some(epoch) = self.config.stats_epoch {
            self.queue
                .schedule_at(SimTime::ZERO + epoch, SimEvent::StatsEpoch);
        }
        if let Some(scan) = self.config.expiry_scan {
            self.queue
                .schedule_at(SimTime::ZERO + scan, SimEvent::ExpiryScan);
        }
        self.wall_accum += t0.elapsed().as_secs_f64();
    }

    /// Runs the event loop until every epoch at or before
    /// `min(until, horizon)` has been processed, starting the simulation
    /// first if needed. Stopping at `T` and continuing later is
    /// bit-identical to never stopping — this is the checkpoint boundary.
    ///
    /// Loop shape: one iteration drains one **epoch** — every event
    /// sharing the head timestamp, in seq (scheduling) order, including
    /// events scheduled *for that instant* mid-drain — and then runs
    /// the allocator once for the whole batch. Handlers that read
    /// allocation-dependent state (stats export, expiry scans, packet
    /// serializer drains) flush the pending reallocation first, so the
    /// state they observe matches the per-event cadence. An epoch's
    /// completions can schedule follow-up work at the same timestamp
    /// *after* the drain ended (a rate change landing exactly at the
    /// epoch time); the outer loop then simply runs another epoch at
    /// the same instant.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        let t0 = Instant::now();
        let limit = until.min(self.horizon);
        let journal_on = self.tracer.as_ref().is_some_and(|t| t.journal_enabled());
        while let Some(epoch_time) = self.queue.peek_time() {
            if epoch_time > limit {
                break;
            }
            self.epochs += 1;
            let span_start = self.tracer.as_ref().and_then(|t| t.span_start());
            let mut batch = 0u64;
            while let Some(ev) = self.queue.pop_if_at(epoch_time) {
                self.events += 1;
                batch += 1;
                if journal_on {
                    let (kind, identity) = event_fingerprint(&ev.event);
                    self.handle(ev.time, ev.event);
                    if let Some(t) = self.tracer.as_mut() {
                        t.journal_event(ev.time.as_nanos(), kind, identity);
                    }
                } else {
                    self.handle(ev.time, ev.event);
                }
            }
            self.max_epoch_batch = self.max_epoch_batch.max(batch);
            self.flush_realloc(epoch_time);
            if let Some(t) = self.tracer.as_mut() {
                if let Some(start_ns) = span_start {
                    t.push_epoch_span(start_ns, batch, epoch_time);
                }
                t.maybe_progress(epoch_time, self.events, self.epochs);
            }
        }
        self.wall_accum += t0.elapsed().as_secs_f64();
    }

    /// Settles end-of-run accounting and returns the results. Call after
    /// [`Simulation::run_until`] reached the horizon.
    pub fn finish(&mut self) -> SimResults {
        self.fluid.sync_all(self.horizon);
        self.build_results(self.wall_accum)
    }

    fn schedule_next_workload_arrival(&mut self) {
        let Some(w) = self.workload.as_mut() else {
            return;
        };
        if let Some((at, spec)) = w.next_spec(self.fluid.topology()) {
            if at <= self.horizon {
                self.queue.schedule_at(
                    at,
                    SimEvent::FlowArrival {
                        spec,
                        from_workload: true,
                    },
                );
            }
        }
    }

    fn schedule_to_controller(&mut self, now: SimTime, msg: SwitchMsg, retry: Option<FlowId>) {
        self.queue.schedule_at(
            now + self.ctrl_latency(),
            SimEvent::ToController {
                msg: Box::new(msg),
                retry,
            },
        );
    }

    fn admit(&mut self, id: FlowId, spec: FlowSpec, attempt: u32, now: SimTime, arrived: SimTime) {
        // A flow knocked off a failed element gets the lenient re-admit:
        // a dead-end walk over stale tables defers to the controller
        // instead of dropping, so recovery time measures control-plane
        // convergence rather than hash luck over half-dead groups.
        let outcome = if self.recovering.contains_key(&id) {
            self.fluid.try_readmit_arrived(id, spec, now, arrived)
        } else {
            self.fluid.try_admit_arrived(id, spec, now, arrived)
        };
        match outcome {
            AdmitOutcome::Admitted => {
                self.flows_admitted += 1;
                if let Some(t0) = self.recovering.remove(&id) {
                    self.recovery_samples
                        .push(now.saturating_since(t0).as_secs_f64());
                    self.chaos_ctr.flows_rerouted += 1;
                }
            }
            AdmitOutcome::NeedController { msg, spec } => {
                if attempt >= self.config.admit_retry_limit {
                    self.fluid.record_external_drop(
                        id,
                        spec.key,
                        DropCause::ControllerTimeout,
                        now,
                    );
                    if self.recovering.remove(&id).is_some() {
                        self.chaos_ctr.flows_stranded += 1;
                    }
                } else {
                    self.pending.insert(id, (spec, attempt, arrived));
                    self.flow_ins += 1;
                    self.schedule_to_controller(now, msg, Some(id));
                }
            }
            AdmitOutcome::Dropped(_) => {
                // recorded inside the fluid plane
                if self.recovering.remove(&id).is_some() {
                    self.chaos_ctr.flows_stranded += 1;
                }
            }
        }
    }

    /// Notes that the current event changed flow or link state and the
    /// allocator must run before that state is observed. Under epoch
    /// batching (the default) the run is deferred to the end of the epoch
    /// (or the next flush point), so a batch of simultaneous arrivals,
    /// completions and failures pays for **one** allocator run; the
    /// per-event oracle runs it immediately instead.
    fn request_realloc(&mut self, now: SimTime) {
        self.realloc_requests += 1;
        if self.oracles.per_event_realloc {
            self.reallocate(now);
        } else {
            self.realloc_pending = true;
        }
    }

    /// Runs a pending reallocation now — called at the end of every epoch
    /// and before handlers that read allocation-dependent state.
    fn flush_realloc(&mut self, now: SimTime) {
        if self.realloc_pending {
            self.reallocate(now);
        }
    }

    /// Runs the allocator and reschedules the completion event of every
    /// flow whose rate changed: the superseded event is cancelled, so
    /// each flow has at most one pending. The fluid plane hands back a
    /// borrowed slice of its scratch; it is copied into a reused buffer
    /// so the queue can be scheduled against while iterating.
    fn reallocate(&mut self, now: SimTime) {
        self.realloc_pending = false;
        // Piggybacked hybrid coupling point: refresh the packet plane's
        // per-link demands before the allocator runs (no-op without
        // watched links, so pure fluid runs are untouched). Under epoch
        // batching the coupling runs at most once per epoch — a flush
        // point and the epoch end share one coupling — while the
        // per-event oracle keeps the historical couple-on-every-run
        // cadence.
        if let Some(h) = self.hybrid.as_mut() {
            if self.oracles.per_event_realloc || h.mark_coupled_epoch(self.epochs) {
                h.recouple(now, &mut self.fluid);
            }
        }
        if self.config.alloc_mode == AllocMode::Full {
            self.fluid.mark_all_dirty();
        }
        self.realloc_buf.clear();
        self.realloc_buf
            .extend_from_slice(self.fluid.reallocate(now));
        // Span export of the allocator's phase timing (wall clock, kept
        // strictly out of simulation state). Copied out first so the
        // tracer borrow does not overlap the fluid borrow.
        let timing = if self.tracer.as_ref().is_some_and(|t| t.spans_enabled()) {
            self.fluid.last_timing().copied()
        } else {
            None
        };
        if let Some(t) = self.tracer.as_mut() {
            if let Some(timing) = timing {
                t.push_realloc_spans(&timing);
            }
            if t.journal_enabled() {
                // The applied rate changes are the allocator's state
                // delta; fold them so the journal digest covers them.
                for change in &self.realloc_buf {
                    t.fold_rate_change(change.id.index() as u64, change.rate.as_bps().to_bits());
                }
            }
        }
        for change in &self.realloc_buf {
            let pending = completion_slot(&mut self.completions, change.id);
            self.queue.cancel(*pending);
            *pending = match change.completes_in {
                Some(secs) => self.queue.schedule_at(
                    now + SimDuration::from_secs_f64(secs),
                    SimEvent::Completion { id: change.id },
                ),
                None => EventHandle::NULL,
            };
        }
    }

    /// Cancels the pending completions of flows a fault detached.
    fn cancel_completions(&mut self, detached: &[FlowId]) {
        for id in detached {
            if let Some(&h) = self.completions.get(id.index()) {
                self.queue.cancel(h);
            }
        }
    }

    /// Runs one controller callback and sends what it emitted on its way
    /// (messages pay the control-channel latency). With spans enabled the
    /// callback is one `controller.dispatch` span carrying the emitted
    /// message count.
    fn call_controller(
        &mut self,
        now: SimTime,
        callback: impl FnOnce(&mut dyn Controller, &ControllerCtx<'_>, &mut Outbox),
    ) {
        let span_start = self.tracer.as_ref().and_then(|t| t.span_start());
        let mut out = Outbox::new();
        let ctx = ControllerCtx {
            topo: self.fluid.topology(),
            now,
        };
        callback(self.controller.as_mut(), &ctx, &mut out);
        if let (Some(start_ns), Some(t)) = (span_start, self.tracer.as_mut()) {
            t.push_dispatch_span(start_ns, out.msgs.len() as u64);
        }
        let arrival = now + self.ctrl_latency();
        for (sw, msg) in out.msgs {
            self.queue.schedule_at(
                arrival,
                SimEvent::ToSwitch {
                    switch: sw,
                    msg: Box::new(msg),
                },
            );
        }
        for (delay, token) in out.timers {
            self.queue
                .schedule_at(now + delay, SimEvent::ControllerTimer { token });
        }
    }

    /// Routes one controller input: straight to the controller, or — the
    /// input reached the controller's side of the channel but the
    /// controller is dark — into the outage backlog, in arrival order.
    fn controller_input(&mut self, now: SimTime, input: CtrlInput) {
        if self.ctrl_down_depth > 0 {
            self.ctrl_buffer.push(input);
        } else {
            self.deliver_to_controller(now, &input);
        }
    }

    /// Hands one input to the controller and applies its reaction (shared
    /// by live delivery and post-outage replay).
    fn deliver_to_controller(&mut self, now: SimTime, input: &CtrlInput) {
        match input {
            CtrlInput::Msg(msg, retry) => {
                self.call_controller(now, |c, ctx, out| c.dispatch(msg, ctx, out));
                if let Some(id) = *retry {
                    // Retry strictly after the controller's FlowMods land:
                    // they are scheduled at now + latency; FIFO ordering at
                    // equal timestamps applies them first.
                    self.queue
                        .schedule_at(now + self.ctrl_latency(), SimEvent::AdmitRetry { id });
                }
            }
            CtrlInput::Rejoin(node) => {
                self.call_controller(now, |c, ctx, out| c.on_switch_up(*node, ctx, out));
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: SimEvent) {
        match ev {
            SimEvent::FlowArrival {
                spec,
                from_workload,
            } => {
                if spec.fidelity.is_packet() && spec.size.is_some() {
                    // Packet-fidelity foreground: into the packet half of
                    // the co-simulation (fluid state is untouched, so no
                    // reallocation happens here — coupling starts when
                    // its first packet hits a serializer).
                    let id = self.fluid.reserve_id();
                    if self.hybrid.is_none() {
                        self.enable_hybrid();
                    }
                    let h = self.hybrid.as_mut().expect("hybrid enabled above");
                    let pkt = pkt_flow_spec(&spec, now).expect("sized flow converts");
                    let idx = h.admit(id, pkt);
                    self.queue
                        .schedule_at(now, SimEvent::Pkt(PktEvent::Start(idx)));
                    self.flows_admitted += 1;
                } else {
                    // Open-ended flows cannot run at packet fidelity
                    // (packet sources are finite); they stay fluid.
                    let id = self.fluid.reserve_id();
                    self.admit(id, spec, 0, now, now);
                    self.request_realloc(now);
                }
                if from_workload {
                    self.schedule_next_workload_arrival();
                }
            }
            SimEvent::AdmitRetry { id } => {
                if let Some((spec, attempt, arrived)) = self.pending.remove(&id) {
                    self.admit(id, spec, attempt + 1, now, arrived);
                    self.request_realloc(now);
                }
            }
            SimEvent::Completion { id } => {
                if self.fluid.remove_flow(id, now, true).is_some() {
                    self.flows_completed += 1;
                    self.request_realloc(now);
                } else {
                    // Unreachable while every removal cancels the flow's
                    // completion; counted rather than assumed.
                    self.stale_completions += 1;
                }
            }
            SimEvent::ToController { msg, retry } => {
                self.msgs_to_controller += 1;
                if self.ctrl_down_depth > 0 {
                    self.chaos_ctr.ctrl_msgs_buffered += 1;
                }
                self.controller_input(now, CtrlInput::Msg(*msg, retry));
            }
            SimEvent::ToSwitch { switch, msg } => {
                // A stats request served here reads switch port/entry
                // counters that the byte sync credits: a poll must see
                // the bytes every flow moved up to now, including flows
                // whose rate has not changed since their last sync. No
                // pending reallocation needs to run first: rates change
                // at `now`, so the bytes before it are what `sync_all`
                // integrates at the rates in force. Flow/group/meter mods
                // are pure writes, so only stats reads pay (keeping
                // FlowMod bursts batched, the common reactive-setup
                // shape).
                if matches!(&*msg, horse_openflow::messages::CtrlMsg::StatsRequest(_)) {
                    self.fluid.sync_all(now);
                }
                self.msgs_to_switch += 1;
                let replies = self.fluid.apply_ctrl_owned(switch, *msg, now);
                for r in replies {
                    self.schedule_to_controller(now, r, None);
                }
            }
            SimEvent::ControllerTimer { token } => {
                self.call_controller(now, |c, ctx, out| c.on_timer(token, ctx, out));
            }
            SimEvent::CableDown(link) => {
                self.chaos_ctr.cable_downs += 1;
                let (victims, msgs, detached) = self.fluid.cable_down(link, now);
                self.cancel_completions(&detached);
                for m in msgs {
                    self.schedule_to_controller(now, m, None);
                }
                // Immediate local re-admission: fast-failover groups or
                // pre-installed alternates repair without the controller.
                for spec in victims {
                    let id = self.fluid.reserve_id();
                    self.recovering.insert(id, now);
                    self.admit(id, spec, 0, now, now);
                }
                self.request_realloc(now);
            }
            SimEvent::CableUp(link) => {
                self.chaos_ctr.cable_ups += 1;
                let msgs = self.fluid.cable_up(link, now);
                for m in msgs {
                    self.schedule_to_controller(now, m, None);
                }
                self.request_realloc(now);
            }
            SimEvent::SwitchDown(node) => {
                self.chaos_ctr.switch_crashes += 1;
                let (victims, msgs, detached) = self.fluid.switch_down(node, now);
                self.cancel_completions(&detached);
                for m in msgs {
                    self.schedule_to_controller(now, m, None);
                }
                // Detached flows retry immediately; those without a
                // surviving pre-installed path go through the controller
                // (which hears the neighbors' PortStatus after one
                // channel delay) via the usual admit-retry loop.
                for spec in victims {
                    let id = self.fluid.reserve_id();
                    self.recovering.insert(id, now);
                    self.admit(id, spec, 0, now, now);
                }
                self.request_realloc(now);
            }
            SimEvent::SwitchUp(node) => {
                self.chaos_ctr.switch_rejoins += 1;
                let msgs = self.fluid.switch_up(node, now);
                for m in msgs {
                    self.schedule_to_controller(now, m, None);
                }
                // Out-of-band rejoin hook: the controller reinstalls the
                // blank switch (its messages pay the usual channel
                // latency). While the controller is dark the notification
                // waits its turn in the backlog like any other input.
                self.controller_input(now, CtrlInput::Rejoin(node));
                self.request_realloc(now);
            }
            SimEvent::GraySet {
                link,
                capacity_factor,
                loss_frac,
            } => {
                self.chaos_ctr.gray_events += 1;
                // Both degradations fold into one effective-capacity
                // factor: a link dropping a fraction of its traffic
                // delivers that much less goodput, which the fluid
                // abstraction models as reduced usable capacity (a
                // deterministic approximation — no per-packet coin flips).
                self.fluid
                    .set_gray(link, capacity_factor * (1.0 - loss_frac));
                self.request_realloc(now);
            }
            SimEvent::CtrlDown => {
                self.chaos_ctr.ctrl_outages += 1;
                self.ctrl_down_depth += 1;
            }
            SimEvent::CtrlUp => {
                if self.ctrl_down_depth > 0 {
                    self.ctrl_down_depth -= 1;
                    if self.ctrl_down_depth == 0 {
                        // Replay in arrival order: the controller works
                        // through its backlog the instant it comes back.
                        for input in std::mem::take(&mut self.ctrl_buffer) {
                            self.deliver_to_controller(now, &input);
                        }
                    }
                }
            }
            SimEvent::CtrlLatency { factor } => {
                if factor != 1.0 {
                    self.chaos_ctr.ctrl_latency_spikes += 1;
                }
                self.ctrl_latency_factor = factor;
            }
            SimEvent::StatsEpoch => {
                // Flush first: the exported utilizations and rates must
                // reflect every earlier event of this epoch, exactly as
                // they did under the per-event cadence.
                self.flush_realloc(now);
                self.fluid.sync_all(now);
                let topo = self.fluid.topology();
                let stats = self.fluid.link_stats();
                let view: Vec<(horse_types::LinkId, f64, f64)> = topo
                    .links()
                    .map(|(id, l)| {
                        let s = &stats[id.index()];
                        (id, s.utilization(l.capacity), s.current_rate_bps)
                    })
                    .collect();
                let completed = self.fluid.records().iter().filter(|r| r.completed).count();
                self.collector
                    .record_epoch(now, view, self.fluid.active_flow_count(), completed);
                if let Some(epoch) = self.config.stats_epoch {
                    let next = now + epoch;
                    if next <= self.horizon {
                        self.queue.schedule_at(next, SimEvent::StatsEpoch);
                    }
                }
            }
            SimEvent::ExpiryScan => {
                // Sync first: expiry compares entry last-use times that
                // the byte sync refreshes, and a flow whose rate has not
                // changed has not credited its entries since it last did.
                self.flush_realloc(now);
                self.fluid.sync_all(now);
                let msgs = self.fluid.expire_entries(now);
                for m in msgs {
                    self.schedule_to_controller(now, m, None);
                }
                if let Some(scan) = self.config.expiry_scan {
                    let next = now + scan;
                    if next <= self.horizon {
                        self.queue.schedule_at(next, SimEvent::ExpiryScan);
                    }
                }
            }
            SimEvent::Pkt(ev) => {
                // Flush first: packet serializers drain at capacity minus
                // the *current* fluid load, so a same-instant fluid change
                // must land before this packet event observes the link —
                // the same order the per-event cadence produced.
                self.flush_realloc(now);
                let step = {
                    let h = self
                        .hybrid
                        .as_mut()
                        .expect("packet events only exist with the hybrid half");
                    h.handle_pkt(now, ev, &mut self.fluid, &mut self.queue, &self.config)
                };
                self.flows_completed += step.finished;
                if step.needs_realloc {
                    // Serializer busy/idle transition: re-couple and let
                    // the fluid allocator redistribute around the new
                    // packet load.
                    self.request_realloc(now);
                }
            }
        }
    }

    /// Serializes the complete simulation at its current event boundary
    /// into a self-describing snapshot:
    ///
    /// ```text
    /// "HORSESNAP" | u32 version | scenario | config | state blob
    /// ```
    ///
    /// Call between [`Simulation::run_until`] calls (any epoch boundary,
    /// including before [`Simulation::start`]). A simulation rebuilt by
    /// [`Simulation::resume`] continues bit-identically to one that
    /// never stopped.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        self.scenario.snap(&mut w);
        self.config.snap(&mut w);
        self.snapshot_state(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a simulation from [`Simulation::checkpoint`] bytes,
    /// using the scenario's policy generator as the controller (the
    /// [`Simulation::new`] path). For custom controllers use
    /// [`Simulation::resume_with_controller`].
    pub fn resume(bytes: &[u8]) -> Result<Self, ResumeError> {
        Self::resume_inner(bytes, None, None)
    }

    /// Rebuilds a simulation from checkpoint bytes with a custom
    /// controller implementation. The controller must be the same kind
    /// (same [`Controller::name`]) as the one that was checkpointed —
    /// its state is restored via [`Controller::restore_state`].
    pub fn resume_with_controller(
        bytes: &[u8],
        controller: Box<dyn Controller>,
    ) -> Result<Self, ResumeError> {
        Self::resume_inner(bytes, Some(controller), None)
    }

    /// Branches a what-if run off a checkpoint: same past, different
    /// future. See [`ForkSpec`] for the knobs. The forked run is
    /// bit-identical to a straight-through run whose scenario carried
    /// the fork's `late_events` (and config overrides) from the start —
    /// the differential harness in `tests/checkpoint_equivalence.rs`
    /// proves exactly that.
    pub fn fork(bytes: &[u8], overrides: &ForkSpec) -> Result<Self, ResumeError> {
        let mut sim = Self::resume_inner(bytes, None, Some(overrides))?;
        for &(at, ev) in &overrides.late_events {
            if sim.late_used >= sim.late_band {
                return Err(ResumeError::BandExhausted {
                    band: sim.late_band,
                });
            }
            if at <= sim.queue.now() {
                return Err(ResumeError::LateEventNotLate {
                    at,
                    now: sim.queue.now(),
                });
            }
            sim.queue
                .schedule_at_seq(sim.late_base + sim.late_used, at, ev.to_sim_event());
            sim.late_used += 1;
        }
        Ok(sim)
    }

    fn resume_inner(
        bytes: &[u8],
        controller: Option<Box<dyn Controller>>,
        overrides: Option<&ForkSpec>,
    ) -> Result<Self, ResumeError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.bytes()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(ResumeError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(ResumeError::BadVersion(version));
        }
        let scenario = Scenario::unsnap(&mut r)?;
        let mut config = SimConfig::unsnap(&mut r)?;
        if let Some(l) = overrides.and_then(|o| o.ctrl_latency) {
            config.ctrl_latency = l;
        }
        let mut sim = match controller {
            Some(c) => Self::with_controller(scenario, config, c)?,
            None => Self::new(scenario, config)?,
        };
        sim.restore_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(ResumeError::Corrupt(SnapError::new(
                format!("{} trailing bytes after snapshot state", r.remaining()),
                r.position(),
            )));
        }
        Ok(sim)
    }

    /// Writes every piece of mutable simulation state. Config-derived
    /// structures (topology, policies, fluid config, alarm threshold)
    /// are *not* written — resume rebuilds them from the header and this
    /// blob overlays the parts that evolve.
    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.queue.snapshot().snap(w);
        self.fluid.snapshot_state(w);
        self.hybrid.is_some().snap(w);
        if let Some(h) = self.hybrid.as_deref() {
            h.snapshot_state(w);
        }
        // Controller state rides in a length-delimited section tagged by
        // the controller's name, so resuming with a mismatched
        // controller fails loudly instead of misparsing what follows.
        self.controller.name().to_string().snap(w);
        let mut cw = SnapWriter::new();
        self.controller.snapshot_state(&mut cw);
        cw.into_bytes().snap(w);
        self.pending.snap(w);
        self.recovering.snap(w);
        self.recovery_samples.snap(w);
        self.ctrl_down_depth.snap(w);
        self.ctrl_buffer.snap(w);
        self.ctrl_latency_factor.snap(w);
        self.chaos_ctr.snap(w);
        self.workload.is_some().snap(w);
        if let Some(wl) = self.workload.as_ref() {
            wl.generator.snapshot_state(w);
            wl.emitted.snap(w);
        }
        self.collector.snapshot_state(w);
        self.realloc_pending.snap(w);
        self.started.snap(w);
        self.late_base.snap(w);
        self.late_band.snap(w);
        self.late_used.snap(w);
        self.events.snap(w);
        self.epochs.snap(w);
        self.max_epoch_batch.snap(w);
        self.realloc_requests.snap(w);
        self.stale_completions.snap(w);
        self.flows_admitted.snap(w);
        self.flows_completed.snap(w);
        self.msgs_to_controller.snap(w);
        self.msgs_to_switch.snap(w);
        self.flow_ins.snap(w);
        let cont = self
            .tracer
            .as_ref()
            .and_then(|t| t.journal_cont())
            .or(self.journal_cont);
        cont.snap(w);
    }

    /// Overlays state written by [`Simulation::snapshot_state`] onto a
    /// freshly built simulation of the same scenario + config.
    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let qsnap: QueueSnapshot<SimEvent> = Snap::unsnap(r)?;
        self.queue = EventQueue::restore(qsnap);
        self.fluid.restore_state(r)?;
        self.completions.clear();
        for (h, ev) in self.queue.pending() {
            if let SimEvent::Completion { id } = ev {
                // Also bounds the handle table by the restored flow set.
                if self.fluid.flow(*id).is_none() {
                    return Err(SnapError::new(
                        format!("completion pending for inactive {id}"),
                        r.position(),
                    ));
                }
                *completion_slot(&mut self.completions, *id) = h;
            }
        }
        let has_hybrid = bool::unsnap(r)?;
        if has_hybrid {
            self.enable_hybrid();
            self.hybrid
                .as_deref_mut()
                .expect("just enabled")
                .restore_state(r)?;
        } else {
            self.hybrid = None;
        }
        // Every pending packet event must be one the restored packet
        // plane can handle: its flow indices registered, its packet well
        // formed.
        for (_, ev) in self.queue.pending() {
            if let SimEvent::Pkt(pev) = ev {
                let checked = match self.hybrid.as_deref() {
                    Some(h) => h.plane().check_event(pev),
                    None => Err("packet event without a packet plane".to_string()),
                };
                checked.map_err(|e| SnapError::new(e, r.position()))?;
            }
        }
        let ctrl_name = String::unsnap(r)?;
        if ctrl_name != self.controller.name() {
            return Err(SnapError::new(
                format!(
                    "snapshot was taken with controller '{ctrl_name}', resuming with '{}'",
                    self.controller.name()
                ),
                r.position(),
            ));
        }
        let ctrl_blob: Vec<u8> = Snap::unsnap(r)?;
        let mut cr = SnapReader::new(&ctrl_blob);
        self.controller.restore_state(&mut cr)?;
        if !cr.is_exhausted() {
            return Err(SnapError::new(
                format!(
                    "controller '{ctrl_name}' left {} bytes of its state unread",
                    cr.remaining()
                ),
                r.position(),
            ));
        }
        self.pending = Snap::unsnap(r)?;
        self.recovering = Snap::unsnap(r)?;
        self.recovery_samples = Snap::unsnap(r)?;
        self.ctrl_down_depth = Snap::unsnap(r)?;
        self.ctrl_buffer = Snap::unsnap(r)?;
        self.ctrl_latency_factor = Snap::unsnap(r)?;
        self.chaos_ctr = Snap::unsnap(r)?;
        let has_workload = bool::unsnap(r)?;
        if has_workload != self.workload.is_some() {
            return Err(SnapError::new(
                "snapshot and scenario disagree about the workload generator",
                r.position(),
            ));
        }
        if let Some(wl) = self.workload.as_mut() {
            wl.generator.restore_state(r)?;
            wl.emitted = Snap::unsnap(r)?;
        }
        self.collector.restore_state(r)?;
        self.realloc_pending = Snap::unsnap(r)?;
        self.started = Snap::unsnap(r)?;
        self.late_base = Snap::unsnap(r)?;
        self.late_band = Snap::unsnap(r)?;
        self.late_used = Snap::unsnap(r)?;
        self.events = Snap::unsnap(r)?;
        self.epochs = Snap::unsnap(r)?;
        self.max_epoch_batch = Snap::unsnap(r)?;
        self.realloc_requests = Snap::unsnap(r)?;
        self.stale_completions = Snap::unsnap(r)?;
        self.flows_admitted = Snap::unsnap(r)?;
        self.flows_completed = Snap::unsnap(r)?;
        self.msgs_to_controller = Snap::unsnap(r)?;
        self.msgs_to_switch = Snap::unsnap(r)?;
        self.flow_ins = Snap::unsnap(r)?;
        self.journal_cont = Snap::unsnap(r)?;
        self.realloc_buf.clear();
        Ok(())
    }

    fn build_results(&mut self, wall_seconds: f64) -> SimResults {
        let records = self.fluid.records();
        // Completed packet-fidelity flows were pushed into the fluid
        // plane's records as they finished, so the FCT/goodput summaries
        // and the CSV exports cover both planes uniformly; only the
        // still-active remainder needs explicit merging here.
        let (fct, goodput) = SimResults::summarize_records(records);
        let mut bytes_delivered = self.fluid.total_bytes_delivered();
        let bytes_dropped: f64 = records.iter().map(|r| r.dropped_bytes).sum();
        let mut flows_active_at_end = self.fluid.active_flow_count() as u64;
        let mut fct_foreground = horse_monitoring::series::Summary::default();
        let (mut pkt_cache_hits, mut pkt_cache_misses) = (0, 0);
        if let Some(h) = self.hybrid.as_ref() {
            bytes_delivered += h.unfinished_delivered_bytes();
            flows_active_at_end += h.active_count() as u64;
            fct_foreground = summarize(h.completed_fcts());
            pkt_cache_hits = h.plane().cache_hits();
            pkt_cache_misses = h.plane().cache_misses();
        }
        let queue = self.queue.stats();
        let metrics = self.metrics(&queue);
        let recovery = summarize(&self.recovery_samples);
        SimResults {
            sim_time: self.horizon,
            wall_seconds,
            events: self.events,
            flows_admitted: self.flows_admitted,
            flows_completed: self.flows_completed,
            flows_active_at_end,
            flows_dropped: self.fluid.drops().len() as u64,
            bytes_delivered,
            bytes_dropped,
            fct,
            goodput,
            msgs_to_controller: self.msgs_to_controller,
            msgs_to_switch: self.msgs_to_switch,
            epochs: self.epochs,
            max_epoch_batch: self.max_epoch_batch,
            stale_completions: self.stale_completions,
            realloc_runs: self.fluid.realloc_runs,
            realloc_flows_touched: self.fluid.realloc_flows_touched,
            macro_flows: self.fluid.macro_flows,
            warm_hits: 0,
            cold_solves: self.fluid.cold_solves,
            fct_foreground,
            pkt_cache_hits,
            pkt_cache_misses,
            recovery,
            chaos: self.chaos_ctr.clone(),
            queue,
            metrics,
            collector: std::mem::take(&mut self.collector),
        }
    }

    /// The run's metrics: every count, by name, from the one field that
    /// keeps it (this table is where a count of the simulation is
    /// declared; the allocator declares its own in `FluidNet::counts`
    /// and `FluidNet::hists`), tracer or not. Lab reports embed only the
    /// names they declare, so a new row moves no report.
    fn metrics(&self, queue: &QueueStats) -> MetricsSnapshot {
        let (mut table_hits, mut table_misses) = (0u64, 0u64);
        for &sw in self.fluid.switch_ids() {
            let Some(s) = self.fluid.switch(sw) else {
                continue;
            };
            for ti in 0..s.table_count() {
                if let Some(tbl) = s.table(horse_types::TableId(ti as u8)) {
                    table_hits += tbl.counters.matches;
                    table_misses += tbl.counters.lookups - tbl.counters.matches;
                }
            }
        }
        let c = &self.chaos_ctr;
        let mut rows = vec![
            ("sim.events", self.events),
            ("sim.epochs", self.epochs),
            ("sim.max_epoch_batch", self.max_epoch_batch),
            ("sim.realloc_requests", self.realloc_requests),
            ("sim.stale_completions", self.stale_completions),
            ("ctrl.msgs_to_controller", self.msgs_to_controller),
            ("ctrl.msgs_to_switch", self.msgs_to_switch),
            ("ctrl.flow_ins", self.flow_ins),
            ("queue.scheduled", queue.scheduled),
            ("queue.delivered", queue.delivered),
            ("queue.cancelled", queue.cancelled),
            ("queue.skipped", queue.skipped),
            ("queue.clamped", queue.clamped),
            ("queue.compactions", queue.compactions),
            ("queue.peak_pending", queue.peak_pending),
            ("openflow.table_hits", table_hits),
            ("openflow.table_misses", table_misses),
            ("chaos.cable_downs", c.cable_downs),
            ("chaos.cable_ups", c.cable_ups),
            ("chaos.switch_crashes", c.switch_crashes),
            ("chaos.switch_rejoins", c.switch_rejoins),
            ("chaos.gray_events", c.gray_events),
            ("chaos.ctrl_outages", c.ctrl_outages),
            ("chaos.ctrl_latency_spikes", c.ctrl_latency_spikes),
            ("chaos.ctrl_msgs_buffered", c.ctrl_msgs_buffered),
            ("chaos.flows_rerouted", c.flows_rerouted),
            ("chaos.flows_stranded", c.flows_stranded),
        ];
        rows.extend(self.fluid.counts());
        if let Some(h) = self.hybrid.as_ref() {
            let p = h.plane();
            rows.extend([
                ("hybrid.couple_passes", h.couple_passes),
                ("hybrid.pkt_flows", h.flow_count() as u64),
                ("pkt.bursts_formed", p.bursts_formed()),
                ("pkt.cache_hits", p.cache_hits()),
                ("pkt.cache_misses", p.cache_misses()),
                ("pkt.cache_invalidations", p.cache_invalidations()),
                ("pkt.tx_packets", p.tx_packets()),
            ]);
        }
        let rows = (rows.into_iter()).map(|(name, v)| (name.to_string(), v as f64));
        // Burst lengths in log2 buckets: bucket k holds bursts of
        // 2^k..2^(k+1) packets.
        let bursts = (self.hybrid.iter())
            .flat_map(|h| h.plane().burst_len_hist().iter().enumerate())
            .map(|(k, &n)| (format!("pkt.burst_len_p2_{k}"), n as f64));
        let peak = (self.collector.epochs.iter())
            .map(|e| e.max_utilization)
            .fold(0.0f64, f64::max);
        let hists = (self.fluid.hists().into_iter()).flat_map(|(name, h)| h.rows(name));
        rows.chain(hists)
            .chain(bursts)
            .chain([("links.peak_utilization".into(), peak)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use horse_controlplane::{LbMode, PolicyRule, PolicySpec};
    use horse_topology::builders;
    use horse_types::{AppClass, Rate};

    fn star_scenario(policy: PolicySpec, horizon_s: u64) -> Scenario {
        let f = builders::star(4, Rate::gbps(1.0));
        let mut s = Scenario::bare(f.topology, SimTime::from_secs(horizon_s));
        s.members = f.members;
        s.policy = policy;
        s
    }

    /// A matrix over other members than the scenario lists would have
    /// its arrivals name members that do not exist (or leave some out).
    #[test]
    fn workload_over_other_members_is_refused() {
        let mut s = Scenario::figure1(SimTime::from_secs(1), 1);
        s.workload = Some(horse_workloads::WorkloadParams::flat(
            horse_workloads::TrafficMatrix::uniform(2048, 1e9),
            1,
        ));
        let err = Simulation::new(s, SimConfig::default())
            .err()
            .expect("a 2,048-member matrix over 4 members is refused");
        assert!(
            matches!(
                err,
                BuildError::WorkloadMembers {
                    matrix: 2048,
                    members: 4
                }
            ),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "the workload's traffic matrix covers 2048 members, the scenario lists 4"
        );
    }

    /// A star whose hosts 0 and 1 exchange one 1 MiB flow at t = 1 s
    /// over proactive MAC-forwarding rules.
    fn one_flow_scenario() -> Scenario {
        let mut s = star_scenario(PolicySpec::new().with(PolicyRule::MacForwarding), 10);
        let spec = s
            .flow_between(
                s.members[0],
                s.members[1],
                AppClass::Http,
                1000,
                Some(ByteSize::mib(1)),
                DemandModel::Greedy,
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
        s
    }

    #[test]
    fn proactive_flow_completes_without_controller() {
        let mut sim = Simulation::new(one_flow_scenario(), SimConfig::default()).unwrap();
        let r = sim.run();
        assert_eq!(r.flows_admitted, 1);
        assert_eq!(r.flows_completed, 1);
        assert_eq!(
            r.metrics.count("ctrl.flow_ins"),
            0,
            "proactive rules, no controller involved"
        );
        // 1 MiB at 1 Gbps ≈ 8.4 ms
        assert!(r.fct.p50 > 0.008 && r.fct.p50 < 0.009, "fct {}", r.fct.p50);
        // Without a tracer the metrics still name every count, and the
        // allocator's histograms hold one solve per component.
        let m = &r.metrics;
        assert_eq!(m.count("sim.events"), r.events);
        assert_eq!(m.count("sim.epochs"), r.epochs);
        assert_eq!(m.count("alloc.runs"), r.realloc_runs);
        assert_eq!(m.count("alloc.components"), r.cold_solves);
        assert_eq!(m.count("queue.scheduled"), r.queue.scheduled);
        assert!(r.events > 0 && r.cold_solves > 0);
        assert_eq!(m.count("alloc.rounds.count"), r.cold_solves);
        assert_eq!(m.count("alloc.component_flows.count"), r.cold_solves);
    }

    #[test]
    fn a_tracer_changes_no_metric() {
        let run = |tracer: Option<SimTracer>| {
            let mut sim = Simulation::new(one_flow_scenario(), SimConfig::default()).unwrap();
            if let Some(t) = tracer {
                sim.set_tracer(t);
            }
            let r = sim.run();
            let spans = sim.take_tracer().and_then(|mut t| {
                t.finish_journal();
                t.take_spans()
            });
            (r.metrics, spans.map_or(0, |s| s.len()))
        };
        let journal = horse_trace::journal::SharedBuf::new();
        let traced = SimTracer::new().with_spans().with_journal(journal.clone());
        let ((plain, _), (traced, spans)) = (run(None), run(Some(traced)));
        assert!(
            spans > 0 && !journal.contents().is_empty(),
            "the tracer ran"
        );
        assert_eq!(plain, traced);
        assert!(plain.count("alloc.rounds.count") > 0);
        assert_eq!(
            plain.count("alloc.rounds.count"),
            plain.count("alloc.components")
        );
    }

    #[test]
    fn reactive_flow_pays_controller_roundtrips() {
        let mut s = star_scenario(PolicySpec::new().with(PolicyRule::MacLearning), 10);
        let spec = s
            .flow_between(
                s.members[0],
                s.members[1],
                AppClass::Http,
                1000,
                Some(ByteSize::mib(1)),
                DemandModel::Greedy,
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
        let lat = SimDuration::from_millis(5);
        let mut sim = Simulation::new(s, SimConfig::default().with_ctrl_latency(lat)).unwrap();
        let r = sim.run();
        assert_eq!(r.flows_admitted, 1);
        assert_eq!(r.flows_completed, 1);
        assert!(r.metrics.count("ctrl.flow_ins") >= 1);
        // FCT includes at least one control round trip (2 × 5 ms)
        assert!(
            r.fct.p50 >= 0.008 + 0.010,
            "fct {} must include setup latency",
            r.fct.p50
        );
    }

    #[test]
    fn two_flows_share_and_then_complete() {
        let mut s = star_scenario(PolicySpec::new().with(PolicyRule::MacForwarding), 30);
        // Two 10 MiB flows from distinct sources into the same sink: the
        // sink's access link is the bottleneck; each gets 500 Mbps.
        for (i, src) in [0usize, 1].iter().enumerate() {
            let spec = s
                .flow_between(
                    s.members[*src],
                    s.members[3],
                    AppClass::Https,
                    2000 + i as u16,
                    Some(ByteSize::mib(10)),
                    DemandModel::Greedy,
                )
                .unwrap();
            s.explicit_flows.push((SimTime::from_secs(1), spec));
        }
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        let r = sim.run();
        assert_eq!(r.flows_completed, 2);
        // 10 MiB at 500 Mbps ≈ 0.168 s (both finish together)
        let expect = 10.0 * 1048576.0 * 8.0 / 0.5e9;
        assert!(
            (r.fct.p50 - expect).abs() < 0.01,
            "fct {} vs {expect}",
            r.fct.p50
        );
    }

    #[test]
    fn superseded_completion_never_fires() {
        // Alone, the first flow would finish at ≈1.0084 s; the second
        // arrives at 1.002 s and halves its rate, superseding that
        // completion. Its departure then supersedes the second's.
        let mut s = star_scenario(PolicySpec::new().with(PolicyRule::MacForwarding), 10);
        for (i, at_ms) in [(0usize, 1000u64), (1, 1002)] {
            let spec = s
                .flow_between(
                    s.members[i],
                    s.members[3],
                    AppClass::Https,
                    6000 + i as u16,
                    Some(ByteSize::mib(1)),
                    DemandModel::Greedy,
                )
                .unwrap();
            s.explicit_flows.push((SimTime::from_millis(at_ms), spec));
        }
        let config = SimConfig::default()
            .with_stats_epoch(None)
            .with_expiry_scan(None);
        let mut sim = Simulation::new(s, config).unwrap();
        let r = sim.run();
        assert_eq!(r.flows_completed, 2);
        assert_eq!(
            r.events, 4,
            "two arrivals and two completions, nothing stale"
        );
        assert_eq!((r.queue.cancelled, r.stale_completions), (2, 0));
        let first = &sim.fluid().records()[0];
        assert_eq!(first.id, FlowId(0));
        assert!(first.finished > SimTime::from_micros(1_008_389 + 5_000));
    }

    #[test]
    fn workload_driven_run_is_deterministic() {
        let run = |seed: u64| {
            let s = Scenario::figure1(SimTime::from_secs(3), seed);
            let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
            let r = sim.run();
            (
                r.flows_admitted,
                r.flows_completed,
                r.bytes_delivered.round() as u64,
                r.events,
            )
        };
        assert_eq!(run(11), run(11), "same seed, same run");
        assert_ne!(run(11), run(12), "different seed differs");
    }

    #[test]
    fn figure1_policies_shape_traffic() {
        let s = Scenario::figure1(SimTime::from_secs(3), 5);
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        let r = sim.run();
        assert!(r.flows_admitted > 0);
        // m2 is blackholed: flows toward it are dropped at the edges
        assert!(r.flows_dropped > 0, "blackhole must drop something");
        assert!(r.bytes_delivered > 0.0);
    }

    #[test]
    fn cable_failure_reroutes_on_ecmp_fabric() {
        // two-core IXP fabric: killing one edge-core cable must not stop
        // traffic (the other core carries it)
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let e0 = f.edges[0];
        let cable = f
            .topology
            .out_links(e0)
            .find(|(_, l)| {
                f.topology
                    .node(l.dst)
                    .map(|n| n.kind.is_switch())
                    .unwrap_or(false)
            })
            .map(|(id, _)| id)
            .unwrap();
        let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(20));
        s.members = f.members.clone();
        s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
        // long-lived CBR flow crossing the fabric
        let spec = s
            .flow_between(
                f.members[0],
                f.members[1],
                AppClass::Https,
                4000,
                None,
                DemandModel::Cbr(Rate::mbps(100.0)),
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
        s.failures.push((SimTime::from_secs(5), cable, false));
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        let r = sim.run();
        // flow is still running at the end (rerouted, not lost) OR it was
        // re-admitted; either way bytes kept flowing after t=5.
        assert_eq!(r.flows_dropped, 0, "ECMP fabric must survive one cable");
        let delivered = r.bytes_delivered;
        // 19 s at 100 Mbps ≈ 237 MB; tolerate the failover transient
        assert!(
            delivered > 0.9 * (19.0 * 100e6 / 8.0),
            "delivered {delivered}"
        );
    }

    #[test]
    fn fault_cancels_its_victims_completion() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(10));
        s.members = f.members.clone();
        s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
        let spec = s
            .flow_between(
                f.members[0],
                f.members[1],
                AppClass::Https,
                4000,
                Some(ByteSize::gib(2)),
                DemandModel::Greedy,
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
        // Flap each uplink of the source edge in turn: whichever the flow
        // hashed onto cuts it mid-transfer with its completion pending.
        let uplinks = f
            .topology
            .out_links(f.edges[0])
            .filter(|(_, l)| f.cores.contains(&l.dst))
            .map(|(id, _)| id);
        for (k, cable) in uplinks.enumerate() {
            let down = 1100 + 200 * k as u64;
            s.failures.push((SimTime::from_millis(down), cable, false));
            s.failures
                .push((SimTime::from_millis(down + 50), cable, true));
        }
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        let r = sim.run();
        assert!(
            r.chaos.flows_rerouted >= 1,
            "the flow was cut and re-admitted"
        );
        assert_eq!(r.flows_completed, 1);
        assert_eq!(
            r.stale_completions, 0,
            "the victim's completion never fires"
        );
    }

    #[test]
    fn stats_epochs_are_collected() {
        let s = Scenario::figure1(SimTime::from_secs(3), 9);
        let mut sim = Simulation::new(
            s,
            SimConfig::default().with_stats_epoch(Some(SimDuration::from_millis(500))),
        )
        .unwrap();
        let r = sim.run();
        assert!(r.collector.epochs.len() >= 5, "6 epochs in 3 s at 500 ms");
        assert!(r.collector.aggregate.mean() > 0.0);
    }

    #[test]
    fn invalid_policy_is_rejected_at_build() {
        let mut s = star_scenario(PolicySpec::new(), 1);
        s.policy = PolicySpec::new().with(PolicyRule::Blackhole {
            victim: "nonexistent".into(),
        });
        assert!(matches!(
            Simulation::new(s, SimConfig::default()),
            Err(BuildError::InvalidPolicy(_))
        ));
    }

    #[test]
    fn rate_limited_pair_is_policed() {
        // star with rate limit between two members; TCP flow gets 0.75×cap
        let f = builders::star(3, Rate::gbps(1.0));
        let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(30));
        s.members = f.members.clone();
        s.policy = PolicySpec::new()
            .with(PolicyRule::MacForwarding)
            .with(PolicyRule::RateLimit {
                src: "h1".into(),
                dst: "h2".into(),
                rate_mbps: 100.0,
            });
        let spec = s
            .flow_between(
                f.members[0],
                f.members[1],
                AppClass::Https,
                5000,
                Some(ByteSize::mib(10)),
                DemandModel::Greedy,
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), spec));
        let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
        let r = sim.run();
        assert_eq!(r.flows_completed, 1);
        // goodput ≈ 75 Mbps (0.75 × 100 Mbps policer)
        assert!(
            (r.goodput.p50 - 75e6).abs() < 1e6,
            "goodput {} vs 75e6",
            r.goodput.p50
        );
    }
}
