//! [`HybridNet`] — packet/fluid co-simulation.
//!
//! Horse's pitch is a *hybrid* simulator: packet-level fidelity where it
//! matters, the fluid abstraction everywhere else. `HybridNet` is the
//! packet half of that co-simulation plus the coupling state. It is owned
//! by [`Simulation`](crate::sim::Simulation) and only materializes when a
//! scenario carries packet-fidelity flows, so pure fluid runs pay
//! nothing — they are byte-identical with or without it attached.
//!
//! ## One clock, one pipeline
//!
//! Both planes share the simulation's single `EventQueue` (packet
//! mechanics ride in [`SimEvent::Pkt`](crate::event::SimEvent)), the
//! fluid plane's topology, and its OpenFlow switches — a `FlowMod`
//! installed by the controller is immediately visible to fluid route
//! resolution *and* packet forwarding, and a packet table miss raises a
//! `FlowIn` through the very same controller channel (with the same
//! latency) as a fluid admission miss.
//!
//! ## Coupling at shared links
//!
//! * **Fluid → packet**: a packet serializer on link `l` drains at
//!   `capacity − fluid utilization`, floored at
//!   [`SimConfig::hybrid_min_drain_frac`] × capacity (so a link the fluid
//!   allocator momentarily fills cannot livelock the packet plane before
//!   the next coupling point), or at the share the allocator granted the
//!   packet aggregate — whichever is largest.
//! * **Packet → fluid**: each link carrying packet load registers an
//!   *external demand* with [`FluidNet::set_external_demand`]: the
//!   windowed serialization rate while the port keeps up, or `∞` while
//!   the port is backlogged. The fluid allocator water-fills a virtual
//!   single-link flow with that demand, so fluid flows see the residual
//!   capacity after packet load and a backlogged packet aggregate
//!   receives a max-min-fair share instead of being starved by greedy
//!   fluid flows (or vice versa).
//!
//! Re-coupling happens only at packet-serializer **busy/idle
//! transitions** (reported by [`PacketPlane::handle`]) and piggybacked on
//! fluid **reallocations** (which already run on every fluid event), so
//! the fluid hot path stays allocation-free and no periodic coupling
//! timer exists.
//!
//! Coupling state is dense and keyed by the directed [`LinkId`]: each
//! link has one packet serializer ([`PacketPlane::queued_packets`],
//! [`PacketPlane::is_busy`]) and one measurement mark, and the watch
//! list holds link ids. The per-packet-event backlog check and each
//! coupling pass are array reads, never a `(node, port)` lookup.
//!
//! For an *offline* accuracy comparison of the two planes over identical
//! inputs, see [`crate::compare`]; for mixing fidelities *within one
//! run*, tag flows via [`FlowSpec::fidelity`] or set
//! [`Scenario::packet_foreground`](crate::scenario::Scenario).

use crate::config::SimConfig;
use crate::event::SimEvent;
use horse_dataplane::{DemandModel, FlowRecord, FlowSpec, FluidNet};
use horse_events::EventQueue;
use horse_packetsim::{
    PacketPlane, PacketSimConfig, PktEvent, PktFlowRecord, PktFlowSpec, PktOut, SourceKind,
    TcpState,
};
use horse_types::{FlowId, LinkId, NodeId, SimTime, Snap, SnapError, SnapReader, SnapWriter};

/// Relative demand change (vs link capacity) below which a re-measured
/// packet load does not perturb the fluid allocator — hysteresis against
/// per-packet reallocation storms on lightly loaded ports.
const COUPLE_HYSTERESIS: f64 = 0.01;

/// Converts a fluid-plane spec into a packet-plane spec. Packet fidelity
/// needs a byte budget (packet sources are finite); `None` for open-ended
/// flows, which the hybrid driver keeps at fluid fidelity.
pub fn pkt_flow_spec(spec: &FlowSpec, at: SimTime) -> Option<PktFlowSpec> {
    let size = spec.size?;
    let source = match spec.demand {
        DemandModel::Greedy => SourceKind::Tcp(TcpState::new()),
        DemandModel::Cbr(r) => SourceKind::Cbr {
            rate_bps: r.as_bps(),
        },
    };
    Some(PktFlowSpec {
        key: spec.key,
        src: spec.src,
        dst: spec.dst,
        size,
        start: at,
        source,
    })
}

/// What one packet-plane event asked the simulation to do.
#[derive(Debug, Default)]
pub struct PktStep {
    /// Flows that completed during this event.
    pub finished: u64,
    /// Serializer transitions occurred — the caller must re-run the fluid
    /// allocator (recoupling happens inside the reallocate path).
    pub needs_realloc: bool,
}

/// Per-flow bookkeeping of a packet-fidelity flow.
#[derive(Snap)]
struct PktFlowMeta {
    /// The simulator-wide flow id (shared id space with fluid flows).
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    done: bool,
}

/// Per-link coupling state (windowed load measurement).
#[derive(Clone, Copy, Snap)]
struct LinkMark {
    /// `link_bytes` at the last measurement.
    bytes: f64,
    /// Time of the last measurement.
    at: SimTime,
    /// Whether this link is on the watch list.
    watched: bool,
}

/// The packet half of the co-simulation plus coupling state (see module
/// docs).
pub struct HybridNet {
    plane: PacketPlane,
    flows: Vec<PktFlowMeta>,
    marks: Vec<LinkMark>,
    /// Links with live packet load, re-measured at every coupling point.
    watch: Vec<LinkId>,
    /// FCTs (seconds) of completed packet-fidelity flows — the
    /// foreground summary in results.
    completed_fcts: Vec<f64>,
    /// Packet-plane events processed.
    pub pkt_events: u64,
    /// Coupling updates pushed into the fluid allocator.
    pub couplings: u64,
    /// Coupling passes (recouple invocations; each may push several or
    /// zero updates). Bounded by the epoch count under epoch batching.
    pub couple_passes: u64,
    /// The last epoch a coupling pass ran in (the at-most-once-per-epoch
    /// guard; 0 = never).
    coupled_epoch: u64,
    min_drain_frac: f64,
    /// Scratch for event emission (reused across events).
    out: PktOut,
}

impl HybridNet {
    /// Builds the packet half over a topology with `link_count` directed
    /// links. Packet mechanics use the baseline defaults with the
    /// simulation's control latency, so an all-packet hybrid run matches
    /// the standalone `horse-packetsim` baseline verbatim.
    pub fn new(link_count: usize, config: &SimConfig) -> Self {
        let pkt_cfg = PacketSimConfig {
            ctrl_latency: config.ctrl_latency,
            burst: config.pkt_burst.max(1),
            ..PacketSimConfig::default()
        };
        HybridNet {
            plane: PacketPlane::new(link_count, pkt_cfg),
            flows: Vec::new(),
            marks: vec![
                LinkMark {
                    bytes: 0.0,
                    at: SimTime::ZERO,
                    watched: false,
                };
                link_count
            ],
            watch: Vec::new(),
            completed_fcts: Vec::new(),
            pkt_events: 0,
            couplings: 0,
            couple_passes: 0,
            coupled_epoch: 0,
            min_drain_frac: config.hybrid_min_drain_frac,
            out: PktOut::default(),
        }
    }

    /// Read access to the packet mechanics.
    pub fn plane(&self) -> &PacketPlane {
        &self.plane
    }

    /// Test support: see [`PacketPlane::set_uncached_pipeline`].
    #[doc(hidden)]
    pub fn set_uncached_pipeline(&mut self, on: bool) {
        self.plane.set_uncached_pipeline(on);
    }

    /// Number of packet-fidelity flows admitted so far.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Packet-fidelity flows still transferring.
    pub fn active_count(&self) -> usize {
        self.flows.iter().filter(|f| !f.done).count()
    }

    /// Bytes delivered by packet flows that have not finished (finished
    /// flows are already in the fluid plane's records).
    pub fn unfinished_delivered_bytes(&self) -> f64 {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.done)
            .map(|(i, _)| self.plane.delivered_bytes(i) as f64)
            .sum()
    }

    /// FCTs (seconds) of completed packet-fidelity flows.
    pub fn completed_fcts(&self) -> &[f64] {
        &self.completed_fcts
    }

    /// Per-flow packet records, in admission order (`finished` falls back
    /// to `horizon` for incomplete flows).
    pub fn pkt_records(&self, horizon: SimTime) -> Vec<PktFlowRecord> {
        self.plane.records(horizon)
    }

    /// The simulator-wide id of a packet flow.
    pub fn flow_id(&self, index: usize) -> FlowId {
        self.flows[index].id
    }

    /// Admits a packet-fidelity flow and returns its plane index; the
    /// caller schedules [`PktEvent::Start`] with it. The flow enters the
    /// shared id space (`id` comes from [`FluidNet::reserve_id`]).
    pub fn admit(&mut self, id: FlowId, spec: PktFlowSpec) -> usize {
        self.flows.push(PktFlowMeta {
            id,
            src: spec.src,
            dst: spec.dst,
            done: false,
        });
        self.plane.add_flow(spec)
    }

    /// Processes one packet-plane event against the shared
    /// topology/switch pipeline, scheduling follow-ups onto the shared
    /// queue and recording completions into the fluid plane's records.
    pub fn handle_pkt(
        &mut self,
        now: SimTime,
        ev: PktEvent,
        fluid: &mut FluidNet,
        queue: &mut EventQueue<SimEvent>,
        config: &SimConfig,
    ) -> PktStep {
        self.pkt_events += 1;
        let mut step = PktStep::default();
        {
            // Serializers drain at capacity − fluid utilization. Once the
            // allocator has granted this link's packet aggregate a fair
            // share, the fluid flows were squeezed to `cap − grant`, so
            // the residual *is* the grant; the floor only covers the
            // window between a port going busy and the coupling landing.
            let min_frac = self.min_drain_frac;
            let (topo, switches, link_stats, gray) = fluid.packet_plane_parts();
            let drain = |l: LinkId| {
                // Gray failures shrink the drainable capacity: a degraded
                // link serializes packets at its reduced effective rate.
                let cap =
                    topo.link(l).map(|lk| lk.capacity.as_bps()).unwrap_or(0.0) * gray[l.index()];
                let residual = cap - link_stats[l.index()].current_rate_bps;
                residual.max(min_frac * cap)
            };
            self.plane
                .handle(now, ev, topo, switches, &drain, &mut self.out);
        }
        for (t, e) in self.out.events.drain(..) {
            queue.schedule_at(t, SimEvent::Pkt(e));
        }
        for msg in self.out.flow_ins.drain(..) {
            queue.schedule_at(
                now + config.ctrl_latency,
                SimEvent::ToController {
                    msg: Box::new(msg),
                    retry: None,
                },
            );
        }
        for (l, _busy) in self.out.transitions.drain(..) {
            let mark = &mut self.marks[l.index()];
            if !mark.watched {
                mark.watched = true;
                mark.bytes = self.plane.link_bytes()[l.index()];
                mark.at = now;
                self.watch.push(l);
            }
            step.needs_realloc = true;
        }
        for i in self.out.finished.drain(..) {
            let meta = &mut self.flows[i];
            if meta.done {
                continue;
            }
            meta.done = true;
            step.finished += 1;
            let rec = self.plane.record(i, now);
            self.completed_fcts.push(rec.fct_secs());
            fluid.push_external_record(FlowRecord {
                id: meta.id,
                key: rec.key,
                src: meta.src,
                dst: meta.dst,
                bytes: rec.bytes_delivered as f64,
                dropped_bytes: rec.dropped_bytes as f64,
                started: rec.started,
                finished: rec.finished,
                completed: true,
            });
        }
        self.out.clear();
        // Backlog escalation: a port that went busy with an empty
        // measurement window registered a zero demand, and a continuously
        // busy port produces no further transitions — without this check a
        // static fluid background (no arrivals, no completions) would pin
        // such a foreground at the drain floor forever. Any packet event
        // observing a backlogged watched link whose registered demand is
        // still finite forces a re-coupling; the recouple pass then
        // escalates it to `∞`, after which the demand is infinite and this
        // check stays quiet until the backlog clears.
        if !step.needs_realloc {
            step.needs_realloc = self
                .watch
                .iter()
                .any(|&l| fluid.external_demand(l).is_finite() && self.plane.queued_packets(l) > 0);
        }
        step
    }

    /// Claims the coupling slot of `epoch`: returns `true` (and records
    /// the claim) iff no coupling pass ran in this epoch yet. The
    /// simulation driver calls this before [`recouple`] so coupling runs
    /// **at most once per epoch** however many allocator runs the epoch's
    /// flush points trigger.
    ///
    /// [`recouple`]: HybridNet::recouple
    pub fn mark_coupled_epoch(&mut self, epoch: u64) -> bool {
        if self.coupled_epoch == epoch {
            return false;
        }
        self.coupled_epoch = epoch;
        true
    }

    /// Re-measures the packet load of every watched link and pushes the
    /// demands into the fluid allocator. Called right before the fluid
    /// reallocation (the piggybacked coupling point, at most once per
    /// epoch) — and therefore also after serializer transitions, which
    /// request a reallocation.
    pub fn recouple(&mut self, now: SimTime, fluid: &mut FluidNet) {
        self.couple_passes += 1;
        if self.watch.is_empty() {
            return;
        }
        let mut k = 0;
        while k < self.watch.len() {
            let l = self.watch[k];
            let li = l.index();
            let cap = match fluid.topology().link(l) {
                Some(lk) => lk.capacity.as_bps(),
                None => {
                    self.marks[li].watched = false;
                    self.watch.swap_remove(k);
                    continue;
                }
            };
            let cum = self.plane.link_bytes()[li];
            let mark = self.marks[li];
            let dt = now.saturating_since(mark.at).as_secs_f64();
            let measured = if dt > 0.0 {
                (cum - mark.bytes) * 8.0 / dt
            } else {
                fluid.external_demand(l) // no window yet: keep the last value
            };
            let backlogged = self.plane.queued_packets(l) > 0;
            let demand = if backlogged { f64::INFINITY } else { measured };
            if dt > 0.0 {
                self.marks[li].bytes = cum;
                self.marks[li].at = now;
            }
            // A fully quiet link (no backlog, idle serializer, empty
            // window) releases its demand outright and leaves the watch
            // list so an idle foreground stops costing per-reallocation
            // work.
            let quiet = !backlogged && !self.plane.is_busy(l) && measured <= f64::EPSILON;
            let prev = fluid.external_demand(l);
            if quiet {
                if prev != 0.0 {
                    fluid.set_external_demand(l, 0.0);
                    self.couplings += 1;
                }
                self.marks[li].watched = false;
                self.watch.swap_remove(k);
                continue;
            }
            let material = if demand.is_infinite() || prev.is_infinite() {
                demand != prev
            } else {
                (demand - prev).abs() > COUPLE_HYSTERESIS * cap
            };
            if material {
                fluid.set_external_demand(l, demand);
                self.couplings += 1;
            }
            k += 1;
        }
    }

    /// Serializes the packet half and the coupling state (checkpointing).
    /// The emission scratch is always drained between events and is not
    /// part of the snapshot.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        self.plane.snapshot_state(w);
        self.flows.snap(w);
        self.marks.snap(w);
        self.watch.snap(w);
        self.completed_fcts.snap(w);
        self.pkt_events.snap(w);
        self.couplings.snap(w);
        self.couple_passes.snap(w);
        self.coupled_epoch.snap(w);
    }

    /// Restores state captured by [`HybridNet::snapshot_state`] into a
    /// freshly built hybrid half over the same topology and config.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.plane.restore_state(r)?;
        self.flows = Vec::unsnap(r)?;
        if self.flows.len() != self.plane.flow_count() {
            return Err(SnapError::new(
                format!(
                    "snapshot has {} packet flows, its plane {}",
                    self.flows.len(),
                    self.plane.flow_count()
                ),
                r.position(),
            ));
        }
        let marks: Vec<LinkMark> = Vec::unsnap(r)?;
        if marks.len() != self.marks.len() {
            return Err(SnapError::new(
                format!(
                    "snapshot has {} link marks, topology has {}",
                    marks.len(),
                    self.marks.len()
                ),
                r.position(),
            ));
        }
        self.marks = marks;
        self.watch = Vec::unsnap(r)?;
        if let Some(l) = self.watch.iter().find(|l| l.index() >= self.marks.len()) {
            return Err(SnapError::new(
                format!("watched link {l} out of range ({} links)", self.marks.len()),
                r.position(),
            ));
        }
        self.completed_fcts = Vec::unsnap(r)?;
        self.pkt_events = u64::unsnap(r)?;
        self.couplings = u64::unsnap(r)?;
        self.couple_passes = u64::unsnap(r)?;
        self.coupled_epoch = u64::unsnap(r)?;
        Ok(())
    }
}
