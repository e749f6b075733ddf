//! The packet-level engine.
//!
//! The mechanics live in [`PacketPlane`] — a drivable core that owns the
//! per-port queues, flow sources and drop counters but **not** the
//! topology, the OpenFlow switches or the event queue. Every event is
//! pushed through [`PacketPlane::handle`], which borrows the topology and
//! switch pipeline, asks a caller-supplied drain-rate oracle how fast a
//! link may serialize, and emits follow-up events / controller messages /
//! serializer busy-idle transitions into a [`PktOut`] buffer.
//!
//! Two drivers exist:
//!
//! * [`PacketNet`] — the standalone baseline (this file): owns its own
//!   topology, switches and event loop; links drain at full capacity.
//!   This is the reference the accuracy comparisons run against.
//! * the hybrid co-simulation in `horse-core` — shares one event queue,
//!   topology and switch pipeline with the fluid plane; links drain at
//!   `capacity − fluid utilization`, and the busy/idle transitions feed
//!   capacity reservations back into the fluid allocator.

use crate::source::SourceKind;
use horse_controlplane::{ApplyNow, Controller, ControllerCtx, Outbox};
use horse_events::EventQueue;
use horse_openflow::messages::{CtrlMsg, SwitchMsg};
use horse_openflow::switch::{OpenFlowSwitch, PipelineResult, Switches, Verdict};
use horse_topology::Topology;
use horse_types::id::MeterId;
use horse_types::{
    ByteSize, FlowKey, LinkId, NodeId, PortNo, Rate, SimDuration, SimTime, Snap, SnapError,
    SnapReader, SnapWriter,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Packet-plane configuration.
#[derive(Clone, Copy, Debug)]
pub struct PacketSimConfig {
    /// Data segment size on the wire (bytes).
    pub data_pkt: u32,
    /// ACK packet size (bytes).
    pub ack_pkt: u32,
    /// Per-port output buffer.
    pub buffer: ByteSize,
    /// One-way control-channel latency.
    pub ctrl_latency: SimDuration,
    /// Minimum retransmission timeout (seconds).
    pub rto_floor: f64,
    /// Maximum packets one burst event may model (GSO-style batching).
    /// `1` disables batching and is bit-identical to the per-packet plane.
    pub burst: u32,
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        PacketSimConfig {
            data_pkt: 1500,
            ack_pkt: 64,
            buffer: ByteSize::kib(256),
            ctrl_latency: SimDuration::from_micros(500),
            rto_floor: 0.01,
            burst: 32,
        }
    }
}

/// A flow to drive through the packet plane.
#[derive(Clone, Debug, Snap)]
pub struct PktFlowSpec {
    /// Header fields.
    pub key: FlowKey,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes to transfer.
    pub size: ByteSize,
    /// Start time.
    pub start: SimTime,
    /// Source model.
    pub source: SourceKind,
}

/// Completion record.
#[derive(Clone, Debug)]
pub struct PktFlowRecord {
    /// Flow index (into the input spec list).
    pub index: usize,
    /// Header fields.
    pub key: FlowKey,
    /// Bytes delivered in order to the receiver.
    pub bytes_delivered: u64,
    /// Bytes of this flow's packets lost to tail drops, meters, table
    /// misses and dead links.
    pub dropped_bytes: u64,
    /// Start time.
    pub started: SimTime,
    /// Finish time (delivery of the last in-order byte), or horizon.
    pub finished: SimTime,
    /// Whether the byte budget completed before the horizon.
    pub completed: bool,
}

impl PktFlowRecord {
    /// Flow completion time (seconds).
    pub fn fct_secs(&self) -> f64 {
        self.finished.saturating_since(self.started).as_secs_f64()
    }
}

/// Aggregate results of a packet-level run.
#[derive(Debug)]
pub struct PacketResults {
    /// Per-flow records (same order as the input specs).
    pub records: Vec<PktFlowRecord>,
    /// Bytes carried per directed link (indexed by link id).
    pub link_bytes: Vec<f64>,
    /// Queue (and policy/meter) drops per directed link.
    pub drops: u64,
    /// Events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Final simulated time.
    pub sim_time: SimTime,
}

impl PacketResults {
    /// Mean utilization of a link over the run.
    pub fn utilization(&self, link: LinkId, capacity: Rate, duration: SimDuration) -> f64 {
        let secs = duration.as_secs_f64();
        if secs <= 0.0 || capacity.is_zero() {
            return 0.0;
        }
        (self.link_bytes[link.index()] * 8.0 / secs / capacity.as_bps()).clamp(0.0, 1.0)
    }
}

/// A packet-plane event. Drivers schedule these on their event queue and
/// feed them back through [`PacketPlane::handle`].
///
/// Checkpoints carry the `PktEvent`s riding in the simulation queue.
#[derive(Clone, Debug, Snap)]
pub enum PktEvent {
    /// A flow's source starts.
    Start(usize),
    /// CBR pacing tick: try to send the next data packet.
    CbrSend(usize),
    /// Packet arrives at a node after crossing a link.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port at that node.
        in_port: PortNo,
        /// The packet.
        pkt: Pkt,
    },
    /// Serializer on (node, port) finished the packet in flight.
    TxDone {
        /// The transmitting node.
        node: NodeId,
        /// Its egress port.
        port: PortNo,
    },
    /// TCP retransmission timer.
    Rto {
        /// Flow index.
        flow: usize,
        /// Cumulative ACK when the timer was armed (staleness check).
        cum_ack_at_arm: u64,
    },
}

/// A packet in flight (internal representation; drivers only carry these
/// inside [`PktEvent`]s they got from [`PktOut`]).
#[derive(Clone, Debug, Snap)]
pub struct Pkt {
    flow: usize,
    key: FlowKey,
    size: u32,
    /// Data segment sequence or, for ACKs, the cumulative ACK value.
    /// A burst (`count > 1`) of data models segments `seq..seq+count`;
    /// a burst of ACKs models the cumulative values
    /// `seq-count+1..=seq` (i.e. `seq` is the final, highest ACK).
    seq: u64,
    is_ack: bool,
    /// Time the segment was (first) transmitted — for RTT sampling.
    sent_at: SimTime,
    /// Packets this event models (GSO-style burst; `1` = a single packet).
    count: u32,
}

/// A cached pipeline decision of one packet flow at one switch ingress
/// (`node`, `in_port`, direction): valid while the switch's
/// forwarding-state generation still equals `gen` and the arriving key is
/// unchanged.
struct CacheEntry {
    node: NodeId,
    in_port: PortNo,
    is_ack: bool,
    gen: u64,
    key: FlowKey,
    res: PipelineResult,
}

#[derive(Snap)]
struct PortQueue {
    queue: VecDeque<Pkt>,
    queued_bytes: u64,
    busy: bool,
}

impl PortQueue {
    fn new() -> Self {
        PortQueue {
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
        }
    }
}

#[derive(Snap)]
struct FlowRt {
    spec: PktFlowSpec,
    source: SourceKind,
    total_segs: u64,
    delivered_segs: u64,
    cbr_sent_segs: u64,
    dropped_bytes: u64,
    finished: Option<SimTime>,
}

/// Everything one [`PacketPlane::handle`] call asks its driver to do:
/// follow-up events to schedule, `FlowIn`s to deliver to the controller
/// (the driver applies the control-channel latency), serializer busy/idle
/// transitions (the hybrid coupling signal) and flows that just finished.
#[derive(Debug, Default)]
pub struct PktOut {
    /// Events to schedule at their absolute times.
    pub events: Vec<(SimTime, PktEvent)>,
    /// Table-miss `FlowIn`s raised while forwarding.
    pub flow_ins: Vec<SwitchMsg>,
    /// `(link, busy)` serializer transitions: `true` when an idle port
    /// started transmitting, `false` when a port drained to idle.
    pub transitions: Vec<(LinkId, bool)>,
    /// Flows whose byte budget completed during this event.
    pub finished: Vec<usize>,
}

impl PktOut {
    /// Clears all buffers (drivers reuse one `PktOut` across events).
    pub fn clear(&mut self) {
        self.events.clear();
        self.flow_ins.clear();
        self.transitions.clear();
        self.finished.clear();
    }
}

/// The per-link serialization-rate oracle: effective drain rate in bps
/// for packets leaving on `link`. The standalone baseline answers with
/// link capacity; the hybrid driver answers with
/// `capacity − fluid utilization` (floored).
pub type DrainFn<'a> = dyn Fn(LinkId) -> f64 + 'a;

/// The drivable packet-mechanics core (see module docs). Owns queues,
/// flow runtime state and drop counters; borrows topology and switches
/// per event.
pub struct PacketPlane {
    flows: Vec<FlowRt>,
    /// One output serializer per directed link, indexed by [`LinkId`].
    queues: Vec<PortQueue>,
    link_bytes: Vec<f64>,
    drops: u64,
    config: PacketSimConfig,
    /// Cached pipeline decisions, one short list per flow (indexed like
    /// `flows`) of the `(switch, in-port, dir)` ingresses it crosses —
    /// a handful per flow, so a linear scan beats any hash. Freed once
    /// the flow's sender is done.
    cache: Vec<Vec<CacheEntry>>,
    /// Test support: every packet walks the pipeline.
    uncached_pipeline: bool,
    // Burst/cache telemetry.
    bursts_formed: u64,
    burst_len_hist: [u64; 8],
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    tx_packets: u64,
    // Scratch buffers (always drained within one `handle` call) — keep
    // the steady-state hot path allocation-free.
    scratch_ports: Vec<PortNo>,
    scratch_acks: Vec<u64>,
    scratch_rtx: Vec<u64>,
}

impl PacketPlane {
    /// A fresh plane for a topology with `link_count` directed links.
    pub fn new(link_count: usize, config: PacketSimConfig) -> Self {
        PacketPlane {
            flows: Vec::new(),
            queues: (0..link_count).map(|_| PortQueue::new()).collect(),
            link_bytes: vec![0.0; link_count],
            drops: 0,
            config,
            cache: Vec::new(),
            uncached_pipeline: false,
            bursts_formed: 0,
            burst_len_hist: [0; 8],
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
            tx_packets: 0,
            scratch_ports: Vec::new(),
            scratch_acks: Vec::new(),
            scratch_rtx: Vec::new(),
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &PacketSimConfig {
        &self.config
    }

    /// Test support: walk the pipeline for every packet, the oracle the
    /// decision cache is proven against. Not part of snapshots.
    #[doc(hidden)]
    pub fn set_uncached_pipeline(&mut self, on: bool) {
        self.uncached_pipeline = on;
    }

    /// Every segment of the flow is acknowledged (TCP) or delivered (CBR):
    /// its decisions are freed and stragglers walk the pipeline uncached.
    fn sender_done(&self, i: usize) -> bool {
        let f = &self.flows[i];
        match &f.source {
            SourceKind::Tcp(t) => t.cum_ack >= f.total_segs,
            SourceKind::Cbr { .. } => f.finished.is_some(),
        }
    }

    /// Registers a flow; the caller schedules [`PktEvent::Start`] with the
    /// returned index at `spec.start`.
    pub fn add_flow(&mut self, spec: PktFlowSpec) -> usize {
        let total_segs = spec.size.as_bytes().div_ceil(self.config.data_pkt as u64);
        self.flows.push(FlowRt {
            source: spec.source.clone(),
            spec,
            total_segs: total_segs.max(1),
            delivered_segs: 0,
            cbr_sent_segs: 0,
            dropped_bytes: 0,
            finished: None,
        });
        self.cache.push(Vec::new());
        self.flows.len() - 1
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The spec a flow was registered with.
    pub fn spec(&self, index: usize) -> &PktFlowSpec {
        &self.flows[index].spec
    }

    /// Whether a flow's byte budget has completed.
    pub fn is_finished(&self, index: usize) -> bool {
        self.flows[index].finished.is_some()
    }

    /// Bytes delivered in order to a flow's receiver so far.
    pub fn delivered_bytes(&self, index: usize) -> u64 {
        self.flows[index].delivered_segs * self.config.data_pkt as u64
    }

    /// Total queue/policy/meter drops so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Burst events that modeled more than one packet.
    pub fn bursts_formed(&self) -> u64 {
        self.bursts_formed
    }

    /// Serialized-burst length histogram: bucket `k` counts bursts with
    /// `floor(log2(len)) == k` (lengths ≥ 128 land in the last bucket).
    pub fn burst_len_hist(&self) -> &[u64; 8] {
        &self.burst_len_hist
    }

    /// Pipeline-decision cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Pipeline-decision cache misses (cold or invalidated).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Cache entries found stale (generation or key changed) on lookup.
    pub fn cache_invalidations(&self) -> u64 {
        self.cache_invalidations
    }

    /// Packets (not events) pushed through serializers so far — the
    /// packet-modeling throughput metric burst batching accelerates.
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets
    }

    /// Whether the serializer of `link` is mid-transmission.
    pub fn is_busy(&self, link: LinkId) -> bool {
        self.queues.get(link.index()).is_some_and(|q| q.busy)
    }

    /// Packets queued behind the one in flight on `link`.
    pub fn queued_packets(&self, link: LinkId) -> usize {
        self.queues.get(link.index()).map_or(0, |q| q.queue.len())
    }

    /// Bytes of a flow's packets dropped so far.
    pub fn dropped_bytes(&self, index: usize) -> u64 {
        self.flows[index].dropped_bytes
    }

    /// Bytes carried per directed link (indexed by link id).
    pub fn link_bytes(&self) -> &[f64] {
        &self.link_bytes
    }

    /// Counts a lost packet (or whole burst) against the aggregate and
    /// its flow.
    fn drop_pkt(&mut self, pkt: &Pkt) {
        self.drop_pkt_n(pkt, pkt.count);
    }

    /// Counts `n` of a burst's packets as lost.
    fn drop_pkt_n(&mut self, pkt: &Pkt, n: u32) {
        self.drops += n as u64;
        self.flows[pkt.flow].dropped_bytes += pkt.size as u64 * n as u64;
    }

    /// The completion record of one flow (`finished` falls back to
    /// `horizon` for incomplete flows, as in [`PacketResults`]).
    pub fn record(&self, index: usize, horizon: SimTime) -> PktFlowRecord {
        let f = &self.flows[index];
        PktFlowRecord {
            index,
            key: f.spec.key,
            bytes_delivered: f.delivered_segs * self.config.data_pkt as u64,
            dropped_bytes: f.dropped_bytes,
            started: f.spec.start,
            finished: f.finished.unwrap_or(horizon),
            completed: f.finished.is_some(),
        }
    }

    /// All completion records, in registration order.
    pub fn records(&self, horizon: SimTime) -> Vec<PktFlowRecord> {
        (0..self.flows.len())
            .map(|i| self.record(i, horizon))
            .collect()
    }

    /// Serializes the plane's mutable state (flow runtime, port queues,
    /// link byte counters, drops). The configuration is not included —
    /// a restore target is built with the same config.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        self.flows.snap(w);
        self.queues.snap(w);
        self.link_bytes.snap(w);
        self.drops.snap(w);
        // Decision cache, in canonical `(switch, in-port, flow, dir)` order
        // so snapshots of identical planes are byte-identical.
        let mut entries: Vec<_> = self
            .cache
            .iter()
            .enumerate()
            .flat_map(|(flow, list)| {
                list.iter()
                    .map(move |e| ((e.node, e.in_port, flow, e.is_ack), e))
            })
            .collect();
        entries.sort_by_key(|&(k, _)| k);
        w.len_prefix(entries.len());
        for (k, e) in entries {
            k.snap(w);
            e.gen.snap(w);
            e.key.snap(w);
            e.res.snap(w);
        }
        self.bursts_formed.snap(w);
        self.burst_len_hist.snap(w);
        self.cache_hits.snap(w);
        self.cache_misses.snap(w);
        self.cache_invalidations.snap(w);
        self.tx_packets.snap(w);
    }

    /// Restores state captured by [`PacketPlane::snapshot_state`] into a
    /// freshly built plane over the same link count and config.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.flows = Vec::unsnap(r)?;
        let queues: Vec<PortQueue> = Vec::unsnap(r)?;
        if queues.len() != self.queues.len() {
            return Err(SnapError::new(
                format!(
                    "snapshot has {} port queues, plane has {} links",
                    queues.len(),
                    self.queues.len()
                ),
                r.position(),
            ));
        }
        for (li, q) in queues.iter().enumerate() {
            let mut bytes = 0u64;
            for pkt in &q.queue {
                self.check_pkt(pkt)
                    .map_err(|e| SnapError::new(format!("queue {li}: {e}"), r.position()))?;
                bytes = bytes.saturating_add(pkt.size as u64 * pkt.count as u64);
            }
            if bytes != q.queued_bytes {
                return Err(SnapError::new(
                    format!("queue {li} holds {bytes} bytes, counts {}", q.queued_bytes),
                    r.position(),
                ));
            }
        }
        self.queues = queues;
        let link_bytes: Vec<f64> = Vec::unsnap(r)?;
        if link_bytes.len() != self.link_bytes.len() {
            return Err(SnapError::new(
                format!(
                    "snapshot has {} links, plane has {}",
                    link_bytes.len(),
                    self.link_bytes.len()
                ),
                r.position(),
            ));
        }
        self.link_bytes = link_bytes;
        self.drops = u64::unsnap(r)?;
        let n = r.len_prefix()?;
        let mut cache: Vec<Vec<CacheEntry>> = (0..self.flows.len()).map(|_| Vec::new()).collect();
        for _ in 0..n {
            let (node, in_port, flow, is_ack) = <(NodeId, PortNo, usize, bool)>::unsnap(r)?;
            let gen = u64::unsnap(r)?;
            let key = FlowKey::unsnap(r)?;
            let res = PipelineResult::unsnap(r)?;
            let Some(list) = cache.get_mut(flow) else {
                return Err(SnapError::new(
                    format!("cache entry for flow {flow} of {}", self.flows.len()),
                    r.position(),
                ));
            };
            if list
                .iter()
                .any(|e| (e.node, e.in_port, e.is_ack) == (node, in_port, is_ack))
            {
                return Err(SnapError::new(
                    format!("duplicate cache entry for flow {flow} at {node}"),
                    r.position(),
                ));
            }
            list.push(CacheEntry {
                node,
                in_port,
                is_ack,
                gen,
                key,
                res,
            });
        }
        self.cache = cache;
        self.bursts_formed = u64::unsnap(r)?;
        self.burst_len_hist = Snap::unsnap(r)?;
        self.cache_hits = u64::unsnap(r)?;
        self.cache_misses = u64::unsnap(r)?;
        self.cache_invalidations = u64::unsnap(r)?;
        self.tx_packets = u64::unsnap(r)?;
        Ok(())
    }

    /// Checks that a restored packet refers to a registered flow and
    /// models at least one packet (an ACK burst's final value covers its
    /// `count` cumulative values).
    fn check_pkt(&self, pkt: &Pkt) -> Result<(), String> {
        if pkt.flow >= self.flows.len() {
            return Err(format!(
                "packet of flow {} of {}",
                pkt.flow,
                self.flows.len()
            ));
        }
        if pkt.count == 0 || (pkt.is_ack && pkt.seq < pkt.count as u64 - 1) {
            return Err(format!(
                "packet burst of {} ending at {}",
                pkt.count, pkt.seq
            ));
        }
        Ok(())
    }

    /// Checks that an event restored from a snapshot can be handled by
    /// this plane: every flow index it carries is registered and its
    /// packet, if any, is well formed. Drivers call this on each pending
    /// [`PktEvent`] after [`PacketPlane::restore_state`].
    pub fn check_event(&self, ev: &PktEvent) -> Result<(), String> {
        match ev {
            PktEvent::Start(flow) | PktEvent::CbrSend(flow) | PktEvent::Rto { flow, .. } => {
                if *flow >= self.flows.len() {
                    return Err(format!("event for flow {flow} of {}", self.flows.len()));
                }
                Ok(())
            }
            PktEvent::Arrive { pkt, .. } => self.check_pkt(pkt),
            PktEvent::TxDone { .. } => Ok(()),
        }
    }

    /// Processes one event against the shared topology/switch pipeline.
    /// Everything the driver must act on lands in `out` (which is NOT
    /// cleared here — drivers drain or clear it between calls).
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: PktEvent,
        topo: &Topology,
        switches: &mut Switches,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        match ev {
            PktEvent::Start(i) => match self.flows[i].source {
                SourceKind::Cbr { .. } => {
                    out.events.push((now, PktEvent::CbrSend(i)));
                }
                SourceKind::Tcp(_) => {
                    self.tcp_pump(i, now, topo, drain, out);
                }
            },
            PktEvent::CbrSend(i) => {
                let (done, interval) = {
                    let f = &self.flows[i];
                    let SourceKind::Cbr { rate_bps } = f.source else {
                        return;
                    };
                    let interval = self.config.data_pkt as f64 * 8.0 / rate_bps.max(1.0);
                    (f.cbr_sent_segs >= f.total_segs, interval)
                };
                if done || self.flows[i].finished.is_some() {
                    return;
                }
                // Burst quantum: batch up to `burst` back-to-back ticks
                // into one send, but never more than total/128 so the
                // pacing distortion stays well under the 1% FCT contract
                // (short flows degenerate to per-packet cadence).
                let total = self.flows[i].total_segs;
                let remaining = total - self.flows[i].cbr_sent_segs;
                let quantum = (total / 128).max(1);
                let n = remaining.min(self.config.burst.max(1) as u64).min(quantum) as u32;
                let seq = self.flows[i].cbr_sent_segs;
                self.flows[i].cbr_sent_segs += n as u64;
                let pkt = Pkt {
                    flow: i,
                    key: self.flows[i].spec.key,
                    size: self.config.data_pkt,
                    seq,
                    is_ack: false,
                    sent_at: now,
                    count: n,
                };
                let src = self.flows[i].spec.src;
                self.host_emit(src, pkt, now, topo, drain, out);
                out.events.push((
                    now + SimDuration::from_secs_f64(interval * n as f64),
                    PktEvent::CbrSend(i),
                ));
            }
            PktEvent::Arrive { node, in_port, pkt } => {
                let Some(nd) = topo.node(node) else {
                    return;
                };
                if nd.kind.is_host() {
                    self.host_receive(node, pkt, now, topo, drain, out);
                } else {
                    self.switch_forward(node, in_port, pkt, now, topo, switches, drain, out);
                }
            }
            PktEvent::TxDone { node, port } => {
                let Some(link) = topo.link_from(node, port) else {
                    return;
                };
                // current packet leaves the serializer onto the wire
                self.queues[link.index()].busy = false;
                self.start_tx_if_idle(link, now, topo, drain, out);
                // still idle after the restart attempt ⇒ the port drained
                if !self.queues[link.index()].busy {
                    out.transitions.push((link, false));
                }
            }
            PktEvent::Rto {
                flow,
                cum_ack_at_arm,
            } => {
                let rto_floor = self.config.rto_floor;
                let mut rearm: Option<f64> = None;
                let mut fire = false;
                {
                    let f = &mut self.flows[flow];
                    if f.finished.is_some() {
                        return;
                    }
                    let SourceKind::Tcp(ref mut t) = f.source else {
                        return;
                    };
                    if t.cum_ack >= f.total_segs {
                        return; // everything acked
                    }
                    if t.cum_ack != cum_ack_at_arm {
                        // Progress since arming: the timer is stale, but the
                        // connection still has unacked data — keep the timer
                        // chain alive or a later stall would deadlock.
                        rearm = Some(t.rto(rto_floor));
                    } else {
                        t.on_timeout();
                        fire = true;
                    }
                }
                if let Some(rto) = rearm {
                    let arm = {
                        let SourceKind::Tcp(ref t) = self.flows[flow].source else {
                            unreachable!()
                        };
                        t.cum_ack
                    };
                    out.events.push((
                        now + SimDuration::from_secs_f64(rto),
                        PktEvent::Rto {
                            flow,
                            cum_ack_at_arm: arm,
                        },
                    ));
                }
                if fire {
                    self.tcp_pump(flow, now, topo, drain, out);
                }
            }
        }
    }

    /// TCP sender: transmit fresh segments while the window allows; arm
    /// the RTO.
    fn tcp_pump(
        &mut self,
        i: usize,
        now: SimTime,
        topo: &Topology,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        let rto_floor = self.config.rto_floor;
        let (src, key) = (self.flows[i].spec.src, self.flows[i].spec.key);
        // The window opens on a contiguous run of fresh sequences —
        // a (start, len) pair, no per-packet allocation.
        let (start, mut run) = {
            let total = self.flows[i].total_segs;
            let SourceKind::Tcp(ref mut t) = self.flows[i].source else {
                return;
            };
            let start = t.next_seq;
            while t.can_send() && t.next_seq < total {
                t.next_seq += 1;
                t.in_flight += 1;
            }
            let run = t.next_seq - start;
            if run > 0 {
                let rto = t.rto(rto_floor);
                let arm = t.cum_ack;
                out.events.push((
                    now + SimDuration::from_secs_f64(rto),
                    PktEvent::Rto {
                        flow: i,
                        cum_ack_at_arm: arm,
                    },
                ));
            }
            (start, run)
        };
        let cap = self.config.burst.max(1) as u64;
        let mut seq = start;
        while run > 0 {
            let n = run.min(cap) as u32;
            let pkt = Pkt {
                flow: i,
                key,
                size: self.config.data_pkt,
                seq,
                is_ack: false,
                sent_at: now,
                count: n,
            };
            self.host_emit(src, pkt, now, topo, drain, out);
            seq += n as u64;
            run -= n as u64;
        }
    }

    /// Host pushes a packet onto its access link.
    fn host_emit(
        &mut self,
        host: NodeId,
        pkt: Pkt,
        now: SimTime,
        topo: &Topology,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        let Some(port) = topo.ports(host).next() else {
            return;
        };
        self.enqueue(host, port, pkt, now, topo, drain, out);
    }

    /// Host receives a packet: data → receiver/ACK, ACK → sender.
    fn host_receive(
        &mut self,
        host: NodeId,
        pkt: Pkt,
        now: SimTime,
        topo: &Topology,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        let i = pkt.flow;
        if pkt.is_ack {
            if self.flows[i].spec.src != host {
                return; // stray (flood copy)
            }
            let rtt = now.saturating_since(pkt.sent_at).as_secs_f64();
            // An ACK burst carries the cumulative values
            // `seq-count+1..=seq`; replay them in order, collecting any
            // fast retransmits into a scratch buffer (can't emit while the
            // sender state is borrowed).
            let mut rtx = std::mem::take(&mut self.scratch_rtx);
            rtx.clear();
            {
                let f = &mut self.flows[i];
                let SourceKind::Tcp(ref mut t) = f.source else {
                    self.scratch_rtx = rtx;
                    return;
                };
                let first = pkt.seq + 1 - pkt.count as u64;
                for v in first..=pkt.seq {
                    let advanced = t.on_ack(v, now, Some(rtt));
                    if !advanced && t.dup_acks == 3 && t.retransmitting != Some(t.cum_ack) {
                        t.on_fast_retransmit();
                        t.retransmitting = Some(t.cum_ack);
                        rtx.push(t.cum_ack);
                        t.in_flight = t.in_flight.saturating_sub(1);
                    }
                }
            }
            for &seq in &rtx {
                let p = Pkt {
                    flow: i,
                    key: self.flows[i].spec.key,
                    size: self.config.data_pkt,
                    seq,
                    is_ack: false,
                    sent_at: now,
                    count: 1,
                };
                let src = self.flows[i].spec.src;
                self.host_emit(src, p, now, topo, drain, out);
            }
            rtx.clear();
            self.scratch_rtx = rtx;
            if self.sender_done(i) {
                self.cache[i] = Vec::new();
            }
            self.tcp_pump(i, now, topo, drain, out);
        } else {
            if self.flows[i].spec.dst != host {
                return; // stray (flood copy)
            }
            match self.flows[i].source {
                SourceKind::Tcp(_) => {
                    // Feed each segment of the burst to the receiver,
                    // collecting the cumulative ACK after each one.
                    let mut acks = std::mem::take(&mut self.scratch_acks);
                    acks.clear();
                    {
                        let f = &mut self.flows[i];
                        let SourceKind::Tcp(ref mut t) = f.source else {
                            unreachable!()
                        };
                        for k in 0..pkt.count as u64 {
                            acks.push(t.receive(pkt.seq + k));
                        }
                    }
                    let delivered = *acks.last().expect("count >= 1");
                    self.flows[i].delivered_segs = delivered;
                    if delivered >= self.flows[i].total_segs && self.flows[i].finished.is_none() {
                        self.flows[i].finished = Some(now);
                        out.finished.push(i);
                    }
                    let dst = self.flows[i].spec.dst;
                    let rkey = self.flows[i].spec.key.reversed();
                    // A strict +1 chain of cumulative ACKs coalesces into
                    // one ACK burst; anything else (duplicates from gaps,
                    // jumps from gap fills) must keep per-value ACKs so
                    // dup-ack counting at the sender is exact.
                    let chain = acks.windows(2).all(|w| w[1] == w[0] + 1);
                    if chain {
                        let ack_pkt = Pkt {
                            flow: i,
                            key: rkey,
                            size: self.config.ack_pkt,
                            seq: *acks.last().expect("count >= 1"),
                            is_ack: true,
                            sent_at: pkt.sent_at,
                            count: acks.len() as u32,
                        };
                        self.host_emit(dst, ack_pkt, now, topo, drain, out);
                    } else {
                        for &ack in &acks {
                            let ack_pkt = Pkt {
                                flow: i,
                                key: rkey,
                                size: self.config.ack_pkt,
                                seq: ack,
                                is_ack: true,
                                sent_at: pkt.sent_at,
                                count: 1,
                            };
                            self.host_emit(dst, ack_pkt, now, topo, drain, out);
                        }
                    }
                    acks.clear();
                    self.scratch_acks = acks;
                }
                SourceKind::Cbr { .. } => {
                    self.flows[i].delivered_segs += pkt.count as u64;
                    if self.flows[i].delivered_segs >= self.flows[i].total_segs
                        && self.flows[i].finished.is_none()
                    {
                        self.flows[i].finished = Some(now);
                        out.finished.push(i);
                        self.cache[i] = Vec::new();
                    }
                }
            }
        }
    }

    /// Switch classifies and forwards a packet.
    #[allow(clippy::too_many_arguments)]
    fn switch_forward(
        &mut self,
        node: NodeId,
        in_port: PortNo,
        pkt: Pkt,
        now: SimTime,
        topo: &Topology,
        switches: &mut Switches,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        let Some(sw) = switches.get_mut(node) else {
            return;
        };
        let count = pkt.count;
        let gen = sw.generation();
        // Uncached, the flow's list stays empty and every lookup misses.
        let use_cache = !self.uncached_pipeline;
        let slot = self.cache[pkt.flow]
            .iter()
            .position(|e| e.node == node && e.in_port == in_port && e.is_ack == pkt.is_ack);
        let hit = slot.filter(|&k| {
            let e = &self.cache[pkt.flow][k];
            e.gen == gen && e.key == pkt.key
        });
        if use_cache {
            if hit.is_some() {
                self.cache_hits += 1;
            } else {
                if slot.is_some() {
                    self.cache_invalidations += 1;
                }
                self.cache_misses += 1;
            }
        }

        // Phase 1: resolve the decision and replay every switch-side
        // effect a per-packet walk would have had (classification
        // counters, meter tokens, byte credits). The cached path must be
        // bit-identical to the walk, so `commit_matched_n` mirrors
        // `process`'s commit and meters are consumed packet by packet.
        let mut ports = std::mem::take(&mut self.scratch_ports);
        ports.clear();
        // A hit commits the whole burst on the cached entry, whose trail
        // positions are exact (its generation matches), so both credits
        // are search-free. A miss walks the pipeline (one commit), commits
        // the rest of the burst in one aggregate and caches the result.
        let mut fresh;
        let res = match hit {
            Some(k) => {
                let res = &mut self.cache[pkt.flow][k].res;
                sw.commit_matched_n(&mut res.matched, count as u64, now);
                res
            }
            None => {
                let mut res = sw.process(in_port, &pkt.key, now);
                if count > 1 {
                    sw.commit_matched_n(&mut res.matched, count as u64 - 1, now);
                }
                if use_cache && !self.sender_done(pkt.flow) {
                    let entry = CacheEntry {
                        node,
                        in_port,
                        is_ack: pkt.is_ack,
                        gen,
                        key: pkt.key,
                        res,
                    };
                    let list = &mut self.cache[pkt.flow];
                    let k = slot.unwrap_or(list.len());
                    if k == list.len() {
                        list.push(entry);
                    } else {
                        list[k] = entry;
                    }
                    &mut list[k].res
                } else {
                    fresh = res;
                    &mut fresh
                }
            }
        };
        let pass = Self::consume_meters(sw, &res.meters, pkt.size, count, now);
        if pass > 0 {
            sw.credit_bytes(
                &mut res.matched,
                ByteSize::bytes(pkt.size as u64 * pass as u64),
                ByteSize::bytes(pkt.size as u64),
                now,
                now,
            );
        }
        // verdict kind: 0 = forward, 1 = to-controller, 2 = drop
        let vk = match &res.verdict {
            Verdict::Forward(ps) => {
                ports.extend_from_slice(ps);
                0u8
            }
            Verdict::ToController => 1,
            Verdict::Drop(_) => 2,
        };
        let key_out = res.key_out;

        // Phase 2: act on the verdict. Meter-failed packets drop first
        // (exactly like the per-packet early return); only the passing
        // prefix reaches the verdict.
        if pass < count {
            self.drop_pkt_n(&pkt, count - pass);
        }
        if pass > 0 {
            match vk {
                0 => {
                    for &port in &ports {
                        let mut p = pkt.clone();
                        p.key = key_out;
                        p.count = pass;
                        self.enqueue(node, port, p, now, topo, drain, out);
                    }
                }
                1 => {
                    // bufferless reactive setup: packets dropped, one
                    // FlowIn raised per burst (the controller sees the
                    // head packet's miss; followers ride along)
                    self.drop_pkt_n(&pkt, pass);
                    let msg = switches
                        .get(node)
                        .expect("switch exists")
                        .flow_in(in_port, &pkt.key);
                    out.flow_ins.push(msg);
                }
                _ => {
                    self.drop_pkt_n(&pkt, pass);
                }
            }
        }
        ports.clear();
        self.scratch_ports = ports;
    }

    /// Runs a burst through a decision's meter chain packet by packet, in
    /// meter order — exactly the token consumption `count` separate walks
    /// at the same instant would produce. Returns how many packets passed
    /// every meter; because token buckets only drain within one timestamp,
    /// the passing packets are always the burst's prefix.
    fn consume_meters(
        sw: &mut OpenFlowSwitch,
        meters: &[MeterId],
        size: u32,
        count: u32,
        now: SimTime,
    ) -> u32 {
        if meters.is_empty() {
            return count;
        }
        let mut pass = 0u32;
        let mut failed = false;
        for _ in 0..count {
            let mut ok = true;
            for m in meters {
                if let Some(me) = sw.meter_mut(*m) {
                    if !me.try_consume(size as u64, now) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && !failed {
                pass += 1;
            } else {
                debug_assert!(!ok, "meter pass set must be a prefix");
                failed = true;
            }
        }
        pass
    }

    /// Enqueues a packet on an output port (tail drop) and kicks the
    /// serializer if idle.
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        node: NodeId,
        port: PortNo,
        mut pkt: Pkt,
        now: SimTime,
        topo: &Topology,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        let Some(link_id) = topo.link_from(node, port) else {
            self.drop_pkt(&pkt);
            return;
        };
        if !topo.link(link_id).map(|l| l.is_up()).unwrap_or(false) {
            self.drop_pkt(&pkt);
            return;
        }
        let buffer = self.config.buffer.as_bytes();
        // Tail drop with partial burst fit: as many packets as the buffer
        // still holds enter the queue, the rest drop — the same outcome
        // `count` individual arrivals would produce.
        let fit = {
            let pq = &self.queues[link_id.index()];
            (buffer.saturating_sub(pq.queued_bytes) / pkt.size.max(1) as u64).min(pkt.count as u64)
                as u32
        };
        if fit == 0 {
            self.drop_pkt(&pkt);
            return;
        }
        if fit < pkt.count {
            self.drop_pkt_n(&pkt, pkt.count - fit);
            if pkt.is_ack {
                // An ACK burst's `seq` is its final value; keeping the
                // earliest `fit` values lowers it accordingly.
                pkt.seq -= (pkt.count - fit) as u64;
            }
            pkt.count = fit;
        }
        let pq = &mut self.queues[link_id.index()];
        pq.queued_bytes += pkt.size as u64 * pkt.count as u64;
        pq.queue.push_back(pkt);
        let was_busy = pq.busy;
        self.start_tx_if_idle(link_id, now, topo, drain, out);
        if !was_busy && self.queues[link_id.index()].busy {
            out.transitions.push((link_id, true));
        }
    }

    /// Starts serializing the head-of-line packet if `link_id`'s port is
    /// idle.
    fn start_tx_if_idle(
        &mut self,
        link_id: LinkId,
        now: SimTime,
        topo: &Topology,
        drain: &DrainFn<'_>,
        out: &mut PktOut,
    ) {
        let link = topo.link(link_id).expect("link exists");
        let (node, port) = (link.src, link.src_port);
        let (dst, dst_port, prop) = (link.dst, link.dst_port, link.delay);
        let pq = &mut self.queues[link_id.index()];
        if pq.busy {
            return;
        }
        let Some(mut pkt) = pq.queue.pop_front() else {
            return;
        };
        pq.queued_bytes -= pkt.size as u64 * pkt.count as u64;
        // Serializer drain coalescing: back-to-back queued packets of the
        // same flow/direction with contiguous sequences merge into the
        // departing burst (up to the cap). With `burst == 1` the loop
        // never fires and the plane is bit-identical to per-packet.
        let cap = self.config.burst.max(1);
        while pkt.count < cap {
            let mergeable = match pq.queue.front() {
                Some(next) => {
                    next.flow == pkt.flow
                        && next.is_ack == pkt.is_ack
                        && next.size == pkt.size
                        && next.key == pkt.key
                        && pkt.count + next.count <= cap
                        && if pkt.is_ack {
                            // ACK bursts are contiguous when the next
                            // burst's first value follows our last.
                            next.seq == pkt.seq + next.count as u64
                        } else {
                            next.seq == pkt.seq + pkt.count as u64
                        }
                }
                None => false,
            };
            if !mergeable {
                break;
            }
            let next = pq.queue.pop_front().expect("checked above");
            pq.queued_bytes -= next.size as u64 * next.count as u64;
            if pkt.is_ack {
                pkt.seq = next.seq;
            }
            pkt.count += next.count;
            // head's sent_at is kept: the oldest timestamp gives the
            // most conservative RTT sample
        }
        let bps = drain(link_id);
        if bps <= f64::EPSILON {
            // The link cannot serialize right now (zero capacity or no
            // residual): the head packet is lost, but the port must not
            // wedge — leave the serializer idle so later packets retry.
            pq.busy = false;
            self.drop_pkt(&pkt);
            return;
        }
        pq.busy = true;
        let burst_bytes = pkt.size as u64 * pkt.count as u64;
        // Aggregate latency arithmetic: the serializer is busy for the
        // whole burst (correct throughput, backlog and fluid coupling),
        // but the burst is handed downstream at the *head* packet's
        // arrival — per-packet cut-through pipelining is what the oracle
        // does, and it is what keeps RTTs (and so TCP dynamics) within
        // the burst-length error bound. With `count == 1` both times are
        // the packet's own, bit-identical to the per-packet plane.
        let ser_full = SimDuration::from_secs_f64(burst_bytes as f64 * 8.0 / bps);
        let ser_head = SimDuration::from_secs_f64(pkt.size as f64 * 8.0 / bps);
        self.link_bytes[link_id.index()] += burst_bytes as f64;
        self.tx_packets += pkt.count as u64;
        self.burst_len_hist[((31 - pkt.count.leading_zeros()) as usize).min(7)] += 1;
        if pkt.count > 1 {
            self.bursts_formed += 1;
        }
        out.events
            .push((now + ser_full, PktEvent::TxDone { node, port }));
        out.events.push((
            now + ser_head + prop,
            PktEvent::Arrive {
                node: dst,
                in_port: dst_port,
                pkt,
            },
        ));
    }
}

/// Standalone driver events: the packet mechanics plus the control-plane
/// crossings the baseline models itself.
#[derive(Debug)]
enum Ev {
    Pkt(PktEvent),
    ToController(Box<SwitchMsg>),
    ToSwitch { switch: NodeId, msg: Box<CtrlMsg> },
}

/// The standalone packet-level network simulator (see module docs).
pub struct PacketNet {
    topo: Topology,
    switches: Switches,
    plane: PacketPlane,
    config: PacketSimConfig,
}

impl PacketNet {
    /// Builds the packet plane over a topology.
    pub fn new(topo: Topology, config: PacketSimConfig) -> Self {
        let switches = topo
            .switches()
            .map(|id| OpenFlowSwitch::new(id, 2, &topo.ports(id).collect::<Vec<_>>()))
            .collect();
        let nl = topo.link_count();
        PacketNet {
            plane: PacketPlane::new(nl, config),
            topo,
            switches,
            config,
        }
    }

    /// Runs `specs` through the network under `controller` until `horizon`.
    pub fn run(
        mut self,
        controller: &mut dyn Controller,
        specs: Vec<PktFlowSpec>,
        horizon: SimTime,
    ) -> PacketResults {
        let start_wall = Instant::now();
        let mut q: EventQueue<Ev> = EventQueue::new();

        // Controller bootstrap at t=0, applied as emitted (as in the fluid
        // plane); its replies and timers are dropped.
        controller.on_start(
            &ControllerCtx {
                topo: &self.topo,
                now: SimTime::ZERO,
            },
            &mut ApplyNow::new(&mut self.switches, SimTime::ZERO),
        );

        for spec in specs {
            let start = spec.start;
            let i = self.plane.add_flow(spec);
            q.schedule_at(start, Ev::Pkt(PktEvent::Start(i)));
        }

        let mut events = 0u64;
        let mut pkt_out = PktOut::default();
        while let Some(t) = q.peek_time() {
            if t > horizon {
                break;
            }
            let ev = q.pop().expect("peeked");
            events += 1;
            let now = ev.time;
            match ev.event {
                Ev::Pkt(p) => {
                    // Baseline coupling: links drain at full capacity.
                    let topo = &self.topo;
                    let drain =
                        |l: LinkId| topo.link(l).map(|lk| lk.capacity.as_bps()).unwrap_or(0.0);
                    self.plane
                        .handle(now, p, topo, &mut self.switches, &drain, &mut pkt_out);
                    for (t, e) in pkt_out.events.drain(..) {
                        q.schedule_at(t, Ev::Pkt(e));
                    }
                    for msg in pkt_out.flow_ins.drain(..) {
                        q.schedule_at(
                            now + self.config.ctrl_latency,
                            Ev::ToController(Box::new(msg)),
                        );
                    }
                    pkt_out.clear();
                }
                Ev::ToController(msg) => {
                    let mut out = Outbox::new();
                    {
                        let ctx = ControllerCtx {
                            topo: &self.topo,
                            now,
                        };
                        controller.dispatch(&msg, &ctx, &mut out);
                    }
                    for (sw, m) in out.msgs {
                        q.schedule_at(
                            now + self.config.ctrl_latency,
                            Ev::ToSwitch {
                                switch: sw,
                                msg: Box::new(m),
                            },
                        );
                    }
                    // timers unsupported in the packet baseline (documented)
                }
                Ev::ToSwitch { switch, msg } => {
                    if let Some(sw) = self.switches.get_mut(switch) {
                        for reply in sw.apply_owned(*msg, now) {
                            q.schedule_at(
                                now + self.config.ctrl_latency,
                                Ev::ToController(Box::new(reply)),
                            );
                        }
                    }
                }
            }
        }

        let sim_time = horizon;
        PacketResults {
            records: self.plane.records(horizon),
            link_bytes: self.plane.link_bytes.clone(),
            drops: self.plane.drops,
            events,
            wall_seconds: start_wall.elapsed().as_secs_f64(),
            sim_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TcpState;
    use horse_controlplane::{PolicyGenerator, PolicyRule, PolicySpec};
    use horse_topology::builders;

    fn mk_spec(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        sport: u16,
        size: ByteSize,
        source: SourceKind,
    ) -> PktFlowSpec {
        let s = topo.node(src).unwrap();
        let d = topo.node(dst).unwrap();
        PktFlowSpec {
            key: FlowKey::tcp(
                s.mac().unwrap(),
                d.mac().unwrap(),
                s.ip().unwrap(),
                d.ip().unwrap(),
                sport,
                80,
            ),
            src,
            dst,
            size,
            start: SimTime::from_millis(10),
            source,
        }
    }

    fn run_star(
        size: ByteSize,
        source: SourceKind,
        horizon_s: u64,
    ) -> (PacketResults, Topology, Vec<NodeId>) {
        let f = builders::star(3, Rate::mbps(100.0));
        let mut gen = PolicyGenerator::new(
            PolicySpec::new().with(PolicyRule::MacForwarding),
            &f.topology,
        )
        .unwrap();
        let net = PacketNet::new(f.topology.clone(), PacketSimConfig::default());
        let spec = mk_spec(&f.topology, f.members[0], f.members[1], 1000, size, source);
        let res = net.run(&mut gen, vec![spec], SimTime::from_secs(horizon_s));
        (res, f.topology, f.members)
    }

    #[test]
    fn cbr_flow_delivers_all_bytes() {
        let (res, _, _) = run_star(
            ByteSize::bytes(150_000), // 100 packets
            SourceKind::Cbr { rate_bps: 10e6 },
            60,
        );
        assert!(res.records[0].completed, "delivered {:?}", res.records[0]);
        // 150 kB at 10 Mbps = 120 ms (+ transit)
        let fct = res.records[0].fct_secs();
        assert!(fct > 0.118 && fct < 0.15, "fct {fct}");
        assert_eq!(res.drops, 0);
    }

    #[test]
    fn tcp_flow_completes_and_acks_flow_back() {
        let (res, _, _) = run_star(
            ByteSize::bytes(1_500_000), // 1000 segments
            SourceKind::Tcp(TcpState::new()),
            60,
        );
        assert!(res.records[0].completed);
        let fct = res.records[0].fct_secs();
        // ideal: 1.5 MB at ~100 Mbps ≈ 0.12 s; slow start adds RTTs
        assert!(fct > 0.12 && fct < 2.0, "fct {fct}");
    }

    #[test]
    fn tcp_fills_the_pipe_reasonably() {
        let (res, topo, members) = run_star(ByteSize::mib(4), SourceKind::Tcp(TcpState::new()), 60);
        assert!(res.records[0].completed);
        let fct = res.records[0].fct_secs();
        let ideal = 4.0 * 1048576.0 * 8.0 / 100e6;
        assert!(
            fct < ideal * 1.6,
            "tcp should reach ≥ ~60% of line rate: fct {fct} vs ideal {ideal}"
        );
        // bytes flowed over the source's access link
        let (lid, _) = topo.out_links(members[0]).next().unwrap();
        assert!(res.link_bytes[lid.index()] as u64 >= 4 * 1024 * 1024);
    }

    #[test]
    fn two_tcp_flows_share_a_bottleneck() {
        let f = builders::star(3, Rate::mbps(100.0));
        let mut gen = PolicyGenerator::new(
            PolicySpec::new().with(PolicyRule::MacForwarding),
            &f.topology,
        )
        .unwrap();
        let net = PacketNet::new(f.topology.clone(), PacketSimConfig::default());
        // both flows into member 2: its access link is the bottleneck
        let s1 = mk_spec(
            &f.topology,
            f.members[0],
            f.members[2],
            1000,
            ByteSize::mib(2),
            SourceKind::Tcp(TcpState::new()),
        );
        let s2 = mk_spec(
            &f.topology,
            f.members[1],
            f.members[2],
            2000,
            ByteSize::mib(2),
            SourceKind::Tcp(TcpState::new()),
        );
        let res = net.run(&mut gen, vec![s1, s2], SimTime::from_secs(60));
        assert!(res.records[0].completed && res.records[1].completed);
        // each ideally gets ~50 Mbps: 2 MiB each ⇒ ≈ 0.67 s total;
        // allow generous losses/sawtooth margin
        for r in &res.records {
            assert!(r.fct_secs() < 2.5, "fct {}", r.fct_secs());
        }
    }

    #[test]
    fn reactive_controller_installs_rules_after_miss() {
        let f = builders::star(2, Rate::mbps(100.0));
        let mut gen =
            PolicyGenerator::new(PolicySpec::new().with(PolicyRule::MacLearning), &f.topology)
                .unwrap();
        let net = PacketNet::new(f.topology.clone(), PacketSimConfig::default());
        let spec = mk_spec(
            &f.topology,
            f.members[0],
            f.members[1],
            1000,
            ByteSize::bytes(150_000),
            SourceKind::Tcp(TcpState::new()),
        );
        let res = net.run(&mut gen, vec![spec], SimTime::from_secs(60));
        assert!(res.records[0].completed, "{:?}", res.records[0]);
        assert!(res.drops >= 1, "first packet(s) dropped at the miss");
    }

    #[test]
    fn meter_polices_cbr_at_packet_level() {
        let f = builders::star(2, Rate::mbps(100.0));
        let mut gen = PolicyGenerator::new(
            PolicySpec::new()
                .with(PolicyRule::MacForwarding)
                .with(PolicyRule::RateLimit {
                    src: "h1".into(),
                    dst: "h2".into(),
                    rate_mbps: 10.0,
                }),
            &f.topology,
        )
        .unwrap();
        let net = PacketNet::new(f.topology.clone(), PacketSimConfig::default());
        // offer 50 Mbps for 2 simulated seconds against a 10 Mbps policer
        let spec = PktFlowSpec {
            start: SimTime::ZERO,
            ..mk_spec(
                &f.topology,
                f.members[0],
                f.members[1],
                1000,
                ByteSize::bytes(12_500_000), // 100 Mb = 2 s at 50 Mbps
                SourceKind::Cbr { rate_bps: 50e6 },
            )
        };
        let res = net.run(&mut gen, vec![spec], SimTime::from_secs(2));
        // delivered ≈ 10 Mbps × 2 s = 2.5 MB (+ burst); must be well under
        // the offered 12.5 MB and the drops must account for the excess
        let delivered = res.records[0].bytes_delivered as f64;
        assert!(
            delivered < 5_000_000.0,
            "policer must clamp: delivered {delivered}"
        );
        assert!(res.drops > 1000, "policer drops: {}", res.drops);
    }

    #[test]
    fn buffer_overflow_drops() {
        // 1 Mbps bottleneck, CBR at 100 Mbps: the queue must overflow
        let f = builders::star(2, Rate::mbps(1.0));
        let mut gen = PolicyGenerator::new(
            PolicySpec::new().with(PolicyRule::MacForwarding),
            &f.topology,
        )
        .unwrap();
        let net = PacketNet::new(f.topology.clone(), PacketSimConfig::default());
        let spec = PktFlowSpec {
            start: SimTime::ZERO,
            ..mk_spec(
                &f.topology,
                f.members[0],
                f.members[1],
                1000,
                ByteSize::mib(10),
                SourceKind::Cbr { rate_bps: 100e6 },
            )
        };
        let res = net.run(&mut gen, vec![spec], SimTime::from_secs(1));
        assert!(res.drops > 0, "tail drop must kick in");
    }

    /// The topology's switches with the `MacForwarding` policy installed.
    fn mac_forwarding_switches(topo: &Topology) -> Switches {
        let mut gen =
            PolicyGenerator::new(PolicySpec::new().with(PolicyRule::MacForwarding), topo).unwrap();
        let mut switches: Switches = topo
            .switches()
            .map(|id| OpenFlowSwitch::new(id, 2, &topo.ports(id).collect::<Vec<_>>()))
            .collect();
        gen.on_start(
            &ControllerCtx {
                topo,
                now: SimTime::ZERO,
            },
            &mut ApplyNow::new(&mut switches, SimTime::ZERO),
        );
        switches
    }

    #[test]
    fn finished_flows_hold_no_cached_decisions() {
        // A TCP and a CBR flow through one hub: both cache decisions while
        // they run, and once every sender is done (every segment acked or
        // delivered) the plane holds none, stragglers included.
        let f = builders::star(3, Rate::mbps(100.0));
        let mut switches = mac_forwarding_switches(&f.topology);
        let mut plane = PacketPlane::new(f.topology.link_count(), PacketSimConfig::default());
        let (m, topo) = (&f.members, &f.topology);
        let tcp = SourceKind::Tcp(TcpState::new());
        let cbr = SourceKind::Cbr { rate_bps: 20e6 };
        let flows = [
            plane.add_flow(mk_spec(topo, m[0], m[2], 1000, ByteSize::mib(2), tcp)),
            plane.add_flow(mk_spec(topo, m[1], m[2], 1001, ByteSize::kib(300), cbr)),
        ];
        let drain = |l: LinkId| topo.link(l).map(|lk| lk.capacity.as_bps()).unwrap_or(0.0);
        let mut out = PktOut::default();
        let mut q = EventQueue::new();
        for &i in &flows {
            q.schedule_at(SimTime::from_millis(10), PktEvent::Start(i));
        }
        let mut peak = 0;
        while let Some(ev) = q.pop() {
            plane.handle(ev.time, ev.event, topo, &mut switches, &drain, &mut out);
            for (t, e) in out.events.drain(..) {
                q.schedule_at(t, e);
            }
            out.clear();
            peak = peak.max(plane.cache.iter().map(Vec::len).sum::<usize>());
        }
        assert!(flows.iter().all(|&i| plane.is_finished(i)));
        assert!(peak >= 2, "both flows cached their decisions (peak {peak})");
        assert!(plane.cache_hits() > 0);
        assert!(
            plane.cache.iter().all(Vec::is_empty),
            "finished flows still hold cached decisions"
        );
    }

    #[test]
    fn plane_reports_transitions_and_finishes() {
        // Drive the plane directly: one CBR packet start-to-finish must
        // produce a busy transition, an idle transition and a finish.
        let f = builders::star(2, Rate::mbps(100.0));
        let mut switches = mac_forwarding_switches(&f.topology);
        let mut plane = PacketPlane::new(f.topology.link_count(), PacketSimConfig::default());
        let spec = PktFlowSpec {
            start: SimTime::ZERO,
            ..mk_spec(
                &f.topology,
                f.members[0],
                f.members[1],
                1000,
                ByteSize::bytes(1000), // single packet
                SourceKind::Cbr { rate_bps: 10e6 },
            )
        };
        let idx = plane.add_flow(spec);
        let drain = |l: LinkId| {
            f.topology
                .link(l)
                .map(|lk| lk.capacity.as_bps())
                .unwrap_or(0.0)
        };
        let mut out = PktOut::default();
        let mut q: Vec<(SimTime, PktEvent)> = vec![(SimTime::ZERO, PktEvent::Start(idx))];
        let mut saw_busy = false;
        let mut saw_idle = false;
        while !q.is_empty() {
            q.sort_by_key(|(t, _)| *t);
            let (now, ev) = q.remove(0);
            plane.handle(now, ev, &f.topology, &mut switches, &drain, &mut out);
            for (l, busy) in out.transitions.drain(..) {
                assert!(l.index() < f.topology.link_count());
                if busy {
                    saw_busy = true;
                } else {
                    saw_idle = true;
                }
            }
            q.append(&mut out.events);
            out.clear();
        }
        assert!(saw_busy && saw_idle, "serializer transitions reported");
        assert!(plane.is_finished(idx), "single packet delivered");
        assert_eq!(plane.delivered_bytes(idx), 1500);
        assert_eq!(plane.drops(), 0);
    }
}
