//! [`FluidNet`] — the fluid data-plane state machine.
//!
//! Owns the topology, one [`OpenFlowSwitch`] per switch node, and the set
//! of active flows. It is driven by the `horse` core simulator, which owns
//! the event queue; every method here is synchronous and returns what the
//! caller must schedule (rate changes with completion predictions,
//! controller messages).
//!
//! ## Route resolution
//!
//! A flow is admitted by walking the pipeline hop by hop from the source
//! host ([`FluidNet::try_admit`]). Switch classification is side-effect
//! free during exploration (depth-first over flood/multi-port verdicts);
//! only the hops on the winning path have their classification committed.
//! A `ToController` verdict aborts resolution and surfaces a `FlowIn` —
//! the flow-level analogue of reactive flow setup, which is exactly the
//! control/data interaction the paper says the abstraction must capture.
//!
//! ## Rates
//!
//! After any change (admission, completion, failure) the caller invokes
//! [`FluidNet::reallocate`], which re-runs max-min fair allocation over
//! the flows sharing links with the change and returns the flows whose
//! rate changed together with fresh completion predictions; the caller
//! cancels each such flow's scheduled completion event and schedules the
//! new one. The `horse-core` driver batches all events sharing one
//! timestamp into an **epoch** and calls `reallocate` once per epoch.
//!
//! ## Resident components and the four phases
//!
//! Flows that share links form disjoint *link-sharing components*, and
//! each component's allocation problem stays resident between calls
//! (the private `component` module): members in ascending flow-id order,
//! macro-flow classes as weighted rows of component-local links, link
//! capacities. Each occupied link records its component; that map is the
//! engine's only link → flows index (failures find their victims through
//! it too). Admission appends a member or bumps its class's weight and
//! merges the components its links touch; a departure or detach
//! tombstones the member. The class digest is computed once per
//! admission. Admission is also the only way a component is built: a
//! rebuild admits flows again, in ascending flow-id order, at their
//! current rates. `reallocate` then runs in four phases:
//!
//! 1. **Discovery** maps each dirty link straight to its resident
//!    component, queued once in first-touch order, and rewrites the
//!    link's capacity (gray and up/down changes mark it dirty). A
//!    component that lost a class since its last check first runs a
//!    union-find over its own rows; one found split, or more than half
//!    dead, is dissolved and its live members are admitted again.
//!    ([`FluidNet::mark_all_dirty`], the `Full` oracle, rebuilds every
//!    component the same way before the run, as do restores and
//!    per-flow-variables toggles.) Discovery ends with the global
//!    ascending-id order of the queued members.
//! 2. **Build** copies each queued component's live classes, capacities
//!    and virtual external flows into one dense CSR problem: flat copies
//!    with no arena access and no digest.
//! 3. **Solve** water-fills each component independently, one after the
//!    other with one engine-owned solver scratch. Components share no
//!    links by construction, so their allocations are independent
//!    subproblems. Every queued component is water-filled on every call;
//!    no solve is memoised across calls.
//! 4. **Apply** sets rates, in ascending flow-id order across all
//!    components: byte syncs, rate application and [`RateChange`]
//!    emission.
//!
//! Exactness rests on two facts. Components are exactly the connected
//! components of the active flows' link-sharing graph, because a split
//! is detected before the component is next solved. And the solver is
//! invariant under permutation of variables, links and each row's link
//! order (pinned by the `maxmin` property tests), so the order in which a
//! resident component holds its classes and links changes no bit.
//!
//! ## Lazy byte integration
//!
//! Between rate changes a flow's byte count is linear in time, so bytes
//! are integrated only when that line bends or something reads it. A
//! flow is synced (integrated to `now` at its old rate, crediting its
//! links, OpenFlow entries and ports) when the apply pass changes its
//! rate, when it is removed or detached, and by [`FluidNet::sync_all`],
//! which the core calls before every counter reader (stats export,
//! expiry scan, stats request) and at the end of the run. A flow whose
//! rate a reallocation leaves unchanged is not touched: byte counters
//! read between syncs are exact as of each flow's `last_update`, and a
//! mid-run reader calls `sync_all(now)` first. Snapshots carry
//! `last_update`, so a resumed run integrates the same intervals.
//!
//! ## Hot-path layout
//!
//! Flow state is arena-backed (the private `slab` module): a
//! generation-checked slab addressed by dense slot indices and one global
//! intrusive active list in deterministic admission order. A run reads
//! the resident components' flat arrays, copies each queued problem into
//! scratch buffers owned by the engine and runs the round-scan
//! water-filler
//! ([`crate::maxmin::max_min_allocate_csr`]) over them. Component buffers
//! are pooled, so in steady state `reallocate` performs **zero heap
//! allocations** (covered by the `alloc_free` integration test; solver
//! scratch is pre-grown, not per-epoch).

use crate::component::{Check, Components, NONE};
use crate::flow::{ActiveFlow, FlowSpec, Route, RouteHop};
use crate::maxmin::{max_min_allocate_csr_weighted, MaxMinScratch};
use crate::slab::FlowArena;
use crate::stats::{DropCause, DropRecord, FlowRecord, LinkStats};
use horse_openflow::messages::{CtrlMsg, SwitchMsg};
use horse_openflow::switch::{DropReason, OpenFlowSwitch, PipelineResult, Switches, Verdict};
use horse_topology::{LinkState, Topology};
use horse_trace::Hist;
use horse_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use horse_types::{ByteSize, FlowId, FlowKey, LinkId, NodeId, PortNo, Rate, SimTime};
use std::collections::HashSet;
use std::time::Instant;

/// Maximum switch hops during route resolution (loop guard).
const MAX_ROUTE_HOPS: usize = 64;

/// Tunables of the fluid plane.
#[derive(Clone, Copy, Debug)]
pub struct FluidConfig {
    /// Average packet size used to derive packet counters from bytes.
    pub avg_packet: ByteSize,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            avg_packet: ByteSize::bytes(1000),
        }
    }
}

/// Result of an admission attempt.
#[derive(Debug)]
pub enum AdmitOutcome {
    /// The flow is active; call [`FluidNet::reallocate`] next.
    Admitted,
    /// A switch punted to the controller; deliver the message (with
    /// control-channel latency) and retry admission once the controller's
    /// mods are applied. The spec is handed back to the caller untouched
    /// (admission takes it by value so the admitted path never clones).
    NeedController {
        /// The `FlowIn` to deliver.
        msg: SwitchMsg,
        /// The spec to retry with.
        spec: FlowSpec,
    },
    /// The pipeline dropped the flow (recorded in drop records).
    Dropped(DropCause),
}

/// A rate update produced by reallocation.
#[derive(Debug, Clone, Copy)]
pub struct RateChange {
    /// The flow.
    pub id: FlowId,
    /// Its new rate.
    pub rate: Rate,
    /// Seconds until completion at this rate (`None`: open-ended/stalled).
    /// It supersedes any earlier prediction for the flow.
    pub completes_in: Option<f64>,
}

enum ResolveOutcome {
    Path {
        hops: Vec<RouteHop>,
        links: Vec<LinkId>,
    },
    NeedController {
        switch: NodeId,
        in_port: PortNo,
        key: FlowKey,
    },
    Dropped {
        at: NodeId,
        reason: DropReason,
    },
    NoRoute,
}

/// One component queued for this run's solve. Every field but `comp` is
/// an index range into the concatenated problem arrays of
/// [`ReallocScratch`]; ranges of successive components are contiguous, so
/// each component solves into its own slice of the merged rate array.
#[derive(Clone, Copy, Debug, Default)]
struct CompRange {
    /// The resident component (index into `Components::comps`).
    comp: u32,
    /// Demands/rates: live classes first, then virtual external flows.
    dem: (u32, u32),
    /// Component links: range into `caps`.
    links: (u32, u32),
    /// Component-local CSR offsets: range into `fl_off`.
    off: (u32, u32),
    /// Component-local CSR link indices: range into `fl_links`.
    lnk: (u32, u32),
    /// Virtual external-demand flows: range into `ext_links`.
    ext: (u32, u32),
}

/// Wall-clock timing of the last [`FluidNet::reallocate`] call, split by
/// phase, captured only when [`FluidNet::set_phase_timing`] enabled it.
/// Wall clock never feeds the allocation or any deterministic output —
/// the core exports these as Chrome-trace spans, nothing else.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReallocTiming {
    /// Discovery pass — exported as the `realloc.discovery` span: dirty
    /// links mapped to their resident components, split checks, the
    /// rebuild of any split or compacted component, and the global
    /// ascending-id processing order. It syncs no bytes.
    pub discovery_ns: u64,
    /// Build pass: each queued component's live classes, capacities and
    /// virtual external flows copied into one dense CSR problem.
    pub build_ns: u64,
    /// Solve pass (water-filling, one component after another).
    pub solve_ns: u64,
    /// Apply pass: rate application, grant recording and the byte sync
    /// of every flow whose rate changed, at its old rate (link bytes,
    /// OpenFlow entry and port counters). The sync is O(changed flows ×
    /// hops): each hop credits its entries through remembered table
    /// positions, with no search.
    pub apply_ns: u64,
}

/// Reusable working memory for [`FluidNet::reallocate`] (and the other
/// bulk passes). Buffers grow to the high-water problem size, then every
/// later call is allocation-free.
#[derive(Default)]
struct ReallocScratch {
    /// Arena slots ascending by flow id: the flows a rebuild admits
    /// again, and the flows `sync_all` syncs.
    ids: Vec<u32>,
    /// Components queued for this run's solve, in first-touch order.
    comps: Vec<CompRange>,
    /// `(flow id, component, member)` of every live member of a queued
    /// component, ascending by flow id across all of them: the order
    /// every observable side effect is applied in.
    order: Vec<(u64, u32, u32)>,
    /// Dense problems: link capacities, concatenated per component.
    caps: Vec<f64>,
    /// Dense problems: per-variable demands, concatenated per component.
    demands: Vec<f64>,
    /// Dense problems: component-local CSR variable → link adjacency.
    fl_off: Vec<u32>,
    fl_links: Vec<u32>,
    /// Raw link index of each appended virtual external-demand flow.
    ext_links: Vec<u32>,
    /// Merged allocator output (aligned with `demands`): a class's rate
    /// is the **per-member** rate.
    rates: Vec<f64>,
    /// Dense problems: per-variable member count (aligned with
    /// `demands`; 1 for virtual external flows).
    weights: Vec<u32>,
    /// Rate changes reported to the caller (borrowed out of `reallocate`).
    changes: Vec<RateChange>,
}

/// Allocatable capacity of link `li`: nominal times its gray factor while
/// up, 0 while down.
fn link_capacity(topo: &Topology, gray: &[f64], li: usize) -> f64 {
    topo.link(LinkId::from_index(li))
        .map(|lk| {
            if lk.is_up() {
                lk.capacity.as_bps() * gray[li]
            } else {
                0.0
            }
        })
        .unwrap_or(0.0)
}

/// The fluid data plane (see module docs).
pub struct FluidNet {
    topo: Topology,
    switches: Switches,
    /// Switch ids, sorted — built once in [`FluidNet::new`], never mutated.
    switch_order: Vec<NodeId>,
    flows: FlowArena,
    next_flow: u64,
    link_stats: Vec<LinkStats>,
    records: Vec<FlowRecord>,
    drops: Vec<DropRecord>,
    config: FluidConfig,
    /// Seed links for the next incremental reallocation (insertion order,
    /// deduplicated by the epoch stamp below).
    dirty_links: Vec<LinkId>,
    dirty_stamp: Vec<u64>,
    dirty_epoch: u64,
    /// Per-link demand (bps) of an external co-simulated plane — the
    /// hybrid packet plane's serialization load. A nonzero entry makes the
    /// allocator water-fill a *virtual single-link flow* with that demand
    /// (`f64::INFINITY` = backlogged serializer claiming a full fair
    /// share), so fluid flows water-fill over the residual capacity and
    /// the packet aggregate receives a max-min-fair grant instead of
    /// either plane starving the other. All-zero in a pure fluid run, in
    /// which case no virtual flow is ever appended and the allocation
    /// problem is bit-identical to a build without the hybrid machinery.
    external_demand: Vec<f64>,
    /// The rate (bps) the last allocation granted each link's external
    /// aggregate (stale for links outside the recomputed component —
    /// their state did not change).
    external_granted: Vec<f64>,
    /// Per-link gray-failure multiplier in `(0, 1]` (1.0 = healthy): the
    /// fraction of nominal capacity the allocator may hand out on that
    /// link. A gray link stays *up* — routes still cross it — but its
    /// effective capacity shrinks, modelling degraded-but-not-dead
    /// hardware as a deterministic fluid approximation.
    gray: Vec<f64>,
    /// Switches currently crashed (down, tables wiped). Used to suppress
    /// cable restoration toward dead peers.
    crashed: HashSet<NodeId>,
    /// The resident allocation components, the one link → flows index
    /// (derived state, never snapshotted).
    res: Components,
    scratch: ReallocScratch,
    /// Water-filling scratch, reused by every component of every call.
    maxmin: MaxMinScratch,
    /// Number of allocator runs (exported with results; ablation metric).
    pub realloc_runs: u64,
    /// Total flows touched by allocator runs (ablation metric).
    pub realloc_flows_touched: u64,
    /// Total macro-flow allocation variables solved (post-aggregation;
    /// compare against `realloc_flows_touched` for the compression the
    /// path-class trick bought — equal when aggregation is off).
    pub macro_flows: u64,
    /// Component water-fills executed (one per queued component).
    pub cold_solves: u64,
    /// Byte syncs: integrations of one flow's bytes up to a read point or
    /// a rate change.
    byte_syncs: u64,
    /// Components absorbed by an admission that bridged them (the
    /// re-admissions of a rebuild are not counted).
    merges: u64,
    /// Split checks that found a component fallen apart.
    splits: u64,
    /// Split checks run: union-finds over a queued component that lost a
    /// class since its last check.
    split_checks: u64,
    /// Rebuilds, each admitting a set of flows again: one per
    /// [`FluidNet::mark_all_dirty`], restore or per-flow-variables toggle
    /// (every active flow), plus one per split or compacted component
    /// (its live members).
    rebuilds: u64,
    /// Live flows of each queued component, one observation per
    /// component a run solves.
    component_flows: Hist,
    /// Water-filling rounds of each component solve.
    rounds: Hist,
    /// Capture wall-clock phase timing on the next `reallocate` calls.
    timing_enabled: bool,
    timing: ReallocTiming,
    /// Test support: one allocation variable per flow, no macro-flows.
    per_flow_variables: bool,
}

impl FluidNet {
    /// Builds the fluid plane over a topology: one OpenFlow switch per
    /// switch node, ports discovered from the topology.
    pub fn new(topo: Topology, config: FluidConfig) -> Self {
        let switches: Switches = topo
            .switches()
            .map(|id| OpenFlowSwitch::new(id, 2, &topo.ports(id).collect::<Vec<_>>()))
            .collect();
        let switch_order: Vec<NodeId> = switches.iter().map(|sw| sw.id).collect();
        let nl = topo.link_count();
        FluidNet {
            topo,
            switches,
            switch_order,
            flows: FlowArena::new(),
            next_flow: 0,
            link_stats: vec![LinkStats::default(); nl],
            records: Vec::new(),
            drops: Vec::new(),
            config,
            dirty_links: Vec::new(),
            dirty_stamp: vec![0; nl],
            dirty_epoch: 1,
            external_demand: vec![0.0; nl],
            external_granted: vec![0.0; nl],
            gray: vec![1.0; nl],
            crashed: HashSet::new(),
            res: Components::new(nl),
            scratch: ReallocScratch::default(),
            maxmin: MaxMinScratch::default(),
            realloc_runs: 0,
            realloc_flows_touched: 0,
            macro_flows: 0,
            cold_solves: 0,
            byte_syncs: 0,
            merges: 0,
            splits: 0,
            split_checks: 0,
            rebuilds: 0,
            component_flows: Hist::default(),
            rounds: Hist::default(),
            timing_enabled: false,
            timing: ReallocTiming::default(),
            per_flow_variables: false,
        }
    }

    /// The engine's counts as `(metric name, value)` rows, which the
    /// simulation lists in its results' metrics. A new count is a
    /// snapshotted field and a row here.
    pub fn counts(&self) -> [(&'static str, u64); 5] {
        [
            ("alloc.runs", self.realloc_runs),
            ("alloc.flows_touched", self.realloc_flows_touched),
            ("alloc.components", self.cold_solves),
            ("alloc.macro_flows", self.macro_flows),
            ("alloc.byte_syncs", self.byte_syncs),
        ]
    }

    /// The engine's histograms by metric name, which the simulation
    /// lists in its results' metrics beside [`FluidNet::counts`].
    pub fn hists(&self) -> [(&'static str, &Hist); 2] {
        [
            ("alloc.component_flows", &self.component_flows),
            ("alloc.rounds", &self.rounds),
        ]
    }

    /// The resident components' merges, splits, split checks and
    /// rebuilds, as `(name, value)` rows. The components are derived
    /// state that a restore rebuilds from scratch, so these are not
    /// snapshotted and count from the last build or restore; they stay
    /// out of a run's metrics, which a resumed run reproduces exactly.
    pub fn resident_counts(&self) -> [(&'static str, u64); 4] {
        [
            ("alloc.merges", self.merges),
            ("alloc.splits", self.splits),
            ("alloc.split_checks", self.split_checks),
            ("alloc.rebuilds", self.rebuilds),
        ]
    }

    /// Enables (or disables) wall-clock phase timing of `reallocate`.
    /// Off by default; when on, [`FluidNet::last_timing`] reports the
    /// phases of the most recent call.
    pub fn set_phase_timing(&mut self, enabled: bool) {
        self.timing_enabled = enabled;
    }

    /// Test support: solve one variable per flow, the oracle macro-flow
    /// aggregation is proven against. Not part of snapshots. A toggle
    /// rebuilds every resident component at once.
    #[doc(hidden)]
    pub fn set_per_flow_variables(&mut self, on: bool) {
        if self.per_flow_variables != on {
            self.per_flow_variables = on;
            self.rebuild_all();
        }
    }

    /// Phase timing of the most recent [`FluidNet::reallocate`] call,
    /// `None` unless [`FluidNet::set_phase_timing`] was enabled.
    pub fn last_timing(&self) -> Option<&ReallocTiming> {
        self.timing_enabled.then_some(&self.timing)
    }

    /// The topology (read access).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// A switch (read access).
    pub fn switch(&self, id: NodeId) -> Option<&OpenFlowSwitch> {
        self.switches.get(id)
    }

    /// A switch (mutable — used by the core to apply controller messages).
    pub fn switch_mut(&mut self, id: NodeId) -> Option<&mut OpenFlowSwitch> {
        self.switches.get_mut(id)
    }

    /// Ids of all switches, sorted (cached at construction — switches are
    /// never added after [`FluidNet::new`], so this never re-sorts).
    pub fn switch_ids(&self) -> &[NodeId] {
        &self.switch_order
    }

    /// Applies a copy of a controller message to a switch, returning its
    /// replies.
    pub fn apply_ctrl(&mut self, switch: NodeId, msg: &CtrlMsg, now: SimTime) -> Vec<SwitchMsg> {
        self.apply_ctrl_owned(switch, msg.clone(), now)
    }

    /// [`apply_ctrl`] for a message the caller owns (see
    /// [`OpenFlowSwitch::apply_owned`]).
    ///
    /// [`apply_ctrl`]: FluidNet::apply_ctrl
    pub fn apply_ctrl_owned(
        &mut self,
        switch: NodeId,
        msg: CtrlMsg,
        now: SimTime,
    ) -> Vec<SwitchMsg> {
        match self.switches.get_mut(switch) {
            Some(sw) => sw.apply_owned(msg, now),
            None => Vec::new(),
        }
    }

    /// Active flow count.
    pub fn active_flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Read access to an active flow. Its byte counters are exact as of
    /// its `last_update`; call [`FluidNet::sync_all`] first to read them
    /// at the current instant.
    pub fn flow(&self, id: FlowId) -> Option<&ActiveFlow> {
        self.flows.get(id)
    }

    /// All active flows, in admission order (no allocation). Admission
    /// order is ascending-id except for flows re-admitted after a
    /// controller round trip, which keep their originally reserved id.
    pub fn active_flows(&self) -> impl Iterator<Item = &ActiveFlow> + '_ {
        self.flows.iter()
    }

    /// Completed/terminated flow records so far.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Drop records so far.
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// Per-link statistics (indexed by link id). `bytes` is exact as of
    /// each crossing flow's last sync; a mid-run reader calls
    /// [`FluidNet::sync_all`] first.
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.link_stats
    }

    /// Instantaneous utilization of a link.
    pub fn utilization(&self, link: LinkId) -> f64 {
        let cap = self
            .topo
            .link(link)
            .map(|l| l.capacity)
            .unwrap_or(Rate::ZERO);
        self.link_stats
            .get(link.index())
            .map(|s| s.utilization(cap))
            .unwrap_or(0.0)
    }

    /// Reserves a fresh flow id (assigned before admission so that retries
    /// and drop records share the id).
    pub fn reserve_id(&mut self) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        id
    }

    /// Marks a link dirty for the next incremental reallocation.
    #[inline]
    fn mark_dirty(&mut self, l: LinkId) {
        let stamp = &mut self.dirty_stamp[l.index()];
        if *stamp != self.dirty_epoch {
            *stamp = self.dirty_epoch;
            self.dirty_links.push(l);
        }
    }

    /// Rebuilds every resident component from scratch and marks every
    /// link that carries a flow dirty, so the next
    /// [`FluidNet::reallocate`] re-solves every active flow: the
    /// recompute-everything oracle the resident components are checked
    /// against.
    pub fn mark_all_dirty(&mut self) {
        self.rebuild_all();
        for li in 0..self.res.link_comp.len() {
            if self.res.link_comp[li] != NONE {
                self.mark_dirty(LinkId::from_index(li));
            }
        }
    }

    /// Attempts to admit a flow. On success the flow is registered on its
    /// route (rates are stale until [`reallocate`] runs). `NeedController`
    /// leaves no state behind and hands the spec back — retry with the
    /// same id after the controller acts.
    ///
    /// [`reallocate`]: FluidNet::reallocate
    pub fn try_admit(&mut self, id: FlowId, spec: FlowSpec, now: SimTime) -> AdmitOutcome {
        self.try_admit_arrived(id, spec, now, now)
    }

    /// Like [`try_admit`], but stamps the flow's `started` time (which
    /// flow-completion times are measured from) with `arrived` — the
    /// original arrival instant — so that reactive flow-setup latency
    /// shows up in FCTs, exactly the controller/data-plane dynamic the
    /// paper wants observable.
    ///
    /// [`try_admit`]: FluidNet::try_admit
    pub fn try_admit_arrived(
        &mut self,
        id: FlowId,
        spec: FlowSpec,
        now: SimTime,
        arrived: SimTime,
    ) -> AdmitOutcome {
        match self.resolve_route(&spec, now) {
            ResolveOutcome::Path { mut hops, links } => {
                // Commit classification counters along the winning path —
                // by borrow, without rebuilding pipeline results.
                for hop in &mut hops {
                    if let Some(sw) = self.switches.get_mut(hop.node) {
                        sw.commit_matched(&mut hop.matched, now);
                    }
                }
                // Tightest meter cap along the path.
                let mut cap: Option<Rate> = None;
                for hop in &hops {
                    if let Some(sw) = self.switches.get(hop.node) {
                        for m in &hop.meters {
                            if let Some(me) = sw.meter(*m) {
                                cap = Some(match cap {
                                    Some(c) => c.min(me.rate_cap()),
                                    None => me.rate_cap(),
                                });
                            }
                        }
                    }
                }
                for &l in &links {
                    self.link_stats[l.index()].active_flows += 1;
                    self.mark_dirty(l);
                }
                let bytes_remaining = spec.size.map(|s| s.as_bytes() as f64);
                let flow = ActiveFlow {
                    id,
                    spec,
                    route: Route { hops, links },
                    rate: Rate::ZERO,
                    meter_cap: cap,
                    bytes_sent: 0.0,
                    bytes_remaining,
                    bytes_dropped: 0.0,
                    started: arrived,
                    last_update: now,
                };
                let slot = self.flows.insert(flow);
                self.merges += u64::from(self.join_component(slot));
                AdmitOutcome::Admitted
            }
            ResolveOutcome::NeedController {
                switch,
                in_port,
                key,
            } => {
                let msg = self
                    .switches
                    .get(switch)
                    .map(|sw| sw.flow_in(in_port, &key))
                    .unwrap_or(SwitchMsg::FlowIn {
                        switch,
                        in_port,
                        key,
                    });
                AdmitOutcome::NeedController { msg, spec }
            }
            ResolveOutcome::Dropped { at, reason } => {
                let cause = DropCause::Pipeline(format!("{reason:?}"));
                self.drops.push(DropRecord {
                    id,
                    key: spec.key,
                    at: Some(at),
                    cause: cause.clone(),
                    time: now,
                });
                AdmitOutcome::Dropped(cause)
            }
            ResolveOutcome::NoRoute => {
                self.drops.push(DropRecord {
                    id,
                    key: spec.key,
                    at: None,
                    cause: DropCause::NoRoute,
                    time: now,
                });
                AdmitOutcome::Dropped(DropCause::NoRoute)
            }
        }
    }

    /// Like [`try_admit_arrived`], but for a flow knocked off its path by
    /// a failure. Right after a failure the tables are stale — installed
    /// rules may dead-end on a downed port while the controller (which
    /// hears `PortStatus` one channel delay later) is about to repair
    /// them — so a stale-table dead end (no route, a rule pointing at a
    /// downed port, a group with no live bucket) is not terminal here:
    /// instead of recording a drop, the flow punts to the controller from
    /// its access switch and re-enters the usual admit-retry loop.
    /// Recovery time thus measures real control-plane convergence.
    /// Deliberate policy drops stay terminal, and a flow whose access
    /// link itself is gone (host cut off) falls through to the ordinary,
    /// terminal admission path.
    ///
    /// [`try_admit_arrived`]: FluidNet::try_admit_arrived
    pub fn try_readmit_arrived(
        &mut self,
        id: FlowId,
        spec: FlowSpec,
        now: SimTime,
        arrived: SimTime,
    ) -> AdmitOutcome {
        let stale_dead_end = match self.resolve_route(&spec, now) {
            ResolveOutcome::NoRoute => true,
            ResolveOutcome::Dropped { reason, .. } => {
                matches!(reason, DropReason::PortDown | DropReason::DeadGroup)
            }
            _ => false,
        };
        if stale_dead_end {
            if let Some((_, al)) = self.topo.out_links(spec.src).find(|(_, l)| l.is_up()) {
                let msg = self
                    .switches
                    .get(al.dst)
                    .map(|sw| sw.flow_in(al.dst_port, &spec.key))
                    .unwrap_or(SwitchMsg::FlowIn {
                        switch: al.dst,
                        in_port: al.dst_port,
                        key: spec.key,
                    });
                return AdmitOutcome::NeedController { msg, spec };
            }
        }
        self.try_admit_arrived(id, spec, now, arrived)
    }

    /// Sets the demand (bps) an external co-simulated plane offers on a
    /// link; `f64::INFINITY` marks a backlogged serializer that should
    /// receive a full max-min fair share. Marks the link dirty so the
    /// next incremental reallocation picks up the change. Returns the
    /// previous demand.
    ///
    /// # Example
    ///
    /// A backlogged packet serializer competes like one more flow on its
    /// link. The granted share materializes once the link next appears
    /// in a recomputed problem (i.e. carries fluid flows) — see
    /// [`FluidNet::external_granted`]:
    ///
    /// ```
    /// use horse_dataplane::{FluidConfig, FluidNet};
    /// use horse_topology::builders;
    /// use horse_types::{LinkId, Rate, SimTime};
    ///
    /// let star = builders::star(2, Rate::gbps(1.0));
    /// let mut net = FluidNet::new(star.topology, FluidConfig::default());
    /// let prev = net.set_external_demand(LinkId(0), f64::INFINITY);
    /// assert_eq!(prev, 0.0);
    /// assert!(net.external_demand(LinkId(0)).is_infinite());
    /// net.reallocate(SimTime::ZERO);
    /// // No fluid flow shares the link yet, so no grant was computed;
    /// // the hybrid coupling's min-drain floor covers this window.
    /// assert_eq!(net.external_granted(LinkId(0)), 0.0);
    /// ```
    pub fn set_external_demand(&mut self, link: LinkId, bps: f64) -> f64 {
        let slot = &mut self.external_demand[link.index()];
        let prev = *slot;
        *slot = bps.max(0.0);
        if prev != *slot {
            self.mark_dirty(link);
        }
        prev
    }

    /// The demand (bps) currently registered on a link by an external
    /// plane.
    pub fn external_demand(&self, link: LinkId) -> f64 {
        self.external_demand[link.index()]
    }

    /// The rate the last allocation granted a link's external aggregate
    /// (0 until the link first appears in a recomputed problem).
    pub fn external_granted(&self, link: LinkId) -> f64 {
        self.external_granted[link.index()]
    }

    /// Sets the gray-failure capacity multiplier of a cable (both
    /// directions), in `(0, 1]`; `1.0` clears the failure. The links stay
    /// *up*, so routing is unchanged — only allocatable capacity shrinks.
    /// Marks both directions dirty for the next incremental reallocation.
    pub fn set_gray(&mut self, link: LinkId, factor: f64) {
        let factor = factor.clamp(f64::MIN_POSITIVE, 1.0);
        let apply = |this: &mut Self, l: LinkId| {
            if this.gray[l.index()] != factor {
                this.gray[l.index()] = factor;
                this.mark_dirty(l);
            }
        };
        apply(self, link);
        if let Some(rev) = self.topo.reverse_of(link) {
            apply(self, rev);
        }
    }

    /// The gray-failure capacity multiplier currently applied to a link
    /// (1.0 = healthy).
    pub fn gray_factor(&self, link: LinkId) -> f64 {
        self.gray[link.index()]
    }

    /// True while `node` is a crashed (down) switch.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Split borrow for a co-simulated packet plane: topology (shared,
    /// read-only), the OpenFlow switches (shared pipeline, mutable for
    /// classification side effects), the live per-link statistics
    /// (whose `current_rate_bps` is the fluid load the packet serializers
    /// drain around) and the per-link gray-failure capacity multipliers
    /// the serializers must respect.
    pub fn packet_plane_parts(&mut self) -> (&Topology, &mut Switches, &[LinkStats], &[f64]) {
        (&self.topo, &mut self.switches, &self.link_stats, &self.gray)
    }

    /// Appends a completion record produced outside the fluid mechanics
    /// (the hybrid driver records packet-fidelity flows here so results
    /// and exports cover both planes uniformly).
    pub fn push_external_record(&mut self, record: FlowRecord) {
        self.records.push(record);
    }

    /// Records a drop for a flow the *caller* gave up on (e.g. controller
    /// retry budget exhausted).
    pub fn record_external_drop(
        &mut self,
        id: FlowId,
        key: FlowKey,
        cause: DropCause,
        now: SimTime,
    ) {
        self.drops.push(DropRecord {
            id,
            key,
            at: None,
            cause,
            time: now,
        });
    }

    fn resolve_route(&self, spec: &FlowSpec, _now: SimTime) -> ResolveOutcome {
        // Source host must have an up access link.
        let Some((access, al)) = self.topo.out_links(spec.src).find(|(_, l)| l.is_up()) else {
            return ResolveOutcome::NoRoute;
        };

        struct Dfs<'a> {
            net: &'a FluidNet,
            spec: &'a FlowSpec,
            visited: HashSet<(NodeId, PortNo)>,
            first_drop: Option<(NodeId, DropReason)>,
            need_ctrl: Option<(NodeId, PortNo, FlowKey)>,
        }

        impl Dfs<'_> {
            /// Returns the (hops, links) suffix from `node` to the
            /// destination, or `None` when this branch fails.
            fn walk(
                &mut self,
                node: NodeId,
                in_port: PortNo,
                key: FlowKey,
                depth: usize,
            ) -> Option<(Vec<RouteHop>, Vec<LinkId>)> {
                if depth > MAX_ROUTE_HOPS {
                    return None;
                }
                let nd = self.net.topo.node(node)?;
                if nd.kind.is_host() {
                    return if node == self.spec.dst {
                        Some((Vec::new(), Vec::new()))
                    } else {
                        None // replica delivered to the wrong host: dead branch
                    };
                }
                if !self.visited.insert((node, in_port)) {
                    return None; // already explored from this ingress
                }
                let sw = self.net.switches.get(node)?;
                let PipelineResult {
                    verdict,
                    matched,
                    meters,
                    key_out,
                } = sw.classify(in_port, &key);
                match verdict {
                    Verdict::ToController => {
                        if self.need_ctrl.is_none() {
                            self.need_ctrl = Some((node, in_port, key));
                        }
                        None
                    }
                    Verdict::Drop(reason) => {
                        if self.first_drop.is_none() {
                            self.first_drop = Some((node, reason));
                        }
                        None
                    }
                    Verdict::Forward(ports) => {
                        // The attribution trail moves into the winning
                        // hop instead of being cloned per branch.
                        let mut matched = Some(matched);
                        let mut meters = Some(meters);
                        for port in ports {
                            let Some(lid) = self.net.topo.link_from(node, port) else {
                                continue;
                            };
                            let link = self.net.topo.link(lid)?;
                            if !link.is_up() {
                                continue;
                            }
                            if let Some((mut hops, mut links)) =
                                self.walk(link.dst, link.dst_port, key_out, depth + 1)
                            {
                                hops.insert(
                                    0,
                                    RouteHop {
                                        node,
                                        in_port,
                                        out_port: port,
                                        matched: matched.take().unwrap_or_default(),
                                        meters: meters.take().unwrap_or_default(),
                                    },
                                );
                                links.insert(0, lid);
                                return Some((hops, links));
                            }
                        }
                        None
                    }
                }
            }
        }

        let mut dfs = Dfs {
            net: self,
            spec,
            visited: HashSet::new(),
            first_drop: None,
            need_ctrl: None,
        };
        let entry = self.topo.link(access).expect("access link exists");
        debug_assert_eq!(entry.src, spec.src);
        if let Some((hops, mut links)) = dfs.walk(al.dst, al.dst_port, spec.key, 0) {
            links.insert(0, access);
            return ResolveOutcome::Path { hops, links };
        }
        if let Some((switch, in_port, key)) = dfs.need_ctrl {
            return ResolveOutcome::NeedController {
                switch,
                in_port,
                key,
            };
        }
        if let Some((at, reason)) = dfs.first_drop {
            return ResolveOutcome::Dropped { at, reason };
        }
        ResolveOutcome::NoRoute
    }

    /// Integrates bytes for one flow (by slot) up to `now`, crediting
    /// links and switch entries. Field-level borrow splitting walks the
    /// route in place — no detach/reattach, no cloning (hot path: this
    /// runs for every flow whose rate a reallocation changes). The
    /// entries are told the interval's start, so an entry installed
    /// inside it is credited only its own share (see
    /// [`OpenFlowSwitch::credit_bytes`]).
    fn sync_flow_slot(&mut self, slot: u32, now: SimTime) {
        self.byte_syncs += 1;
        let flow = self.flows.flow_at_mut(slot);
        let from = flow.last_update;
        let moved = flow.sync_to(now);
        if moved > 0.0 {
            for &l in &flow.route.links {
                self.link_stats[l.index()].bytes += moved;
            }
            let avg = self.config.avg_packet;
            let moved_bytes = ByteSize::bytes(moved as u64);
            let switches = &mut self.switches;
            for hop in &mut flow.route.hops {
                if let Some(sw) = switches.get_mut(hop.node) {
                    sw.credit_bytes(&mut hop.matched, moved_bytes, avg, from, now);
                    // Port counters follow the same integration, so
                    // port-stats polling (the adaptive LB's feedback
                    // signal) observes fluid traffic too.
                    sw.credit_port_bytes(hop.in_port, hop.out_port, moved_bytes, avg);
                }
            }
        }
    }

    /// Re-runs max-min fair allocation after a change and returns every
    /// flow whose rate changed, with fresh completion predictions. The
    /// returned slice borrows engine scratch — copy what must outlive the
    /// next call.
    ///
    /// Only the resident components holding a dirty link (accumulated
    /// since the last call) are recomputed; after
    /// [`FluidNet::mark_all_dirty`] that is every active flow. Each is
    /// water-filled as an independent subproblem — see the module docs
    /// for the four phases and the determinism contract.
    ///
    /// Flows sharing an identical link sequence and demand share one
    /// weighted macro-flow variable — a pure solver-work optimization:
    /// the returned rates are bit-identical to a solve with one variable
    /// per flow.
    ///
    /// # Example
    ///
    /// One greedy flow across a two-host star takes the whole 1 Gbit/s
    /// bottleneck:
    ///
    /// ```
    /// use horse_dataplane::{AdmitOutcome, DemandModel, FlowSpec, FluidConfig, FluidNet};
    /// use horse_openflow::actions::Instruction;
    /// use horse_openflow::flow_match::FlowMatch;
    /// use horse_openflow::messages::{CtrlMsg, FlowMod};
    /// use horse_openflow::table::FlowEntry;
    /// use horse_topology::builders;
    /// use horse_types::{FlowKey, Rate, SimTime};
    ///
    /// let star = builders::star(2, Rate::gbps(1.0));
    /// let mut net = FluidNet::new(star.topology, FluidConfig::default());
    /// // Hub forwarding: one per-destination-MAC entry per access port.
    /// let hub = star.edges[0];
    /// let topo = net.topology().clone();
    /// for (_, link) in topo.out_links(hub) {
    ///     if let Some(mac) = topo.node(link.dst).and_then(|n| n.mac()) {
    ///         net.apply_ctrl(hub, &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
    ///             100,
    ///             FlowMatch::ANY.with_eth_dst(mac),
    ///             vec![Instruction::output(link.src_port)],
    ///         ))), SimTime::ZERO);
    ///     }
    /// }
    /// let (src, dst) = (star.members[0], star.members[1]);
    /// let id = net.reserve_id();
    /// let spec = FlowSpec {
    ///     key: FlowKey::tcp(
    ///         topo.node(src).unwrap().mac().unwrap(),
    ///         topo.node(dst).unwrap().mac().unwrap(),
    ///         topo.node(src).unwrap().ip().unwrap(),
    ///         topo.node(dst).unwrap().ip().unwrap(),
    ///         1000, 80),
    ///     src, dst,
    ///     demand: DemandModel::Greedy,
    ///     size: None,
    ///     fidelity: Default::default(),
    /// };
    /// assert!(matches!(net.try_admit(id, spec, SimTime::ZERO), AdmitOutcome::Admitted));
    /// let changes = net.reallocate(SimTime::ZERO);
    /// assert_eq!(changes.len(), 1);
    /// assert_eq!(changes[0].rate, Rate::gbps(1.0));
    /// ```
    pub fn reallocate(&mut self, now: SimTime) -> &[RateChange] {
        // Wall clock is read only when phase timing is on, and feeds
        // nothing but the span export.
        let t_enter = self.timing_enabled.then(Instant::now);
        self.realloc_runs += 1;
        // No dirty link queues no component: the run would touch no flow,
        // so it stops here, still counted as a run.
        if self.dirty_links.is_empty() {
            if let Some(t0) = t_enter {
                self.timing = ReallocTiming {
                    discovery_ns: t0.elapsed().as_nanos() as u64,
                    ..ReallocTiming::default()
                };
            }
            return &[];
        }
        self.scratch.changes.clear();
        self.scratch.comps.clear();

        // ---- Discovery pass ----
        // Every dirty link maps straight to its resident component, queued
        // once in first-touch order (dirty-link insertion order). A
        // component that lost a class since its last check is checked for
        // a split first; one that fell apart or is mostly dead is
        // dissolved and its live members admitted again. A dirty link's
        // capacity is refreshed in place (gray and up/down changes mark
        // the link dirty).
        // The run count stamps the queued components: it grows every run,
        // and a restore, which may lower it, discards every component.
        let epoch = self.realloc_runs;
        let mut touched = 0u64;
        for k in 0..self.dirty_links.len() {
            let li = self.dirty_links[k].index();
            let mut c = self.res.link_comp[li];
            if c == NONE {
                continue;
            }
            if self.res.comps[c as usize].visit != epoch {
                let (checked, verdict) = self.res.check(c);
                self.split_checks += u64::from(checked);
                if verdict != Check::Keep {
                    self.splits += u64::from(verdict == Check::Split);
                    self.scratch.ids.clear();
                    self.res.dissolve(c, &mut self.scratch.ids);
                    self.rejoin();
                    c = self.res.link_comp[li];
                }
                let comp = &mut self.res.comps[c as usize];
                comp.visit = epoch;
                touched += u64::from(comp.live);
                self.component_flows.observe(u64::from(comp.live));
                self.scratch.comps.push(CompRange {
                    comp: c,
                    ..CompRange::default()
                });
            }
            let local = self.res.link_local[li] as usize;
            self.res.comps[c as usize].links[local].cap = link_capacity(&self.topo, &self.gray, li);
        }
        self.dirty_links.clear();
        self.dirty_epoch += 1;
        self.realloc_flows_touched += touched;
        if self.scratch.comps.is_empty() {
            if let Some(t0) = t_enter {
                self.timing = ReallocTiming {
                    discovery_ns: t0.elapsed().as_nanos() as u64,
                    ..ReallocTiming::default()
                };
            }
            return &self.scratch.changes;
        }

        // ---- Global processing order ----
        // Every observable side effect below (byte syncs of changed
        // flows, rate application, RateChange emission, link-rate
        // accumulation) runs ascending by flow id across all components,
        // independent of the order they were queued in.
        {
            let ReallocScratch { order, comps, .. } = &mut self.scratch;
            order.clear();
            for cr in comps.iter() {
                let members = &self.res.comps[cr.comp as usize].members;
                for (i, m) in members.iter().enumerate() {
                    if m.slot != NONE {
                        order.push((m.id, cr.comp, i as u32));
                    }
                }
            }
            // One component (the steady-state case) is already ascending.
            if comps.len() > 1 {
                order.sort_unstable_by_key(|e| e.0);
            }
        }
        let t_discovered = t_enter.map(|_| Instant::now());

        // ---- Build pass ----
        // Each queued component's live classes are copied into one dense
        // subproblem (CSR adjacency over component-local link indices,
        // capacities), concatenated into reusable scratch: flat copies,
        // no arena access and no class digest. Flows outside a component
        // cannot share its links, so full link capacity is available to
        // each. A dead class is skipped; a link no live class crosses
        // keeps its slot in `caps`, where the solver never touches it.
        {
            let scratch = &mut self.scratch;
            scratch.caps.clear();
            scratch.demands.clear();
            scratch.fl_off.clear();
            scratch.fl_links.clear();
            scratch.ext_links.clear();
            scratch.weights.clear();
            // The arena knows the exact worst-case CSR non-zero count
            // (every active flow queued, no aggregation), so the
            // adjacency scratch never grows mid-build.
            scratch.fl_links.reserve(self.flows.route_entries());
            for c_idx in 0..scratch.comps.len() {
                let mut c = scratch.comps[c_idx];
                let comp = &self.res.comps[c.comp as usize];
                c.dem.0 = scratch.demands.len() as u32;
                c.links.0 = scratch.caps.len() as u32;
                c.off.0 = scratch.fl_off.len() as u32;
                c.lnk.0 = scratch.fl_links.len() as u32;
                c.ext.0 = scratch.ext_links.len() as u32;
                for (k, class) in comp.classes.iter().enumerate() {
                    if class.weight == 0 {
                        continue;
                    }
                    scratch.fl_off.push(scratch.fl_links.len() as u32 - c.lnk.0);
                    scratch.fl_links.extend_from_slice(comp.row(k));
                    scratch.demands.push(class.demand);
                    scratch.weights.push(class.weight);
                }
                scratch.caps.extend(comp.links.iter().map(|l| l.cap));
                // Hybrid coupling: every live component link carrying
                // external (packet plane) load contributes one virtual
                // single-link flow, so the packet aggregate takes part in
                // the same water-filling instead of being carved out of
                // capacity. No external demand (the pure fluid case)
                // appends nothing and the problem is unchanged.
                for (k, l) in comp.links.iter().enumerate() {
                    let d = self.external_demand[l.raw as usize];
                    if l.live > 0 && d > 0.0 {
                        scratch.fl_off.push(scratch.fl_links.len() as u32 - c.lnk.0);
                        scratch.fl_links.push(k as u32);
                        scratch.demands.push(d);
                        scratch.weights.push(1);
                        scratch.ext_links.push(l.raw);
                    }
                }
                scratch.fl_off.push(scratch.fl_links.len() as u32 - c.lnk.0);
                c.dem.1 = scratch.demands.len() as u32;
                c.links.1 = scratch.caps.len() as u32;
                c.off.1 = scratch.fl_off.len() as u32;
                c.lnk.1 = scratch.fl_links.len() as u32;
                c.ext.1 = scratch.ext_links.len() as u32;
                scratch.comps[c_idx] = c;
            }
        }
        let real_vars = (self.scratch.demands.len() - self.scratch.ext_links.len()) as u64;
        self.macro_flows += real_vars;
        let t_built = t_enter.map(|_| Instant::now());

        // ---- Solve pass ----
        // Each component is an independent water-filling problem; its
        // rates land in the component's own segment of the merged rate
        // array and go back to its live classes.
        {
            let ReallocScratch {
                comps,
                demands,
                weights,
                fl_off,
                fl_links,
                caps,
                rates,
                ..
            } = &mut self.scratch;
            // The allocator overwrites every entry of its output slice.
            rates.resize(demands.len(), 0.0);
            for c in comps.iter() {
                let (d0, d1) = (c.dem.0 as usize, c.dem.1 as usize);
                let rounds = max_min_allocate_csr_weighted(
                    &demands[d0..d1],
                    &weights[d0..d1],
                    &fl_off[c.off.0 as usize..c.off.1 as usize],
                    &fl_links[c.lnk.0 as usize..c.lnk.1 as usize],
                    &caps[c.links.0 as usize..c.links.1 as usize],
                    &mut rates[d0..d1],
                    &mut self.maxmin,
                );
                self.rounds.observe(rounds as u64);
                let mut var = d0;
                for class in &mut self.res.comps[c.comp as usize].classes {
                    if class.weight > 0 {
                        class.rate = rates[var];
                        var += 1;
                    }
                }
            }
            self.cold_solves += comps.len() as u64;
        }

        let t_solved = t_enter.map(|_| Instant::now());

        // ---- Apply pass (ascending flow id) ----
        for k in 0..self.scratch.order.len() {
            let (_, c, i) = self.scratch.order[k];
            let comp = &mut self.res.comps[c as usize];
            let m = &mut comp.members[i as usize];
            let new_rate = Rate::bps(comp.classes[m.class as usize].rate);
            let old_bps = m.rate;
            // Only changed flows need rescheduling: an unchanged rate means
            // the previously scheduled completion event is still exact, and
            // its bytes stay linear in time, so it is not synced either.
            if (new_rate.as_bps() - old_bps).abs() > 1e-6 {
                m.rate = new_rate.as_bps();
                let slot = m.slot;
                // Integrate up to now at the old rate before the line bends.
                self.sync_flow_slot(slot, now);
                let flow = self.flows.flow_at_mut(slot);
                debug_assert_eq!(flow.rate.as_bps().to_bits(), old_bps.to_bits());
                let delta = new_rate.as_bps() - old_bps;
                flow.rate = new_rate;
                let change = RateChange {
                    id: flow.id,
                    rate: flow.rate,
                    completes_in: flow.time_to_complete(),
                };
                // Update link instantaneous rates.
                let flow = self.flows.flow_at(slot);
                for &l in &flow.route.links {
                    self.link_stats[l.index()].current_rate_bps =
                        (self.link_stats[l.index()].current_rate_bps + delta).max(0.0);
                }
                self.scratch.changes.push(change);
            }
        }
        // Record the grants handed to the external (packet) aggregates;
        // their rates sit past the live classes of their component, i.e.
        // in the last `ext` entries of its dense range.
        for c_idx in 0..self.scratch.comps.len() {
            let c = self.scratch.comps[c_idx];
            for k in c.ext.0..c.ext.1 {
                let li = self.scratch.ext_links[k as usize] as usize;
                self.external_granted[li] = self.scratch.rates[(c.dem.1 - c.ext.1 + k) as usize];
            }
        }
        if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t_enter, t_discovered, t_built, t_solved)
        {
            self.timing.discovery_ns = t1.duration_since(t0).as_nanos() as u64;
            self.timing.build_ns = t2.duration_since(t1).as_nanos() as u64;
            self.timing.solve_ns = t3.duration_since(t2).as_nanos() as u64;
            self.timing.apply_ns = t3.elapsed().as_nanos() as u64;
        }
        &self.scratch.changes
    }

    /// Registers an active flow with the resident components at its
    /// current rate. Returns the number of components it bridged.
    fn join_component(&mut self, slot: u32) -> u32 {
        let (topo, gray) = (&self.topo, &self.gray);
        self.res.admit(
            slot,
            self.flows.flow_at(slot),
            self.per_flow_variables,
            |li| link_capacity(topo, gray, li),
        )
    }

    /// Tombstones a leaving flow in its resident component.
    fn leave_component(&mut self, slot: u32) {
        let flow = self.flows.flow_at(slot);
        self.res.depart(flow.id.0, &flow.route.links);
    }

    /// One rebuild: admits the flows in `scratch.ids` (ascending flow id,
    /// none of them a member) again. Their links must be unmapped, so the
    /// merges this makes are among themselves and are not counted.
    fn rejoin(&mut self) {
        self.rebuilds += 1;
        let ids = std::mem::take(&mut self.scratch.ids);
        for &slot in &ids {
            self.join_component(slot);
        }
        self.scratch.ids = ids;
    }

    /// Discards every resident component and admits every active flow
    /// again: the `Full` oracle, restores and per-flow-variables toggles.
    fn rebuild_all(&mut self) {
        self.res.clear();
        self.sorted_slots();
        self.rejoin();
    }

    /// Fills `scratch.ids` with every active slot, ascending by flow id:
    /// the nearly sorted active list, sorted in place.
    fn sorted_slots(&mut self) {
        let (ids, flows) = (&mut self.scratch.ids, &self.flows);
        ids.clear();
        ids.extend(flows.iter_slots());
        ids.sort_unstable_by_key(|&s| flows.flow_at(s).id);
    }

    /// Removes a flow (completion or teardown), producing its record.
    /// Call [`reallocate`] afterwards to redistribute its bandwidth.
    ///
    /// [`reallocate`]: FluidNet::reallocate
    pub fn remove_flow(&mut self, id: FlowId, now: SimTime, completed: bool) -> Option<FlowRecord> {
        let slot = self.flows.slot_of(id)?;
        self.sync_flow_slot(slot, now);
        self.leave_component(slot);
        let flow = self.flows.remove(id)?;
        for &l in &flow.route.links {
            let s = &mut self.link_stats[l.index()];
            s.active_flows = s.active_flows.saturating_sub(1);
            s.current_rate_bps = (s.current_rate_bps - flow.rate.as_bps()).max(0.0);
            self.mark_dirty(l);
        }
        let record = FlowRecord {
            id,
            key: flow.spec.key,
            src: flow.spec.src,
            dst: flow.spec.dst,
            bytes: flow.bytes_sent,
            dropped_bytes: flow.bytes_dropped,
            started: flow.started,
            finished: now,
            completed,
        };
        self.records.push(record.clone());
        Some(record)
    }

    /// Fails a cable (both directions). Flows using either direction are
    /// **detached** and returned — the caller re-admits them (fast-failover
    /// groups or controller-installed repairs may provide a new path) or
    /// records them as lost. Port-status messages for the controller are
    /// returned as well.
    pub fn cable_down(
        &mut self,
        link: LinkId,
        now: SimTime,
    ) -> (Vec<FlowSpec>, Vec<SwitchMsg>, Vec<FlowId>) {
        let affected_links = self
            .topo
            .set_cable_state(link, LinkState::Down)
            .unwrap_or_default();
        let mut msgs = Vec::new();
        for &l in &affected_links {
            let lk = self.topo.link(l).expect("affected link exists").clone();
            if let Some(sw) = self.switches.get_mut(lk.src) {
                msgs.push(sw.set_port_state(lk.src_port, false));
            }
            self.mark_dirty(l);
        }
        let (specs, ids) = self.detach_flows_on(&affected_links, now);
        (specs, msgs, ids)
    }

    /// Detaches every flow crossing any of `affected_links`, returning
    /// re-admittable remaining-bytes specs and the detached flow ids
    /// (shared by cable and switch failures). The victims are the live
    /// members of the affected links' components whose routes cross an
    /// affected link, processed ascending by flow id for determinism.
    fn detach_flows_on(
        &mut self,
        affected_links: &[LinkId],
        now: SimTime,
    ) -> (Vec<FlowSpec>, Vec<FlowId>) {
        let mut comps: Vec<u32> = Vec::new();
        let mut victims: Vec<u32> = Vec::new();
        for &l in affected_links {
            let c = self.res.link_comp[l.index()];
            if c == NONE || comps.contains(&c) {
                continue;
            }
            comps.push(c);
            victims.extend(
                self.res.comps[c as usize]
                    .members
                    .iter()
                    .filter(|m| {
                        m.slot != NONE
                            && (self.flows.flow_at(m.slot).route.links)
                                .iter()
                                .any(|l| affected_links.contains(l))
                    })
                    .map(|m| m.slot),
            );
        }
        victims.sort_unstable_by_key(|&s| self.flows.flow_at(s).id);
        let mut specs = Vec::new();
        let mut ids: Vec<FlowId> = Vec::with_capacity(victims.len());
        for &slot in &victims {
            let id = self.flows.flow_at(slot).id;
            self.sync_flow_slot(slot, now);
            self.leave_component(slot);
            if let Some(flow) = self.flows.remove(id) {
                ids.push(id);
                for &l in &flow.route.links {
                    let s = &mut self.link_stats[l.index()];
                    s.active_flows = s.active_flows.saturating_sub(1);
                    s.current_rate_bps = (s.current_rate_bps - flow.rate.as_bps()).max(0.0);
                    self.mark_dirty(l);
                }
                // Record the pre-failure segment and hand back a spec for
                // the *remaining* bytes, so re-admission after a repair
                // does not replay already-delivered traffic.
                self.records.push(FlowRecord {
                    id,
                    key: flow.spec.key,
                    src: flow.spec.src,
                    dst: flow.spec.dst,
                    bytes: flow.bytes_sent,
                    dropped_bytes: flow.bytes_dropped,
                    started: flow.started,
                    finished: now,
                    completed: false,
                });
                let mut spec = flow.spec;
                spec.size = flow
                    .bytes_remaining
                    .map(|rem| horse_types::ByteSize::bytes(rem.ceil() as u64));
                specs.push(spec);
            }
        }
        (specs, ids)
    }

    /// Restores a cable. Returns port-status messages. A cable incident
    /// to a crashed switch stays down (the rejoining switch restores its
    /// cables itself in [`FluidNet::switch_up`]).
    pub fn cable_up(&mut self, link: LinkId, _now: SimTime) -> Vec<SwitchMsg> {
        if let Some(lk) = self.topo.link(link) {
            if self.crashed.contains(&lk.src) || self.crashed.contains(&lk.dst) {
                return Vec::new();
            }
        }
        let affected = self
            .topo
            .set_cable_state(link, LinkState::Up)
            .unwrap_or_default();
        let mut msgs = Vec::new();
        for &l in &affected {
            let lk = self.topo.link(l).expect("affected link exists").clone();
            if let Some(sw) = self.switches.get_mut(lk.src) {
                msgs.push(sw.set_port_state(lk.src_port, true));
            }
            self.mark_dirty(l);
        }
        msgs
    }

    /// Crashes a switch: every incident cable goes down (both
    /// directions), the switch's flow tables / groups / meters are wiped
    /// and its ports marked down, and every flow crossing it is detached
    /// (returned for re-admission, like [`FluidNet::cable_down`]).
    /// Port-status messages come only from the *surviving* neighbor
    /// switches — a crashed switch cannot report its own failure, which
    /// is exactly how the controller observes real crashes.
    pub fn switch_down(
        &mut self,
        node: NodeId,
        now: SimTime,
    ) -> (Vec<FlowSpec>, Vec<SwitchMsg>, Vec<FlowId>) {
        if self.switches.get(node).is_none() || !self.crashed.insert(node) {
            return (Vec::new(), Vec::new(), Vec::new());
        }
        let cables: Vec<LinkId> = self.topo.out_links(node).map(|(id, _)| id).collect();
        let mut affected: Vec<LinkId> = Vec::new();
        for c in &cables {
            affected.extend(
                self.topo
                    .set_cable_state(*c, LinkState::Down)
                    .unwrap_or_default(),
            );
        }
        affected.sort();
        let mut msgs = Vec::new();
        for &l in &affected {
            let lk = self.topo.link(l).expect("affected link exists").clone();
            if lk.src != node && !self.crashed.contains(&lk.src) {
                if let Some(sw) = self.switches.get_mut(lk.src) {
                    msgs.push(sw.set_port_state(lk.src_port, false));
                }
            }
            self.mark_dirty(l);
        }
        if let Some(sw) = self.switches.get_mut(node) {
            sw.crash();
        }
        let (specs, ids) = self.detach_flows_on(&affected, now);
        (specs, msgs, ids)
    }

    /// Rejoins a crashed switch with empty tables: incident cables are
    /// restored (except those whose peer is itself still crashed) and
    /// port-status messages are generated from *both* sides of each
    /// restored cable. The controller re-learns the switch through these
    /// messages and reinstalls state; until then traffic through it
    /// table-misses like any unknown switch.
    pub fn switch_up(&mut self, node: NodeId, _now: SimTime) -> Vec<SwitchMsg> {
        if !self.crashed.remove(&node) {
            return Vec::new();
        }
        let cables: Vec<(LinkId, NodeId)> = self
            .topo
            .out_links(node)
            .map(|(id, l)| (id, l.dst))
            .collect();
        let mut msgs = Vec::new();
        for (c, peer) in cables {
            if self.crashed.contains(&peer) {
                continue;
            }
            let affected = self
                .topo
                .set_cable_state(c, LinkState::Up)
                .unwrap_or_default();
            for l in affected {
                let lk = self.topo.link(l).expect("affected link exists").clone();
                if let Some(sw) = self.switches.get_mut(lk.src) {
                    msgs.push(sw.set_port_state(lk.src_port, true));
                }
                self.mark_dirty(l);
            }
        }
        msgs
    }

    /// Expires timed-out flow entries on all switches (call periodically).
    pub fn expire_entries(&mut self, now: SimTime) -> Vec<SwitchMsg> {
        let mut out = Vec::new();
        for i in 0..self.switch_order.len() {
            let id = self.switch_order[i];
            if let Some(sw) = self.switches.get_mut(id) {
                out.extend(sw.expire(now));
            }
        }
        out
    }

    /// Syncs every active flow's byte accounting to `now`: the call every
    /// mid-run reader of byte counters (flow, link, OpenFlow entry and
    /// port) makes first, since a flow whose rate has not changed has
    /// credited nothing since its last sync.
    /// Processing is ascending-id (deterministic float accumulation):
    /// the nearly-sorted active list is sorted in place, with no
    /// allocation after warmup.
    pub fn sync_all(&mut self, now: SimTime) {
        self.sorted_slots();
        let ids = std::mem::take(&mut self.scratch.ids);
        for &slot in &ids {
            self.sync_flow_slot(slot, now);
        }
        self.scratch.ids = ids;
    }

    /// Aggregate bytes currently delivered (sent) by all completed and
    /// active flows — used by accuracy comparisons. Active flows count
    /// as of their last sync; call [`FluidNet::sync_all`] first for the
    /// current instant.
    pub fn total_bytes_delivered(&self) -> f64 {
        let active: f64 = self.flows.iter().map(|f| f.bytes_sent).sum();
        let done: f64 = self.records.iter().map(|r| r.bytes).sum();
        active + done
    }

    /// Serializes the fluid plane's mutable state into a snapshot
    /// (checkpointing). Everything observable is captured: directed link
    /// up/down states, every switch's tables/groups/meters/counters,
    /// active flows in admission order (so a restore re-inserts them into
    /// an identical arena layout order-wise), records, pending dirty
    /// links, hybrid coupling vectors, crash set and the engine's
    /// cumulative counts and histograms. The resident components, solver
    /// scratch and wall-clock timing are rebuildable and deliberately
    /// excluded — a restore admits the restored flows again and computes
    /// bit-identical rates regardless.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        // Directed link states, in link-id order.
        let nl = self.topo.link_count();
        w.len_prefix(nl);
        for (_, l) in self.topo.links() {
            l.is_up().snap(w);
        }
        // Switches ascending by id, ids as a cross-check.
        w.len_prefix(self.switch_order.len());
        for sw in self.switches.iter() {
            sw.id.snap(w);
            sw.snapshot_state(w);
        }
        // Active flows in admission order + the id counter.
        w.len_prefix(self.flows.len());
        for f in self.flows.iter() {
            f.snap(w);
        }
        self.next_flow.snap(w);
        self.link_stats.snap(w);
        self.records.snap(w);
        self.drops.snap(w);
        // Dirty links pending the next incremental reallocation, in
        // insertion order (discovery order depends on it).
        self.dirty_links.snap(w);
        self.external_demand.snap(w);
        self.external_granted.snap(w);
        self.gray.snap(w);
        self.crashed.snap(w);
        self.realloc_runs.snap(w);
        self.realloc_flows_touched.snap(w);
        self.macro_flows.snap(w);
        self.cold_solves.snap(w);
        self.byte_syncs.snap(w);
        self.component_flows.snap(w);
        self.rounds.snap(w);
    }

    /// Restores state captured by [`FluidNet::snapshot_state`] into a
    /// *freshly built* plane over the same topology (same nodes/links;
    /// link states are overwritten from the snapshot). A histogram whose
    /// buckets disagree with its count is refused.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let nl = r.len_prefix()?;
        if nl != self.topo.link_count() {
            return Err(SnapError::new(
                format!(
                    "snapshot has {nl} links, topology has {}",
                    self.topo.link_count()
                ),
                r.position(),
            ));
        }
        for i in 0..nl {
            let up = bool::unsnap(r)?;
            let state = if up { LinkState::Up } else { LinkState::Down };
            self.topo
                .set_link_state(LinkId::from_index(i), state)
                .map_err(|e| SnapError::new(format!("link state: {e:?}"), r.position()))?;
        }
        let nsw = r.len_prefix()?;
        if nsw != self.switch_order.len() {
            return Err(SnapError::new(
                format!(
                    "snapshot has {nsw} switches, topology has {}",
                    self.switch_order.len()
                ),
                r.position(),
            ));
        }
        for _ in 0..nsw {
            let id = NodeId::unsnap(r)?;
            let sw = self.switches.get_mut(id).ok_or_else(|| {
                SnapError::new(
                    format!("snapshot switch {id:?} not in topology"),
                    r.position(),
                )
            })?;
            sw.restore_state(r)?;
        }
        // Re-inserting flows in snapshot (= admission) order rebuilds the
        // arena's active list in the exact order the original run had, so
        // iteration order — the only observable property of slot
        // assignment — survives the round trip. The resident components
        // are rebuilt once the capacities they read are restored.
        let nf = r.len_prefix()?;
        self.flows = FlowArena::new();
        self.res.clear();
        for _ in 0..nf {
            let flow = ActiveFlow::unsnap(r)?;
            self.flows.insert(flow);
        }
        self.next_flow = u64::unsnap(r)?;
        self.link_stats = Vec::unsnap(r)?;
        if self.link_stats.len() != nl {
            return Err(SnapError::new(
                format!("link_stats length {} != {nl}", self.link_stats.len()),
                r.position(),
            ));
        }
        self.records = Vec::unsnap(r)?;
        self.drops = Vec::unsnap(r)?;
        // Replay dirty marks through `mark_dirty` against a reset epoch,
        // reproducing both the pending list order and the stamp map.
        let dirty: Vec<LinkId> = Vec::unsnap(r)?;
        self.dirty_links.clear();
        self.dirty_stamp = vec![0; nl];
        self.dirty_epoch = 1;
        for l in dirty {
            if l.index() >= nl {
                return Err(SnapError::new(
                    format!("dirty link {l} out of range ({nl} links)"),
                    r.position(),
                ));
            }
            self.mark_dirty(l);
        }
        self.external_demand = Vec::unsnap(r)?;
        self.external_granted = Vec::unsnap(r)?;
        self.gray = Vec::unsnap(r)?;
        for (name, v) in [
            ("external_demand", self.external_demand.len()),
            ("external_granted", self.external_granted.len()),
            ("gray", self.gray.len()),
        ] {
            if v != nl {
                return Err(SnapError::new(
                    format!("{name} length {v} != {nl}"),
                    r.position(),
                ));
            }
        }
        self.crashed = HashSet::unsnap(r)?;
        self.realloc_runs = u64::unsnap(r)?;
        self.realloc_flows_touched = u64::unsnap(r)?;
        self.macro_flows = u64::unsnap(r)?;
        self.cold_solves = u64::unsnap(r)?;
        self.byte_syncs = u64::unsnap(r)?;
        for hist in [&mut self.component_flows, &mut self.rounds] {
            *hist = Hist::unsnap(r)?;
            hist.check().map_err(|e| SnapError::new(e, r.position()))?;
        }
        self.rebuild_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::DemandModel;
    use horse_openflow::actions::Instruction;
    use horse_openflow::flow_match::FlowMatch;
    use horse_openflow::messages::{FlowMod, MeterMod};
    use horse_openflow::table::FlowEntry;
    use horse_topology::builders;
    use horse_types::id::MeterId;
    use horse_types::MacAddr;

    /// h_left — s1 — s2 — h_right at 1 Gbps.
    fn linear_net() -> (FluidNet, NodeId, NodeId) {
        let f = builders::linear(2, Rate::gbps(1.0));
        let (hl, hr) = (f.members[0], f.members[1]);
        let net = FluidNet::new(f.topology, FluidConfig::default());
        (net, hl, hr)
    }

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            sport,
            80,
        )
    }

    fn spec(src: NodeId, dst: NodeId, sport: u16) -> FlowSpec {
        FlowSpec {
            key: key(sport),
            src,
            dst,
            demand: DemandModel::Greedy,
            size: Some(ByteSize::mib(10)),
            fidelity: Default::default(),
        }
    }

    /// Installs a match-all forward rule chain s1->s2->h_right and reverse.
    fn install_forwarding(net: &mut FluidNet) {
        let now = SimTime::ZERO;
        for sw_id in net.switch_ids().to_vec() {
            // forward toward the host attached out of the port that leads to
            // h_right; in the linear(2) builder: s1 ports: 1->s2, 2->h_left;
            // s2 ports: 1->s1, 2->h_right.
            // Using MAC matching keeps this honest.
            let topo = net.topology();
            let mut mods: Vec<(FlowMatch, PortNo)> = Vec::new();
            for (_, l) in topo.out_links(sw_id) {
                if let Some(host) = topo.node(l.dst).filter(|n| n.kind.is_host()) {
                    mods.push((FlowMatch::ANY.with_eth_dst(host.mac().unwrap()), l.src_port));
                }
            }
            // default: send everything else toward the other switch
            let other_port = topo
                .out_links(sw_id)
                .find(|(_, l)| {
                    topo.node(l.dst)
                        .map(|n| n.kind.is_switch())
                        .unwrap_or(false)
                })
                .map(|(_, l)| l.src_port);
            for (m, p) in mods {
                net.apply_ctrl(
                    sw_id,
                    &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                        100,
                        m,
                        vec![Instruction::output(p)],
                    ))),
                    now,
                );
            }
            if let Some(p) = other_port {
                net.apply_ctrl(
                    sw_id,
                    &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                        1,
                        FlowMatch::ANY,
                        vec![Instruction::output(p)],
                    ))),
                    now,
                );
            }
        }
    }

    #[test]
    fn admit_without_rules_asks_controller() {
        let (mut net, hl, hr) = linear_net();
        let id = net.reserve_id();
        let s = spec(hl, hr, 1000);
        match net.try_admit(id, s.clone(), SimTime::ZERO) {
            AdmitOutcome::NeedController {
                msg: SwitchMsg::FlowIn { switch, .. },
                spec: returned,
            } => {
                // first switch on the path must raise the FlowIn
                assert_eq!(net.topology().node(switch).unwrap().name, "s1");
                assert_eq!(returned, s, "spec handed back for the retry");
            }
            o => panic!("expected NeedController, got {o:?}"),
        }
        assert_eq!(net.active_flow_count(), 0);
    }

    #[test]
    fn admit_with_rules_and_allocate_full_capacity() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let id = net.reserve_id();
        assert!(matches!(
            net.try_admit(id, spec(hl, hr, 1000), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        let changes = net.reallocate(SimTime::ZERO);
        assert_eq!(changes.len(), 1);
        assert!((changes[0].rate.as_gbps() - 1.0).abs() < 1e-9);
        // 10 MiB at 1 Gbps ≈ 0.0839 s
        let t = changes[0].completes_in.unwrap();
        assert!((t - 10.0 * 1048576.0 * 8.0 / 1e9).abs() < 1e-6);
    }

    #[test]
    fn two_greedy_flows_share_the_bottleneck() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let a = net.reserve_id();
        let b = net.reserve_id();
        assert!(matches!(
            net.try_admit(a, spec(hl, hr, 1000), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        assert!(matches!(
            net.try_admit(b, spec(hl, hr, 2000), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        let changes = net.reallocate(SimTime::ZERO);
        assert_eq!(changes.len(), 2);
        for c in changes {
            assert!((c.rate.as_gbps() - 0.5).abs() < 1e-9, "equal split");
        }
    }

    #[test]
    fn completion_frees_bandwidth_for_survivor() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let a = net.reserve_id();
        let b = net.reserve_id();
        net.try_admit(a, spec(hl, hr, 1000), SimTime::ZERO);
        net.try_admit(b, spec(hl, hr, 2000), SimTime::ZERO);
        net.reallocate(SimTime::ZERO);
        let rec = net
            .remove_flow(a, SimTime::from_millis(100), true)
            .expect("flow exists");
        assert!(rec.completed);
        // flow a moved 0.5 Gbps * 0.1 s = 6.25 MB
        assert!((rec.bytes - 0.5e9 * 0.1 / 8.0).abs() < 1e3);
        let changes = net.reallocate(SimTime::from_millis(100));
        let c = changes.iter().find(|c| c.id == b).expect("b updated");
        assert!((c.rate.as_gbps() - 1.0).abs() < 1e-9, "b gets everything");
    }

    #[test]
    fn cbr_flow_respects_demand() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let id = net.reserve_id();
        let mut s = spec(hl, hr, 1000);
        s.demand = DemandModel::Cbr(Rate::mbps(200.0));
        s.size = None;
        net.try_admit(id, s, SimTime::ZERO);
        let changes = net.reallocate(SimTime::ZERO);
        assert!((changes[0].rate.as_mbps() - 200.0).abs() < 1e-6);
        assert!(changes[0].completes_in.is_none(), "open-ended");
    }

    #[test]
    fn meter_caps_greedy_flow_with_tcp_penalty() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        // Install a 500 Mbps meter on s1 and route port-80 flows through it.
        let s1 = net.topology().node_by_name("s1").unwrap();
        net.apply_ctrl(
            s1,
            &CtrlMsg::MeterMod(MeterMod::Add {
                id: MeterId(1),
                rate: Rate::mbps(500.0),
                burst: ByteSize::kib(64),
            }),
            SimTime::ZERO,
        );
        // Higher-priority metered entry toward s2.
        let to_s2 = net
            .topology()
            .out_links(s1)
            .find(|(_, l)| {
                net.topology()
                    .node(l.dst)
                    .map(|n| n.kind.is_switch())
                    .unwrap_or(false)
            })
            .map(|(_, l)| l.src_port)
            .unwrap();
        net.apply_ctrl(
            s1,
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                200,
                FlowMatch::ANY.with_tp_dst(80),
                vec![Instruction::Meter(MeterId(1)), Instruction::output(to_s2)],
            ))),
            SimTime::ZERO,
        );
        let id = net.reserve_id();
        net.try_admit(id, spec(hl, hr, 1000), SimTime::ZERO);
        let changes = net.reallocate(SimTime::ZERO);
        // TCP through a 500 Mbps policer: 0.75 × 500 = 375 Mbps
        assert!(
            (changes[0].rate.as_mbps() - 375.0).abs() < 1e-6,
            "got {}",
            changes[0].rate
        );
    }

    #[test]
    fn blackhole_rule_drops_at_admission() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let s1 = net.topology().node_by_name("s1").unwrap();
        net.apply_ctrl(
            s1,
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                500,
                FlowMatch::ANY.with_eth_dst(MacAddr::local_from_id(2)),
                vec![Instruction::drop()],
            ))),
            SimTime::ZERO,
        );
        let id = net.reserve_id();
        match net.try_admit(id, spec(hl, hr, 1000), SimTime::ZERO) {
            AdmitOutcome::Dropped(DropCause::Pipeline(r)) => assert_eq!(r, "Policy"),
            o => panic!("expected drop, got {o:?}"),
        }
        assert_eq!(net.drops().len(), 1);
    }

    #[test]
    fn cable_down_detaches_flows_and_reports_ports() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let id = net.reserve_id();
        net.try_admit(id, spec(hl, hr, 1000), SimTime::ZERO);
        net.reallocate(SimTime::ZERO);
        // fail the s1—s2 cable
        let s1 = net.topology().node_by_name("s1").unwrap();
        let cable = net
            .topology()
            .out_links(s1)
            .find(|(_, l)| {
                net.topology()
                    .node(l.dst)
                    .map(|n| n.kind.is_switch())
                    .unwrap_or(false)
            })
            .map(|(lid, _)| lid)
            .unwrap();
        let (victims, msgs, ids) = net.cable_down(cable, SimTime::from_millis(10));
        assert_eq!(victims.len(), 1);
        assert_eq!(ids, vec![id]);
        assert_eq!(msgs.len(), 2, "port-status from both endpoint switches");
        assert_eq!(net.active_flow_count(), 0);
        // re-admission now fails: no alternate path in a chain
        let id2 = net.reserve_id();
        match net.try_admit(id2, victims[0].clone(), SimTime::from_millis(10)) {
            AdmitOutcome::Dropped(_) => {}
            o => panic!("expected drop after failure, got {o:?}"),
        }
        // restore and re-admit
        net.cable_up(cable, SimTime::from_millis(20));
        let id3 = net.reserve_id();
        assert!(matches!(
            net.try_admit(id3, victims[0].clone(), SimTime::from_millis(20)),
            AdmitOutcome::Admitted
        ));
    }

    #[test]
    fn link_stats_track_rates_and_bytes() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let id = net.reserve_id();
        net.try_admit(id, spec(hl, hr, 1000), SimTime::ZERO);
        net.reallocate(SimTime::ZERO);
        let flow = net.flow(id).unwrap();
        let first_link = flow.route.links[0];
        assert!((net.utilization(first_link) - 1.0).abs() < 1e-9);
        net.sync_all(SimTime::from_millis(8));
        let stats = net.link_stats()[first_link.index()];
        assert!((stats.bytes - 1e9 * 0.008 / 8.0).abs() < 10.0);
        assert_eq!(stats.active_flows, 1);
    }

    /// A star whose hub forwards by destination MAC.
    fn star_net(members: usize) -> (FluidNet, Vec<NodeId>) {
        let f = builders::star(members, Rate::gbps(1.0));
        let mut net = FluidNet::new(f.topology, FluidConfig::default());
        let hub = f.edges[0];
        let topo = net.topology().clone();
        for (_, l) in topo.out_links(hub) {
            if let Some(host) = topo.node(l.dst).filter(|n| n.kind.is_host()) {
                net.apply_ctrl(
                    hub,
                    &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                        100,
                        FlowMatch::ANY.with_eth_dst(host.mac().unwrap()),
                        vec![Instruction::output(l.src_port)],
                    ))),
                    SimTime::ZERO,
                );
            }
        }
        (net, f.members)
    }

    /// An open-ended flow between two star members.
    fn star_spec(net: &FluidNet, members: &[NodeId], src: usize, dst: usize) -> FlowSpec {
        let topo = net.topology();
        FlowSpec {
            key: FlowKey::tcp(
                MacAddr::local_from_id(src as u32 + 1),
                MacAddr::local_from_id(dst as u32 + 1),
                topo.node(members[src]).unwrap().ip().unwrap(),
                topo.node(members[dst]).unwrap().ip().unwrap(),
                1000 + dst as u16,
                80,
            ),
            src: members[src],
            dst: members[dst],
            demand: DemandModel::Cbr(Rate::mbps(100.0)),
            size: None,
            fidelity: Default::default(),
        }
    }

    #[test]
    fn unchanged_rates_are_not_synced() {
        // Flow a (0→1) and flow b (0→2) share host 0's uplink, so b's
        // arrival and departure recompute a's component; both are 100 Mbit/s
        // CBR on 1 Gbit/s links, so a's rate never moves and its bytes are
        // integrated only when something reads them.
        for full in [true, false] {
            let (mut net, members) = star_net(3);
            let realloc = |net: &mut FluidNet, t: SimTime| {
                if full {
                    net.mark_all_dirty();
                }
                net.reallocate(t).to_vec()
            };
            let (a, b) = (net.reserve_id(), net.reserve_id());
            let spec_a = star_spec(&net, &members, 0, 1);
            let spec_b = star_spec(&net, &members, 0, 2);
            net.try_admit(a, spec_a, SimTime::ZERO);
            assert_eq!(realloc(&mut net, SimTime::ZERO).len(), 1);
            net.try_admit(b, spec_b, SimTime::from_secs(1));
            let changes = realloc(&mut net, SimTime::from_secs(1));
            assert_eq!(changes.len(), 1, "full {full}: only b gets a rate");
            assert_eq!(changes[0].id, b);
            assert_eq!(
                net.realloc_flows_touched, 3,
                "full {full}: a was recomputed"
            );
            net.remove_flow(b, SimTime::from_secs(2), true);
            assert!(realloc(&mut net, SimTime::from_secs(2)).is_empty());
            let fa = net.flow(a).unwrap();
            assert_eq!(fa.last_update, SimTime::ZERO, "full {full}: a was synced");
            assert_eq!(fa.bytes_sent, 0.0);
            net.sync_all(SimTime::from_secs(3));
            let fa = net.flow(a).unwrap();
            assert_eq!(fa.last_update, SimTime::from_secs(3));
            assert!((fa.bytes_sent - 100e6 * 3.0 / 8.0).abs() < 1e-3);
            // One sync per rate change (a at 0 s, b at 1 s), one for b's
            // removal and one for a at the read point.
            assert_eq!(net.byte_syncs, 4, "full {full}");
        }
    }

    #[test]
    fn replaced_entry_is_credited_only_after_its_install() {
        // An open-ended flow through the hub's entry E for host 1; E is
        // re-added (OpenFlow ADD replaces it and resets its counters) at
        // 5.5 s, and every flow is synced at 5.6 s. The flow last synced
        // at 0 s, but E existed for only the last 0.1 s of the interval.
        let (mut net, members) = star_net(2);
        let hub = net.switch_ids()[0];
        let id = net.reserve_id();
        let spec = star_spec(&net, &members, 0, 1);
        let mac = net.topology().node(members[1]).unwrap().mac().unwrap();
        net.try_admit(id, spec, SimTime::ZERO);
        net.reallocate(SimTime::ZERO);
        let entry_e = net
            .switch(hub)
            .unwrap()
            .table(horse_types::TableId(0))
            .unwrap()
            .entries()
            .find(|e| e.matcher == FlowMatch::ANY.with_eth_dst(mac))
            .unwrap()
            .clone();
        net.apply_ctrl(
            hub,
            &CtrlMsg::FlowMod(FlowMod::add(entry_e)),
            SimTime::from_millis(5500),
        );
        net.sync_all(SimTime::from_millis(5600));
        let bytes = net
            .switch(hub)
            .unwrap()
            .table(horse_types::TableId(0))
            .unwrap()
            .entries()
            .find(|e| e.matcher == FlowMatch::ANY.with_eth_dst(mac))
            .unwrap()
            .counters
            .bytes;
        let want = 100e6 * 0.1 / 8.0;
        assert!(
            (bytes as f64 - want).abs() <= 1.0,
            "E credited {bytes} bytes, 0.1 s of traffic is {want}"
        );
        // The flow itself and its links carry the whole interval.
        assert!((net.flow(id).unwrap().bytes_sent - 100e6 * 5.6 / 8.0).abs() < 1e-3);
    }

    #[test]
    fn incremental_mode_touches_fewer_flows() {
        // Two disjoint host pairs on a star: flows don't share links
        // (except none), so incremental touches only the new flow.
        let (mut net, members) = star_net(4);
        let topo = net.topology().clone();
        let mk = |src: usize, dst: usize, sport: u16| FlowSpec {
            key: FlowKey::tcp(
                MacAddr::local_from_id(src as u32 + 1),
                MacAddr::local_from_id(dst as u32 + 1),
                topo.node(members[src]).unwrap().ip().unwrap(),
                topo.node(members[dst]).unwrap().ip().unwrap(),
                sport,
                80,
            ),
            src: members[src],
            dst: members[dst],
            demand: DemandModel::Greedy,
            size: None,
            fidelity: Default::default(),
        };
        let a = net.reserve_id();
        assert!(matches!(
            net.try_admit(a, mk(0, 1, 1), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        net.reallocate(SimTime::ZERO);
        let touched_before = net.realloc_flows_touched;
        let b = net.reserve_id();
        assert!(matches!(
            net.try_admit(b, mk(2, 3, 2), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        net.reallocate(SimTime::ZERO);
        assert_eq!(
            net.realloc_flows_touched - touched_before,
            1,
            "disjoint flow must not drag the other into the recomputation"
        );
    }

    #[test]
    fn every_component_gets_one_solve() {
        // The pair 4→5 is a component of its own; the other four flows
        // chain through host 0's and host 2's uplinks and the contended
        // sink 6 into a second. Every flow gets a first rate, and
        // `alloc.rounds` sees exactly one observation per component.
        let run = |full: bool| {
            let (mut net, members) = star_net(8);
            let topo = net.topology().clone();
            let mk = |src: usize, dst: usize, sport: u16| FlowSpec {
                key: FlowKey::tcp(
                    MacAddr::local_from_id(src as u32 + 1),
                    MacAddr::local_from_id(dst as u32 + 1),
                    topo.node(members[src]).unwrap().ip().unwrap(),
                    topo.node(members[dst]).unwrap().ip().unwrap(),
                    sport,
                    80,
                ),
                src: members[src],
                dst: members[dst],
                demand: DemandModel::Greedy,
                size: Some(ByteSize::mib(64)),
                fidelity: Default::default(),
            };
            // disjoint pairs 0→1, 2→3, 4→5 and a contended sink 6←{0,2}
            for (src, dst, sport) in [
                (0usize, 1usize, 1u16),
                (2, 3, 2),
                (4, 5, 3),
                (0, 6, 4),
                (2, 6, 5),
            ] {
                let id = net.reserve_id();
                assert!(matches!(
                    net.try_admit(id, mk(src, dst, sport), SimTime::ZERO),
                    AdmitOutcome::Admitted
                ));
            }
            if full {
                net.mark_all_dirty();
            }
            let changes: Vec<(FlowId, u64)> = net
                .reallocate(SimTime::ZERO)
                .iter()
                .map(|c| (c.id, c.rate.as_bps().to_bits()))
                .collect();
            (changes, net.cold_solves, net.rounds.clone())
        };
        for full in [true, false] {
            let (changes, components, rounds) = run(full);
            assert_eq!(
                changes.len(),
                5,
                "every flow gets a first rate (full {full})"
            );
            assert_eq!(components, 2, "two link-sharing components (full {full})");
            assert_eq!(
                rounds.count, 2,
                "one observation per component (full {full})"
            );
        }
    }

    /// Rate bits of every active flow, ascending by id.
    fn rate_bits(net: &FluidNet) -> Vec<(FlowId, u64)> {
        let mut v: Vec<(FlowId, u64)> = net
            .active_flows()
            .map(|f| (f.id, f.rate.as_bps().to_bits()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Runs `events` (admit `src → dst` pairs, or remove the flow admitted
    /// at an earlier step) on a resident plane and on the rebuild oracle,
    /// reallocating after each and asserting bit-identical rates. Returns
    /// the resident plane and the components each run solved.
    fn resident_vs_rebuild(events: &[Result<(usize, usize), usize>]) -> (FluidNet, Vec<u64>) {
        let (mut inc, members) = star_net(8);
        let (mut full, _) = star_net(8);
        let mut ids = Vec::new();
        let mut solved = Vec::new();
        for (step, ev) in events.iter().enumerate() {
            let t = SimTime::from_millis(step as u64);
            match *ev {
                Ok((src, dst)) => {
                    let id = inc.reserve_id();
                    assert_eq!(full.reserve_id(), id);
                    let spec = star_spec(&inc, &members, src, dst);
                    assert!(matches!(
                        inc.try_admit(id, spec.clone(), t),
                        AdmitOutcome::Admitted
                    ));
                    assert!(matches!(
                        full.try_admit(id, spec, t),
                        AdmitOutcome::Admitted
                    ));
                    ids.push(id);
                }
                Err(k) => {
                    assert!(inc.remove_flow(ids[k], t, true).is_some());
                    assert!(full.remove_flow(ids[k], t, true).is_some());
                    ids.push(ids[k]);
                }
            }
            let before = inc.cold_solves;
            inc.reallocate(t);
            solved.push(inc.cold_solves - before);
            full.mark_all_dirty();
            full.reallocate(t);
            assert_eq!(rate_bits(&inc), rate_bits(&full), "step {step}");
        }
        (inc, solved)
    }

    #[test]
    fn departing_bridge_splits_its_component() {
        // 0→1 crosses host 0's uplink A, 2→3 host 3's downlink B, and X
        // (0→3) crosses both, so the three are one component. When X
        // leaves, the next run solves two components, not one.
        let (net, solved) = resident_vs_rebuild(&[Ok((0, 1)), Ok((2, 3)), Ok((0, 3)), Err(2)]);
        assert_eq!(solved, vec![1, 1, 1, 2]);
        assert_eq!((net.merges, net.split_checks, net.splits), (1, 1, 1));
    }

    #[test]
    fn arriving_bridge_merges_two_components() {
        // The same three flows with X arriving last: the pairs are solved
        // apart until X bridges them into one component.
        let (net, solved) = resident_vs_rebuild(&[Ok((0, 1)), Ok((2, 3)), Ok((4, 5)), Ok((0, 3))]);
        assert_eq!(solved, vec![1, 1, 1, 1]);
        assert_eq!(net.cold_solves, 4);
        assert_eq!((net.merges, net.splits), (1, 0));
        // A departure that leaves the rest connected checks, finds no
        // split and solves the one component.
        let (net, solved) =
            resident_vs_rebuild(&[Ok((0, 1)), Ok((0, 3)), Ok((2, 3)), Ok((0, 1)), Err(0)]);
        assert_eq!(solved, vec![1, 1, 1, 1, 1]);
        assert_eq!(
            (net.split_checks, net.splits),
            (0, 0),
            "class 0→1 still has a member"
        );
    }

    #[test]
    fn flow_in_carries_the_missing_switch() {
        let (mut net, hl, hr) = linear_net();
        // install forwarding only on s1 — s2 must raise the FlowIn
        let s1 = net.topology().node_by_name("s1").unwrap();
        let to_s2 = net
            .topology()
            .out_links(s1)
            .find(|(_, l)| {
                net.topology()
                    .node(l.dst)
                    .map(|n| n.kind.is_switch())
                    .unwrap_or(false)
            })
            .map(|(_, l)| l.src_port)
            .unwrap();
        net.apply_ctrl(
            s1,
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                1,
                FlowMatch::ANY,
                vec![Instruction::output(to_s2)],
            ))),
            SimTime::ZERO,
        );
        let id = net.reserve_id();
        match net.try_admit(id, spec(hl, hr, 9), SimTime::ZERO) {
            AdmitOutcome::NeedController {
                msg: SwitchMsg::FlowIn { switch, .. },
                ..
            } => {
                assert_eq!(net.topology().node(switch).unwrap().name, "s2");
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn full_mode_processes_ascending_ids_despite_retry_order() {
        // A controller round trip re-admits a flow with its *originally
        // reserved* id after younger flows were admitted — the arena's
        // admission order is then not ascending-id. A full re-solve
        // (like an incremental one) must still process and report
        // ascending.
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let early = net.reserve_id(); // reserved first, admitted last
        let a = net.reserve_id();
        let b = net.reserve_id();
        assert!(matches!(
            net.try_admit(a, spec(hl, hr, 1001), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        assert!(matches!(
            net.try_admit(b, spec(hl, hr, 1002), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        assert!(matches!(
            net.try_admit(early, spec(hl, hr, 1000), SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
        net.mark_all_dirty();
        let ids: Vec<FlowId> = net.reallocate(SimTime::ZERO).iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![early, a, b], "changes emitted ascending by id");
    }

    #[test]
    fn mark_all_dirty_re_solves_every_active_flow() {
        // Three pairwise-disjoint flows, allocated once: nothing is dirty,
        // so a plain run touches no flow, while the oracle's mark touches
        // all three, one component each.
        let (mut net, members) = star_net(6);
        for src in [0, 2, 4] {
            let id = net.reserve_id();
            let spec = star_spec(&net, &members, src, src + 1);
            assert!(matches!(
                net.try_admit(id, spec, SimTime::ZERO),
                AdmitOutcome::Admitted
            ));
        }
        assert_eq!(net.reallocate(SimTime::ZERO).len(), 3);
        let (touched, solves) = (net.realloc_flows_touched, net.cold_solves);
        assert!(net.reallocate(SimTime::from_secs(1)).is_empty());
        assert_eq!(net.realloc_flows_touched, touched, "no dirty link, no flow");
        net.mark_all_dirty();
        assert!(
            net.reallocate(SimTime::from_secs(2)).is_empty(),
            "re-solving moves no rate"
        );
        assert_eq!(net.realloc_flows_touched - touched, 3, "every active flow");
        assert_eq!(net.cold_solves - solves, 3, "one solve per component");
    }

    #[test]
    fn active_flows_iterate_in_id_order() {
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        let mut admitted = Vec::new();
        for sport in [1000u16, 1001, 1002, 1003] {
            let id = net.reserve_id();
            assert!(matches!(
                net.try_admit(id, spec(hl, hr, sport), SimTime::ZERO),
                AdmitOutcome::Admitted
            ));
            admitted.push(id);
        }
        net.remove_flow(admitted[1], SimTime::ZERO, false);
        let order: Vec<FlowId> = net.active_flows().map(|f| f.id).collect();
        assert_eq!(order, vec![admitted[0], admitted[2], admitted[3]]);
    }

    #[test]
    fn snapshot_restore_round_trip_and_bit_identical_continuation() {
        let build = || {
            let f = builders::linear(2, Rate::gbps(1.0));
            FluidNet::new(f.topology, FluidConfig::default())
        };
        let (mut net, hl, hr) = linear_net();
        install_forwarding(&mut net);
        // Mid-run state: flows at different phases, a removal, a gray
        // failure, hybrid external demand and a pending dirty link.
        let a = net.reserve_id();
        let b = net.reserve_id();
        net.try_admit(a, spec(hl, hr, 1000), SimTime::ZERO);
        net.try_admit(b, spec(hl, hr, 2000), SimTime::ZERO);
        net.reallocate(SimTime::ZERO);
        net.remove_flow(a, SimTime::from_millis(40), true);
        net.reallocate(SimTime::from_millis(40));
        net.set_gray(LinkId(0), 0.5);
        net.set_external_demand(LinkId(1), 2.5e8); // dirty stays pending
        let mut w = SnapWriter::new();
        net.snapshot_state(&mut w);
        let blob = w.into_bytes();

        let mut restored = build();
        install_forwarding(&mut restored);
        let mut r = SnapReader::new(&blob);
        restored.restore_state(&mut r).expect("restore");
        assert!(r.is_exhausted(), "snapshot fully consumed");

        // Round trip: re-serialization is byte-identical.
        let mut w2 = SnapWriter::new();
        restored.snapshot_state(&mut w2);
        assert_eq!(blob, w2.into_bytes(), "canonical snapshot");

        // Table-position hints are not part of the snapshot: the live
        // trail points at s1's default rule (position 1), the restored
        // one comes back reset — and re-encoded to the same bytes above.
        let hints = |n: &FluidNet| -> Vec<u32> {
            n.active_flows()
                .flat_map(|f| &f.route.hops)
                .flat_map(|h| h.matched.iter().map(|m| m.pos))
                .collect()
        };
        assert_eq!(hints(&net), vec![1, 0]);
        assert_eq!(hints(&restored), vec![0, 0]);

        // Continuation: both planes evolve bit-identically, and the
        // first byte sync heals the reset hints.
        let t1 = SimTime::from_millis(60);
        let c1: Vec<RateChange> = net.reallocate(t1).to_vec();
        let c2: Vec<RateChange> = restored.reallocate(t1).to_vec();
        assert_eq!(format!("{c1:?}"), format!("{c2:?}"));
        assert_eq!(hints(&restored), vec![1, 0]);
        net.remove_flow(b, SimTime::from_millis(80), true);
        restored.remove_flow(b, SimTime::from_millis(80), true);
        net.sync_all(SimTime::from_millis(90));
        restored.sync_all(SimTime::from_millis(90));
        assert_eq!(
            net.total_bytes_delivered().to_bits(),
            restored.total_bytes_delivered().to_bits()
        );
        let mut wa = SnapWriter::new();
        let mut wb = SnapWriter::new();
        net.snapshot_state(&mut wa);
        restored.snapshot_state(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes(), "states stay identical");
    }

    #[test]
    fn out_of_range_dirty_link_is_refused() {
        // The pending dirty list is replayed through `mark_dirty` on
        // restore; an id past the link table must be refused there, not
        // used as an index.
        let (mut net, _, _) = linear_net();
        net.reallocate(SimTime::ZERO);
        let snap = |n: &FluidNet| {
            let mut w = SnapWriter::new();
            n.snapshot_state(&mut w);
            w.into_bytes()
        };
        let clean = snap(&net);
        net.set_external_demand(LinkId(1), 1e6);
        let mut bad = snap(&net);
        // Everything before the dirty list is unchanged, so the first
        // differing byte is its length prefix; the id follows it.
        let at = (0..clean.len())
            .find(|&i| clean[i] != bad[i])
            .expect("the dirty list grew");
        assert_eq!(bad[at..at + 12], [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]);
        bad[at + 8..at + 12].copy_from_slice(&9999u32.to_le_bytes());
        let (mut fresh, _, _) = linear_net();
        let err = fresh
            .restore_state(&mut SnapReader::new(&bad))
            .expect_err("link 9999 of 6 must be refused");
        assert!(err.to_string().contains("dirty link"), "{err}");
    }
}
