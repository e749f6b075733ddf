//! The switch pipeline.
//!
//! [`OpenFlowSwitch`] glues tables, groups, meters and counters into the
//! classification engine both data planes share:
//!
//! * the **fluid plane** classifies a flow once per routing decision
//!   ([`OpenFlowSwitch::process`]) and later credits byte counts,
//! * the **packet plane** classifies every packet the same way.
//!
//! The default miss behaviour is *send to controller*, which is what gives
//! the paper its flow-setup dynamic (reactive controllers see a `FlowIn`
//! per new flow); switches can be flipped to drop-on-miss for proactive
//! deployments.

use crate::actions::{Action, Instruction};
use crate::counters::PortCounters;
use crate::group::GroupEntry;
use crate::messages::{
    CtrlMsg, FlowModCommand, FlowStatsEntry, GroupMod, PortStatsEntry, StatsReply, StatsRequest,
    SwitchMsg, TableStatsEntry,
};
use crate::meter::MeterEntry;
use crate::table::{FlowTable, MatchedEntry, RemovalReason};
use horse_types::id::{GroupId, MeterId};
use horse_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use horse_types::{ByteSize, FlowKey, NodeId, PortNo, SimTime, TableId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why the pipeline dropped a flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
pub enum DropReason {
    /// Explicit drop action (blackholing, ACLs).
    Policy,
    /// Table miss with drop-on-miss configured.
    TableMiss,
    /// A group resolved to no live bucket.
    DeadGroup,
    /// Output port is down.
    PortDown,
    /// Pipeline exceeded the table-jump budget (mis-configured gotos).
    PipelineLoop,
}

/// Final verdict of a pipeline traversal.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Snap)]
pub enum Verdict {
    /// Forward out of these ports (usually one; several for flood/All).
    Forward(Vec<PortNo>),
    /// Punt to the controller (table miss or explicit).
    ToController,
    /// Drop.
    Drop(DropReason),
}

/// Everything a traversal produced: the verdict plus the attribution trail
/// (which entries matched, which meters apply, header rewrites).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Snap)]
pub struct PipelineResult {
    /// The forwarding decision.
    pub verdict: Verdict,
    /// Each entry traversed, for later counter crediting.
    pub matched: Vec<MatchedEntry>,
    /// Meters the flow passes through, in order.
    pub meters: Vec<MeterId>,
    /// The (possibly rewritten) flow key leaving the switch.
    pub key_out: FlowKey,
}

/// How a table miss is handled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Snap)]
pub enum MissBehavior {
    /// Send a `FlowIn` to the controller (reactive mode, the default).
    ToController,
    /// Drop silently (proactive mode).
    Drop,
}

/// An abstracted OpenFlow switch.
pub struct OpenFlowSwitch {
    /// The node this switch instantiates.
    pub id: NodeId,
    tables: Vec<FlowTable>,
    groups: BTreeMap<GroupId, GroupEntry>,
    meters: BTreeMap<MeterId, MeterEntry>,
    /// Liveness per port number (ports are small dense 1-based integers,
    /// so slot 0 is wasted); a port past the end reads as down.
    port_state: Vec<bool>,
    /// One slot per port number (ports are small 1-based integers, so
    /// slot 0 is wasted); `None` = a port never configured nor credited.
    port_counters: Vec<Option<PortCounters>>,
    /// Miss policy.
    pub miss_behavior: MissBehavior,
    /// Maximum table jumps per traversal (guards against goto loops).
    pub max_table_jumps: usize,
    /// Forwarding-state generation: bumped on every mutation that can
    /// change a [`classify`] outcome (flow/group/meter mods, port state,
    /// crash, expiry). Cached pipeline decisions stamped with an older
    /// generation are stale and must re-walk the tables.
    ///
    /// [`classify`]: OpenFlowSwitch::classify
    gen: u64,
}

/// Sets `port`'s liveness in a dense per-port table, growing it.
fn set_port_up(state: &mut Vec<bool>, port: PortNo, up: bool) {
    let i = port.0 as usize;
    if i >= state.len() {
        state.resize(i + 1, false);
    }
    state[i] = up;
}

/// Is `port` up in a dense per-port liveness table? Ports past the end
/// are down.
fn port_up(state: &[bool], port: PortNo) -> bool {
    state.get(port.0 as usize).copied().unwrap_or(false)
}

/// The counters of `port` in a dense per-port table, created (growing the
/// table) on first use.
fn port_slot(slots: &mut Vec<Option<PortCounters>>, port: PortNo) -> &mut PortCounters {
    let i = port.0 as usize;
    if i >= slots.len() {
        slots.resize(i + 1, None);
    }
    slots[i].get_or_insert_with(PortCounters::default)
}

impl OpenFlowSwitch {
    /// A switch with `num_tables` empty tables and reactive miss behaviour.
    pub fn new(id: NodeId, num_tables: usize, ports: &[PortNo]) -> Self {
        let mut port_counters = Vec::new();
        let mut port_state = Vec::new();
        for &p in ports {
            port_slot(&mut port_counters, p);
            set_port_up(&mut port_state, p, true);
        }
        OpenFlowSwitch {
            id,
            tables: (0..num_tables.max(1)).map(|_| FlowTable::new()).collect(),
            groups: BTreeMap::new(),
            meters: BTreeMap::new(),
            port_state,
            port_counters,
            miss_behavior: MissBehavior::ToController,
            max_table_jumps: 8,
            gen: 0,
        }
    }

    /// The current forwarding-state generation. A [`PipelineResult`]
    /// cached at generation `g` is valid exactly while
    /// `self.generation() == g`.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Number of tables in the pipeline.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Read access to a table.
    pub fn table(&self, t: TableId) -> Option<&FlowTable> {
        self.tables.get(t.0 as usize)
    }

    /// Read access to a group.
    pub fn group(&self, g: GroupId) -> Option<&GroupEntry> {
        self.groups.get(&g)
    }

    /// Mutable access to a meter (packet plane consumes tokens).
    pub fn meter_mut(&mut self, m: MeterId) -> Option<&mut MeterEntry> {
        self.meters.get_mut(&m)
    }

    /// Read access to a meter.
    pub fn meter(&self, m: MeterId) -> Option<&MeterEntry> {
        self.meters.get(&m)
    }

    /// Is `port` up? Unknown ports count as down.
    pub fn port_up(&self, port: PortNo) -> bool {
        port_up(&self.port_state, port)
    }

    /// Flips a port's state; returns the `PortStatus` notification.
    pub fn set_port_state(&mut self, port: PortNo, up: bool) -> SwitchMsg {
        set_port_up(&mut self.port_state, port, up);
        self.gen = self.gen.wrapping_add(1);
        SwitchMsg::PortStatus {
            switch: self.id,
            port,
            up,
        }
    }

    /// Crashes the switch: every flow table is replaced by a fresh empty
    /// one, groups and meters are cleared, and every port goes down —
    /// volatile state is lost exactly as on a real power cycle. Counters
    /// are *not* cleared (they model the observer's accounting, not the
    /// switch's memory). The crashed switch emits nothing; its neighbors
    /// report the failure.
    pub fn crash(&mut self) {
        for t in &mut self.tables {
            *t = FlowTable::new();
        }
        self.groups.clear();
        self.meters.clear();
        self.port_state.fill(false);
        self.gen = self.gen.wrapping_add(1);
    }

    /// Port counters (credited by the fluid plane's byte sync via
    /// [`credit_port_bytes`]; port-stats replies serve them).
    ///
    /// [`credit_port_bytes`]: OpenFlowSwitch::credit_port_bytes
    pub fn port_counters_mut(&mut self, port: PortNo) -> &mut PortCounters {
        port_slot(&mut self.port_counters, port)
    }

    /// Ports that have counters, ascending.
    fn counted_ports(&self) -> impl Iterator<Item = (PortNo, &PortCounters)> {
        self.port_counters
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((PortNo(i as u16), c.as_ref()?)))
    }

    /// Credits one switch traversal's worth of integrated bytes to the
    /// port counters: received on `in_port`, transmitted on `out_port`
    /// (packet counts derived from `avg_packet`, like
    /// [`credit_bytes`]). This is what makes port-stats polling — the
    /// adaptive load balancer's feedback signal — observe fluid traffic.
    ///
    /// [`credit_bytes`]: OpenFlowSwitch::credit_bytes
    pub fn credit_port_bytes(
        &mut self,
        in_port: PortNo,
        out_port: PortNo,
        bytes: ByteSize,
        avg_packet: ByteSize,
    ) {
        let pkts = if avg_packet.as_bytes() == 0 {
            0
        } else {
            bytes.as_bytes() / avg_packet.as_bytes()
        };
        self.port_counters_mut(in_port)
            .credit_rx(pkts, bytes.as_bytes());
        self.port_counters_mut(out_port)
            .credit_tx(pkts, bytes.as_bytes());
    }

    /// Traverses the pipeline for a flow arriving on `in_port` with header
    /// `key` and credits classification counters (one "packet" per event).
    /// Byte crediting happens later via [`credit_bytes`].
    ///
    /// [`credit_bytes`]: OpenFlowSwitch::credit_bytes
    pub fn process(&mut self, in_port: PortNo, key: &FlowKey, now: SimTime) -> PipelineResult {
        let mut result = self.classify(in_port, key);
        self.commit_matched(&mut result.matched, now);
        result
    }

    /// Counter-side-effect-free pipeline traversal. The fluid plane uses
    /// this to *explore* candidate paths (flood/DFS) and only commits the
    /// classification of the hops on the path it actually takes.
    pub fn classify(&self, in_port: PortNo, key: &FlowKey) -> PipelineResult {
        let mut result = PipelineResult {
            verdict: Verdict::Drop(DropReason::TableMiss),
            matched: Vec::new(),
            meters: Vec::new(),
            key_out: *key,
        };
        let mut table_idx = 0usize;
        let mut jumps = 0usize;
        let mut out_ports: Vec<PortNo> = Vec::new();
        let mut to_controller = false;
        let mut dropped: Option<DropReason> = None;
        let mut cur_key = *key;

        loop {
            if jumps > self.max_table_jumps {
                result.verdict = Verdict::Drop(DropReason::PipelineLoop);
                return result;
            }
            let Some(table) = self.tables.get(table_idx) else {
                break;
            };
            let Some((pos, entry)) = table.peek(in_port, &cur_key) else {
                // Table miss in table 0 triggers the miss behaviour; a miss
                // in a later table just ends the pipeline (OpenFlow
                // semantics: no goto target matched, actions so far apply).
                if table_idx == 0 && result.matched.is_empty() {
                    result.verdict = match self.miss_behavior {
                        MissBehavior::ToController => Verdict::ToController,
                        MissBehavior::Drop => Verdict::Drop(DropReason::TableMiss),
                    };
                    return result;
                }
                break;
            };
            result.matched.push(MatchedEntry {
                table: TableId(table_idx as u8),
                priority: entry.priority,
                matcher: entry.matcher,
                cookie: entry.cookie,
                pos: pos as u32,
            });
            let instructions = &entry.instructions;
            let mut next_table: Option<usize> = None;
            for ins in instructions {
                match ins {
                    Instruction::Meter(m) => result.meters.push(*m),
                    Instruction::GotoTable(t) => next_table = Some(t.0 as usize),
                    Instruction::ApplyActions(actions) => {
                        for a in actions {
                            match a {
                                Action::Output(p) => {
                                    if *p == PortNo::CONTROLLER {
                                        to_controller = true;
                                    } else if *p == PortNo::FLOOD {
                                        let live = self.port_state.iter().enumerate();
                                        out_ports.extend(
                                            live.filter(|&(_, &up)| up)
                                                .map(|(p2, _)| PortNo(p2 as u16))
                                                .filter(|&p2| p2 != in_port),
                                        );
                                    } else {
                                        out_ports.push(*p);
                                    }
                                }
                                Action::Group(g) => {
                                    if let Some(ge) = self.groups.get(g) {
                                        let port_state = &self.port_state;
                                        // Per-switch hash seed: keeps
                                        // consecutive ECMP tiers from
                                        // polarizing onto correlated buckets.
                                        let chosen = ge.resolve(&cur_key, self.id.0 as u64, |p| {
                                            port_up(port_state, p)
                                        });
                                        if chosen.is_empty() {
                                            dropped = Some(DropReason::DeadGroup);
                                        }
                                        for bi in chosen {
                                            for ba in &ge.buckets[bi].actions {
                                                match ba {
                                                    Action::Output(p) => out_ports.push(*p),
                                                    Action::SetEthDst(m) => cur_key.eth_dst = *m,
                                                    Action::SetEthSrc(m) => cur_key.eth_src = *m,
                                                    Action::SetVlan(v) => cur_key.vlan = Some(*v),
                                                    Action::StripVlan => cur_key.vlan = None,
                                                    Action::Drop => {
                                                        dropped = Some(DropReason::Policy)
                                                    }
                                                    Action::Group(_) => { /* nested groups unsupported */
                                                    }
                                                }
                                            }
                                        }
                                    } else {
                                        dropped = Some(DropReason::DeadGroup);
                                    }
                                }
                                Action::SetEthDst(m) => cur_key.eth_dst = *m,
                                Action::SetEthSrc(m) => cur_key.eth_src = *m,
                                Action::SetVlan(v) => cur_key.vlan = Some(*v),
                                Action::StripVlan => cur_key.vlan = None,
                                Action::Drop => dropped = Some(DropReason::Policy),
                            }
                        }
                    }
                }
            }
            match next_table {
                Some(t) if t > table_idx => {
                    table_idx = t;
                    jumps += 1;
                }
                Some(_) => {
                    // goto must move forward; treat as loop guard
                    result.verdict = Verdict::Drop(DropReason::PipelineLoop);
                    return result;
                }
                None => break,
            }
        }

        result.key_out = cur_key;
        result.verdict = if let Some(r) = dropped {
            Verdict::Drop(r)
        } else if !out_ports.is_empty() {
            // de-dup (first occurrence wins), keep live ports only
            let mut kept = 0;
            for i in 0..out_ports.len() {
                let p = out_ports[i];
                if !out_ports[..kept].contains(&p) && self.port_up(p) {
                    out_ports[kept] = p;
                    kept += 1;
                }
            }
            out_ports.truncate(kept);
            if out_ports.is_empty() {
                Verdict::Drop(DropReason::PortDown)
            } else {
                Verdict::Forward(out_ports)
            }
        } else if to_controller {
            Verdict::ToController
        } else if result.matched.is_empty() {
            match self.miss_behavior {
                MissBehavior::ToController => Verdict::ToController,
                MissBehavior::Drop => Verdict::Drop(DropReason::TableMiss),
            }
        } else {
            // matched something that produced no output: explicit no-op ≈ drop
            Verdict::Drop(DropReason::Policy)
        };
        if to_controller && !matches!(result.verdict, Verdict::Forward(_)) {
            result.verdict = Verdict::ToController;
        }
        result
    }

    /// Credits the counters a [`classify`] traversal would have updated:
    /// one lookup+match per traversed table, one packet per matched entry,
    /// and a fresh `last_used` stamp (idle-timeout refresh). A miss (empty
    /// trail) credits a lookup on table 0 only. Takes the trail by borrow
    /// — the fluid engine's admission path commits from stored route hops
    /// without rebuilding a [`PipelineResult`] — and mutably, because
    /// crediting may heal the trail's position hints.
    ///
    /// [`classify`]: OpenFlowSwitch::classify
    pub fn commit_matched(&mut self, matched: &mut [MatchedEntry], now: SimTime) {
        self.commit_matched_n(matched, 1, now);
    }

    /// Like [`commit_matched`], but credits `n` classification events at
    /// once — the packet plane's burst path commits the whole burst with
    /// one call so table lookup/match counters and idle-timeout stamps
    /// stay identical to `n` per-packet walks.
    ///
    /// [`commit_matched`]: OpenFlowSwitch::commit_matched
    pub fn commit_matched_n(&mut self, matched: &mut [MatchedEntry], n: u64, now: SimTime) {
        if n == 0 {
            return;
        }
        if matched.is_empty() {
            if let Some(t0) = self.tables.get_mut(0) {
                t0.counters.lookups += n;
            }
            return;
        }
        for m in matched {
            if let Some(table) = self.tables.get_mut(m.table.0 as usize) {
                table.counters.lookups += n;
                table.counters.matches += n;
                table.credit(m, n, ByteSize::ZERO, now, now);
            }
        }
    }

    /// Credits bytes (and derived packets) moved at a constant rate over
    /// `[from, now]` to previously matched entries — how the fluid plane
    /// keeps OpenFlow counters consistent with integrated flow volumes.
    /// An entry installed inside the interval gets only its share of it;
    /// traffic that moved at one instant passes `from = now`. No table
    /// search while the trail's position hints are current (see
    /// [`FlowTable::credit`]).
    ///
    /// The fluid plane credits lazily (when a flow's rate changes, when
    /// it leaves, or when every flow is synced for a reader), so the
    /// `FlowRemoved` counters of an entry *deleted* by a `FlowMod` cover
    /// only the bytes synced before the delete.
    pub fn credit_bytes(
        &mut self,
        matched: &mut [MatchedEntry],
        bytes: ByteSize,
        avg_packet: ByteSize,
        from: SimTime,
        now: SimTime,
    ) {
        let pkts = if avg_packet.as_bytes() == 0 {
            0
        } else {
            bytes.as_bytes() / avg_packet.as_bytes()
        };
        for m in matched {
            if let Some(table) = self.tables.get_mut(m.table.0 as usize) {
                table.credit(m, pkts, bytes, from, now);
            }
        }
    }

    /// Applies a controller message, returning any immediate replies
    /// (stats, barrier, flow-removed notifications from deletes). A copy
    /// of the message is applied; callers that own it use
    /// [`apply_owned`].
    ///
    /// [`apply_owned`]: OpenFlowSwitch::apply_owned
    pub fn apply(&mut self, msg: &CtrlMsg, now: SimTime) -> Vec<SwitchMsg> {
        self.apply_owned(msg.clone(), now)
    }

    /// [`apply`] for a message the caller owns: installed entries and
    /// groups move into the tables instead of being copied.
    ///
    /// [`apply`]: OpenFlowSwitch::apply
    pub fn apply_owned(&mut self, msg: CtrlMsg, now: SimTime) -> Vec<SwitchMsg> {
        // Any table/group/meter mutation can change future classifications;
        // stamp a new generation before applying (stats/barrier are
        // read-only and leave cached decisions valid).
        if matches!(
            msg,
            CtrlMsg::FlowMod(_) | CtrlMsg::GroupMod(_) | CtrlMsg::MeterMod(_)
        ) {
            self.gen = self.gen.wrapping_add(1);
        }
        match msg {
            CtrlMsg::FlowMod(fm) => {
                let t = fm.table.0 as usize;
                if t >= self.tables.len() {
                    return vec![];
                }
                match fm.command {
                    FlowModCommand::Add => {
                        self.tables[t].insert(fm.entry, now);
                        vec![]
                    }
                    FlowModCommand::Delete { strict } => {
                        let removed = self.tables[t].delete(
                            &fm.entry.matcher,
                            Some(fm.entry.priority),
                            strict,
                        );
                        removed
                            .into_iter()
                            .filter(|e| e.notify_removal)
                            .map(|e| SwitchMsg::FlowRemoved {
                                switch: self.id,
                                table: fm.table,
                                priority: e.priority,
                                matcher: e.matcher,
                                cookie: e.cookie,
                                reason: RemovalReason::Delete,
                                packets: e.counters.packets,
                                bytes: e.counters.bytes,
                            })
                            .collect()
                    }
                }
            }
            CtrlMsg::GroupMod(gm) => {
                match gm {
                    GroupMod::Add(g) => {
                        self.groups.insert(g.id, g);
                    }
                    GroupMod::Delete(id) => {
                        self.groups.remove(&id);
                    }
                }
                vec![]
            }
            CtrlMsg::MeterMod(mm) => {
                match mm {
                    crate::messages::MeterMod::Add { id, .. } => {
                        if let Some(e) = mm.to_entry() {
                            self.meters.insert(id, e);
                        }
                    }
                    crate::messages::MeterMod::Delete(id) => {
                        self.meters.remove(&id);
                    }
                }
                vec![]
            }
            CtrlMsg::StatsRequest(req) => vec![SwitchMsg::StatsReply {
                switch: self.id,
                reply: self.stats(req),
            }],
            CtrlMsg::Barrier => vec![SwitchMsg::BarrierReply { switch: self.id }],
        }
    }

    /// Builds a statistics reply.
    pub fn stats(&self, req: StatsRequest) -> StatsReply {
        match req {
            StatsRequest::Flow(t) => {
                let rows = self
                    .tables
                    .get(t.0 as usize)
                    .map(|table| {
                        table
                            .entries()
                            .map(|e| FlowStatsEntry {
                                table: t,
                                priority: e.priority,
                                matcher: e.matcher,
                                cookie: e.cookie,
                                packets: e.counters.packets,
                                bytes: e.counters.bytes,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                StatsReply::Flow(rows)
            }
            StatsRequest::Port(which) => {
                let rows = self
                    .counted_ports()
                    .filter(|(p, _)| which.map(|w| w == *p).unwrap_or(true))
                    .map(|(port, c)| PortStatsEntry {
                        port,
                        rx_packets: c.rx_packets,
                        tx_packets: c.tx_packets,
                        rx_bytes: c.rx_bytes,
                        tx_bytes: c.tx_bytes,
                        drops: c.drops,
                    })
                    .collect();
                StatsReply::Port(rows)
            }
            StatsRequest::Table => StatsReply::Table(
                self.tables
                    .iter()
                    .enumerate()
                    .map(|(i, t)| TableStatsEntry {
                        table: TableId(i as u8),
                        active_entries: t.len() as u64,
                        lookups: t.counters.lookups,
                        matches: t.counters.matches,
                    })
                    .collect(),
            ),
        }
    }

    /// Expires timed-out entries across all tables, emitting FlowRemoved
    /// notifications where requested.
    pub fn expire(&mut self, now: SimTime) -> Vec<SwitchMsg> {
        let mut out = Vec::new();
        let mut removed_any = false;
        for (i, table) in self.tables.iter_mut().enumerate() {
            for (e, reason) in table.expire(now) {
                removed_any = true;
                if e.notify_removal {
                    out.push(SwitchMsg::FlowRemoved {
                        switch: self.id,
                        table: TableId(i as u8),
                        priority: e.priority,
                        matcher: e.matcher,
                        cookie: e.cookie,
                        reason,
                        packets: e.counters.packets,
                        bytes: e.counters.bytes,
                    });
                }
            }
        }
        if removed_any {
            self.gen = self.gen.wrapping_add(1);
        }
        out
    }

    /// Serializes every piece of mutable switch state — tables (entries
    /// and counters), groups, meters (including token levels), port
    /// up/down state, port counters, miss behavior and the jump budget —
    /// in canonical order (groups/meters via their `BTreeMap`s, port state
    /// and counters by port number). The identity (`id`) is not included: it is re-derived
    /// from the topology on restore and used as a cross-check.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        self.tables.snap(w);
        self.groups.snap(w);
        self.meters.snap(w);
        self.port_state.snap(w);
        w.len_prefix(self.counted_ports().count());
        for (p, c) in self.counted_ports() {
            p.snap(w);
            c.snap(w);
        }
        self.miss_behavior.snap(w);
        self.max_table_jumps.snap(w);
        self.gen.snap(w);
    }

    /// Restores state captured by [`OpenFlowSwitch::snapshot_state`],
    /// replacing this switch's tables, groups, meters and port state
    /// wholesale.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let tables = Snap::unsnap(r)?;
        let groups = Snap::unsnap(r)?;
        let meters = Snap::unsnap(r)?;
        let port_state = Snap::unsnap(r)?;
        let mut port_counters = Vec::new();
        for (p, c) in Vec::<(PortNo, PortCounters)>::unsnap(r)? {
            *port_slot(&mut port_counters, p) = c;
        }
        let miss_behavior = Snap::unsnap(r)?;
        let max_table_jumps = Snap::unsnap(r)?;
        let gen = Snap::unsnap(r)?;
        self.tables = tables;
        self.groups = groups;
        self.meters = meters;
        self.port_state = port_state;
        self.port_counters = port_counters;
        self.miss_behavior = miss_behavior;
        self.max_table_jumps = max_table_jumps;
        self.gen = gen;
        Ok(())
    }

    /// The table-miss `FlowIn` message for a missed flow.
    pub fn flow_in(&self, in_port: PortNo, key: &FlowKey) -> SwitchMsg {
        SwitchMsg::FlowIn {
            switch: self.id,
            in_port,
            key: *key,
        }
    }
}

/// The OpenFlow switches of one topology, in a dense table indexed by
/// [`NodeId::index`] (hosts leave their slot empty): a switch lookup on
/// the per-packet path is an array index, and iteration runs in
/// ascending node id.
#[derive(Default)]
pub struct Switches {
    slots: Vec<Option<OpenFlowSwitch>>,
}

impl Switches {
    /// The switch instantiating `id`, if any.
    pub fn get(&self, id: NodeId) -> Option<&OpenFlowSwitch> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Mutable access to the switch instantiating `id`, if any.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut OpenFlowSwitch> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Every switch, ascending by node id.
    pub fn iter(&self) -> impl Iterator<Item = &OpenFlowSwitch> {
        self.slots.iter().flatten()
    }
}

impl FromIterator<OpenFlowSwitch> for Switches {
    /// Places each switch at its own id's slot (a later switch with the
    /// same id replaces an earlier one).
    fn from_iter<I: IntoIterator<Item = OpenFlowSwitch>>(switches: I) -> Self {
        let mut slots: Vec<Option<OpenFlowSwitch>> = Vec::new();
        for sw in switches {
            let i = sw.id.index();
            if i >= slots.len() {
                slots.resize_with(i + 1, || None);
            }
            slots[i] = Some(sw);
        }
        Switches { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_match::FlowMatch;
    use crate::group::{Bucket, GroupType};
    use crate::messages::{FlowMod, MeterMod};
    use crate::table::FlowEntry;
    use horse_types::{MacAddr, Rate};
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            80,
        )
    }

    fn switch(tables: usize) -> OpenFlowSwitch {
        OpenFlowSwitch::new(NodeId(1), tables, &[PortNo(1), PortNo(2), PortNo(3)])
    }

    #[test]
    fn miss_goes_to_controller_by_default() {
        let mut sw = switch(1);
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::ToController);
        assert!(r.matched.is_empty());
    }

    #[test]
    fn miss_drops_in_proactive_mode() {
        let mut sw = switch(1);
        sw.miss_behavior = MissBehavior::Drop;
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Drop(DropReason::TableMiss));
    }

    #[test]
    fn simple_forward() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::output(PortNo(2))],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Forward(vec![PortNo(2)]));
        assert_eq!(r.matched.len(), 1);
    }

    #[test]
    fn drop_action_wins() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::drop()],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Drop(DropReason::Policy));
    }

    #[test]
    fn forward_to_down_port_drops() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::output(PortNo(2))],
            ))),
            SimTime::ZERO,
        );
        sw.set_port_state(PortNo(2), false);
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Drop(DropReason::PortDown));
    }

    #[test]
    fn flood_excludes_ingress() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::output(PortNo::FLOOD)],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Forward(vec![PortNo(2), PortNo(3)]));
    }

    #[test]
    fn multi_table_goto_and_meter() {
        let mut sw = switch(2);
        sw.apply(
            &CtrlMsg::MeterMod(MeterMod::Add {
                id: MeterId(7),
                rate: Rate::mbps(500.0),
                burst: ByteSize::kib(64),
            }),
            SimTime::ZERO,
        );
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add,
                entry: FlowEntry::new(
                    10,
                    FlowMatch::ANY,
                    vec![
                        Instruction::Meter(MeterId(7)),
                        Instruction::GotoTable(TableId(1)),
                    ],
                ),
            }),
            SimTime::ZERO,
        );
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod {
                table: TableId(1),
                command: FlowModCommand::Add,
                entry: FlowEntry::new(5, FlowMatch::ANY, vec![Instruction::output(PortNo(3))]),
            }),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Forward(vec![PortNo(3)]));
        assert_eq!(r.meters, vec![MeterId(7)]);
        assert_eq!(r.matched.len(), 2);
    }

    #[test]
    fn backward_goto_is_a_loop() {
        let mut sw = switch(2);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod {
                table: TableId(1),
                command: FlowModCommand::Add,
                entry: FlowEntry::new(5, FlowMatch::ANY, vec![Instruction::GotoTable(TableId(1))]),
            }),
            SimTime::ZERO,
        );
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add,
                entry: FlowEntry::new(5, FlowMatch::ANY, vec![Instruction::GotoTable(TableId(1))]),
            }),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Drop(DropReason::PipelineLoop));
    }

    #[test]
    fn group_select_forwards_one_port() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::GroupMod(GroupMod::Add(GroupEntry::ecmp(
                GroupId(1),
                &[PortNo(2), PortNo(3)],
            ))),
            SimTime::ZERO,
        );
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::group(GroupId(1))],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        match r.verdict {
            Verdict::Forward(ports) => {
                assert_eq!(ports.len(), 1);
                assert!(ports[0] == PortNo(2) || ports[0] == PortNo(3));
            }
            v => panic!("expected forward, got {v:?}"),
        }
    }

    #[test]
    fn group_failover_reroutes_when_port_dies() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::GroupMod(GroupMod::Add(GroupEntry {
                id: GroupId(2),
                group_type: GroupType::FastFailover,
                buckets: vec![Bucket::output(PortNo(2)), Bucket::output(PortNo(3))],
            })),
            SimTime::ZERO,
        );
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::group(GroupId(2))],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Forward(vec![PortNo(2)]));
        sw.set_port_state(PortNo(2), false);
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Forward(vec![PortNo(3)]));
    }

    #[test]
    fn missing_group_drops() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::group(GroupId(99))],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.verdict, Verdict::Drop(DropReason::DeadGroup));
    }

    #[test]
    fn rewrite_actions_update_key_out() {
        let mut sw = switch(1);
        let new_dst = MacAddr::local_from_id(42);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::ApplyActions(
                    vec![
                        Action::SetEthDst(new_dst),
                        Action::SetVlan(100),
                        Action::Output(PortNo(2)),
                    ]
                    .into(),
                )],
            ))),
            SimTime::ZERO,
        );
        let r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        assert_eq!(r.key_out.eth_dst, new_dst);
        assert_eq!(r.key_out.vlan, Some(100));
        assert_eq!(r.verdict, Verdict::Forward(vec![PortNo(2)]));
    }

    #[test]
    fn credit_bytes_reaches_matched_entries() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::output(PortNo(2))],
            ))),
            SimTime::ZERO,
        );
        let mut r = sw.process(PortNo(1), &key(), SimTime::ZERO);
        sw.credit_bytes(
            &mut r.matched,
            ByteSize::bytes(15000),
            ByteSize::bytes(1500),
            SimTime::from_secs(1),
            SimTime::from_secs(1),
        );
        if let StatsReply::Flow(rows) = sw.stats(StatsRequest::Flow(TableId(0))) {
            assert_eq!(rows[0].bytes, 15000);
            assert_eq!(rows[0].packets, 1 + 10); // 1 classify event + 10 derived
        } else {
            panic!("expected flow stats");
        }
    }

    #[test]
    fn stats_and_barrier_replies() {
        let mut sw = switch(1);
        let replies = sw.apply(&CtrlMsg::Barrier, SimTime::ZERO);
        assert!(matches!(replies[0], SwitchMsg::BarrierReply { .. }));
        let replies = sw.apply(&CtrlMsg::StatsRequest(StatsRequest::Table), SimTime::ZERO);
        assert!(matches!(
            replies[0],
            SwitchMsg::StatsReply {
                reply: StatsReply::Table(_),
                ..
            }
        ));
    }

    #[test]
    fn delete_with_notification() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(
                FlowEntry::new(10, FlowMatch::ANY, vec![Instruction::output(PortNo(2))])
                    .with_removal_notification()
                    .with_cookie(77),
            )),
            SimTime::ZERO,
        );
        let mut del = FlowMod::delete(FlowMatch::ANY);
        del.entry.priority = 10;
        let replies = sw.apply(&CtrlMsg::FlowMod(del), SimTime::from_secs(1));
        assert_eq!(replies.len(), 1);
        match &replies[0] {
            SwitchMsg::FlowRemoved { cookie, reason, .. } => {
                assert_eq!(*cookie, 77);
                assert_eq!(*reason, RemovalReason::Delete);
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn expiry_emits_notifications() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(
                FlowEntry::new(10, FlowMatch::ANY, vec![Instruction::output(PortNo(2))])
                    .with_hard_timeout(horse_types::SimDuration::from_secs(5))
                    .with_removal_notification(),
            )),
            SimTime::ZERO,
        );
        assert!(sw.expire(SimTime::from_secs(4)).is_empty());
        let msgs = sw.expire(SimTime::from_secs(5));
        assert_eq!(msgs.len(), 1);
    }

    #[test]
    fn snapshot_restore_round_trip_is_canonical_and_behavioral() {
        // Build a switch with every kind of mutable state: entries with
        // timeouts and credited counters, a meter with consumed tokens, a
        // select group, a downed port, and port counters.
        let mut sw = switch(2);
        sw.apply(
            &CtrlMsg::MeterMod(MeterMod::Add {
                id: MeterId(7),
                rate: Rate::mbps(500.0),
                burst: ByteSize::kib(64),
            }),
            SimTime::ZERO,
        );
        sw.meter_mut(MeterId(7))
            .unwrap()
            .try_consume(9_000, SimTime::from_millis(3));
        sw.apply(
            &CtrlMsg::GroupMod(GroupMod::Add(GroupEntry::ecmp(
                GroupId(1),
                &[PortNo(2), PortNo(3)],
            ))),
            SimTime::ZERO,
        );
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(
                FlowEntry::new(10, FlowMatch::ANY, vec![Instruction::group(GroupId(1))])
                    .with_idle_timeout(horse_types::SimDuration::from_secs(30))
                    .with_cookie(0xfeed),
            )),
            SimTime::from_millis(1),
        );
        // A higher-priority rule the traffic does not match, so the in-use
        // entry sits at position 1 and a reset hint (0) is really stale.
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                20,
                FlowMatch::ANY.with_tp_dst(443),
                vec![Instruction::drop()],
            ))),
            SimTime::from_millis(1),
        );
        let mut r = sw.process(PortNo(1), &key(), SimTime::from_millis(2));
        assert_eq!(r.matched[0].pos, 1);
        sw.credit_bytes(
            &mut r.matched,
            ByteSize::bytes(12_345),
            ByteSize::bytes(1000),
            SimTime::from_millis(2),
            SimTime::from_millis(2),
        );
        sw.set_port_state(PortNo(3), false);
        sw.credit_port_bytes(
            PortNo(1),
            PortNo(2),
            ByteSize::bytes(4500),
            ByteSize::bytes(1500),
        );
        sw.miss_behavior = MissBehavior::Drop;

        let mut w = horse_types::SnapWriter::new();
        sw.snapshot_state(&mut w);
        let bytes = w.into_bytes();

        // Restore into a bare switch (different table count, default
        // everything) and verify re-serialization is byte-identical.
        let mut restored = OpenFlowSwitch::new(NodeId(1), 1, &[]);
        let mut rd = horse_types::SnapReader::new(&bytes);
        restored.restore_state(&mut rd).unwrap();
        assert!(rd.is_exhausted());
        let mut w2 = horse_types::SnapWriter::new();
        restored.snapshot_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "round-trip byte-identical");

        // Behavioral equivalence: classification, stats, expiry.
        assert_eq!(restored.table_count(), 2);
        assert_eq!(restored.miss_behavior, MissBehavior::Drop);
        assert!(!restored.port_up(PortNo(3)));
        let (a, b) = (
            sw.process(PortNo(1), &key(), SimTime::from_millis(4)),
            restored.process(PortNo(1), &key(), SimTime::from_millis(4)),
        );
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.matched, b.matched);
        assert_eq!(
            format!("{:?}", sw.stats(StatsRequest::Flow(TableId(0)))),
            format!("{:?}", restored.stats(StatsRequest::Flow(TableId(0))))
        );
        assert_eq!(
            format!("{:?}", sw.stats(StatsRequest::Port(None))),
            format!("{:?}", restored.stats(StatsRequest::Port(None)))
        );
        // Meter token level survived (consumed + partially refilled).
        let t = SimTime::from_millis(10);
        let (ta, tb) = (
            sw.meter_mut(MeterId(7)).unwrap().tokens_at(t),
            restored.meter_mut(MeterId(7)).unwrap().tokens_at(t),
        );
        assert_eq!(ta.to_bits(), tb.to_bits(), "token state bit-identical");

        // A trail decoded from a snapshot comes back with its position
        // hints reset. Crediting the restored switch through it heals the
        // hint and leaves it byte-identical to the original switch
        // credited through the live trail.
        let mut w = horse_types::SnapWriter::new();
        r.matched.snap(&mut w);
        let trail_bytes = w.into_bytes();
        let mut reset =
            Vec::<MatchedEntry>::unsnap(&mut horse_types::SnapReader::new(&trail_bytes)).unwrap();
        assert_eq!((reset[0].pos, &reset), (0, &r.matched));
        let credit = |s: &mut OpenFlowSwitch, m: &mut [MatchedEntry]| {
            s.credit_bytes(m, ByteSize::bytes(5000), ByteSize::bytes(1000), t, t);
            let mut w = horse_types::SnapWriter::new();
            s.snapshot_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            credit(&mut sw, &mut r.matched),
            credit(&mut restored, &mut reset)
        );
        assert_eq!(reset[0].pos, 1, "healed on first touch");
        let mut w = horse_types::SnapWriter::new();
        reset.snap(&mut w);
        assert_eq!(w.into_bytes(), trail_bytes, "the hint is never encoded");
    }

    #[test]
    fn generation_bumps_on_state_mutations_only() {
        let mut sw = switch(1);
        let g0 = sw.generation();
        // Read-only messages leave the generation alone.
        sw.apply(&CtrlMsg::Barrier, SimTime::ZERO);
        sw.apply(&CtrlMsg::StatsRequest(StatsRequest::Table), SimTime::ZERO);
        assert_eq!(sw.generation(), g0);
        // Classification and crediting are observations, not mutations.
        sw.process(PortNo(1), &key(), SimTime::ZERO);
        sw.credit_bytes(
            &mut [],
            ByteSize::bytes(1500),
            ByteSize::bytes(1500),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        assert_eq!(sw.generation(), g0);
        // Flow-mod, group-mod, meter-mod, port flaps and crashes each bump.
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::output(PortNo(2))],
            ))),
            SimTime::ZERO,
        );
        let g1 = sw.generation();
        assert_ne!(g1, g0);
        sw.apply(
            &CtrlMsg::GroupMod(GroupMod::Add(GroupEntry::ecmp(GroupId(1), &[PortNo(2)]))),
            SimTime::ZERO,
        );
        let g2 = sw.generation();
        assert_ne!(g2, g1);
        sw.apply(
            &CtrlMsg::MeterMod(MeterMod::Add {
                id: MeterId(7),
                rate: Rate::mbps(500.0),
                burst: ByteSize::kib(64),
            }),
            SimTime::ZERO,
        );
        let g3 = sw.generation();
        assert_ne!(g3, g2);
        sw.set_port_state(PortNo(2), false);
        let g4 = sw.generation();
        assert_ne!(g4, g3);
        sw.crash();
        assert_ne!(sw.generation(), g4);
    }

    #[test]
    fn expiry_bumps_generation_only_when_entries_removed() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(
                FlowEntry::new(10, FlowMatch::ANY, vec![Instruction::output(PortNo(2))])
                    .with_hard_timeout(horse_types::SimDuration::from_secs(5)),
            )),
            SimTime::ZERO,
        );
        let g = sw.generation();
        sw.expire(SimTime::from_secs(4));
        assert_eq!(sw.generation(), g, "nothing expired yet");
        sw.expire(SimTime::from_secs(5));
        assert_ne!(sw.generation(), g, "expiry invalidates cached decisions");
    }

    #[test]
    fn commit_matched_n_equals_n_single_commits() {
        let build = || {
            let mut sw = switch(1);
            sw.apply(
                &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    FlowMatch::ANY,
                    vec![Instruction::output(PortNo(2))],
                ))),
                SimTime::ZERO,
            );
            sw
        };
        let mut a = build();
        let mut b = build();
        let mut res = a.classify(PortNo(1), &key());
        let now = SimTime::from_millis(7);
        a.commit_matched_n(&mut res.matched, 5, now);
        for _ in 0..5 {
            b.commit_matched(&mut res.matched, now);
        }
        assert_eq!(
            format!("{:?}", a.stats(StatsRequest::Table)),
            format!("{:?}", b.stats(StatsRequest::Table))
        );
        assert_eq!(
            format!("{:?}", a.stats(StatsRequest::Flow(TableId(0)))),
            format!("{:?}", b.stats(StatsRequest::Flow(TableId(0))))
        );
        // n == 0 is a strict no-op, even on a miss trail.
        let before = format!("{:?}", a.stats(StatsRequest::Table));
        a.commit_matched_n(&mut [], 0, now);
        assert_eq!(format!("{:?}", a.stats(StatsRequest::Table)), before);
        // An empty trail credits n lookups on table 0 (burst-sized miss).
        a.commit_matched_n(&mut [], 3, now);
        b.commit_matched(&mut [], now);
        b.commit_matched(&mut [], now);
        b.commit_matched(&mut [], now);
        assert_eq!(
            format!("{:?}", a.stats(StatsRequest::Table)),
            format!("{:?}", b.stats(StatsRequest::Table))
        );
    }

    #[test]
    fn snapshot_round_trips_generation() {
        let mut sw = switch(1);
        sw.apply(
            &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                10,
                FlowMatch::ANY,
                vec![Instruction::output(PortNo(2))],
            ))),
            SimTime::ZERO,
        );
        sw.set_port_state(PortNo(3), false);
        let g = sw.generation();
        assert_ne!(g, 0);
        let mut w = horse_types::SnapWriter::new();
        sw.snapshot_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = OpenFlowSwitch::new(NodeId(1), 1, &[]);
        let mut rd = horse_types::SnapReader::new(&bytes);
        restored.restore_state(&mut rd).unwrap();
        assert!(rd.is_exhausted());
        assert_eq!(restored.generation(), g);
    }

    #[test]
    fn port_stats_filter() {
        let mut sw = switch(1);
        sw.port_counters_mut(PortNo(2)).credit_tx(3, 4500);
        if let StatsReply::Port(rows) = sw.stats(StatsRequest::Port(Some(PortNo(2)))) {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].tx_bytes, 4500);
        } else {
            panic!("expected port stats");
        }
        if let StatsReply::Port(rows) = sw.stats(StatsRequest::Port(None)) {
            assert_eq!(rows.len(), 3);
        } else {
            panic!("expected port stats");
        }
    }

    #[test]
    fn switches_index_by_node_id() {
        let ids = [NodeId(7), NodeId(2), NodeId(4)];
        let mut replaced = OpenFlowSwitch::new(NodeId(2), 1, &[]);
        replaced.max_table_jumps = 1;
        let mut t: Switches = std::iter::once(replaced)
            .chain(
                ids.iter()
                    .map(|&id| OpenFlowSwitch::new(id, 1, &[PortNo(1)])),
            )
            .collect();
        assert_eq!(
            t.get(NodeId(2)).unwrap().max_table_jumps,
            8,
            "the later switch wins"
        );
        for id in ids {
            assert_eq!(t.get(id).map(|s| s.id), Some(id));
        }
        for id in [NodeId(0), NodeId(3), NodeId(8), NodeId(u32::MAX)] {
            assert!(t.get(id).is_none() && t.get_mut(id).is_none());
        }
        let order: Vec<NodeId> = t.iter().map(|s| s.id).collect();
        assert_eq!(order, vec![NodeId(2), NodeId(4), NodeId(7)]);
        t.get_mut(NodeId(4)).unwrap().max_table_jumps = 3;
        assert_eq!(t.get(NodeId(4)).unwrap().max_table_jumps, 3);
    }
}
