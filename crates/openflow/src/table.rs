//! Priority-ordered flow tables with timeouts.

use crate::actions::Instruction;
use crate::counters::{FlowCounters, TableCounters};
use crate::flow_match::FlowMatch;
use horse_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use horse_types::{ByteSize, FlowKey, PortNo, SimDuration, SimTime, TableId};
use serde::{Deserialize, Serialize};

/// Why a flow entry was removed (reported in FlowRemoved messages).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RemovalReason {
    /// No traffic for `idle_timeout`.
    IdleTimeout,
    /// Lifetime exceeded `hard_timeout`.
    HardTimeout,
    /// Controller deleted it.
    Delete,
}

/// One flow-table entry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowEntry {
    /// Match priority — higher wins.
    pub priority: u16,
    /// The wildcard match.
    pub matcher: FlowMatch,
    /// Instructions executed on match.
    pub instructions: Vec<Instruction>,
    /// Opaque controller tag (identifies the owning policy module).
    pub cookie: u64,
    /// Remove after this long without traffic (zero = never).
    pub idle_timeout: SimDuration,
    /// Remove this long after installation (zero = never).
    pub hard_timeout: SimDuration,
    /// Counters.
    pub counters: FlowCounters,
    /// Notify the controller when this entry is removed.
    pub notify_removal: bool,
}

impl FlowEntry {
    /// A permanent entry with the given match, priority and instructions.
    pub fn new(priority: u16, matcher: FlowMatch, instructions: Vec<Instruction>) -> Self {
        FlowEntry {
            priority,
            matcher,
            instructions,
            cookie: 0,
            idle_timeout: SimDuration::ZERO,
            hard_timeout: SimDuration::ZERO,
            counters: FlowCounters::default(),
            notify_removal: false,
        }
    }

    /// Builder: set the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Builder: set the idle timeout.
    pub fn with_idle_timeout(mut self, t: SimDuration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Builder: set the hard timeout.
    pub fn with_hard_timeout(mut self, t: SimDuration) -> Self {
        self.hard_timeout = t;
        self
    }

    /// Builder: request a FlowRemoved notification.
    pub fn with_removal_notification(mut self) -> Self {
        self.notify_removal = true;
        self
    }

    fn expired_at(&self, now: SimTime) -> Option<RemovalReason> {
        if !self.hard_timeout.is_zero()
            && now.saturating_since(self.counters.created) >= self.hard_timeout
        {
            return Some(RemovalReason::HardTimeout);
        }
        if !self.idle_timeout.is_zero()
            && now.saturating_since(self.counters.last_used) >= self.idle_timeout
        {
            return Some(RemovalReason::IdleTimeout);
        }
        None
    }
}

/// One step of a classification trail: the entry a traversal matched in
/// `table`, remembered so its counters can be credited later. The entry
/// is *identified* by `(priority, matcher)` (unique within a table);
/// `pos` only remembers where it sat so [`FlowTable::credit`] can skip
/// the search.
#[derive(Clone, Copy, Debug)]
pub struct MatchedEntry {
    /// The table the entry lives in.
    pub table: TableId,
    /// The entry's priority.
    pub priority: u16,
    /// The entry's match.
    pub matcher: FlowMatch,
    /// The entry's cookie (identifies the owning policy module).
    pub cookie: u64,
    /// Position of the entry in its table when last seen. A hint, not
    /// state: [`FlowTable::credit`] verifies it against the identity on
    /// every use and rewrites it when inserts, deletes or expiry moved
    /// the entry. It is therefore left out of equality, serde and
    /// snapshots (a decoded trail starts at 0 and heals on first credit).
    pub pos: u32,
}

/// A trail entry without its hint — the `(table, priority, match, cookie)`
/// tuple that equality, serde and snapshots see.
type Wire = (TableId, u16, FlowMatch, u64);

impl MatchedEntry {
    fn wire(&self) -> Wire {
        (self.table, self.priority, self.matcher, self.cookie)
    }

    fn from_wire((table, priority, matcher, cookie): Wire) -> Self {
        MatchedEntry {
            table,
            priority,
            matcher,
            cookie,
            pos: 0,
        }
    }
}

impl PartialEq for MatchedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.wire() == other.wire()
    }
}

impl Serialize for MatchedEntry {
    fn to_value(&self) -> serde::Value {
        self.wire().to_value()
    }
}

impl Deserialize for MatchedEntry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Wire::from_value(v).map(Self::from_wire)
    }
}

impl Snap for MatchedEntry {
    fn snap(&self, w: &mut SnapWriter) {
        self.wire().snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Wire::unsnap(r).map(Self::from_wire)
    }
}

/// A single flow table: entries sorted by descending priority; insertion
/// order breaks ties (first-installed wins), which keeps lookups
/// deterministic.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Lookup/match counters.
    pub counters: TableCounters,
    /// Identity scans [`FlowTable::credit`] fell back to because a
    /// position hint was stale. Host-side observability only.
    #[serde(skip)]
    rescans: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in match order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Installs an entry (stamping its creation time). An existing entry
    /// with identical match and priority is **replaced**, per OpenFlow
    /// `ADD` semantics; its counters are reset.
    pub fn insert(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.counters = FlowCounters::new(now);
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.priority == entry.priority && e.matcher == entry.matcher)
        {
            self.entries[pos] = entry;
            return;
        }
        // keep sorted by descending priority, stable for equal priorities
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
    }

    /// Read-only lookup: the highest-priority entry matching
    /// `(in_port, key)` and its position in the table. No counter updates.
    pub fn peek(&self, in_port: PortNo, key: &FlowKey) -> Option<(usize, &FlowEntry)> {
        self.entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.matcher.matches(in_port, key))
    }

    /// Credits bytes/packets carried at a constant rate over `[from,
    /// now]` to the entry identified by `m`'s `(priority, match)`.
    /// Returns `false` if no such entry exists (e.g. it expired
    /// meanwhile).
    ///
    /// An entry installed after `from` — an `Add` that replaced an
    /// identical `(priority, match)` resets the counters — is credited
    /// only the share of the interval it existed for, `(now − created) /
    /// (now − from)`, which is exact at a constant rate. Pass `from =
    /// now` for traffic that moved at one instant (no scaling).
    ///
    /// `m.pos` is tried first; only when the entry there has a different
    /// identity (positions shifted since the hint was taken) does this
    /// scan for the identity — once, rewriting the hint. Which entry is
    /// credited never depends on the hint.
    pub fn credit(
        &mut self,
        m: &mut MatchedEntry,
        packets: u64,
        bytes: ByteSize,
        from: SimTime,
        now: SimTime,
    ) -> bool {
        let same = |e: &FlowEntry| e.priority == m.priority && e.matcher == m.matcher;
        if !self.entries.get(m.pos as usize).is_some_and(same) {
            self.rescans += 1;
            match self.entries.iter().position(same) {
                Some(pos) => m.pos = pos as u32,
                None => return false,
            }
        }
        let counters = &mut self.entries[m.pos as usize].counters;
        let (packets, bytes) = if counters.created > from && now > from {
            let share = now.saturating_since(counters.created).as_secs_f64()
                / now.saturating_since(from).as_secs_f64();
            let scale = |n: u64| (n as f64 * share) as u64;
            (scale(packets), ByteSize::bytes(scale(bytes.as_bytes())))
        } else {
            (packets, bytes)
        };
        counters.credit(packets, bytes, now);
        true
    }

    /// How many [`credit`] calls had to scan for their entry because the
    /// position hint was stale (0 while the table is unchanged).
    ///
    /// [`credit`]: FlowTable::credit
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Deletes entries. With `strict`, only an exact `(priority, match)`
    /// pair is removed; otherwise every entry whose match is a subset of
    /// `matcher` goes (OpenFlow non-strict delete). Removed entries are
    /// returned together with the reason `Delete`.
    pub fn delete(
        &mut self,
        matcher: &FlowMatch,
        priority: Option<u16>,
        strict: bool,
    ) -> Vec<FlowEntry> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            let matches = if strict {
                Some(e.priority) == priority && e.matcher == *matcher
            } else {
                e.matcher.is_subset_of(matcher)
            };
            if matches {
                removed.push(e.clone());
                false
            } else {
                true
            }
        });
        removed
    }

    /// Removes expired entries, returning them with their reasons.
    pub fn expire(&mut self, now: SimTime) -> Vec<(FlowEntry, RemovalReason)> {
        let mut out = Vec::new();
        self.entries.retain(|e| match e.expired_at(now) {
            Some(reason) => {
                out.push((e.clone(), reason));
                false
            }
            None => true,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Instruction;
    use crate::messages::{CtrlMsg, FlowMod, SwitchMsg};
    use crate::switch::OpenFlowSwitch;
    use horse_types::{MacAddr, NodeId};
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

    fn entry(priority: u16, m: FlowMatch, port: u16) -> FlowEntry {
        FlowEntry::new(priority, m, vec![Instruction::output(PortNo(port))])
    }

    fn trail(priority: u16, matcher: FlowMatch, pos: u32) -> MatchedEntry {
        MatchedEntry {
            table: TableId(0),
            priority,
            matcher,
            cookie: 0,
            pos,
        }
    }

    /// A one-table switch holding `e`, installed at time zero: the
    /// counter-crediting tests drive `peek` + `credit` the way every
    /// caller does, through `OpenFlowSwitch::process`.
    fn switch_with(e: FlowEntry) -> OpenFlowSwitch {
        let mut sw = OpenFlowSwitch::new(NodeId(1), 1, &[PortNo(1), PortNo(2)]);
        sw.apply(&CtrlMsg::FlowMod(FlowMod::add(e)), SimTime::ZERO);
        sw
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        t.insert(entry(100, FlowMatch::ANY.with_tp_dst(80), 2), SimTime::ZERO);
        let (pos, e) = t.peek(PortNo(1), &key()).unwrap();
        assert_eq!((pos, e.priority), (0, 100));
    }

    #[test]
    fn insertion_order_breaks_priority_ties() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY.with_tp_dst(80), 1), SimTime::ZERO);
        t.insert(
            entry(
                10,
                FlowMatch::ANY.with_ip_proto(horse_types::IpProtocol::Tcp),
                2,
            ),
            SimTime::ZERO,
        );
        let (_, e) = t.peek(PortNo(1), &key()).unwrap();
        assert_eq!(e.instructions, vec![Instruction::output(PortNo(1))]);
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        t.insert(entry(10, FlowMatch::ANY, 2), SimTime::from_secs(1));
        assert_eq!(t.len(), 1);
        let (_, e) = t.peek(PortNo(1), &key()).unwrap();
        assert_eq!(e.instructions, vec![Instruction::output(PortNo(2))]);
    }

    #[test]
    fn lookup_updates_counters() {
        let mut sw = switch_with(entry(10, FlowMatch::ANY, 1));
        sw.process(PortNo(1), &key(), SimTime::from_secs(3));
        let t = sw.table(TableId(0)).unwrap();
        let e = t.entries().next().unwrap();
        assert_eq!(e.counters.packets, 1);
        assert_eq!(e.counters.last_used, SimTime::from_secs(3));
        assert_eq!(t.counters.lookups, 1);
        assert_eq!(t.counters.matches, 1);
    }

    #[test]
    fn miss_counts_lookup_only() {
        let mut sw = switch_with(entry(10, FlowMatch::ANY.with_tp_dst(443), 1));
        assert!(sw
            .process(PortNo(1), &key(), SimTime::ZERO)
            .matched
            .is_empty());
        let t = sw.table(TableId(0)).unwrap();
        assert_eq!(t.counters.lookups, 1);
        assert_eq!(t.counters.matches, 0);
    }

    #[test]
    fn credit_by_identity() {
        let mut t = FlowTable::new();
        let m = FlowMatch::ANY.with_tp_dst(80);
        t.insert(entry(10, m, 1), SimTime::ZERO);
        let now = SimTime::from_secs(1);
        assert!(t.credit(&mut trail(10, m, 0), 5, ByteSize::bytes(7500), now, now));
        assert!(!t.credit(&mut trail(11, m, 0), 1, ByteSize::bytes(1), now, now));
        let e = t.entries().next().unwrap();
        assert_eq!(e.counters.bytes, 7500);
        assert_eq!(e.counters.packets, 5);
    }

    #[test]
    fn entry_replaced_mid_interval_gets_only_its_share() {
        let mut t = FlowTable::new();
        let m = FlowMatch::ANY.with_tp_dst(80);
        t.insert(entry(10, m, 1), SimTime::ZERO);
        // Re-added at 1.75 s: the traffic of [1 s, 2 s] moved at a
        // constant rate, so the new entry saw the last quarter of it.
        t.insert(entry(10, m, 1), SimTime::from_millis(1750));
        let (from, now) = (SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(t.credit(&mut trail(10, m, 0), 8, ByteSize::bytes(8000), from, now));
        let e = t.entries().next().unwrap();
        assert_eq!((e.counters.packets, e.counters.bytes), (2, 2000));
        assert_eq!(e.counters.last_used, now);
        // An entry that predates the interval takes all of it.
        assert!(t.credit(&mut trail(10, m, 0), 8, ByteSize::bytes(8000), now, now));
        let e = t.entries().next().unwrap();
        assert_eq!((e.counters.packets, e.counters.bytes), (10, 10000));
    }

    #[test]
    fn trail_wire_form_is_the_identity_tuple() {
        let m = FlowMatch::ANY.with_tp_dst(80);
        let tr = MatchedEntry {
            table: TableId(1),
            priority: 10,
            matcher: m,
            cookie: 7,
            pos: 42,
        };
        let tuple = (TableId(1), 10u16, m, 7u64);
        assert_eq!(tr.to_value(), tuple.to_value());
        let mut w = SnapWriter::new();
        tr.snap(&mut w);
        let mut wt = SnapWriter::new();
        tuple.snap(&mut wt);
        let bytes = w.into_bytes();
        assert_eq!(bytes, wt.into_bytes());
        let back = MatchedEntry::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, tr, "equality ignores the hint");
        assert_eq!(back.pos, 0);
        assert_eq!(MatchedEntry::from_value(&tr.to_value()).unwrap().pos, 0);
    }

    #[test]
    fn strict_delete_removes_exact_only() {
        let mut t = FlowTable::new();
        let m = FlowMatch::ANY.with_tp_dst(80);
        t.insert(entry(10, m, 1), SimTime::ZERO);
        t.insert(entry(20, m, 2), SimTime::ZERO);
        let removed = t.delete(&m, Some(10), true);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].priority, 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn nonstrict_delete_removes_subsets() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY.with_tp_dst(80), 1), SimTime::ZERO);
        t.insert(
            entry(
                20,
                FlowMatch::ANY
                    .with_tp_dst(80)
                    .with_ip_proto(horse_types::IpProtocol::Tcp),
                2,
            ),
            SimTime::ZERO,
        );
        t.insert(entry(30, FlowMatch::ANY.with_tp_dst(443), 3), SimTime::ZERO);
        let removed = t.delete(&FlowMatch::ANY.with_tp_dst(80), None, false);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new();
        t.insert(
            entry(10, FlowMatch::ANY, 1).with_hard_timeout(SimDuration::from_secs(10)),
            SimTime::ZERO,
        );
        assert!(t.expire(SimTime::from_secs(9)).is_empty());
        let ex = t.expire(SimTime::from_secs(10));
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].1, RemovalReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_traffic() {
        let mut sw = switch_with(
            entry(10, FlowMatch::ANY, 1)
                .with_idle_timeout(SimDuration::from_secs(5))
                .with_removal_notification(),
        );
        // traffic at t=4 pushes last_used forward
        sw.process(PortNo(1), &key(), SimTime::from_secs(4));
        assert!(sw.expire(SimTime::from_secs(8)).is_empty());
        let ex = sw.expire(SimTime::from_secs(9));
        assert_eq!(ex.len(), 1);
        assert!(matches!(
            ex[0],
            SwitchMsg::FlowRemoved {
                reason: RemovalReason::IdleTimeout,
                ..
            }
        ));
    }

    #[test]
    fn hard_timeout_beats_idle_when_both_due() {
        let mut t = FlowTable::new();
        t.insert(
            entry(10, FlowMatch::ANY, 1)
                .with_idle_timeout(SimDuration::from_secs(5))
                .with_hard_timeout(SimDuration::from_secs(5)),
            SimTime::ZERO,
        );
        let ex = t.expire(SimTime::from_secs(5));
        assert_eq!(ex[0].1, RemovalReason::HardTimeout);
    }

    #[test]
    fn zero_timeouts_never_expire() {
        let mut t = FlowTable::new();
        t.insert(entry(10, FlowMatch::ANY, 1), SimTime::ZERO);
        assert!(t.expire(SimTime::from_secs(1_000_000)).is_empty());
    }
}
