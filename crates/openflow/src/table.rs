//! Priority-ordered flow tables with timeouts.

use crate::actions::Instruction;
use crate::counters::{FlowCounters, TableCounters};
use crate::flow_match::FlowMatch;
use crate::list::SmallList;
use horse_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use horse_types::{ByteSize, FlowKey, Ipv4Net, MacAddr, PortNo, SimDuration, SimTime, TableId};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, OnceCell};

/// Why a flow entry was removed (reported in FlowRemoved messages).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
pub enum RemovalReason {
    /// No traffic for `idle_timeout`.
    IdleTimeout,
    /// Lifetime exceeded `hard_timeout`.
    HardTimeout,
    /// Controller deleted it.
    Delete,
}

/// One flow-table entry.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub struct FlowEntry {
    /// Match priority — higher wins.
    pub priority: u16,
    /// The wildcard match.
    pub matcher: FlowMatch,
    /// Instructions executed on match.
    pub instructions: SmallList<Instruction>,
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
    /// A permanent entry with the given match, priority and instructions
    /// (one instruction, or a `Vec` of any length).
    pub fn new(
        priority: u16,
        matcher: FlowMatch,
        instructions: impl Into<SmallList<Instruction>>,
    ) -> Self {
        FlowEntry {
            priority,
            matcher,
            instructions: instructions.into(),
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

/// Is `e` the entry identified by `(priority, m)`? `eth_dst` is compared
/// first: every shipped forwarding policy keys its rules on it, so one
/// branch rejects almost every other entry of a scan, where the derived
/// `FlowMatch` equality evaluates all ten fields.
fn is_entry(e: &FlowEntry, priority: u16, m: &FlowMatch) -> bool {
    e.matcher.eth_dst == m.eth_dst && e.priority == priority && e.matcher == *m
}

/// Tables holding at least this many entries keep an [`ExactIndex`];
/// shorter ones scan. A hot indexed lookup beats the scan from below 32
/// entries on, but with the threshold at 32 the IXP and k=8 fat-tree
/// workloads (tables of 51 to 401 entries) ran no faster end to end and
/// `fat_tree_flaps` took 4.7 % more peak memory (`docs/PERFORMANCE.md`
/// §4). 512 keeps those tables on the scan and indexes the k=16
/// fat-tree's 1,025-entry tables, where scans made cold install
/// quadratic.
const INDEX_MIN_LEN: usize = 512;

/// The fields a [`FlowMatch`] can set, in field order; bit `i` of a
/// *shape* says field `i` is set.
const FIELDS: usize = 10;

/// Stand-in word for an untagged key's VLAN: no `u16` VLAN id folds to it.
const UNTAGGED: u64 = 1 << 16;

/// Empty slot of a [`ShapeSlots`] table.
const EMPTY: u32 = u32::MAX;

/// The shape of `m` — the bitmask of the fields it sets — when every
/// field it sets is exact (IPv4 prefixes only at /32); `None` for a
/// wildcard entry.
fn exact_shape(m: &FlowMatch) -> Option<u16> {
    let host = |n: Option<Ipv4Net>| n.is_none_or(|n| n.len == 32);
    if !host(m.ip_src) || !host(m.ip_dst) {
        return None;
    }
    let set = [
        m.in_port.is_some(),
        m.eth_src.is_some(),
        m.eth_dst.is_some(),
        m.eth_type.is_some(),
        m.vlan.is_some(),
        m.ip_src.is_some(),
        m.ip_dst.is_some(),
        m.ip_proto.is_some(),
        m.tp_src.is_some(),
        m.tp_dst.is_some(),
    ];
    Some((0..FIELDS).fold(0, |s, i| s | (set[i] as u16) << i))
}

/// The field words of an exact match (unset fields read 0; a shape
/// never folds them).
fn match_words(m: &FlowMatch) -> [u64; FIELDS] {
    let ip = |n: Option<Ipv4Net>| n.map_or(0, |n| u32::from(n.addr) as u64);
    [
        m.in_port.map_or(0, |p| p.0 as u64),
        m.eth_src.map_or(0, MacAddr::to_u64),
        m.eth_dst.map_or(0, MacAddr::to_u64),
        m.eth_type.map_or(0, u64::from),
        m.vlan.map_or(0, u64::from),
        ip(m.ip_src),
        ip(m.ip_dst),
        m.ip_proto.map_or(0, |p| p.number() as u64),
        m.tp_src.map_or(0, u64::from),
        m.tp_dst.map_or(0, u64::from),
    ]
}

/// The field words of a packet: an exact entry of shape `s` matches it
/// exactly when their words agree on every field of `s`.
fn key_words(in_port: PortNo, k: &FlowKey) -> [u64; FIELDS] {
    [
        in_port.0 as u64,
        k.eth_src.to_u64(),
        k.eth_dst.to_u64(),
        k.eth_type as u64,
        k.vlan.map_or(UNTAGGED, u64::from),
        u32::from(k.ip_src) as u64,
        u32::from(k.ip_dst) as u64,
        k.ip_proto.number() as u64,
        k.tp_src as u64,
        k.tp_dst as u64,
    ]
}

/// Folds the words of `shape`'s fields into one multiplicative hash
/// (the high bits are the well-mixed ones).
fn fold(words: &[u64; FIELDS], shape: u16) -> u64 {
    let mut h = 0u64;
    let mut bits = shape;
    while bits != 0 {
        let w = words[bits.trailing_zeros() as usize];
        h = (h.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        bits &= bits - 1;
    }
    h
}

/// One shape's open-addressed (linear-probing) table of entry
/// positions. Entries whose words collide share a probe chain; readers
/// always confirm a hit against the entry itself.
#[derive(Clone, Debug)]
struct ShapeSlots {
    shape: u16,
    len: usize,
    /// `64 − log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    slots: Vec<u32>,
}

impl ShapeSlots {
    /// An empty table with room for `n` positions below a 3/4 load.
    fn new(shape: u16, n: usize) -> Self {
        let slots = (n * 4 / 3 + 1).next_power_of_two().max(8);
        ShapeSlots {
            shape,
            len: 0,
            shift: 64 - slots.trailing_zeros(),
            slots: vec![EMPTY; slots],
        }
    }

    /// The occupied slots of the probe chain for hash `h`, with their
    /// indices.
    fn chain(&self, h: u64) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        std::iter::from_fn(move || {
            let p = self.slots[i];
            let at = i;
            i = (i + 1) & mask;
            (p != EMPTY).then_some((at, p))
        })
    }

    fn place(&mut self, h: u64, pos: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = pos;
    }

    /// Adds `pos` (hash `h`), doubling the table past a 3/4 load.
    fn add(&mut self, entries: &[FlowEntry], h: u64, pos: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![EMPTY; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.shift -= 1;
            for p in old.into_iter().filter(|&p| p != EMPTY) {
                self.place(
                    fold(&match_words(&entries[p as usize].matcher), self.shape),
                    p,
                );
            }
        }
        self.place(h, pos);
        self.len += 1;
    }
}

/// A flow table's exact-match index: for each live shape, a table of
/// the positions of the exact entries of that shape; every other entry
/// sits in `wild`, ascending. Host-side only: never serialized, rebuilt
/// from the entries whenever it is missing.
#[derive(Clone, Debug, Default)]
struct ExactIndex {
    shapes: Vec<ShapeSlots>,
    wild: Vec<u32>,
}

impl ExactIndex {
    fn build(entries: &[FlowEntry]) -> Self {
        let mut ix = ExactIndex::default();
        // Size every shape's table up front: one pass to count...
        for shape in entries.iter().filter_map(|e| exact_shape(&e.matcher)) {
            ix.shape_mut(shape).len += 1;
        }
        for s in &mut ix.shapes {
            *s = ShapeSlots::new(s.shape, s.len);
        }
        // ...and one to place.
        for pos in 0..entries.len() {
            ix.add(entries, pos);
        }
        ix
    }

    fn shape_mut(&mut self, shape: u16) -> &mut ShapeSlots {
        match self.shapes.iter().position(|s| s.shape == shape) {
            Some(i) => &mut self.shapes[i],
            None => {
                self.shapes.push(ShapeSlots::new(shape, 0));
                self.shapes.last_mut().unwrap()
            }
        }
    }

    /// Indexes the entry at `pos`, which every other indexed position
    /// already accounts for.
    fn add(&mut self, entries: &[FlowEntry], pos: usize) {
        let m = &entries[pos].matcher;
        match exact_shape(m) {
            Some(shape) => {
                let h = fold(&match_words(m), shape);
                self.shape_mut(shape).add(entries, h, pos as u32);
            }
            None => {
                let at = self.wild.partition_point(|&p| (p as usize) < pos);
                self.wild.insert(at, pos as u32);
            }
        }
    }

    /// Follows an insert at `pos`: every entry behind it moved one place
    /// back (at the k=16 fat-tree, only the table-miss rule). Re-points
    /// them entry by entry, last first so a moved position never meets
    /// one not yet moved in a chain, then indexes the new entry.
    fn insert_at(&mut self, entries: &[FlowEntry], pos: usize, steps: &mut u64) {
        for q in (pos + 1..entries.len()).rev() {
            let m = &entries[q].matcher;
            let Some(shape) = exact_shape(m) else {
                continue;
            };
            let s = self.shape_mut(shape);
            let h = fold(&match_words(m), shape);
            let (at, _) = s
                .chain(h)
                .inspect(|_| *steps += 1)
                .find(|&(_, p)| p as usize == q - 1)
                .expect("an indexed entry sits in its chain");
            s.slots[at] = q as u32;
        }
        let from = self.wild.partition_point(|&p| (p as usize) < pos);
        for p in &mut self.wild[from..] {
            *p += 1;
        }
        self.add(entries, pos);
    }

    /// The position of the entry identified by `(priority, m)`.
    fn find(
        &self,
        entries: &[FlowEntry],
        priority: u16,
        m: &FlowMatch,
        steps: &mut u64,
    ) -> Option<usize> {
        let mut same = |p: u32| {
            *steps += 1;
            is_entry(&entries[p as usize], priority, m)
        };
        let hit = match exact_shape(m) {
            Some(shape) => {
                let s = self.shapes.iter().find(|s| s.shape == shape)?;
                let h = fold(&match_words(m), shape);
                s.chain(h).map(|(_, p)| p).find(|&p| same(p))
            }
            None => self.wild.iter().copied().find(|&p| same(p)),
        };
        hit.map(|p| p as usize)
    }

    /// The first entry in table order matching `(in_port, key)`: the
    /// lowest matching position over every shape's chain, and over the
    /// wildcard entries before it.
    fn lookup(
        &self,
        entries: &[FlowEntry],
        in_port: PortNo,
        key: &FlowKey,
        steps: &mut u64,
    ) -> Option<usize> {
        let words = key_words(in_port, key);
        let hits = |p: u32| entries[p as usize].matcher.matches(in_port, key);
        let mut best = EMPTY;
        for s in &self.shapes {
            for (_, p) in s.chain(fold(&words, s.shape)) {
                *steps += 1;
                if p < best && hits(p) {
                    best = p;
                }
            }
        }
        for &p in &self.wild {
            if p >= best {
                break;
            }
            *steps += 1;
            if hits(p) {
                best = p;
                break;
            }
        }
        (best != EMPTY).then_some(best as usize)
    }
}

/// A single flow table: entries sorted by descending priority; insertion
/// order breaks ties (first-installed wins), which keeps lookups
/// deterministic.
///
/// Past 512 entries (`INDEX_MIN_LEN`) a private exact-match index
/// serves the duplicate check of [`insert`], [`peek`] and the stale-hint
/// search of [`credit`] in near-constant time; shorter tables scan.
/// Either way the answers are those of the scan.
///
/// [`insert`]: FlowTable::insert
/// [`peek`]: FlowTable::peek
/// [`credit`]: FlowTable::credit
#[derive(Clone, Debug, Default, Serialize, Deserialize, Snap)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    /// Lookup/match counters.
    pub counters: TableCounters,
    /// Identity scans [`FlowTable::credit`] fell back to because a
    /// position hint was stale. Host-side observability only.
    #[serde(skip)]
    rescans: u64,
    /// Entries and index slots examined by searches. Host-side
    /// observability only.
    #[serde(skip)]
    scan_steps: Cell<u64>,
    /// Built on first use once the table reaches [`INDEX_MIN_LEN`];
    /// dropped whenever entries are removed.
    #[serde(skip)]
    index: OnceCell<ExactIndex>,
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

    /// The index, built on first use; `None` below [`INDEX_MIN_LEN`].
    fn index(&self) -> Option<&ExactIndex> {
        (self.entries.len() >= INDEX_MIN_LEN)
            .then(|| self.index.get_or_init(|| ExactIndex::build(&self.entries)))
    }

    fn count_steps(&self, n: u64) {
        self.scan_steps.set(self.scan_steps.get() + n);
    }

    /// The position of the entry identified by `(priority, m)`.
    fn find(&self, priority: u16, m: &FlowMatch) -> Option<usize> {
        let mut steps = 0;
        let found = match self.index() {
            Some(ix) => ix.find(&self.entries, priority, m, &mut steps),
            None => {
                let found = self.entries.iter().position(|e| is_entry(e, priority, m));
                steps = found.map_or(self.entries.len(), |p| p + 1) as u64;
                found
            }
        };
        self.count_steps(steps);
        found
    }

    /// Installs an entry (stamping its creation time). An existing entry
    /// with identical match and priority is **replaced**, per OpenFlow
    /// `ADD` semantics; its counters are reset.
    pub fn insert(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.counters = FlowCounters::new(now);
        if let Some(pos) = self.find(entry.priority, &entry.matcher) {
            self.entries[pos] = entry;
            return;
        }
        // keep sorted by descending priority, stable for equal priorities
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
        if let Some(ix) = self.index.get_mut() {
            let mut steps = 0;
            ix.insert_at(&self.entries, pos, &mut steps);
            self.count_steps(steps);
        }
    }

    /// Read-only lookup: the highest-priority entry matching
    /// `(in_port, key)` and its position in the table. No counter updates.
    pub fn peek(&self, in_port: PortNo, key: &FlowKey) -> Option<(usize, &FlowEntry)> {
        let mut steps = 0;
        let pos = match self.index() {
            Some(ix) => ix.lookup(&self.entries, in_port, key, &mut steps),
            None => {
                let pos = self
                    .entries
                    .iter()
                    .position(|e| e.matcher.matches(in_port, key));
                steps = pos.map_or(self.entries.len(), |p| p + 1) as u64;
                pos
            }
        };
        self.count_steps(steps);
        pos.map(|p| (p, &self.entries[p]))
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
    /// search for the identity — once, rewriting the hint. Which entry is
    /// credited never depends on the hint.
    pub fn credit(
        &mut self,
        m: &mut MatchedEntry,
        packets: u64,
        bytes: ByteSize,
        from: SimTime,
        now: SimTime,
    ) -> bool {
        let hinted = self.entries.get(m.pos as usize);
        if !hinted.is_some_and(|e| is_entry(e, m.priority, &m.matcher)) {
            self.rescans += 1;
            match self.find(m.priority, &m.matcher) {
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

    /// How many [`credit`] calls had to search for their entry because
    /// the position hint was stale (0 while the table is unchanged).
    ///
    /// [`credit`]: FlowTable::credit
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// How many entries and index slots the searches of [`insert`],
    /// [`peek`] and [`credit`] examined: a scan counts every entry up to
    /// its answer, an indexed search every probed slot and wildcard
    /// entry. Host-side observability only, like [`rescans`].
    ///
    /// [`insert`]: FlowTable::insert
    /// [`peek`]: FlowTable::peek
    /// [`credit`]: FlowTable::credit
    /// [`rescans`]: FlowTable::rescans
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps.get()
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
                priority.is_some_and(|p| is_entry(e, p, matcher))
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
        if !removed.is_empty() {
            self.index.take();
        }
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
        if !out.is_empty() {
            self.index.take();
        }
        out
    }
}

#[cfg(test)]
mod differential;

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
