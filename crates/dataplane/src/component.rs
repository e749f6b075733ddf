//! Resident allocation components.
//!
//! Flows that share a directed link, directly or through other flows, form
//! one *link-sharing component*. Max-min fairness couples exactly the
//! flows of one component, so each component is water-filled on its own.
//! [`Components`] keeps every component's allocation problem resident
//! between reallocations instead of re-discovering and rebuilding it from
//! the flow arena on every rate change. A component holds:
//!
//! * its **members** (arena slots) in ascending flow-id order, each with
//!   the rate last applied to it;
//! * its **macro-flow classes**: flows with an identical link sequence and
//!   identical demand bits share one weighted allocation variable, and each
//!   class is a row of component-local link indices;
//! * its **links**, each with its capacity and the number of live class
//!   rows crossing it.
//!
//! Every occupied directed link records its component and its local index,
//! so a dirty link maps straight to the problem to re-solve, and the
//! components are the engine's one answer to "which flows share this
//! link?". [`Components::admit`] is the only way a component is built: it
//! appends a member at the flow's current rate or bumps its class's
//! weight, and merges the components the flow's links touch. A departure
//! tombstones the member; a class whose last member left unmaps the links
//! nobody else crosses and flags the component for a split check before
//! its next solve ([`Components::check`], a union-find over the
//! component's live class rows). A component found split, or more than
//! half dead, is dissolved and its live members are admitted again, in
//! ascending flow-id order. None of this state is serialized: it is
//! derived from the flow arena, and a restored plane re-admits every flow.

use crate::flow::ActiveFlow;
use horse_types::LinkId;

/// Sentinel for "no component / no class / vacant member".
pub(crate) const NONE: u32 = u32::MAX;

/// splitmix64 finaliser — the mixer behind macro-flow class digests.
/// Purely arithmetic: deterministic across runs and platforms.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Class digest of a flow: its demand bits and link sequence. A hint
/// only; class membership takes exact equality of both.
fn class_digest(demand: f64, links: &[LinkId]) -> u64 {
    let mut h = mix64(demand.to_bits());
    for &l in links {
        h = mix64(h ^ (l.index() as u64 + 1));
    }
    h
}

/// One member flow of a component.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Member {
    /// Flow id (kept by a tombstone, so the member list stays sorted).
    pub id: u64,
    /// Arena slot, `NONE` once the flow has left (tombstone).
    pub slot: u32,
    /// Index of the member's class.
    pub class: u32,
    /// The rate (bps) last applied to the flow.
    pub rate: f64,
}

/// One macro-flow class: a weighted allocation variable.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Class {
    pub demand: f64,
    pub digest: u64,
    /// Live members; 0 marks a dead class, skipped by the solve.
    pub weight: u32,
    /// The class row: `rows[start..start + len]`, component-local links.
    pub start: u32,
    pub len: u32,
    /// Per-member rate of the last solve.
    pub rate: f64,
}

/// One directed link of a component.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompLink {
    /// Topology link index.
    pub raw: u32,
    /// Live class rows crossing the link; 0 once it is unmapped.
    pub live: u32,
    /// Allocatable capacity (bps), refreshed whenever the link is dirty.
    pub cap: f64,
}

/// One resident link-sharing component (see module docs).
#[derive(Default)]
pub(crate) struct Component {
    pub members: Vec<Member>,
    /// Members that have not left.
    pub live: u32,
    pub classes: Vec<Class>,
    pub rows: Vec<u32>,
    pub dead_classes: u32,
    pub links: Vec<CompLink>,
    /// Open-addressing digest index over the classes (power-of-two
    /// length, `NONE` = empty). Dead classes stay until the next rehash;
    /// lookups skip them.
    table: Vec<u32>,
    /// A class died since the last split check.
    class_died: bool,
    /// The allocator run that last queued the component for a solve.
    pub visit: u64,
}

impl Component {
    fn reset(&mut self) {
        self.members.clear();
        self.live = 0;
        self.classes.clear();
        self.rows.clear();
        self.dead_classes = 0;
        self.links.clear();
        self.table.clear();
        self.class_died = false;
        self.visit = 0;
    }

    /// The component-local links of class `k`.
    pub fn row(&self, k: usize) -> &[u32] {
        let c = &self.classes[k];
        &self.rows[c.start as usize..(c.start + c.len) as usize]
    }

    /// The live class whose demand bits and link sequence equal the
    /// flow's, or `NONE`.
    fn find_class(&self, digest: u64, demand: f64, links: &[LinkId]) -> u32 {
        if self.table.is_empty() {
            return NONE;
        }
        let mask = self.table.len() - 1;
        let mut idx = digest as usize & mask;
        loop {
            let k = self.table[idx];
            if k == NONE {
                return NONE;
            }
            let c = &self.classes[k as usize];
            if c.digest == digest
                && c.weight > 0
                && c.demand.to_bits() == demand.to_bits()
                && c.len as usize == links.len()
                && self
                    .row(k as usize)
                    .iter()
                    .zip(links)
                    .all(|(&r, l)| self.links[r as usize].raw as usize == l.index())
            {
                return k;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Indexes the just-pushed class `k`, rehashing the live classes into
    /// a larger table once it would pass half load.
    fn index_class(&mut self, k: u32) {
        if self.classes.len() * 2 > self.table.len() {
            let n = (self.classes.len() * 2).max(16).next_power_of_two();
            self.table.clear();
            self.table.resize(n, NONE);
            for j in 0..self.classes.len() as u32 {
                if self.classes[j as usize].weight > 0 {
                    self.probe_insert(j);
                }
            }
        } else {
            self.probe_insert(k);
        }
    }

    fn probe_insert(&mut self, k: u32) {
        let mask = self.table.len() - 1;
        let mut idx = self.classes[k as usize].digest as usize & mask;
        while self.table[idx] != NONE {
            idx = (idx + 1) & mask;
        }
        self.table[idx] = k;
    }
}

/// What a component needs before its next solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Check {
    /// Solve it as it is.
    Keep,
    /// It fell apart into several components: rebuild it.
    Split,
    /// More than half of its classes or members are dead: rebuild it.
    Compact,
}

/// Every resident component plus the link → component map (see module
/// docs). Component buffers are pooled, so steady-state churn allocates
/// nothing once they have grown to their high-water sizes.
#[derive(Default)]
pub(crate) struct Components {
    pub comps: Vec<Component>,
    free: Vec<u32>,
    /// Per topology link: the component of the flows on it, or `NONE`.
    pub link_comp: Vec<u32>,
    /// Per occupied link: its index in its component's `links`.
    pub link_local: Vec<u32>,
    /// Union-find parents for [`Components::check`].
    uf: Vec<u32>,
}

impl Components {
    /// An empty store over `num_links` directed links.
    pub fn new(num_links: usize) -> Self {
        Components {
            link_comp: vec![NONE; num_links],
            link_local: vec![NONE; num_links],
            ..Components::default()
        }
    }

    /// Releases every component and unmaps every link.
    pub fn clear(&mut self) {
        self.free.clear();
        for (c, comp) in self.comps.iter_mut().enumerate().rev() {
            comp.reset();
            self.free.push(c as u32);
        }
        self.link_comp.fill(NONE);
    }

    /// A fresh, empty component from the pool.
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(c) => c,
            None => {
                self.comps.push(Component::default());
                (self.comps.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, c: u32) {
        self.comps[c as usize].reset();
        self.free.push(c);
    }

    /// Registers the flow in arena slot `slot` at its current rate: merges
    /// the components its links touch (smaller into larger), maps its
    /// unmapped links to the survivor, then joins or founds its class.
    /// Returns the number of merges.
    pub fn admit(
        &mut self,
        slot: u32,
        flow: &ActiveFlow,
        per_flow: bool,
        cap: impl Fn(usize) -> f64,
    ) -> u32 {
        let links = &flow.route.links[..];
        if links.is_empty() {
            return 0;
        }
        let mut target = NONE;
        let mut merges = 0;
        for &l in links {
            let c = self.link_comp[l.index()];
            if c != NONE && c != target {
                target = if target == NONE {
                    c
                } else {
                    merges += 1;
                    self.merge(target, c, per_flow)
                };
            }
        }
        if target == NONE {
            target = self.alloc();
        }
        let c = target;
        let Components {
            comps,
            link_comp,
            link_local,
            ..
        } = self;
        let comp = &mut comps[c as usize];
        let demand = flow.effective_demand();
        let digest = if per_flow {
            0
        } else {
            class_digest(demand, links)
        };
        let mut k = if per_flow {
            NONE
        } else {
            comp.find_class(digest, demand, links)
        };
        if k == NONE {
            let start = comp.rows.len() as u32;
            for &l in links {
                let li = l.index();
                if link_comp[li] != c {
                    debug_assert_eq!(link_comp[li], NONE, "link of another component");
                    link_comp[li] = c;
                    link_local[li] = comp.links.len() as u32;
                    comp.links.push(CompLink {
                        raw: li as u32,
                        live: 0,
                        cap: cap(li),
                    });
                }
                let local = link_local[li];
                comp.rows.push(local);
                comp.links[local as usize].live += 1;
            }
            k = comp.classes.len() as u32;
            comp.classes.push(Class {
                demand,
                digest,
                weight: 1,
                start,
                len: links.len() as u32,
                rate: 0.0,
            });
            if !per_flow {
                comp.index_class(k);
            }
        } else {
            comp.classes[k as usize].weight += 1;
        }
        let id = flow.id.0;
        let member = Member {
            id,
            slot,
            class: k,
            rate: flow.rate.as_bps(),
        };
        let pos = comp.members.partition_point(|m| m.id < id);
        // A flow detached and re-admitted under its id reuses its own
        // tombstone; otherwise the member is inserted in id order (an
        // append, except for controller-retry admissions).
        match comp.members[pos..]
            .iter_mut()
            .take_while(|m| m.id == id)
            .find(|m| m.slot == NONE)
        {
            Some(m) => *m = member,
            None => comp.members.insert(pos, member),
        }
        comp.live += 1;
        merges
    }

    /// Tombstones a leaving flow. A class left without members unmaps the
    /// links no other live class crosses and flags the component for a
    /// split check; an emptied component returns to the pool.
    pub fn depart(&mut self, id: u64, links: &[LinkId]) {
        let Some(first) = links.first() else {
            return;
        };
        let c = self.link_comp[first.index()];
        if c == NONE {
            return;
        }
        let Components {
            comps,
            link_comp,
            link_local,
            ..
        } = self;
        let comp = &mut comps[c as usize];
        let pos = comp.members.partition_point(|m| m.id < id);
        let Some(m) = comp.members[pos..]
            .iter_mut()
            .take_while(|m| m.id == id)
            .find(|m| m.slot != NONE)
        else {
            debug_assert!(false, "departing flow {id} is not a member");
            return;
        };
        m.slot = NONE;
        let k = m.class as usize;
        comp.live -= 1;
        comp.classes[k].weight -= 1;
        if comp.classes[k].weight == 0 {
            comp.dead_classes += 1;
            comp.class_died = true;
            let Class { start, len, .. } = comp.classes[k];
            for &r in &comp.rows[start as usize..(start + len) as usize] {
                let link = &mut comp.links[r as usize];
                link.live -= 1;
                if link.live == 0 {
                    link_comp[link.raw as usize] = NONE;
                    link_local[link.raw as usize] = NONE;
                }
            }
        }
        if comp.live == 0 {
            self.release(c);
        }
    }

    /// Absorbs the smaller of two components into the larger and returns
    /// the survivor. Links are disjoint, so no two classes coincide.
    fn merge(&mut self, a: u32, b: u32, per_flow: bool) -> u32 {
        let (s, o) = if self.comps[a as usize].members.len() >= self.comps[b as usize].members.len()
        {
            (a, b)
        } else {
            (b, a)
        };
        let mut other = std::mem::take(&mut self.comps[o as usize]);
        let Components {
            comps,
            link_comp,
            link_local,
            ..
        } = self;
        let surv = &mut comps[s as usize];
        let link_base = surv.links.len() as u32;
        for (k, l) in other.links.iter().enumerate() {
            if l.live > 0 {
                link_comp[l.raw as usize] = s;
                link_local[l.raw as usize] = link_base + k as u32;
            }
        }
        surv.links.extend_from_slice(&other.links);
        let row_base = surv.rows.len() as u32;
        surv.rows.extend(other.rows.iter().map(|&r| r + link_base));
        let class_base = surv.classes.len() as u32;
        for cl in &other.classes {
            let k = surv.classes.len() as u32;
            surv.classes.push(Class {
                start: cl.start + row_base,
                ..*cl
            });
            if cl.weight > 0 && !per_flow {
                surv.index_class(k);
            }
        }
        surv.dead_classes += other.dead_classes;
        surv.class_died |= other.class_died;
        let sorted = match (surv.members.last(), other.members.first()) {
            (Some(last), Some(first)) => last.id < first.id,
            _ => true,
        };
        surv.members.extend(other.members.iter().map(|m| Member {
            class: m.class + class_base,
            ..*m
        }));
        if !sorted {
            surv.members.sort_unstable_by_key(|m| m.id);
        }
        surv.live += other.live;
        other.reset();
        self.comps[o as usize] = other;
        self.free.push(o);
        s
    }

    /// Decides whether component `c` can be solved as it stands. A
    /// component that lost a class since its last check runs a union-find
    /// over its live class rows (flat `u32` arrays, no arena access);
    /// `Split` means its live links form more than one set. Returns
    /// whether that check ran, and the verdict.
    pub fn check(&mut self, c: u32) -> (bool, Check) {
        let Components { comps, uf, .. } = self;
        let comp = &mut comps[c as usize];
        let mut ran = false;
        if comp.class_died {
            comp.class_died = false;
            ran = true;
            uf.clear();
            uf.extend(0..comp.links.len() as u32);
            fn find(uf: &mut [u32], mut x: u32) -> u32 {
                while uf[x as usize] != x {
                    uf[x as usize] = uf[uf[x as usize] as usize];
                    x = uf[x as usize];
                }
                x
            }
            for k in 0..comp.classes.len() {
                if comp.classes[k].weight == 0 {
                    continue;
                }
                let row = comp.row(k);
                let r0 = find(uf, row[0]);
                for &l in &row[1..] {
                    let r = find(uf, l);
                    if r != r0 {
                        uf[r as usize] = r0;
                    }
                }
            }
            let mut roots = 0;
            for (k, l) in comp.links.iter().enumerate() {
                if l.live > 0 && find(uf, k as u32) == k as u32 {
                    roots += 1;
                }
            }
            if roots > 1 {
                return (true, Check::Split);
            }
        }
        let dead_members = comp.members.len() - comp.live as usize;
        if comp.dead_classes as usize * 2 > comp.classes.len()
            || dead_members * 2 > comp.members.len()
        {
            return (ran, Check::Compact);
        }
        (ran, Check::Keep)
    }

    /// Unmaps component `c`'s live links, appends the arena slots of its
    /// live members to `slots` (ascending flow id) and returns the
    /// component to the pool; the engine then admits those flows again.
    pub fn dissolve(&mut self, c: u32, slots: &mut Vec<u32>) {
        let comp = &self.comps[c as usize];
        for l in &comp.links {
            if l.live > 0 {
                self.link_comp[l.raw as usize] = NONE;
                self.link_local[l.raw as usize] = NONE;
            }
        }
        slots.extend(
            comp.members
                .iter()
                .filter(|m| m.slot != NONE)
                .map(|m| m.slot),
        );
        self.release(c);
    }
}
