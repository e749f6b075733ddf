//! Dense, generation-checked storage for active flows.
//!
//! [`FlowArena`] backs the fluid engine's flow state with index-addressed
//! storage instead of hash maps:
//!
//! * flows live in a **slab** of reusable slots (`FlowId` → dense slot via
//!   a direct-mapped table, generation-checked so stale ids can never
//!   alias a slot's new occupant);
//! * all active flows form one intrusive doubly-linked list in admission
//!   order — deterministic, and almost ascending [`FlowId`] order (ids
//!   are assigned monotonically, but a flow parked on a controller round
//!   trip is re-admitted later with its originally reserved id).
//!
//! Consumers that need strict id order (the engine's statistics sweep and
//! its component rebuilds) sort the nearly-sorted slot sets they collect
//! in place. Which flows share a link is not the arena's business: the
//! engine's resident components (the `component` module) are the one
//! link index. The live route-entry count ([`FlowArena::route_entries`])
//! is exactly the allocator's worst-case CSR non-zero count, so the
//! engine pre-reserves its scratch from it instead of growing mid-build.

use crate::flow::ActiveFlow;
use horse_types::FlowId;

/// Sentinel for "no slot".
const NONE: u32 = u32::MAX;

struct Slot {
    /// Bumped on every vacate; a slot reached through a stale mapping is
    /// detected by occupant-id mismatch, the generation makes reuse
    /// explicit for debugging and assertions.
    gen: u32,
    /// Global active-list neighbours (`next` doubles as the free-list link
    /// while the slot is vacant).
    prev: u32,
    next: u32,
    flow: Option<ActiveFlow>,
}

/// Slab of active flows in admission order (see module docs).
pub(crate) struct FlowArena {
    slots: Vec<Slot>,
    free_slot: u32,
    /// Direct map `FlowId.0` → slot (ids are dense and monotone).
    id_slot: Vec<u32>,
    /// Global active list, admission order.
    head: u32,
    tail: u32,
    len: usize,
    /// Σ over active flows of route length.
    route_entries: usize,
}

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlowArena {
            slots: Vec::new(),
            free_slot: NONE,
            id_slot: Vec::new(),
            head: NONE,
            tail: NONE,
            len: 0,
            route_entries: 0,
        }
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Live (flow, link) route entries: the sum of route lengths over all
    /// active flows, i.e. the allocator's worst-case CSR non-zero count.
    /// O(1); used to pre-reserve solve scratch.
    pub fn route_entries(&self) -> usize {
        self.route_entries
    }

    /// The slot holding `id`, if the flow is active (stale-id safe).
    #[inline]
    pub fn slot_of(&self, id: FlowId) -> Option<u32> {
        let slot = *self.id_slot.get(id.0 as usize)?;
        if slot == NONE {
            return None;
        }
        debug_assert!(
            matches!(&self.slots[slot as usize].flow, Some(f) if f.id == id),
            "id_slot map out of sync"
        );
        Some(slot)
    }

    /// Read access by id.
    #[inline]
    pub fn get(&self, id: FlowId) -> Option<&ActiveFlow> {
        self.slot_of(id).map(|s| self.flow_at(s))
    }

    /// The flow in an occupied slot (panics on a vacant slot).
    #[inline]
    pub fn flow_at(&self, slot: u32) -> &ActiveFlow {
        self.slots[slot as usize]
            .flow
            .as_ref()
            .expect("occupied slot")
    }

    /// Mutable access to an occupied slot.
    #[inline]
    pub fn flow_at_mut(&mut self, slot: u32) -> &mut ActiveFlow {
        self.slots[slot as usize]
            .flow
            .as_mut()
            .expect("occupied slot")
    }

    /// Inserts an admitted flow at the tail of the active list. Returns
    /// the slot.
    pub fn insert(&mut self, flow: ActiveFlow) -> u32 {
        let slot = match self.free_slot {
            NONE => {
                self.slots.push(Slot {
                    gen: 0,
                    prev: NONE,
                    next: NONE,
                    flow: None,
                });
                (self.slots.len() - 1) as u32
            }
            s => {
                self.free_slot = self.slots[s as usize].next;
                s
            }
        };

        // Direct id map (ids are dense; gaps from dropped flows stay NONE).
        let idx = flow.id.0 as usize;
        if idx >= self.id_slot.len() {
            self.id_slot.resize(idx + 1, NONE);
        }
        debug_assert_eq!(self.id_slot[idx], NONE, "duplicate flow id");
        self.id_slot[idx] = slot;
        self.route_entries += flow.route.links.len();

        // Append to the global active list.
        let s = &mut self.slots[slot as usize];
        s.prev = self.tail;
        s.next = NONE;
        s.flow = Some(flow);
        if self.tail == NONE {
            self.head = slot;
        } else {
            self.slots[self.tail as usize].next = slot;
        }
        self.tail = slot;
        self.len += 1;
        slot
    }

    /// Removes a flow. Returns it, or `None` for ids that are not active
    /// (stale-safe).
    pub fn remove(&mut self, id: FlowId) -> Option<ActiveFlow> {
        let slot = self.slot_of(id)?;
        let si = slot as usize;

        // Unlink from the global active list.
        let (prev, next) = (self.slots[si].prev, self.slots[si].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }

        self.id_slot[id.0 as usize] = NONE;
        let s = &mut self.slots[si];
        let flow = s.flow.take().expect("occupied slot");
        s.gen = s.gen.wrapping_add(1);
        s.prev = NONE;
        s.next = self.free_slot;
        self.free_slot = slot;
        self.len -= 1;
        self.route_entries -= flow.route.links.len();
        Some(flow)
    }

    /// Slots of all active flows, in admission order.
    pub fn iter_slots(&self) -> ActiveSlots<'_> {
        ActiveSlots {
            arena: self,
            cur: self.head,
        }
    }

    /// All active flows, in admission order.
    pub fn iter(&self) -> impl Iterator<Item = &ActiveFlow> + '_ {
        self.iter_slots().map(|s| self.flow_at(s))
    }
}

/// Iterator over active slots (see [`FlowArena::iter_slots`]).
pub(crate) struct ActiveSlots<'a> {
    arena: &'a FlowArena,
    cur: u32,
}

impl Iterator for ActiveSlots<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let s = self.cur;
        self.cur = self.arena.slots[s as usize].next;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{DemandModel, FlowSpec, Route};
    use horse_types::{FlowKey, LinkId, MacAddr, NodeId, Rate, SimTime};

    fn flow(id: u64, links: &[u32]) -> ActiveFlow {
        ActiveFlow {
            id: FlowId(id),
            spec: FlowSpec {
                key: FlowKey::tcp(
                    MacAddr::local_from_id(1),
                    MacAddr::local_from_id(2),
                    "10.0.0.1".parse().unwrap(),
                    "10.0.0.2".parse().unwrap(),
                    id as u16,
                    80,
                ),
                src: NodeId(0),
                dst: NodeId(1),
                demand: DemandModel::Greedy,
                size: None,
                fidelity: Default::default(),
            },
            route: Route {
                hops: Vec::new(),
                links: links.iter().map(|&l| LinkId(l)).collect(),
            },
            rate: Rate::ZERO,
            meter_cap: None,
            bytes_sent: 0.0,
            bytes_remaining: None,
            bytes_dropped: 0.0,
            started: SimTime::ZERO,
            last_update: SimTime::ZERO,
        }
    }

    fn active_ids(a: &FlowArena) -> Vec<u64> {
        a.iter().map(|f| f.id.0).collect()
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut a = FlowArena::new();
        a.insert(flow(0, &[0, 1]));
        a.insert(flow(1, &[1, 2]));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(FlowId(0)).unwrap().route.links.len(), 2);
        let f = a.remove(FlowId(0)).unwrap();
        assert_eq!(f.id, FlowId(0));
        assert_eq!(a.len(), 1);
        assert!(a.get(FlowId(0)).is_none(), "removed id resolves to nothing");
        assert!(a.remove(FlowId(0)).is_none(), "double remove is safe");
        assert_eq!(a.get(FlowId(1)).unwrap().id, FlowId(1));
    }

    #[test]
    fn stale_id_does_not_alias_slot_reuse() {
        let mut a = FlowArena::new();
        a.insert(flow(0, &[0]));
        a.remove(FlowId(0)).unwrap();
        // Reuses slot 0 for a new flow.
        a.insert(flow(1, &[0]));
        assert!(a.get(FlowId(0)).is_none(), "stale id must miss");
        assert_eq!(a.get(FlowId(1)).unwrap().id, FlowId(1));
        assert!(a.slot_of(FlowId(0)).is_none());
    }

    #[test]
    fn global_list_keeps_ascending_id_order_across_churn() {
        let mut a = FlowArena::new();
        for id in 0..6 {
            a.insert(flow(id, &[0]));
        }
        a.remove(FlowId(0)).unwrap();
        a.remove(FlowId(3)).unwrap();
        a.remove(FlowId(5)).unwrap();
        a.insert(flow(6, &[0]));
        assert_eq!(active_ids(&a), vec![1, 2, 4, 6]);
        assert_eq!(a.iter_slots().count(), 4);
    }

    #[test]
    fn slots_recycle() {
        let mut a = FlowArena::new();
        for id in 0..10u64 {
            a.insert(flow(id, &[0, 1, 2, 3]));
            a.remove(FlowId(id)).unwrap();
        }
        assert_eq!(a.slots.len(), 1, "one slot recycled across all rounds");
        assert_eq!(a.len(), 0);
        assert_eq!(a.iter_slots().count(), 0);
    }

    #[test]
    fn route_entries_track_membership_churn() {
        let mut a = FlowArena::new();
        assert_eq!(a.route_entries(), 0);
        a.insert(flow(0, &[0, 1, 2]));
        a.insert(flow(1, &[3]));
        assert_eq!(a.route_entries(), 4, "sum of route lengths");
        a.remove(FlowId(0)).unwrap();
        assert_eq!(a.route_entries(), 1);
        a.remove(FlowId(1)).unwrap();
        assert_eq!(a.route_entries(), 0, "returns to zero after full churn");
    }
}
