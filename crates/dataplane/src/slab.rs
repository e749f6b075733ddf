//! Dense, generation-checked storage for active flows.
//!
//! The fluid engine's hot loop ([`crate::engine::FluidNet::reallocate`])
//! iterates flows and per-link membership on every arrival, completion and
//! failure. [`FlowArena`] backs both with index-addressed state instead of
//! hash maps:
//!
//! * flows live in a **slab** of reusable slots (`FlowId` → dense slot via
//!   a direct-mapped table, generation-checked so stale ids can never
//!   alias a slot's new occupant);
//! * all active flows form one intrusive doubly-linked list in admission
//!   order — deterministic, and almost ascending [`FlowId`] order (ids
//!   are assigned monotonically, but a flow parked on a controller round
//!   trip is re-admitted later with its originally reserved id);
//! * each directed link keeps an intrusive doubly-linked membership list
//!   of the flows routed over it (O(1) insert/remove, cache-friendly
//!   iteration, deterministic admission order).
//!
//! Consumers that need strict id order (the engine's reallocation and
//! statistics sweeps) sort the nearly-sorted slot sets they collect in
//! place, rather than paying hash-map iteration plus a sort per call as
//! the old `HashMap`/`HashSet` state did.
//!
//! Membership nodes are pooled in their own arena (one node per
//! flow × link), so admission/teardown recycle memory instead of
//! allocating per event in steady state.
//!
//! The engine's rebuild routine (the `Full` oracle, restores, split
//! components; see `ARCHITECTURE.md` §10) walks these same
//! admission-ordered lists to discover link-sharing components. The live
//! node count ([`FlowArena::route_entries`]) is exactly the allocator's
//! worst-case CSR non-zero count, so the engine pre-reserves its scratch
//! from it instead of growing mid-build.

use crate::flow::ActiveFlow;
use horse_types::FlowId;

/// Sentinel for "no slot / no node".
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
    /// Head of this flow's membership-node chain (one node per route link).
    first_node: u32,
    flow: Option<ActiveFlow>,
}

/// One (flow, link) membership: a node on that link's intrusive list.
struct MemberNode {
    flow_slot: u32,
    link: u32,
    prev_in_link: u32,
    next_in_link: u32,
    /// Chains the nodes of one flow (`NONE`-terminated); doubles as the
    /// free-list link while the node is vacant.
    next_in_flow: u32,
}

/// Slab of active flows plus per-link intrusive membership lists (see
/// module docs).
pub struct FlowArena {
    slots: Vec<Slot>,
    free_slot: u32,
    nodes: Vec<MemberNode>,
    free_node: u32,
    /// Direct map `FlowId.0` → slot (ids are dense and monotone).
    id_slot: Vec<u32>,
    link_head: Vec<u32>,
    link_tail: Vec<u32>,
    /// Global active list, admission order.
    head: u32,
    tail: u32,
    len: usize,
    /// Live membership nodes (Σ over active flows of route length).
    live_nodes: usize,
}

impl FlowArena {
    /// An empty arena over a topology with `num_links` directed links.
    pub fn new(num_links: usize) -> Self {
        FlowArena {
            slots: Vec::new(),
            free_slot: NONE,
            nodes: Vec::new(),
            free_node: NONE,
            id_slot: Vec::new(),
            link_head: vec![NONE; num_links],
            link_tail: vec![NONE; num_links],
            head: NONE,
            tail: NONE,
            len: 0,
            live_nodes: 0,
        }
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flows are active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (bounds dense per-slot scratch).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Live (flow, link) membership entries: the sum of route lengths
    /// over all active flows, i.e. the allocator's worst-case CSR
    /// non-zero count. O(1); used to pre-reserve solve scratch.
    pub fn route_entries(&self) -> usize {
        self.live_nodes
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

    /// Mutable access by id.
    #[inline]
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut ActiveFlow> {
        self.slot_of(id)
            .map(|s| self.slots[s as usize].flow.as_mut().expect("occupied slot"))
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

    /// Inserts an admitted flow, registering it on the membership list of
    /// every link in its route (appended at the tail, so every list is in
    /// admission order). Returns the slot.
    pub fn insert(&mut self, flow: ActiveFlow) -> u32 {
        let slot = match self.free_slot {
            NONE => {
                self.slots.push(Slot {
                    gen: 0,
                    prev: NONE,
                    next: NONE,
                    first_node: NONE,
                    flow: None,
                });
                (self.slots.len() - 1) as u32
            }
            s => {
                self.free_slot = self.slots[s as usize].next;
                s
            }
        };

        // Membership nodes, chained in route order.
        let mut first_node = NONE;
        let mut chain_tail = NONE;
        for &l in &flow.route.links {
            let li = l.index();
            let node = self.alloc_node(slot, li as u32);
            // Append to the link's list tail (keeps admission order).
            let tail = self.link_tail[li];
            self.nodes[node as usize].prev_in_link = tail;
            if tail == NONE {
                self.link_head[li] = node;
            } else {
                self.nodes[tail as usize].next_in_link = node;
            }
            self.link_tail[li] = node;
            // Chain onto the flow's own node list.
            if chain_tail == NONE {
                first_node = node;
            } else {
                self.nodes[chain_tail as usize].next_in_flow = node;
            }
            chain_tail = node;
        }

        // Direct id map (ids are dense; gaps from dropped flows stay NONE).
        let idx = flow.id.0 as usize;
        if idx >= self.id_slot.len() {
            self.id_slot.resize(idx + 1, NONE);
        }
        debug_assert_eq!(self.id_slot[idx], NONE, "duplicate flow id");
        self.id_slot[idx] = slot;

        // Append to the global active list.
        let s = &mut self.slots[slot as usize];
        s.first_node = first_node;
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
        self.live_nodes += self.flow_at(slot).route.links.len();
        slot
    }

    /// Removes a flow, unlinking it from every membership list. Returns
    /// the flow, or `None` for ids that are not active (stale-safe).
    pub fn remove(&mut self, id: FlowId) -> Option<ActiveFlow> {
        let slot = self.slot_of(id)?;
        let si = slot as usize;

        // Unlink membership nodes.
        let mut node = self.slots[si].first_node;
        while node != NONE {
            let ni = node as usize;
            let (link, prev, next, chain) = (
                self.nodes[ni].link as usize,
                self.nodes[ni].prev_in_link,
                self.nodes[ni].next_in_link,
                self.nodes[ni].next_in_flow,
            );
            if prev == NONE {
                self.link_head[link] = next;
            } else {
                self.nodes[prev as usize].next_in_link = next;
            }
            if next == NONE {
                self.link_tail[link] = prev;
            } else {
                self.nodes[next as usize].prev_in_link = prev;
            }
            // Recycle the node.
            self.nodes[ni].next_in_flow = self.free_node;
            self.free_node = node;
            self.live_nodes -= 1;
            node = chain;
        }

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
        s.first_node = NONE;
        s.prev = NONE;
        s.next = self.free_slot;
        self.free_slot = slot;
        self.len -= 1;
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

    /// Slots of the flows routed over a directed link, admission order.
    pub fn flows_on_link(&self, link: usize) -> LinkSlots<'_> {
        LinkSlots {
            arena: self,
            cur: self.link_head.get(link).copied().unwrap_or(NONE),
        }
    }

    fn alloc_node(&mut self, flow_slot: u32, link: u32) -> u32 {
        match self.free_node {
            NONE => {
                self.nodes.push(MemberNode {
                    flow_slot,
                    link,
                    prev_in_link: NONE,
                    next_in_link: NONE,
                    next_in_flow: NONE,
                });
                (self.nodes.len() - 1) as u32
            }
            n => {
                self.free_node = self.nodes[n as usize].next_in_flow;
                let node = &mut self.nodes[n as usize];
                node.flow_slot = flow_slot;
                node.link = link;
                node.prev_in_link = NONE;
                node.next_in_link = NONE;
                node.next_in_flow = NONE;
                n
            }
        }
    }
}

/// Iterator over active slots (see [`FlowArena::iter_slots`]).
pub struct ActiveSlots<'a> {
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

/// Iterator over a link's member-flow slots (see
/// [`FlowArena::flows_on_link`]).
pub struct LinkSlots<'a> {
    arena: &'a FlowArena,
    cur: u32,
}

impl Iterator for LinkSlots<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NONE {
            return None;
        }
        let n = self.cur;
        self.cur = self.arena.nodes[n as usize].next_in_link;
        Some(self.arena.nodes[n as usize].flow_slot)
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

    fn link_ids(a: &FlowArena, l: usize) -> Vec<u64> {
        a.flows_on_link(l).map(|s| a.flow_at(s).id.0).collect()
    }

    fn active_ids(a: &FlowArena) -> Vec<u64> {
        a.iter().map(|f| f.id.0).collect()
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut a = FlowArena::new(3);
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
        let mut a = FlowArena::new(1);
        a.insert(flow(0, &[0]));
        a.remove(FlowId(0)).unwrap();
        // Reuses slot 0 for a new flow.
        a.insert(flow(1, &[0]));
        assert!(a.get(FlowId(0)).is_none(), "stale id must miss");
        assert_eq!(a.get(FlowId(1)).unwrap().id, FlowId(1));
        assert!(a.slot_of(FlowId(0)).is_none());
    }

    #[test]
    fn link_lists_keep_ascending_id_order() {
        let mut a = FlowArena::new(2);
        for id in 0..5 {
            a.insert(flow(id, &[0, 1]));
        }
        assert_eq!(link_ids(&a, 0), vec![0, 1, 2, 3, 4]);
        // Remove from the middle and the head: order is preserved.
        a.remove(FlowId(2)).unwrap();
        a.remove(FlowId(0)).unwrap();
        assert_eq!(link_ids(&a, 0), vec![1, 3, 4]);
        assert_eq!(link_ids(&a, 1), vec![1, 3, 4]);
        // New (higher) ids still append at the tail.
        a.insert(flow(5, &[0]));
        assert_eq!(link_ids(&a, 0), vec![1, 3, 4, 5]);
        assert_eq!(link_ids(&a, 1), vec![1, 3, 4]);
    }

    #[test]
    fn global_list_keeps_ascending_id_order_across_churn() {
        let mut a = FlowArena::new(1);
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
    fn nodes_and_slots_recycle() {
        let mut a = FlowArena::new(4);
        for round in 0..10u64 {
            let id = round;
            a.insert(flow(id, &[0, 1, 2, 3]));
            a.remove(FlowId(id)).unwrap();
        }
        assert_eq!(a.slot_count(), 1, "one slot recycled across all rounds");
        assert_eq!(a.nodes.len(), 4, "membership nodes recycled");
        assert!(a.is_empty());
        for l in 0..4 {
            assert!(link_ids(&a, l).is_empty());
        }
    }

    #[test]
    fn route_entries_track_membership_churn() {
        let mut a = FlowArena::new(4);
        assert_eq!(a.route_entries(), 0);
        a.insert(flow(0, &[0, 1, 2]));
        a.insert(flow(1, &[3]));
        assert_eq!(a.route_entries(), 4, "sum of route lengths");
        a.remove(FlowId(0)).unwrap();
        assert_eq!(a.route_entries(), 1);
        a.remove(FlowId(1)).unwrap();
        assert_eq!(a.route_entries(), 0, "returns to zero after full churn");
    }

    #[test]
    fn empty_link_iterates_nothing() {
        let a = FlowArena::new(2);
        assert_eq!(a.flows_on_link(0).count(), 0);
        assert_eq!(a.flows_on_link(99).count(), 0, "out of range is empty");
        assert_eq!(a.iter_slots().count(), 0);
    }
}
