//! The future event list (FEL).
//!
//! An indexed binary min-heap over a payload slab, with three properties
//! the simulator depends on:
//!
//! 1. **Determinism** — entries are ordered by `(time, seq)` where `seq` is
//!    a monotonically increasing scheduling counter, so simultaneous events
//!    pop in the order they were scheduled, on every run.
//! 2. **Exact O(log n) cancellation** — the heap moves only 24-byte
//!    `(time, seq, slot)` keys; payloads sit in a slab whose slots record
//!    their heap position, so [`EventQueue::cancel`] removes the entry
//!    where it stands. Nothing dead stays behind: `len()` is the heap
//!    length and no pop ever skips an entry. Each slot also carries a
//!    generation, so a handle to a delivered, cancelled or cleared event
//!    is refused exactly. The simulator cancels a flow's completion event
//!    whenever a rate change supersedes it, keeping one live completion
//!    per flow.
//! 3. **Monotone time** — scheduling into the past is clamped to "now"
//!    (recorded in [`QueueStats::clamped`]) rather than silently reordering
//!    history.

use horse_types::{SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter};

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Encodes the event's slab slot and that slot's generation, so a handle
/// outlives its event harmlessly: once the event is delivered, cancelled
/// or cleared, the handle matches nothing. Handles belong to one queue;
/// after [`EventQueue::restore`] the owner rebuilds them from
/// [`EventQueue::pending`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

impl EventHandle {
    /// A handle that never corresponds to a scheduled event.
    pub const NULL: EventHandle = EventHandle(u64::MAX);

    fn new(slot: u32, gen: u32) -> Self {
        EventHandle(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event popped from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The handle it was scheduled under.
    pub handle: EventHandle,
    /// The payload.
    pub event: E,
}

/// What the heap moves: the ordering key and where the payload lives.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    fn before(&self, other: &Key) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// One payload slot. While occupied, `pos` is its key's heap index.
struct Slot<E> {
    event: Option<E>,
    pos: u32,
    /// Bumped every time the slot is vacated.
    gen: u32,
}

/// Counters describing queue activity, exported with simulation results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Snap)]
pub struct QueueStats {
    /// Events scheduled since creation.
    pub scheduled: u64,
    /// Events popped (delivered).
    pub delivered: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// Always 0: a cancel removes its entry, so no pop skips one. Kept,
    /// like `compactions`, because the benchmark harness reads it.
    pub skipped: u64,
    /// Events whose requested time lay in the past and was clamped to now.
    pub clamped: u64,
    /// Always 0: there are no dead entries to compact away.
    pub compactions: u64,
    /// High-water mark of pending events. Reserved sequence slots not yet
    /// filled count as pending, so a fork that fills its what-if band late
    /// reports the same peak as a run that filled it up front.
    pub peak_pending: u64,
}

/// One pending event of a [`QueueSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry<E> {
    /// Fire time.
    pub time: SimTime,
    /// Scheduling sequence number.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// A frozen, canonical image of an [`EventQueue`].
///
/// Entries are the pending events sorted by `(time, seq)` — a total
/// order, since seqs are unique — so two queues holding the same logical
/// state produce the same snapshot regardless of their heap and slab
/// layout. Decoding rejects an image no queue could have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot<E> {
    /// Pending events in `(time, seq)` order.
    pub entries: Vec<SnapshotEntry<E>>,
    /// The scheduling counter.
    pub next_seq: u64,
    /// Reserved sequence slots not yet filled.
    pub reserved: u64,
    /// The queue clock.
    pub now: SimTime,
    /// Activity counters.
    pub stats: QueueStats,
}

impl<E: Snap> Snap for SnapshotEntry<E> {
    fn snap(&self, w: &mut SnapWriter) {
        self.time.snap(w);
        self.seq.snap(w);
        self.event.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(SnapshotEntry {
            time: Snap::unsnap(r)?,
            seq: Snap::unsnap(r)?,
            event: Snap::unsnap(r)?,
        })
    }
}

impl<E: Snap> Snap for QueueSnapshot<E> {
    fn snap(&self, w: &mut SnapWriter) {
        self.entries.snap(w);
        self.next_seq.snap(w);
        self.reserved.snap(w);
        self.now.snap(w);
        self.stats.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let snap = QueueSnapshot {
            entries: Vec::<SnapshotEntry<E>>::unsnap(r)?,
            next_seq: Snap::unsnap(r)?,
            reserved: Snap::unsnap(r)?,
            now: Snap::unsnap(r)?,
            stats: Snap::unsnap(r)?,
        };
        let bad = |msg: String| Err(SnapError::new(msg, r.position()));
        if snap.reserved > snap.next_seq {
            return bad(format!(
                "{} reserved seqs exceed next_seq {}",
                snap.reserved, snap.next_seq
            ));
        }
        for (i, e) in snap.entries.iter().enumerate() {
            if e.seq >= snap.next_seq {
                return bad(format!(
                    "entry seq {} not below next_seq {}",
                    e.seq, snap.next_seq
                ));
            }
            if e.time < snap.now {
                return bad(format!("entry {} fires before the queue clock", e.seq));
            }
            if i > 0 && (e.time, e.seq) <= (snap.entries[i - 1].time, snap.entries[i - 1].seq) {
                return bad(format!("entry {} out of (time, seq) order", e.seq));
            }
        }
        Ok(snap)
    }
}

/// Deterministic future event list.
///
/// ```
/// use horse_events::EventQueue;
/// use horse_types::SimTime;
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_at(SimTime::from_secs(2), "second");
/// let h = q.schedule_at(SimTime::from_secs(1), "first");
/// q.schedule_at(SimTime::from_secs(1), "also-first-but-later");
/// assert!(q.cancel(h));
/// let e = q.pop().unwrap();
/// assert_eq!(e.event, "also-first-but-later"); // "first" was cancelled
/// assert_eq!(q.pop().unwrap().event, "second");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Min-heap of keys by `(time, seq)`.
    heap: Vec<Key>,
    slots: Vec<Slot<E>>,
    /// Vacant slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
    /// Seqs handed out by [`EventQueue::reserve_seq_band`] and not yet
    /// filled by [`EventQueue::schedule_at_seq`].
    reserved: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            reserved: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Current simulated time — the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue activity counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `event` at absolute time `at` (clamped to `now` if in the
    /// past) and returns a cancellation handle.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, event)
    }

    /// Schedules `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at the current time (fires after all events already
    /// scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventHandle {
        self.schedule_at(self.now, event)
    }

    /// Cancels a previously scheduled event, removing it from the heap.
    /// Returns `true` iff the event was still pending: cancelling a
    /// delivered, already-cancelled or cleared event is a `false` no-op,
    /// however often it is retried.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let slot = handle.slot();
        let pos = match self.slots.get(slot) {
            Some(s) if s.gen == handle.gen() && s.event.is_some() => s.pos as usize,
            _ => return false,
        };
        self.remove_at(pos);
        self.vacate(slot);
        self.stats.cancelled += 1;
        true
    }

    /// Timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.time)
    }

    /// Pops the next event **only if** it fires exactly at `t` — the
    /// epoch-drain primitive: the caller peeks the head timestamp once
    /// and then drains the whole same-instant batch (including events
    /// scheduled *for `t` during the drain*, which join the batch in seq
    /// order) without interleaving peeks and branches.
    ///
    /// ```
    /// use horse_events::EventQueue;
    /// use horse_types::SimTime;
    ///
    /// let mut q: EventQueue<u32> = EventQueue::new();
    /// q.schedule_at(SimTime::from_secs(1), 1);
    /// q.schedule_at(SimTime::from_secs(1), 2);
    /// q.schedule_at(SimTime::from_secs(2), 3);
    /// let t = q.peek_time().unwrap();
    /// let mut batch = Vec::new();
    /// while let Some(e) = q.pop_if_at(t) {
    ///     batch.push(e.event);
    /// }
    /// assert_eq!(batch, vec![1, 2]); // the t=2 event stays queued
    /// ```
    pub fn pop_if_at(&mut self, t: SimTime) -> Option<ScheduledEvent<E>> {
        if self.heap.first()?.time != t {
            return None;
        }
        self.pop()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let key = *self.heap.first()?;
        self.remove_at(0);
        debug_assert!(key.time >= self.now, "event queue time went backwards");
        self.now = key.time;
        let handle = EventHandle::new(key.slot, self.slots[key.slot as usize].gen);
        let event = self.vacate(key.slot as usize);
        self.stats.delivered += 1;
        Some(ScheduledEvent {
            time: key.time,
            handle,
            event,
        })
    }

    /// Drops every pending event and resets the clock; statistics and the
    /// scheduling counter are preserved, and every outstanding handle
    /// stops matching.
    pub fn clear(&mut self) {
        while let Some(key) = self.heap.pop() {
            self.vacate(key.slot as usize);
        }
        self.now = SimTime::ZERO;
    }

    /// Every pending event with its current handle, in no particular
    /// order — how an owner that keeps handles rebuilds them after
    /// [`EventQueue::restore`].
    pub fn pending(&self) -> impl Iterator<Item = (EventHandle, &E)> + '_ {
        self.heap.iter().map(|k| {
            let s = &self.slots[k.slot as usize];
            let event = s.event.as_ref().expect("heap keys address occupied slots");
            (EventHandle::new(k.slot, s.gen), event)
        })
    }

    /// Captures the queue as a canonical [`QueueSnapshot`]. The queue is
    /// untouched.
    pub fn snapshot(&self) -> QueueSnapshot<E>
    where
        E: Clone,
    {
        let mut entries: Vec<SnapshotEntry<E>> = self
            .heap
            .iter()
            .map(|k| SnapshotEntry {
                time: k.time,
                seq: k.seq,
                event: self.slots[k.slot as usize]
                    .event
                    .clone()
                    .expect("heap keys address occupied slots"),
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        QueueSnapshot {
            entries,
            next_seq: self.next_seq,
            reserved: self.reserved,
            now: self.now,
            stats: self.stats,
        }
    }

    /// Rebuilds a queue from a [`QueueSnapshot`]. The result pops the same
    /// events in the same order, assigns the same future seqs and evolves
    /// the same statistics as the queue that produced the snapshot; only
    /// the handles are new (see [`EventQueue::pending`]).
    pub fn restore(snap: QueueSnapshot<E>) -> Self {
        let mut entries = snap.entries;
        // Already sorted when it came from `snapshot` or a decoder; a
        // sorted array is a valid heap, so no sifting is needed.
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        let mut q = EventQueue {
            heap: Vec::with_capacity(entries.len()),
            slots: Vec::with_capacity(entries.len()),
            free: Vec::new(),
            next_seq: snap.next_seq,
            reserved: snap.reserved,
            now: snap.now,
            stats: snap.stats,
        };
        for (i, e) in entries.into_iter().enumerate() {
            q.heap.push(Key {
                time: e.time,
                seq: e.seq,
                slot: i as u32,
            });
            q.slots.push(Slot {
                event: Some(e.event),
                pos: i as u32,
                gen: 0,
            });
        }
        q
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    ///
    /// The reserved band is *not* scheduled — later calls to
    /// [`EventQueue::schedule_at_seq`] fill individual slots. This is the
    /// fork-determinism primitive: a shared prefix run reserves a band up
    /// front, so every fork can inject its variant-specific events with
    /// exactly the `(time, seq)` coordinates the equivalent
    /// straight-through run would have used, leaving all subsequent seq
    /// assignments (and hence the entire event order) unchanged.
    pub fn reserve_seq_band(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        self.reserved = self.reserved.saturating_add(n);
        self.note_pending();
        base
    }

    /// Schedules `event` at `at` under an explicit sequence number from a
    /// band previously reserved with [`EventQueue::reserve_seq_band`].
    ///
    /// # Panics
    /// Panics if `seq` was never reserved (`seq >= next_seq`) or belongs
    /// to a pending event — both indicate a bookkeeping bug in the caller,
    /// never a data-dependent condition.
    pub fn schedule_at_seq(&mut self, seq: u64, at: SimTime, event: E) -> EventHandle {
        assert!(seq < self.next_seq, "seq {seq} was never reserved");
        assert!(
            self.heap.iter().all(|k| k.seq != seq),
            "seq {seq} already scheduled"
        );
        self.reserved = self.reserved.saturating_sub(1);
        self.insert(at, seq, event)
    }

    fn insert(&mut self, at: SimTime, seq: u64, event: E) -> EventHandle {
        let time = if at < self.now {
            self.stats.clamped += 1;
            self.now
        } else {
            at
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot {
                    event: Some(event),
                    pos: 0,
                    gen: 0,
                });
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Key { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.stats.scheduled += 1;
        self.note_pending();
        EventHandle::new(slot, self.slots[slot as usize].gen)
    }

    fn note_pending(&mut self) {
        let pending = (self.heap.len() as u64).saturating_add(self.reserved);
        self.stats.peak_pending = self.stats.peak_pending.max(pending);
    }

    /// Frees a slot whose key has left the heap, returning its payload.
    fn vacate(&mut self, slot: usize) -> E {
        let s = &mut self.slots[slot];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot as u32);
        s.event.take().expect("vacated slot was occupied")
    }

    /// Removes the key at heap index `pos`, restoring heap order.
    fn remove_at(&mut self, pos: usize) {
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The former last key now sits at `pos`; it may belong above
            // it (it came from another subtree) or below it.
            let at = self.sift_up(pos);
            self.sift_down(at);
        }
    }

    /// Moves the key at `pos` up to its place and returns where it landed.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, key);
        pos
    }

    fn sift_down(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            if !self.heap[child].before(&key) {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, key);
    }

    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        self.slots[key.slot as usize].pos = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop().map(|e| e.event)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3u32);
        q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(2), 2u32);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule_at(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn past_schedules_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), "a");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "late");
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(5));
        assert_eq!(q.stats().clamped, 1);
    }

    #[test]
    fn cancel_removes_the_entry() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_at(SimTime::from_secs(1), "one");
        q.schedule_at(SimTime::from_secs(2), "two");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.len(), 1, "len is the heap length");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop().unwrap().event, "two");
        assert!(q.pop().is_none());
        let s = q.stats();
        assert_eq!((s.cancelled, s.skipped, s.compactions), (1, 0, 0));
    }

    #[test]
    fn cancel_null_unknown_and_delivered_handles() {
        let mut q = EventQueue::new();
        assert!(!q.cancel(EventHandle::NULL));
        assert!(!q.cancel(EventHandle(999)), "never issued");
        let h = q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().handle, h);
        assert!(!q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!((q.stats().cancelled, q.len()), (0, 1));
        assert_eq!(drain(&mut q), vec![2]);
    }

    #[test]
    fn stale_handle_never_cancels_the_slot_reuser() {
        let mut q = EventQueue::new();
        let old = q.schedule_at(SimTime::from_secs(1), 1u32);
        assert!(q.cancel(old));
        let new = q.schedule_at(SimTime::from_secs(1), 2);
        assert_eq!(old.slot(), new.slot(), "the vacated slot is reused");
        assert!(!q.cancel(old), "generation mismatch");
        assert_eq!(drain(&mut q), vec![2]);
    }

    #[test]
    fn cancel_anywhere_keeps_heap_order() {
        let mut q = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut live: Vec<(u64, u32, EventHandle)> = (0..512u32)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let t = x % 1_000;
                (t, i, q.schedule_at(SimTime::from_nanos(t), i))
            })
            .collect();
        // The last key, moved into a cancelled hole in another subtree,
        // often belongs above the hole: that takes the sift-up.
        for (_, _, h) in live.iter().step_by(3) {
            assert!(q.cancel(*h));
        }
        let mut i = 0;
        live.retain(|_| {
            i += 1;
            i % 3 != 1
        });
        live.sort_by_key(|&(t, v, _)| (t, v));
        assert_eq!(q.len(), live.len());
        assert_eq!(
            drain(&mut q),
            live.iter().map(|&(_, v, _)| v).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_now_fires_after_existing_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, "a");
        q.schedule_now("b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn clear_resets_clock_keeps_stats_and_voids_handles() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.pop();
        let h = q.schedule_at(SimTime::from_secs(9), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.stats().scheduled, 2);
        assert!(!q.cancel(h), "pre-clear handle");
        q.schedule_at(SimTime::from_secs(3), ());
        assert!(!q.cancel(h), "even once its slot is reused");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_if_at_drains_one_epoch_only() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        q.schedule_at(t1, 1u32);
        q.schedule_at(SimTime::from_secs(2), 3);
        let h = q.schedule_at(t1, 99);
        q.schedule_at(t1, 2);
        q.cancel(h);
        let t = q.peek_time().unwrap();
        assert_eq!(t, t1);
        let mut batch = Vec::new();
        while let Some(e) = q.pop_if_at(t) {
            batch.push(e.event);
            if e.event == 1 {
                // events scheduled for the epoch time mid-drain join the
                // batch in seq order
                q.schedule_at(t1, 10);
            }
        }
        assert_eq!(batch, vec![1, 2, 10], "seq order, cancelled event gone");
        assert_eq!(q.now(), t1);
        assert_eq!(q.pop_if_at(t1), None, "next event is a later epoch");
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop_if_at(SimTime::from_secs(9)), None, "empty queue");
    }

    #[test]
    fn peak_pending_is_the_high_water_mark() {
        let mut q = EventQueue::new();
        let hs: Vec<EventHandle> = (0..5u32)
            .map(|i| q.schedule_at(SimTime::from_secs(1), i))
            .collect();
        q.cancel(hs[0]);
        q.pop();
        q.schedule_at(SimTime::from_secs(2), 9);
        assert_eq!((q.len(), q.stats().peak_pending), (4, 5));
        // Reserved slots count as pending from the moment they are reserved.
        let base = q.reserve_seq_band(3);
        assert_eq!(q.stats().peak_pending, 7);
        q.schedule_at_seq(base, SimTime::from_secs(3), 7);
        assert_eq!(q.stats().peak_pending, 7, "filling a slot is not growth");
    }

    #[test]
    fn seq_band_injection_matches_straight_through_order() {
        // Straight-through: events scheduled in one go.
        let mut straight = EventQueue::new();
        let t = SimTime::from_secs(5);
        straight.schedule_at(t, 1u32); // seq 0
        straight.schedule_at(t, 2); // seq 1 (the "axis" event)
        straight.schedule_at(t, 3); // seq 2

        // Forked: the prefix reserves the axis slot, later filled in.
        let mut forked = EventQueue::new();
        forked.schedule_at(t, 1); // seq 0
        let base = forked.reserve_seq_band(1); // seq 1 reserved
        forked.schedule_at(t, 3); // seq 2
        forked.schedule_at_seq(base, t, 2); // axis event lands at seq 1

        assert_eq!(drain(&mut straight), vec![1, 2, 3]);
        assert_eq!(
            drain(&mut forked),
            vec![1, 2, 3],
            "band injection reproduces the order"
        );
        assert_eq!(straight.stats(), forked.stats());
    }

    #[test]
    fn seq_band_survives_snapshot() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1u32);
        let base = q.reserve_seq_band(4);
        let mut r = EventQueue::restore(q.snapshot());
        // The band is still reserved after restore: a band slot sorts
        // before a fresh schedule at the same instant.
        r.schedule_at(SimTime::from_secs(3), 8);
        r.schedule_at_seq(base + 2, SimTime::from_secs(3), 9);
        assert_eq!(drain(&mut r), vec![1, 9, 8]);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn schedule_at_seq_rejects_unreserved() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at_seq(3, SimTime::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn schedule_at_seq_rejects_reuse() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at_seq(0, SimTime::from_secs(1), 2);
    }

    #[test]
    fn interleaved_schedule_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 10);
        q.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule_at(SimTime::from_secs(5), 5);
        q.schedule_in(SimDuration::from_secs(2), 3);
        assert_eq!(q.pop().unwrap().event, 3); // t=3
        assert_eq!(q.pop().unwrap().event, 5); // t=5
        assert_eq!(q.pop().unwrap().event, 10); // t=10
    }
}
