//! Property tests for the future event list: total ordering, FIFO ties,
//! cancellation soundness — the invariants every simulation result rests
//! on — and the whole queue against a reference model.

use horse_events::{EventHandle, EventQueue, QueueSnapshot, QueueStats};
use horse_types::{SimTime, Snap, SnapReader, SnapWriter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pops come out sorted by (time, insertion order), whatever the
    /// insertion order was.
    #[test]
    fn pops_are_totally_ordered(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(e) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(e.time >= lt, "time went backwards");
                if e.time == lt {
                    prop_assert!(e.event > li, "FIFO violated for equal times");
                }
            }
            last = Some((e.time, e.event));
        }
    }

    /// Cancelled events never surface; everything else does exactly once.
    #[test]
    fn cancellation_is_sound(
        times in prop::collection::vec(0u64..1_000, 1..150),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (i, q.schedule_at(SimTime::from_nanos(*t), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((i, h), &kill) in handles.iter().zip(cancel_mask.iter().cycle()) {
            if kill {
                prop_assert!(q.cancel(*h));
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(e) = q.pop() {
            prop_assert!(!cancelled.contains(&e.event), "cancelled event delivered");
            prop_assert!(seen.insert(e.event), "event delivered twice");
        }
        prop_assert_eq!(seen.len() + cancelled.len(), times.len());
    }

    /// len() always equals the number of still-deliverable events.
    #[test]
    fn len_is_exact(times in prop::collection::vec(0u64..100, 1..100), kill_every in 2usize..5) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .map(|t| q.schedule_at(SimTime::from_nanos(*t), ()))
            .collect();
        for h in handles.iter().step_by(kill_every) {
            q.cancel(*h);
        }
        let expected = q.len();
        let mut count = 0;
        while q.pop().is_some() {
            count += 1;
        }
        prop_assert_eq!(count, expected);
    }

    /// The queue against a sorted-`Vec` reference model, op by op: pop
    /// order, `len`, every `cancel` verdict (live, delivered, double,
    /// pre-`clear`) and the statistics, through schedules, band fills,
    /// pops, epoch drains, clears and snapshot → encode → decode →
    /// restore cycles.
    #[test]
    fn matches_a_sorted_vec_model(ops in prop::collection::vec((0u8..16, 0u64..1_000), 1..400)) {
        let mut m = Model::default();
        let mut q: EventQueue<u64> = EventQueue::new();
        // Issued handles by payload id (ids are issue order).
        let mut handles: Vec<EventHandle> = Vec::new();
        for (kind, arg) in ops {
            let at = SimTime::from_nanos(arg);
            match kind {
                0..=4 => {
                    let id = handles.len() as u64;
                    handles.push(q.schedule_at(at, id));
                    let seq = m.next_seq;
                    m.next_seq += 1;
                    m.schedule(at, seq, id);
                }
                5 => {
                    let n = arg % 3;
                    m.open.extend(m.next_seq..m.next_seq + n);
                    prop_assert_eq!(q.reserve_seq_band(n), m.next_seq);
                    m.next_seq += n;
                    m.note_peak();
                }
                6 if !m.open.is_empty() => {
                    let seq = m.open.remove(arg as usize % m.open.len());
                    let id = handles.len() as u64;
                    handles.push(q.schedule_at_seq(seq, at, id));
                    m.schedule(at, seq, id);
                }
                7..=9 if !handles.is_empty() => {
                    let id = arg % handles.len() as u64;
                    let live = m.pending.iter().position(|e| e.2 == id);
                    prop_assert_eq!(q.cancel(handles[id as usize]), live.is_some());
                    if let Some(i) = live {
                        m.pending.remove(i);
                        m.stats.cancelled += 1;
                    }
                }
                10 | 11 => {
                    let want = m.pop(None);
                    prop_assert_eq!(q.pop().map(|e| (e.time, e.event)), want);
                }
                12 => {
                    let t = q.peek_time();
                    prop_assert_eq!(t, m.pending.first().map(|e| e.0));
                    if let Some(t) = t {
                        loop {
                            let want = m.pop(Some(t));
                            prop_assert_eq!(q.pop_if_at(t).map(|e| (e.time, e.event)), want);
                            if want.is_none() {
                                break;
                            }
                        }
                    }
                }
                13 if arg % 8 == 0 => {
                    q.clear();
                    m.pending.clear();
                    m.now = SimTime::ZERO;
                }
                14 | 15 => {
                    let mut w = SnapWriter::new();
                    q.snapshot().snap(&mut w);
                    let bytes = w.into_bytes();
                    let snap = QueueSnapshot::unsnap(&mut SnapReader::new(&bytes)).expect("decodes");
                    q = EventQueue::restore(snap);
                    // Old handles belong to the old queue; rebuild them.
                    for h in handles.iter_mut() {
                        *h = EventHandle::NULL;
                    }
                    for (h, &id) in q.pending() {
                        handles[id as usize] = h;
                    }
                }
                _ => {}
            }
            prop_assert_eq!(q.len(), m.pending.len());
            prop_assert_eq!(q.now(), m.now);
            prop_assert_eq!(q.stats(), m.stats);
        }
        while let Some(e) = q.pop() {
            prop_assert_eq!(Some((e.time, e.event)), m.pop(None));
        }
        prop_assert!(m.pending.is_empty());
    }
}

/// Reference future event list: pending `(time, seq, id)` kept sorted.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, u64, u64)>,
    /// Reserved seqs not yet filled.
    open: Vec<u64>,
    next_seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl Model {
    fn schedule(&mut self, at: SimTime, seq: u64, id: u64) {
        let time = if at < self.now {
            self.stats.clamped += 1;
            self.now
        } else {
            at
        };
        let i = self.pending.partition_point(|e| (e.0, e.1) < (time, seq));
        self.pending.insert(i, (time, seq, id));
        self.stats.scheduled += 1;
        self.note_peak();
    }

    fn note_peak(&mut self) {
        let pending = (self.pending.len() + self.open.len()) as u64;
        self.stats.peak_pending = self.stats.peak_pending.max(pending);
    }

    /// Pops the head (only if it fires at `at`, when given).
    fn pop(&mut self, at: Option<SimTime>) -> Option<(SimTime, u64)> {
        let &(time, _, id) = self.pending.first()?;
        if at.is_some_and(|t| t != time) {
            return None;
        }
        self.pending.remove(0);
        self.now = time;
        self.stats.delivered += 1;
        Some((time, id))
    }
}
