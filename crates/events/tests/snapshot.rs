//! Snapshots of the future event list: a restored queue continues
//! exactly like the original, and decoding hostile bytes is an error,
//! never a panic.

use horse_events::{EventHandle, EventQueue, QueueSnapshot};
use horse_types::{SimTime, Snap, SnapError, SnapReader, SnapWriter};

#[test]
fn snapshot_restore_continues_identically() {
    let mut q = EventQueue::new();
    let handles: Vec<EventHandle> = (0..20u32)
        .map(|i| q.schedule_at(SimTime::from_secs(1 + u64::from(i % 7)), i))
        .collect();
    q.pop();
    for h in &handles[3..12] {
        q.cancel(*h);
    }
    let snap = q.snapshot();
    assert_eq!(snap.entries.len(), q.len());
    assert!(snap
        .entries
        .windows(2)
        .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)));

    let mut r = EventQueue::restore(snap.clone());
    assert_eq!(r.snapshot(), snap, "round trip is canonical");
    assert_eq!((r.len(), r.now(), r.stats()), (q.len(), q.now(), q.stats()));
    // Handles are rebuilt from `pending`; cancelling through them
    // matches cancelling the original's.
    let by_event: std::collections::HashMap<u32, EventHandle> =
        r.pending().map(|(h, &v)| (v, h)).collect();
    assert_eq!(by_event.len(), r.len());
    assert!(q.cancel(handles[15]));
    assert!(r.cancel(by_event[&15]));
    assert!(!r.cancel(by_event[&15]));
    q.schedule_at(SimTime::from_secs(4), 77);
    r.schedule_at(SimTime::from_secs(4), 77);
    loop {
        let (a, b) = (q.pop(), r.pop());
        assert_eq!(
            a.as_ref().map(|e| (e.time, e.event)),
            b.as_ref().map(|e| (e.time, e.event))
        );
        assert_eq!(q.stats(), r.stats());
        if a.is_none() {
            break;
        }
    }
}

fn snapped(snap: &QueueSnapshot<u32>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    snap.snap(&mut w);
    w.into_bytes()
}

fn decode(bytes: &[u8]) -> Result<QueueSnapshot<u32>, SnapError> {
    QueueSnapshot::unsnap(&mut SnapReader::new(bytes))
}

#[test]
fn hostile_snapshot_bytes_are_errors_never_panics() {
    let mut q = EventQueue::new();
    let hs: Vec<EventHandle> = (0..6u32)
        .map(|i| q.schedule_at(SimTime::from_nanos(100 + u64::from(i % 3)), i))
        .collect();
    q.pop();
    q.cancel(hs[4]);
    q.reserve_seq_band(2);
    let good = q.snapshot();
    let bytes = snapped(&good);
    assert_eq!(decode(&bytes).expect("round trip"), good);

    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    // A flipped bit is an error or an image a queue could hold: one
    // that restores and drains in order without panicking.
    let mut rejected = 0;
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut hostile = bytes.clone();
            hostile[at] ^= 1 << bit;
            match decode(&hostile) {
                Ok(snap) => {
                    let mut r = EventQueue::restore(snap);
                    let mut last = r.now();
                    while let Some(e) = r.pop() {
                        assert!(e.time >= last);
                        last = e.time;
                    }
                    r.schedule_at(SimTime::from_nanos(1), 0);
                }
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(rejected > 0);

    let rejects = |edit: &dyn Fn(&mut QueueSnapshot<u32>)| {
        let mut s = good.clone();
        edit(&mut s);
        decode(&snapped(&s)).is_err()
    };
    assert!(rejects(&|s| s.entries.swap(0, 1)), "out of order");
    assert!(
        rejects(&|s| s.entries[1] = s.entries[0].clone()),
        "duplicate key"
    );
    assert!(rejects(&|s| s.entries[3].seq = s.next_seq), "unissued seq");
    assert!(
        rejects(&|s| s.now = SimTime::from_nanos(101)),
        "entry in the past"
    );
    assert!(
        rejects(&|s| s.reserved = s.next_seq + 1),
        "phantom reservation"
    );
}
