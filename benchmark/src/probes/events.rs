//! `events`: the pending-event set under the classic hold model (pop one,
//! schedule one) at two populations, and schedule/cancel churn. The 1m
//! point should move `run_s` on `fat_tree_flaps` (millions of pending
//! `to_switch` events); predicted < 3% of `ixp_steady`.

use super::{secs, Input, Reading, Shared};
use horse::events::EventQueue;
use horse::prelude::*;

pub const METRICS: &[&str] = &[
    "events.hold_ns_per_op.1k",
    "events.hold_ns_per_op.1m",
    "events.cancel_ns_per_op",
];

/// A fixed xorshift stream: the probe's increments repeat exactly.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn hold(pending: usize, ops: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..pending {
        q.schedule_at(SimTime::from_nanos(next(&mut x) % 1_000_000_000), i as u64);
    }
    let (_, s) = secs(|| {
        for _ in 0..ops {
            let ev = q.pop().expect("population is constant");
            let at = ev.time + SimDuration::from_nanos(1 + next(&mut x) % 1_000_000_000);
            q.schedule_at(at, ev.event);
        }
    });
    s * 1e9 / ops as f64
}

pub fn run(input: &Input, _: &mut Shared) -> Vec<Reading> {
    let (big, ops) = if input.smoke {
        (20_000, 20_000)
    } else {
        (1_000_000, 300_000)
    };
    let small = hold(1_000, ops);
    let large = hold(big, ops);
    // Schedule far-future events and cancel each before it can pop — the
    // rate-change path's pattern when it supersedes a completion.
    let mut q: EventQueue<u64> = EventQueue::new();
    let (_, s) = secs(|| {
        for i in 0..ops as u64 {
            let h = q.schedule_at(SimTime::from_nanos(1_000_000 + i), i);
            std::hint::black_box(q.cancel(h));
        }
    });
    vec![
        ("events.hold_ns_per_op.1k", Ok(small)),
        ("events.hold_ns_per_op.1m", Ok(large)),
        ("events.cancel_ns_per_op", Ok(s * 1e9 / ops as f64)),
    ]
}
