//! A workload holds O(members) of heap, not members².
//!
//! The traffic matrix keeps the shape it was built from and the flow
//! generator a block table over its non-zero pairs, so a scenario's
//! workload and the generator drawing from it stay small however many
//! members the matrix spans. Measured with the per-thread counting
//! allocator the start-path pins use.

use horse::prelude::*;
use live_heap::{HIGH, LIVE};
use std::cell::Cell;

#[path = "support/live_heap.rs"]
mod live_heap;

/// 2,048 members, 4,190,208 ordered pairs: a dense matrix held 32 MiB,
/// and the generator's per-pair running sums 64 MiB more.
#[test]
fn generator_over_2048_members_holds_under_a_mib() {
    let mut scenario = Scenario::figure1(SimTime::from_secs(1), 1);
    let before = LIVE.with(Cell::get);
    HIGH.with(|h| h.set(before));
    scenario.workload = Some(WorkloadParams::flat(TrafficMatrix::uniform(2048, 1e9), 1));
    let mut generator = FlowGenerator::new(scenario.workload.clone().expect("just set"));
    let held = LIVE.with(Cell::get) - before;
    let peak = HIGH.with(Cell::get) - before;
    eprintln!("2,048-member workload: {held} B held, {peak} B at the peak");
    let a = generator.next_arrival().expect("the matrix offers traffic");
    assert!(a.src < 2048 && a.dst < 2048 && a.src != a.dst);
    assert!(
        peak < 1 << 20,
        "scenario + generator rose {peak} B at the peak, {held} B held"
    );
}
