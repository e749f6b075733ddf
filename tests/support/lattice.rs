//! The differential lattice: each case of a scenario zoo runs as shipped
//! (the base) and once per lattice point, which switches one reference
//! path on, and every run is compared through [`Fingerprint`]:
//!
//! | point | reference path | comparator |
//! |---|---|---|
//! | `Full` | `AllocMode::Full`: re-solve every flow on every run | exact |
//! | `PerFlowVariables` | one allocation variable per flow, no macro-flows | exact |
//! | `UncachedPipeline` | every packet walks the OpenFlow tables | exact |
//! | `PerEvent` | one allocator run per event instead of per epoch | epoch |
//! | `PerEventFull` | the per-event cadence, re-solving every flow | epoch |
//!
//! *Exact* compares the whole fingerprint bit for bit; only the engine's
//! own work counters may differ. *Epoch* is the batching contract: a
//! batch the per-event cadence solves as several cascaded partial
//! problems is solved here as one per-component problem (same
//! equilibrium, last-ulp rounding), so counts match exactly, bytes
//! within 1e-6 relative and finish instants within 1 ns.
//!
//! A point runs where its reference path exists: the pipeline point
//! needs a packet plane, the per-event points a pure fluid run (that
//! cadence also re-couples the hybrid planes on every run). Every test
//! asserts that its points engaged: the fast path did work its
//! reference path did differently.
//!
//! The cases live in `tests/differential.rs`, the random epoch
//! scenarios in `tests/epoch_equivalence.rs` and the hybrid ECMP cache
//! cases in `tests/pkt_burst_equivalence.rs`.

use super::{run_fingerprint, Fingerprint};
use horse::prelude::*;
use horse::Oracles;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Point {
    Full,
    PerFlowVariables,
    UncachedPipeline,
    PerEvent,
    PerEventFull,
}

impl Point {
    pub const ALL: [Point; 5] = [
        Point::Full,
        Point::PerFlowVariables,
        Point::UncachedPipeline,
        Point::PerEvent,
        Point::PerEventFull,
    ];

    /// The base configuration with this point's reference path on.
    fn setup(self, config: SimConfig) -> (SimConfig, Oracles) {
        let oracles = Oracles {
            per_event_realloc: !self.is_exact(),
            per_flow_variables: self == Point::PerFlowVariables,
            uncached_pipeline: self == Point::UncachedPipeline,
        };
        match self {
            Point::Full | Point::PerEventFull => (config.with_alloc_mode(AllocMode::Full), oracles),
            _ => (config, oracles),
        }
    }

    fn is_exact(self) -> bool {
        !matches!(self, Point::PerEvent | Point::PerEventFull)
    }
}

/// One case's base run and the run of every point that applies to it.
pub struct Lattice {
    pub base: Fingerprint,
    pub points: Vec<(Point, Fingerprint)>,
}

impl Lattice {
    pub fn point(&self, p: Point) -> Option<&Fingerprint> {
        self.points.iter().find(|(q, _)| *q == p).map(|(_, f)| f)
    }

    /// Whether the fast path `p` replaces did work on this case that its
    /// reference path did differently.
    pub fn engaged(&self, p: Point) -> bool {
        let (b, Some(o)) = (&self.base, self.point(p)) else {
            return false;
        };
        match p {
            Point::Full => o.work.realloc_flows_touched > b.work.realloc_flows_touched,
            Point::PerFlowVariables => {
                b.work.macro_flows < b.work.realloc_flows_touched
                    && o.work.macro_flows == o.work.realloc_flows_touched
            }
            Point::UncachedPipeline => b.work.pkt_cache[0] > 0 && o.work.pkt_cache == [0; 3],
            Point::PerEvent | Point::PerEventFull => o.realloc_runs > b.realloc_runs,
        }
    }

    pub fn assert_engaged(&self, case: &str, points: &[Point]) {
        for &p in points {
            assert!(self.engaged(p), "{case}: {p:?} did not engage");
        }
    }
}

/// Runs `scenario` under `config` and every point that applies to it,
/// asserting each point's comparator against the base run.
pub fn lattice(case: &str, scenario: Scenario, config: SimConfig) -> Lattice {
    lattice_at(&Point::ALL, case, scenario, config)
}

/// [`lattice`] on a subset of the points. Every run is independent, so
/// they run side by side; only the points that need to know whether the
/// case has a packet plane wait for the base.
pub fn lattice_at(only: &[Point], case: &str, scenario: Scenario, config: SimConfig) -> Lattice {
    let run = |p: Point| {
        let (c, o) = p.setup(config);
        run_fingerprint(scenario.clone(), c, o)
    };
    let (base, points) = std::thread::scope(|scope| {
        let run = &run;
        let spawn = |&p: &Point| (p, scope.spawn(move || run(p)));
        let fluid = |p: &&Point| matches!(p, Point::Full | Point::PerFlowVariables);
        let mut runs: Vec<_> = only.iter().filter(fluid).map(spawn).collect();
        let base = run_fingerprint(scenario.clone(), config, Oracles::default());
        let packet = base.packet.is_some();
        let late = |p: &&Point| match p {
            Point::UncachedPipeline => packet,
            Point::PerEvent | Point::PerEventFull => !packet,
            Point::Full | Point::PerFlowVariables => false,
        };
        runs.extend(only.iter().filter(late).map(spawn));
        let points: Vec<(Point, Fingerprint)> = (runs.into_iter())
            .map(|(p, run)| (p, run.join().expect("lattice point panicked")))
            .collect();
        (base, points)
    });
    for (p, got) in &points {
        if p.is_exact() {
            assert_eq!(
                got.without_work(),
                base.without_work(),
                "{case}: {p:?} disagrees with the fast path"
            );
        } else {
            assert_epoch_equivalent(&format!("{case}, {p:?}"), &base, got);
        }
    }
    Lattice { base, points }
}

// A completion instant moved by a nanosecond integrates sub-byte drift on
// multi-megabyte flows; a semantics bug shifts whole rate shares.
const REL_TOL: f64 = 1e-6;

fn close(a: u64, b: u64) -> bool {
    let (a, b) = (f64::from_bits(a), f64::from_bits(b));
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The epoch contract between the batched base and a per-event run.
fn assert_epoch_equivalent(at: &str, batched: &Fingerprint, per_event: &Fingerprint) {
    // Event for event the *simulation* is the same: every arrival,
    // control crossing and completion happens in both runs. The
    // per-event cadence merely supersedes (and cancels) more completion
    // events, and a superseded completion never pops on either side.
    let counts = |f: &Fingerprint| {
        [
            f.events,
            f.realloc_requests,
            f.stale_completions,
            f.flows_admitted,
            f.flows_completed,
            f.flows_dropped,
            f.msgs_to_controller,
            f.msgs_to_switch,
        ]
    };
    assert_eq!(counts(per_event), counts(batched), "counts ({at})");
    assert_eq!(batched.stale_completions, 0, "{at}");
    assert!(batched.queue.cancelled <= per_event.queue.cancelled, "{at}");
    assert!(
        batched.realloc_runs <= per_event.realloc_runs,
        "batching must never run the allocator more often ({at})"
    );
    assert!(
        close(batched.bytes_delivered, per_event.bytes_delivered),
        "bytes delivered ({at})"
    );
    // Simultaneous completions can close in a different order under the
    // two cadences (their events were scheduled by different allocator
    // runs), so records are compared as a set keyed by flow id.
    let sorted = |f: &Fingerprint| {
        let mut r = f.records.clone();
        r.sort_by_key(|r| (r.0, r.1));
        r
    };
    let (b, o) = (sorted(batched), sorted(per_event));
    assert_eq!(b.len(), o.len(), "record counts ({at})");
    for (b, o) in b.iter().zip(&o) {
        assert_eq!((b.0, b.1, b.3), (o.0, o.1, o.3), "record set ({at})");
        // Finish instants within a nanosecond: a completion prediction
        // computed from last-ulp different rates rounds either way.
        assert!(
            b.2.abs_diff(o.2) <= 1 && close(b.4, o.4) && close(b.5, o.5),
            "flow {} diverged ({at}): {b:?} vs {o:?}",
            b.0
        );
    }
}
