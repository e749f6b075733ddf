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
//! | `Traced` | the full tracer on: spans and the event journal | exact, metrics masked |
//! | `Resumed` | checkpoint at each cut, drop, resume, finish | against `Traced`: exact with metrics, journal byte for byte |
//! | `HybridAttached` | `enable_hybrid()` on a pure fluid case | exact, packet plane and metrics masked |
//!
//! *Exact* compares the whole fingerprint bit for bit; only the engine's
//! own work counters may differ, and only on the first three points.
//! *Epoch* is the batching contract: a batch the per-event cadence
//! solves as several cascaded partial problems is solved here as one
//! per-component problem (same equilibrium, last-ulp rounding), so
//! counts match exactly, bytes within 1e-6 relative and finish instants
//! within 1 ns.
//!
//! `Resumed` runs with the same tracer as `Traced` and cuts at each of
//! the case's cut instants in turn (the horizon's midpoint unless the
//! case names them), resuming from the bytes with the oracles set again.
//! Its prefix and suffix journals together must equal the `Traced`
//! journal byte for byte, which proves both that resuming is invisible
//! and that journals are deterministic; the run's metrics (the counts'
//! fields and the registry dump a checkpoint carries) must resume
//! seamlessly too.
//!
//! A point runs where its reference path exists: the pipeline point
//! needs a packet plane, the per-event points and `HybridAttached` a
//! pure fluid run (the per-event cadence also re-couples the hybrid
//! planes on every run). Every base run must keep two invariants: the
//! allocator runs at most once per request, and the hybrid planes couple
//! at most once per epoch. When an exact point disagrees, the pair is run
//! again with journals and the first diverging event is named in the
//! panic. Every test asserts that its points engaged: the fast path did
//! work its reference path did differently.
//!
//! The cases live in `tests/differential.rs`, the random epoch
//! scenarios in `tests/epoch_equivalence.rs`, the hybrid ECMP cache
//! cases in `tests/pkt_burst_equivalence.rs`, the resume cases in
//! `tests/checkpoint_equivalence.rs`, the random chaos schedules in
//! `tests/chaos_determinism.rs`, the Figure-1 `Traced` and `Resumed`
//! cases in `tests/trace_divergence.rs`, and the Figure-1
//! `HybridAttached` case and the packet-aligned hybrid case in
//! `tests/hybrid_equivalence.rs`.

use super::{build, entries, fingerprint, Fingerprint};
use horse::events::QueueStats;
use horse::prelude::*;
use horse::tracing::journal::SharedBuf;
use horse::tracing::{describe_divergence, first_divergence};
use horse::Oracles;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Point {
    Full,
    PerFlowVariables,
    UncachedPipeline,
    PerEvent,
    PerEventFull,
    Traced,
    Resumed,
    HybridAttached,
}

impl Point {
    pub const ALL: [Point; 8] = [
        Point::Full,
        Point::PerFlowVariables,
        Point::UncachedPipeline,
        Point::PerEvent,
        Point::PerEventFull,
        Point::Traced,
        Point::Resumed,
        Point::HybridAttached,
    ];

    /// The case's configuration with this point's reference path on.
    fn setup(self, case: &Case) -> (SimConfig, Oracles) {
        let oracles = Oracles {
            per_event_realloc: case.oracles.per_event_realloc || !self.is_exact(),
            per_flow_variables: case.oracles.per_flow_variables || self == Point::PerFlowVariables,
            uncached_pipeline: case.oracles.uncached_pipeline || self == Point::UncachedPipeline,
        };
        match self {
            Point::Full | Point::PerEventFull => {
                (case.config.with_alloc_mode(AllocMode::Full), oracles)
            }
            _ => (case.config, oracles),
        }
    }

    fn is_exact(self) -> bool {
        !matches!(self, Point::PerEvent | Point::PerEventFull)
    }

    /// Whether the point applies to a case whose base has (`packet`) or
    /// lacks a packet plane.
    fn applies(self, packet: bool) -> bool {
        match self {
            Point::UncachedPipeline => packet,
            Point::PerEvent | Point::PerEventFull | Point::HybridAttached => !packet,
            Point::Full | Point::PerFlowVariables | Point::Traced | Point::Resumed => true,
        }
    }

    /// The part of a run this point's comparator reads.
    fn compared(self, f: &Fingerprint) -> Fingerprint {
        match self {
            Point::Full | Point::PerFlowVariables | Point::UncachedPipeline => f.without_work(),
            Point::Traced => {
                let mut f = f.clone();
                f.work.metrics = Default::default();
                f
            }
            // The packet plane's counts are metrics too.
            Point::HybridAttached => {
                let mut f = f.clone();
                f.packet = None;
                f.work.metrics = Default::default();
                f
            }
            Point::Resumed | Point::PerEvent | Point::PerEventFull => f.clone(),
        }
    }
}

/// One scenario of the zoo and how its base runs.
#[derive(Clone)]
pub struct Case {
    pub name: String,
    pub scenario: Scenario,
    pub config: SimConfig,
    /// Reference paths the base itself runs with (none unless given);
    /// every point switches its own on top.
    pub oracles: Oracles,
    /// Where `Resumed` checkpoints and resumes, in order.
    pub cuts: Vec<SimTime>,
}

impl Case {
    /// A case cut at the horizon's midpoint.
    pub fn new(name: impl Into<String>, scenario: Scenario, config: SimConfig) -> Case {
        let cuts = vec![SimTime::from_nanos(scenario.horizon.as_nanos() / 2)];
        Case {
            name: name.into(),
            scenario,
            config,
            oracles: Oracles::default(),
            cuts,
        }
    }

    pub fn cut_at(self, cuts: impl IntoIterator<Item = SimTime>) -> Case {
        Case {
            cuts: cuts.into_iter().collect(),
            ..self
        }
    }

    pub fn with_oracles(self, oracles: Oracles) -> Case {
        Case { oracles, ..self }
    }
}

/// The simulation's state at one `Resumed` cut.
#[derive(Clone, Copy, Debug)]
pub struct Cut {
    pub active_flows: u64,
    pub queue: QueueStats,
}

impl Cut {
    pub fn pending(&self) -> u64 {
        self.queue.scheduled - self.queue.delivered - self.queue.cancelled
    }
}

/// What one run of a case leaves behind.
pub struct Run {
    pub fp: Fingerprint,
    /// The event journal (empty unless the run kept one).
    pub journal: String,
    /// The state at each `Resumed` cut.
    pub cuts: Vec<Cut>,
}

/// Runs `case` as shipped (`None`) or at `point`. `Traced` and `Resumed`
/// carry the full tracer; `journal` gives any other run a journal only.
fn run(case: &Case, point: Option<Point>, journal: bool) -> Run {
    let (config, oracles) = point.map_or((case.config, case.oracles), |p| p.setup(case));
    let mut sim = build(case.scenario.clone(), config, oracles);
    if point == Some(Point::HybridAttached) {
        sim.enable_hybrid();
    }
    let buf = SharedBuf::new();
    let tracer = || match point {
        Some(Point::Traced | Point::Resumed) => {
            Some(SimTracer::new().with_spans().with_journal(buf.clone()))
        }
        _ => journal.then(|| SimTracer::new().with_journal(buf.clone())),
    };
    if let Some(t) = tracer() {
        sim.set_tracer(t);
    }
    let mut cuts = Vec::new();
    if point == Some(Point::Resumed) {
        for &at in &case.cuts {
            sim.run_until(at);
            let snapshot = sim.checkpoint();
            sim.take_tracer().expect("tracer").finish_journal();
            let r = sim.finish();
            cuts.push(Cut {
                active_flows: r.flows_active_at_end,
                queue: r.queue,
            });
            sim = Simulation::resume(&snapshot).expect("snapshot resumes");
            sim.set_oracles(oracles);
            sim.set_tracer(tracer().expect("tracer"));
        }
    }
    let r = sim.run();
    if let Some(mut t) = sim.take_tracer() {
        t.finish_journal();
    }
    Run {
        fp: fingerprint(&sim, &r),
        journal: buf.contents(),
        cuts,
    }
}

/// One case's base run and the run of every point that applies to it.
pub struct Lattice {
    pub base: Fingerprint,
    pub runs: Vec<(Point, Run)>,
}

impl Lattice {
    pub fn run(&self, p: Point) -> Option<&Run> {
        self.runs.iter().find(|(q, _)| *q == p).map(|(_, r)| r)
    }

    pub fn point(&self, p: Point) -> Option<&Fingerprint> {
        self.run(p).map(|r| &r.fp)
    }

    /// Whether the fast path `p` replaces did work on this case that its
    /// reference path did differently (for the last three points: that
    /// the path under test ran at all).
    pub fn engaged(&self, p: Point) -> bool {
        let (b, Some(run)) = (&self.base, self.run(p)) else {
            return false;
        };
        let o = &run.fp;
        match p {
            Point::Full => o.work.realloc_flows_touched > b.work.realloc_flows_touched,
            Point::PerFlowVariables => {
                b.work.macro_flows < b.work.realloc_flows_touched
                    && o.work.macro_flows == o.work.realloc_flows_touched
            }
            Point::UncachedPipeline => b.work.pkt_cache[0] > 0 && o.work.pkt_cache == [0; 3],
            Point::PerEvent | Point::PerEventFull => o.realloc_runs > b.realloc_runs,
            // Only an attached registry records the solver-round
            // histogram, one observation per component solve.
            Point::Traced => {
                let m = &o.work.metrics;
                !run.journal.is_empty()
                    && m.get("alloc.rounds.count").is_some()
                    && m.get("alloc.rounds.count") == m.get("alloc.components")
            }
            Point::Resumed => {
                !run.cuts.is_empty()
                    && (run.cuts.iter()).all(|c| c.active_flows > 0 && c.pending() > 0)
            }
            Point::HybridAttached => o.packet.is_some(),
        }
    }

    pub fn assert_engaged(&self, case: &str, points: &[Point]) {
        for &p in points {
            assert!(self.engaged(p), "{case}: {p:?} did not engage");
        }
    }

    /// The base-run invariants and every point's comparator.
    fn check(&self, case: &Case) {
        let (name, base) = (&case.name, &self.base);
        assert!(
            base.realloc_runs <= base.realloc_requests,
            "{name}: the allocator ran more often than it was asked"
        );
        if let Some(p) = &base.packet {
            assert!(
                p.coupling[2] <= base.epochs,
                "{name}: coupling ran {} times over {} epochs",
                p.coupling[2],
                base.epochs
            );
        }
        for (p, got) in &self.runs {
            if !p.is_exact() {
                assert_epoch_equivalent(&format!("{name}, {p:?}"), base, &got.fp);
                continue;
            }
            // `Resumed` answers to the straight-through traced run.
            let traced = self.run(Point::Traced).filter(|_| *p == Point::Resumed);
            let want = traced.map_or(base, |t| &t.fp);
            let journal_differs = traced.is_some_and(|t| t.journal != got.journal);
            if !journal_differs && p.compared(&got.fp) == p.compared(want) {
                continue;
            }
            let (a, b) = match traced {
                Some(t) => (t.journal.clone(), got.journal.clone()),
                None => (
                    run(case, None, true).journal,
                    run(case, Some(*p), true).journal,
                ),
            };
            let divergence = describe_divergence(&first_divergence(&entries(&a), &entries(&b)));
            assert_eq!(
                p.compared(&got.fp),
                p.compared(want),
                "{name}: {p:?} disagrees; {divergence}"
            );
            panic!("{name}: the {p:?} journal differs from the traced run's; {divergence}");
        }
    }
}

/// Runs `case` as shipped and at every point that applies to it,
/// asserting each point's comparator against the base run.
pub fn lattice(case: Case) -> Lattice {
    lattice_at(&Point::ALL, case)
}

/// [`lattice`] on a subset of the points (`Resumed` brings its
/// reference, `Traced`). Every run is independent, so they run side by
/// side; only the points that need to know whether the case has a
/// packet plane wait for the base.
pub fn lattice_at(only: &[Point], case: Case) -> Lattice {
    let wanted =
        |p: &Point| only.contains(p) || (*p == Point::Traced && only.contains(&Point::Resumed));
    let everywhere = |p: &Point| p.applies(true) && p.applies(false);
    let (base, runs) = std::thread::scope(|scope| {
        let case = &case;
        let spawn = |p: Point| (p, scope.spawn(move || run(case, Some(p), false)));
        let early = Point::ALL
            .into_iter()
            .filter(|p| wanted(p) && everywhere(p));
        let mut runs: Vec<_> = early.map(spawn).collect();
        let base = run(case, None, false).fp;
        let packet = base.packet.is_some();
        let late = |p: &Point| wanted(p) && !everywhere(p) && p.applies(packet);
        runs.extend(Point::ALL.into_iter().filter(late).map(spawn));
        let runs: Vec<(Point, Run)> = (runs.into_iter())
            .map(|(p, run)| (p, run.join().expect("lattice point panicked")))
            .collect();
        (base, runs)
    });
    let l = Lattice { base, runs };
    l.check(&case);
    l
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
