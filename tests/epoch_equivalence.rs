//! Epoch batching is a *scheduling* optimization, not a semantics
//! change: draining all same-timestamp events as one batch and running
//! the allocator once must produce the same simulation as the historical
//! run-the-allocator-after-every-event cadence (kept live as
//! `SimConfig::realloc_per_event` — the oracle, like PR 2 kept the naive
//! max-min filler).
//!
//! The two cadences are compared flow-record-for-flow-record on random
//! scenarios whose arrivals land on a coarse grid, so batches of
//! simultaneous arrivals, completions and failures genuinely occur.
//! Counts must match exactly; float quantities (bytes, finish instants)
//! are compared within a tight relative tolerance, because a batch that
//! the oracle solved as several cascaded partial problems is solved here
//! as one per-component problem — same equilibrium, last-ulp rounding.

use horse::prelude::*;
use proptest::prelude::*;

// Matches the tolerance of the incremental-vs-full equivalence suite: a
// completion instant that moved by a nanosecond integrates fractionally
// different bytes, so sub-byte drift on multi-megabyte flows is expected;
// a real semantics bug shifts whole rate shares (percent-level).
const REL_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// A random explicit-flow scenario on a two-tier IXP fabric: arrivals on
/// a 10 ms grid (forcing same-instant batches), mixed greedy/CBR demand,
/// and one mid-run cable failure aligned to the grid.
fn random_scenario(seed: u64) -> Scenario {
    let f = builders::ixp_fabric(&builders::IxpFabricParams {
        members: 8,
        edge_switches: 2,
        core_switches: 2,
        ..Default::default()
    });
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(4));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });

    let mut x = seed | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let n_flows = 12 + (rnd() % 20) as usize;
    for i in 0..n_flows {
        let src = (rnd() % 8) as usize;
        let mut dst = (rnd() % 8) as usize;
        if dst == src {
            dst = (dst + 1) % 8;
        }
        let demand = if rnd() % 4 == 0 {
            DemandModel::Cbr(Rate::mbps((100 + rnd() % 900) as f64))
        } else {
            DemandModel::Greedy
        };
        let size = if rnd() % 5 == 0 {
            None
        } else {
            Some(ByteSize::mib(1 + rnd() % 64))
        };
        // 10 ms grid over the first 2 s: collisions are frequent.
        let at = SimTime::from_millis(10 * (1 + rnd() % 200));
        let spec = s
            .flow_between(
                f.members[src],
                f.members[dst],
                AppClass::Https,
                (2000 + i) as u16,
                size,
                demand,
            )
            .expect("member pair resolves");
        s.explicit_flows.push((at, spec));
    }
    // One cable failure + recovery, both grid-aligned so they can share
    // an epoch with arrivals/completions.
    let e0 = f.edges[0];
    if let Some((cable, _)) = f.topology.out_links(e0).find(|(_, l)| {
        f.topology
            .node(l.dst)
            .map(|n| n.kind.is_switch())
            .unwrap_or(false)
    }) {
        s.failures.push((SimTime::from_millis(500), cable, false));
        s.failures.push((SimTime::from_millis(1500), cable, true));
    }
    s
}

type RecordRow = (u64, u64, u64, bool, f64, f64);

fn run(scenario: Scenario, per_event: bool, alloc_mode: AllocMode) -> (SimResults, Vec<RecordRow>) {
    let config = SimConfig::default()
        .with_realloc_per_event(per_event)
        .with_alloc_mode(alloc_mode);
    let mut sim = Simulation::new(scenario, config).unwrap();
    let r = sim.run();
    // Simultaneous completions can pop in different seq order under the
    // two cadences (their events were scheduled by different allocator
    // runs), so records are compared as a set keyed by flow id.
    let mut records: Vec<RecordRow> = sim
        .fluid()
        .records()
        .iter()
        .map(|rec| {
            (
                rec.id.0,
                rec.started.as_nanos(),
                rec.finished.as_nanos(),
                rec.completed,
                rec.bytes,
                rec.dropped_bytes,
            )
        })
        .collect();
    records.sort_by_key(|r| (r.0, r.1));
    (r, records)
}

fn assert_equivalent(seed: u64, alloc_mode: AllocMode) {
    let (batched, batched_recs) = run(random_scenario(seed), false, alloc_mode);
    let (oracle, oracle_recs) = run(random_scenario(seed), true, alloc_mode);

    // Event-for-event the *simulation* is the same: every arrival,
    // control crossing and completion happens in both runs. The per-event
    // cadence merely supersedes (and cancels) more completion events, and
    // a superseded completion never pops on either side.
    assert_eq!(
        batched.events, oracle.events,
        "event counts diverged (seed {seed})"
    );
    assert_eq!(
        (batched.stale_completions, oracle.stale_completions),
        (0, 0)
    );
    assert!(batched.queue.cancelled <= oracle.queue.cancelled);
    assert_eq!(batched.flows_admitted, oracle.flows_admitted);
    assert_eq!(batched.flows_completed, oracle.flows_completed);
    assert_eq!(batched.flows_dropped, oracle.flows_dropped);
    assert_eq!(batched.msgs_to_controller, oracle.msgs_to_controller);
    assert_eq!(batched.msgs_to_switch, oracle.msgs_to_switch);
    assert!(
        close(batched.bytes_delivered, oracle.bytes_delivered),
        "bytes {} vs {} (seed {seed})",
        batched.bytes_delivered,
        oracle.bytes_delivered
    );
    assert!(
        batched.realloc_runs <= oracle.realloc_runs,
        "batching must never run the allocator more often"
    );

    assert_eq!(batched_recs.len(), oracle_recs.len(), "record counts");
    for (b, o) in batched_recs.iter().zip(oracle_recs.iter()) {
        assert_eq!(b.0, o.0, "flow id order (seed {seed})");
        assert_eq!(b.1, o.1, "start instant of flow {} (seed {seed})", b.0);
        assert_eq!(b.3, o.3, "completion flag of flow {} (seed {seed})", b.0);
        // finish instants within a nanosecond (rounding of a completion
        // prediction computed from last-ulp different rates)
        assert!(
            b.2.abs_diff(o.2) <= 1,
            "finish instant of flow {}: {} vs {} (seed {seed})",
            b.0,
            b.2,
            o.2
        );
        assert!(
            close(b.4, o.4),
            "bytes of flow {}: {} vs {} (seed {seed})",
            b.0,
            b.4,
            o.4
        );
        assert!(
            close(b.5, o.5),
            "dropped bytes of flow {}: {} vs {} (seed {seed})",
            b.0,
            b.5,
            o.5
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn batched_epochs_match_per_event_oracle_full(seed in 1u64..u64::MAX) {
        assert_equivalent(seed, AllocMode::Full);
    }

    #[test]
    fn batched_epochs_match_per_event_oracle_incremental(seed in 1u64..u64::MAX) {
        assert_equivalent(seed, AllocMode::Incremental);
    }
}

/// The adaptive load balancer polls port counters (`StatsRequest` over
/// the control channel) and re-weights its select groups from the byte
/// deltas — the one control-plane path that *reads* state the deferred
/// reallocation writes. This scenario forces the collision: with zero
/// control latency the 5 s poll's stats requests land in the same epoch
/// as a flow arrival (which sets the pending-reallocation flag first,
/// by seq order), so the counters the poll reads must include the byte
/// sync of the epoch's reallocation — a long-running background flow
/// unsynced since t=1 s makes the difference seconds' worth of bytes if
/// the flush is skipped, which re-weights the groups differently and
/// routes the post-poll flows elsewhere than the per-event oracle.
#[test]
fn adaptive_lb_stats_polling_matches_oracle() {
    let build = || {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 2,
            core_switches: 2,
            // tight uplinks: which core a flow hashes to decides how
            // much bandwidth it shares with the background load, so a
            // wrong adaptive weight is visible in FCTs, not just routes
            uplink_speed: Rate::gbps(3.0),
            ..Default::default()
        });
        let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(8));
        s.members = f.members.clone();
        s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing {
            mode: LbMode::Adaptive,
        });
        // Background load, unsynced between reallocations: crosses the
        // fabric (members sit round-robin on the two edges, so an
        // even→odd pair traverses an uplink) from t=1 s and never
        // completes on its own.
        let bg = s
            .flow_between(
                f.members[0],
                f.members[1],
                AppClass::Https,
                4000,
                None,
                DemandModel::Cbr(Rate::gbps(2.0)),
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(1), bg));
        // Arrival exactly at the 5 s poll instant: sets the pending flag
        // in the poll's epoch.
        let collide = s
            .flow_between(
                f.members[1],
                f.members[2],
                AppClass::Https,
                4001,
                Some(ByteSize::mib(16)),
                DemandModel::Greedy,
            )
            .unwrap();
        s.explicit_flows.push((SimTime::from_secs(5), collide));
        // Post-poll flows: their select-group routing depends on the
        // adapted weights, i.e. on what the poll read.
        for i in 0..6u16 {
            let spec = s
                .flow_between(
                    f.members[(i as usize) % 8],
                    f.members[(i as usize + 3) % 8],
                    AppClass::Https,
                    4100 + i,
                    Some(ByteSize::mib(8 + (i as u64) * 4)),
                    DemandModel::Greedy,
                )
                .unwrap();
            s.explicit_flows
                .push((SimTime::from_millis(5500 + 100 * i as u64), spec));
        }
        s
    };
    let zero_latency = |per_event: bool| {
        // No periodic stats export or expiry scan: both are
        // epoch-aligned flush points that would refresh the counters
        // right before the poll and mask the path under test.
        let config = SimConfig::default()
            .with_ctrl_latency(SimDuration::ZERO)
            .with_stats_epoch(None)
            .with_expiry_scan(None)
            .with_realloc_per_event(per_event);
        let mut sim = Simulation::new(build(), config).unwrap();
        let r = sim.run();
        let mut records: Vec<RecordRow> = sim
            .fluid()
            .records()
            .iter()
            .map(|rec| {
                (
                    rec.id.0,
                    rec.started.as_nanos(),
                    rec.finished.as_nanos(),
                    rec.completed,
                    rec.bytes,
                    rec.dropped_bytes,
                )
            })
            .collect();
        records.sort_by_key(|r| (r.0, r.1));
        (r, records)
    };
    let (batched, batched_recs) = zero_latency(false);
    let (oracle, oracle_recs) = zero_latency(true);
    assert!(
        batched.msgs_to_controller > 0,
        "the poll must actually produce stats replies"
    );
    assert_eq!(batched.flows_completed, oracle.flows_completed);
    assert_eq!(batched_recs.len(), oracle_recs.len());
    for (b, o) in batched_recs.iter().zip(oracle_recs.iter()) {
        assert_eq!((b.0, b.1, b.3), (o.0, o.1, o.3), "record set");
        assert!(
            b.2.abs_diff(o.2) <= 1 && close(b.4, o.4),
            "flow {} diverged: finish {} vs {}, bytes {} vs {}",
            b.0,
            b.2,
            o.2,
            b.4,
            o.4
        );
    }
}

/// A hand-built worst case: many arrivals at exactly one instant, then
/// simultaneous completions — the shape the batching exists for. Pinned
/// separately from the proptest so a failure names the scenario.
#[test]
fn simultaneous_arrival_wave_matches_oracle() {
    let build = || {
        let f = builders::star(8, Rate::gbps(1.0));
        let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(10));
        s.members = f.members.clone();
        s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
        for i in 0..4usize {
            // 4 same-size flows into one sink, all at t = 1 s: they share
            // the sink's access link, complete at the same instant, and
            // that completion wave is itself one epoch.
            let spec = s
                .flow_between(
                    f.members[i],
                    f.members[7],
                    AppClass::Https,
                    3000 + i as u16,
                    Some(ByteSize::mib(10)),
                    DemandModel::Greedy,
                )
                .unwrap();
            s.explicit_flows.push((SimTime::from_secs(1), spec));
        }
        s
    };
    let (batched, batched_recs) = run(build(), false, AllocMode::Full);
    let (oracle, oracle_recs) = run(build(), true, AllocMode::Full);
    assert_eq!(batched.flows_completed, 4);
    assert_eq!(oracle.flows_completed, 4);
    assert_eq!(batched_recs, oracle_recs, "identical completion records");
    // The wave is why batching wins: 4 arrival requests + 4 completion
    // requests collapse into one allocator run each, and no completion
    // is ever scheduled against a rate the same instant supersedes. The
    // per-event side pays one run per request and supersedes 12
    // completions, which are cancelled instead of popping stale.
    // (Wall-clock consequence: `ixp_waves` in `benchmark/`.)
    assert_eq!((batched.realloc_runs, batched.queue.cancelled), (2, 0));
    assert_eq!((oracle.realloc_runs, oracle.queue.cancelled), (8, 12));
    assert_eq!(
        (batched.stale_completions, oracle.stale_completions),
        (0, 0)
    );
    assert_eq!(batched.events, oracle.events);
    assert_eq!(oracle.realloc_runs, oracle.realloc_requests);
    assert_eq!(batched.realloc_requests, oracle.realloc_requests);
    assert!(batched.max_epoch_batch >= 4, "the wave forms one batch");
}

/// The nanosecond on which the wave of [`completion_wave`] finishes.
const WAVE_NS: u64 = 1_411_041_792;

/// Six equal flows into one sink plus a short seventh, all at t = 1 s:
/// the short flow's departure re-divides the sink link, superseding the
/// six completions, which then all land on [`WAVE_NS`]. Four more flows
/// arrive on exactly that nanosecond, so the completion wave shares its
/// epoch with arrivals.
fn completion_wave() -> Scenario {
    let f = builders::star(10, Rate::gbps(1.0));
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(5));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    let add = |s: &mut Scenario, at: SimTime, src: usize, dst: usize, port: u16, mib: u64| {
        let spec = s
            .flow_between(
                f.members[src],
                f.members[dst],
                AppClass::Https,
                port,
                Some(ByteSize::mib(mib)),
                DemandModel::Greedy,
            )
            .unwrap();
        s.explicit_flows.push((at, spec));
    };
    for i in 0..6 {
        add(&mut s, SimTime::from_secs(1), i, 9, 5000 + i as u16, 8);
    }
    add(&mut s, SimTime::from_secs(1), 6, 9, 5006, 1);
    for i in 0..4 {
        add(
            &mut s,
            SimTime::from_nanos(WAVE_NS),
            7 + i % 2,
            i,
            5100 + i as u16,
            2,
        );
    }
    s
}

/// Pins the same-instant completion order: the `(finished, id)` sequence
/// of flow records — the order completion events popped in — and every
/// flow's completion time to the nanosecond (each one derives from the
/// `RateChange` completion prediction that scheduled it).
#[test]
fn same_instant_completion_order_is_pinned() {
    let mut sim = Simulation::new(
        completion_wave(),
        SimConfig::default()
            .with_stats_epoch(None)
            .with_expiry_scan(None),
    )
    .unwrap();
    let r = sim.run();
    assert_eq!(r.flows_completed, 11);
    let got: Vec<(u64, u64, u64)> = sim
        .fluid()
        .records()
        .iter()
        .map(|rec| {
            (
                rec.finished.as_nanos(),
                rec.id.0,
                rec.finished.as_nanos() - rec.started.as_nanos(),
            )
        })
        .collect();
    // Recorded before completions became cancellable; ties pop in the
    // order their events were scheduled (ascending id within one run).
    let golden: Vec<(u64, u64, u64)> = vec![
        (1_058_720_256, 6, 58_720_256),
        (WAVE_NS, 0, 411_041_792),
        (WAVE_NS, 1, 411_041_792),
        (WAVE_NS, 2, 411_041_792),
        (WAVE_NS, 3, 411_041_792),
        (WAVE_NS, 4, 411_041_792),
        (WAVE_NS, 5, 411_041_792),
        (1_444_596_224, 7, 33_554_432),
        (1_444_596_224, 8, 33_554_432),
        (1_444_596_224, 9, 33_554_432),
        (1_444_596_224, 10, 33_554_432),
    ];
    assert_eq!(got, golden);
}
