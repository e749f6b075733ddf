//! Acceptance tests for the chaos engine (PR 7): seed-deterministic
//! fault injection must stay inside the determinism contract
//! (bit-identical results and byte-identical journals on every replay),
//! `horse-trace`'s bisector must pinpoint an injected
//! fault against a fault-free run, and a seeded switch crash must leave
//! no flow permanently stranded — every victim reroutes with a finite
//! recovery time.

use horse::chaos;
use horse::prelude::*;
use horse::tracing::journal::SharedBuf;
use horse::tracing::{first_divergence, parse_journal, Divergence, JournalEntry};

/// A fat-tree (k = 4) scenario with seeded cross-pod traffic: a mix of
/// finite and long-lived greedy flows so faults at any instant find
/// victims to knock off.
fn chaos_scenario(traffic_seed: u64, chaos: Option<ChaosSpec>) -> Scenario {
    let f = generate(&GeneratorParams {
        kind: TopologyKind::FatTree,
        fat_tree_k: 4,
        ..Default::default()
    })
    .expect("fat-tree generates");
    let n = f.members.len();
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(2));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });

    let mut x = traffic_seed | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..n {
        // Every host sends somewhere out of its own pod (hosts h and
        // h + n/2 sit in different halves of the fat-tree), so traffic
        // crosses aggregation and core layers — where chaos strikes.
        let dst = (i + n / 2 + (rnd() % (n as u64 / 4)) as usize) % n;
        let size = if rnd() % 3 == 0 {
            Some(ByteSize::mib(4 + rnd() % 32))
        } else {
            None // long-lived greedy: alive whenever the fault fires
        };
        let spec = s
            .flow_between(
                f.members[i],
                f.members[dst],
                AppClass::Https,
                (3000 + i) as u16,
                size,
                DemandModel::Greedy,
            )
            .expect("member pair resolves");
        s.explicit_flows
            .push((SimTime::from_millis(10 * (1 + rnd() % 50)), spec));
    }
    s.chaos = chaos;
    s
}

/// Runs a scenario with a journaling tracer attached; returns the
/// results and the raw journal text.
fn journaled_run(scenario: Scenario, config: SimConfig) -> (SimResults, Vec<JournalEntry>, String) {
    let buf = SharedBuf::new();
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    sim.set_tracer(SimTracer::new().with_journal(buf.clone()));
    let r = sim.run();
    let mut tracer = sim.take_tracer().expect("tracer attached");
    tracer.finish_journal();
    let text = buf.contents();
    let entries = parse_journal(&text).expect("journal parses");
    (r, entries, text)
}

/// Bit-level comparison of everything the determinism contract promises,
/// chaos outputs included.
fn assert_bit_identical(a: &SimResults, b: &SimResults, label: &str) {
    assert_eq!(a.events, b.events, "{label}: events");
    assert_eq!(a.epochs, b.epochs, "{label}: epochs");
    assert_eq!(a.flows_admitted, b.flows_admitted, "{label}: admitted");
    assert_eq!(a.flows_completed, b.flows_completed, "{label}: completed");
    assert_eq!(a.flows_dropped, b.flows_dropped, "{label}: dropped");
    assert_eq!(
        a.bytes_delivered.to_bits(),
        b.bytes_delivered.to_bits(),
        "{label}: bytes"
    );
    for (x, y, what) in [
        (a.fct.p50, b.fct.p50, "fct.p50"),
        (a.fct.p99, b.fct.p99, "fct.p99"),
        (a.fct.p999, b.fct.p999, "fct.p999"),
        (a.recovery.mean, b.recovery.mean, "recovery.mean"),
        (a.recovery.p99, b.recovery.p99, "recovery.p99"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {what}");
    }
    assert_eq!(a.chaos, b.chaos, "{label}: chaos counters");
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Any generated chaos schedule — flaps, crashes, gray windows,
        /// controller faults, in any mix — must replay bit-identically,
        /// journals byte for byte.
        #[test]
        fn chaos_schedules_replay_bit_identically(
            traffic_seed in 1u64..u64::MAX,
            chaos_seed in 1u64..1000,
            flaps in 0u32..4,
            crashes in 0u32..2,
            gray in 0u32..3,
            outages in 0u32..2,
            spikes in 0u32..2,
        ) {
            let spec = ChaosSpec {
                seed: chaos_seed,
                start_secs: 0.2,
                // at least one fault kind must be on for the run to be
                // a chaos run at all
                link_flaps: if flaps + crashes + gray + outages + spikes == 0 { 1 } else { flaps },
                flap_rate_per_sec: 4.0,
                switch_crashes: crashes,
                crash_downtime_secs: 0.3,
                gray_links: gray,
                gray_loss_frac: 0.1,
                ctrl_outages: outages,
                ctrl_outage_secs: 0.3,
                ctrl_latency_spikes: spikes,
                ..Default::default()
            };
            let (r1, e1, t1) = journaled_run(
                chaos_scenario(traffic_seed, Some(spec)),
                SimConfig::default(),
            );
            let (r2, e2, t2) = journaled_run(
                chaos_scenario(traffic_seed, Some(spec)),
                SimConfig::default(),
            );
            prop_assert!(r1.flows_admitted > 0, "scenario must exercise flows");
            prop_assert!(!e1.is_empty(), "journal captured events");
            assert_bit_identical(&r1, &r2, "replay");
            prop_assert_eq!(&t1, &t2, "journal text differs between replays");
            prop_assert!(matches!(
                first_divergence(&e1, &e2),
                Divergence::Identical { .. }
            ));
        }
    }
}

/// A chaos run against its fault-free twin: the bisector must name the
/// first scheduled chaos fault as the first diverging event — the
/// workflow for answering "what did the chaos engine actually do".
#[test]
fn diff_pinpoints_first_chaos_fault() {
    let spec = ChaosSpec {
        seed: 11,
        start_secs: 0.2,
        switch_crashes: 1,
        crash_downtime_secs: 0.3,
        link_flaps: 2,
        ..Default::default()
    };
    // The schedule is a pure function of (spec, topology, horizon), so
    // the expected first fault can be computed independently.
    let baseline = chaos_scenario(5, None);
    let sched = chaos::expand(&spec, &baseline.topology, baseline.horizon).expect("spec expands");
    let (first_t, first_ev) = sched.first().expect("schedule is non-empty");
    let (want_kind, _) = horse::trace::event_fingerprint(first_ev);

    let (_, a, _) = journaled_run(baseline, SimConfig::default());
    let (_, b, _) = journaled_run(chaos_scenario(5, Some(spec)), SimConfig::default());
    let div = first_divergence(&a, &b);
    let (idx, first_b) = match &div {
        Divergence::Mismatch { index, b: eb, .. } => (*index, eb.clone()),
        Divergence::Truncated {
            longer: 'b',
            index,
            next,
        } => (*index, next.clone()),
        other => panic!("expected a pinpointed divergence, got {other:?}"),
    };
    assert_eq!(first_b.kind, want_kind, "bisector names the fault kind");
    assert_eq!(
        first_b.t_ns,
        first_t.as_nanos(),
        "bisector names the fault time"
    );
    // Everything before the first fault agreed.
    assert!(a[..idx].iter().all(|e| e.t_ns < first_t.as_nanos()));
}

/// The acceptance scenario: one seeded switch crash on a loaded fat-tree.
/// Victim flows must be rerouted or re-admitted, recovery time must be
/// finite, and no flow may end up permanently stranded.
#[test]
fn seeded_switch_crash_recovers_all_victims() {
    let spec = ChaosSpec {
        seed: 15,
        start_secs: 0.2,
        switch_crashes: 1,
        crash_downtime_secs: 0.3,
        ..Default::default()
    };
    let mut sim = Simulation::new(chaos_scenario(5, Some(spec)), SimConfig::default())
        .expect("valid scenario");
    let r = sim.run();

    assert_eq!(r.chaos.switch_crashes, 1, "the crash fired");
    assert_eq!(r.chaos.switch_rejoins, 1, "the switch rejoined");
    assert!(
        r.chaos.flows_rerouted >= 1,
        "the crash must knock flows off their routes (rerouted {})",
        r.chaos.flows_rerouted
    );
    assert_eq!(r.chaos.flows_stranded, 0, "no flow may be stranded");
    // One recovery sample per rerouted flow; all finite.
    assert_eq!(r.recovery.count as u64, r.chaos.flows_rerouted);
    assert!(
        r.recovery.mean.is_finite() && r.recovery.mean > 0.0,
        "recovery time must be finite and nonzero (this seed's crash \
         forces a controller round trip), got {}",
        r.recovery.mean
    );
    assert!(
        r.recovery.max.is_finite() && r.recovery.max < 2.0,
        "every victim recovered within the run, slowest {}",
        r.recovery.max
    );
    assert!(r.flows_admitted > 0 && r.bytes_delivered > 0.0);
}
