//! Acceptance tests for the chaos engine: seed-deterministic fault
//! injection must stay inside the determinism contract (random chaos
//! schedules are cases of the differential lattice, `support::lattice`,
//! at its `Traced` and `Resumed` points), `horse-trace`'s bisector must
//! pinpoint an injected fault against a fault-free run, and a seeded
//! switch crash must leave no flow permanently stranded — every victim
//! reroutes with a finite recovery time.

mod support;

use horse::chaos;
use horse::prelude::*;
use horse::tracing::{first_divergence, Divergence};
use support::lattice::{lattice_at, Case, Point};
use support::{entries, run_journaled};

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

/// The event journal of a run of `scenario`.
fn journal(scenario: Scenario) -> Vec<horse::tracing::JournalEntry> {
    let sim = Simulation::new(scenario, SimConfig::default()).expect("valid scenario");
    entries(&run_journaled(sim).1)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Any generated chaos schedule — flaps, crashes, gray windows,
        /// controller faults, in any mix — must be invisible to the
        /// tracer and to a checkpoint at the midpoint, the resumed
        /// journal equal to the traced run's byte for byte.
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
            let name = format!("chaos, traffic {traffic_seed}, schedule {spec:?}");
            let scenario = chaos_scenario(traffic_seed, Some(spec));
            let l = lattice_at(&[Point::Resumed], Case::new(&name, scenario, SimConfig::default()));
            prop_assert!(l.base.flows_admitted > 0, "scenario must exercise flows");
            l.assert_engaged(&name, &[Point::Traced, Point::Resumed]);
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

    let a = journal(baseline);
    let b = journal(chaos_scenario(5, Some(spec)));
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
