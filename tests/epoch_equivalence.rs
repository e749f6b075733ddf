//! Epoch batching is a scheduling optimization, not a semantics change:
//! draining all same-timestamp events as one batch and running the
//! allocator once must produce the same simulation as running it after
//! every event. Random scenarios whose arrivals land on a coarse grid,
//! so batches of simultaneous arrivals, completions and failures
//! genuinely occur, run through the differential lattice
//! (`support::lattice`) under the epoch comparator: counts exact, bytes
//! within 1e-6 relative, finish instants within 1 ns. The same runs
//! also take the exact points, so each scenario is checked against
//! every fluid reference path.

mod support;

use horse::prelude::*;
use proptest::prelude::*;
use support::lattice::{lattice, lattice_at, Case, Point};

/// A random explicit-flow scenario on a two-tier IXP fabric: arrivals on
/// a 10 ms grid (forcing same-instant batches), mixed greedy/CBR demand,
/// and one mid-run cable failure and recovery aligned to the grid.
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
        let (a, b, port) = (f.members[src], f.members[dst], (2000 + i) as u16);
        let spec = s.flow_between(a, b, AppClass::Https, port, size, demand);
        s.explicit_flows
            .push((at, spec.expect("member pair resolves")));
    }
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

/// A seed on which every fluid point engages, so the coverage of the
/// proptests below does not rest on the seeds they draw.
#[test]
fn random_scenario_engaging_every_fluid_point() {
    let case = "random seed 7882688928292438543";
    let s = random_scenario(7_882_688_928_292_438_543);
    let l = lattice(Case::new(case, s, SimConfig::default()));
    let fluid: Vec<_> = (Point::ALL.into_iter())
        .filter(|&p| p != Point::UncachedPipeline)
        .collect();
    l.assert_engaged(case, &fluid);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The points that re-solve every flow: batched and per-event.
    #[test]
    fn batched_epochs_match_per_event_oracle_full(seed in 1u64..u64::MAX) {
        let case = format!("random seed {seed}");
        let points = [Point::Full, Point::PerEventFull];
        lattice_at(&points, Case::new(case, random_scenario(seed), SimConfig::default()));
    }

    /// The points that keep the incremental allocator: the per-event
    /// cadence and one variable per flow.
    #[test]
    fn batched_epochs_match_per_event_oracle_incremental(seed in 1u64..u64::MAX) {
        let case = format!("random seed {seed}");
        let points = [Point::PerEvent, Point::PerFlowVariables];
        lattice_at(&points, Case::new(case, random_scenario(seed), SimConfig::default()));
    }
}
