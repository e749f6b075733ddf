//! Shared harness for the Horse experiment suite (DESIGN.md §5).
//!
//! Each `exp_*` binary regenerates one experiment's table and
//! `million_flow` prints the allocator scaling curve. Performance is
//! measured by the standalone `benchmark/` package, not here.

#![warn(missing_docs)]

use horse::prelude::*;

/// Builds the standard IXP scenario used across E1/E2/E5:
/// `members` member routers on an edge/core fabric, gravity traffic at
/// `load_factor` × (40 Mbps per member), megabyte-scale heavy-tailed
/// flows.
pub fn ixp_scenario(
    members: usize,
    load_factor: f64,
    policy: PolicySpec,
    horizon: SimTime,
    seed: u64,
) -> Scenario {
    let mut params = IxpScenarioParams::default();
    params.fabric.members = members;
    params.fabric.edge_switches = (members / 25).clamp(2, 16);
    params.fabric.core_switches = (members / 100).clamp(2, 4);
    // uniform fast access ports: the sweep measures simulator cost, and an
    // oversubscribed tail member would measure congestion pile-up instead
    params.fabric.member_port_speeds = vec![Rate::gbps(10.0)];
    params.offered_bps = members as f64 * 40e6 * load_factor;
    params.zipf_alpha = 1.0;
    params.sizes = FlowSizeDist::Pareto {
        alpha: 1.3,
        min_bytes: 1_000_000,
        max_bytes: 1_000_000_000,
    };
    params.policy = policy;
    params.horizon = horizon;
    params.seed = seed;
    Scenario::ixp(&params)
}

/// The default experiment policy: ECMP load balancing.
pub fn lb_policy() -> PolicySpec {
    PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp })
}

/// Runs a scenario through the fluid plane and returns the results.
pub fn run_fluid(scenario: Scenario, config: SimConfig) -> SimResults {
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    sim.run()
}

/// The incremental-allocation config used for scale experiments.
pub fn fast_config() -> SimConfig {
    SimConfig::default()
        .with_alloc_mode(AllocMode::Incremental)
        .with_stats_epoch(Some(SimDuration::from_secs(1)))
}

/// One measured point of the million-flow scaling harness
/// ([`million_flow_point`]): deterministic size counters next to the
/// wall-clock costs they bound.
#[derive(Debug, Clone)]
pub struct MillionFlowStats {
    /// Path classes admitted (distinct `(src, dst)` host pairs).
    pub classes: usize,
    /// Identical greedy flows admitted per class.
    pub flows_per_class: usize,
    /// Total concurrent flows (`classes * flows_per_class`).
    pub flows: u64,
    /// Variables the cold full solve actually water-filled — with
    /// macro-flow aggregation this is `classes`, not `flows`
    /// (deterministic; host-independent).
    pub macro_vars: u64,
    /// Wall seconds to admit the whole population.
    pub admit_secs: f64,
    /// Wall seconds of the first `reallocate` over the full population.
    pub full_solve_secs: f64,
    /// Churn epochs measured (alternating admit-one / remove-one, each
    /// followed by one epoch-batched `reallocate`).
    pub churn_epochs: u64,
    /// Mean wall nanoseconds per churn epoch.
    pub churn_ns_per_epoch: f64,
    /// Mean wall nanoseconds per flow per churn epoch — the scaling
    /// figure of merit: flat across population sizes means the
    /// allocator's per-epoch cost stays linear in flows touched.
    pub churn_ns_per_flow: f64,
}

/// Builds the million-flow fabric: a star of `hosts` access links at
/// 1 Gbps with per-MAC forwarding installed on the hub, and the fluid
/// engine in incremental mode with macro-flows on.
pub fn million_flow_net(hosts: usize) -> horse::dataplane::FluidNet {
    use horse::dataplane::{FluidConfig, FluidNet};
    use horse::openflow::actions::Instruction;
    use horse::openflow::flow_match::FlowMatch;
    use horse::openflow::messages::{CtrlMsg, FlowMod};
    use horse::openflow::table::FlowEntry;
    let f = builders::star(hosts, Rate::gbps(1.0));
    let cfg = FluidConfig {
        alloc_mode: AllocMode::Incremental,
        ..FluidConfig::default()
    };
    let mut net = FluidNet::new(f.topology, cfg);
    let hub = f.edges[0];
    let topo = net.topology().clone();
    for (_, l) in topo.out_links(hub) {
        if let Some(host) = topo.node(l.dst).filter(|n| n.kind.is_host()) {
            net.apply_ctrl(
                hub,
                &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    100,
                    FlowMatch::ANY.with_eth_dst(host.mac().unwrap()),
                    vec![Instruction::output(l.src_port)],
                ))),
                SimTime::ZERO,
            );
        }
    }
    net
}

/// Drives the fluid engine directly at population scale: admits
/// `classes * flows_per_class` greedy flows onto a 64-host star (class
/// `c` is the `c`-th ordered host pair, so every class is one path
/// class and macro-flow aggregation collapses it to a single weighted
/// variable), pays one cold full solve, then measures `churn_epochs`
/// alternating admit-one/remove-one epochs — the steady-state cadence
/// whose per-epoch cost the PERFORMANCE.md scaling guide bounds.
///
/// Panics if `classes` exceeds the 64·63 ordered pairs of the fabric.
pub fn million_flow_point(
    classes: usize,
    flows_per_class: usize,
    churn_epochs: usize,
) -> MillionFlowStats {
    use horse::dataplane::AdmitOutcome;
    use horse::types::FlowId;
    use std::time::Instant;
    const HOSTS: usize = 64;
    assert!(classes <= HOSTS * (HOSTS - 1), "not enough host pairs");
    let mut net = million_flow_net(HOSTS);
    let topo = net.topology().clone();
    let members: Vec<NodeId> = topo
        .nodes()
        .filter(|(_, n)| n.kind.is_host())
        .map(|(id, _)| id)
        .collect();
    let pair = |c: usize| {
        let src = c / (HOSTS - 1);
        let r = c % (HOSTS - 1);
        (src, r + usize::from(r >= src))
    };
    let mk_spec = |src: usize, dst: usize, sport: u16| FlowSpec {
        key: FlowKey::tcp(
            topo.node(members[src]).unwrap().mac().unwrap(),
            topo.node(members[dst]).unwrap().mac().unwrap(),
            topo.node(members[src]).unwrap().ip().unwrap(),
            topo.node(members[dst]).unwrap().ip().unwrap(),
            sport,
            80,
        ),
        src: members[src],
        dst: members[dst],
        demand: DemandModel::Greedy,
        size: None, // endless: the population stays put under churn
        fidelity: Default::default(),
    };

    // 1. Admission: the full population, one epoch.
    let t0 = SimTime::ZERO;
    let t = Instant::now();
    for c in 0..classes {
        let (src, dst) = pair(c);
        for i in 0..flows_per_class {
            let id = net.reserve_id();
            let admitted = matches!(
                net.try_admit(id, mk_spec(src, dst, i as u16), t0),
                AdmitOutcome::Admitted
            );
            assert!(admitted, "class {c} flow {i} rejected");
        }
    }
    let admit_secs = t.elapsed().as_secs_f64();

    // 2. The cold solve over everything (one epoch-batched reallocate).
    let t = Instant::now();
    net.reallocate(t0);
    let full_solve_secs = t.elapsed().as_secs_f64();
    let macro_vars = net.macro_flows;

    // 3. Steady-state churn: admit one flow into a rotating class, then
    //    remove it next epoch — each epoch pays one reallocate whose
    //    component spans the whole population (every class shares an
    //    access link with a neighbor), so the wall cost per epoch is the
    //    per-epoch allocator cost at this population size.
    let flows = (classes * flows_per_class) as u64;
    let extra_sport = flows_per_class as u16;
    let mut extra: Option<FlowId> = None;
    let t = Instant::now();
    for e in 0..churn_epochs {
        let at = SimTime::from_millis(1 + e as u64);
        match extra.take() {
            Some(id) => {
                net.remove_flow(id, at, true);
            }
            None => {
                let (src, dst) = pair((e / 2) % classes);
                let id = net.reserve_id();
                let admitted = matches!(
                    net.try_admit(id, mk_spec(src, dst, extra_sport), at),
                    AdmitOutcome::Admitted
                );
                assert!(admitted, "churn flow rejected");
                extra = Some(id);
            }
        }
        net.reallocate(at);
    }
    let churn_secs = t.elapsed().as_secs_f64();
    let churn_ns_per_epoch = churn_secs * 1e9 / (churn_epochs.max(1) as f64);
    MillionFlowStats {
        classes,
        flows_per_class,
        flows,
        macro_vars,
        admit_secs,
        full_solve_secs,
        churn_epochs: churn_epochs as u64,
        churn_ns_per_epoch,
        churn_ns_per_flow: churn_ns_per_epoch / flows.max(1) as f64,
    }
}

/// Formats a wall-clock duration for table cells.
pub fn fmt_wall(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.1} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ixp_scenario_builds_and_runs() {
        let s = ixp_scenario(25, 1.0, lb_policy(), SimTime::from_secs(2), 3);
        let r = run_fluid(s, fast_config());
        assert!(r.flows_admitted > 0);
        assert!(r.events > 0);
    }

    #[test]
    fn million_flow_harness_aggregates() {
        let s = million_flow_point(64, 4, 6);
        assert_eq!(s.flows, 256);
        // One weighted variable per path class, not per flow.
        assert_eq!(s.macro_vars, 64);
        assert!(s.churn_ns_per_epoch > 0.0 && s.full_solve_secs > 0.0);
    }

    #[test]
    fn wall_formatting() {
        assert_eq!(fmt_wall(0.0123), "12.3 ms");
        assert_eq!(fmt_wall(2.5), "2.50 s");
    }
}
