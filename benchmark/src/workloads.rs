//! The six frozen workloads. Each is built from `--seed` inside the
//! harness; the simulator receives only the generated [`Scenario`] or
//! sweep-spec text. Every workload selects the incremental allocator
//! explicitly (what every shipped sweep uses) and otherwise rides
//! `SimConfig::default()`.
//!
//! Sizes were calibrated on a 2-core 2.1 GHz Xeon container so that one
//! repetition spends 3–5 s in `setup_s + run_s` (see README, "Calibration")
//! and are frozen: a later PR that changes them has changed the
//! benchmark, not the program.

use horse::prelude::*;

/// What one workload hands to the simulator.
pub enum Input {
    /// A single simulation.
    Sim(Box<Scenario>, SimConfig),
    /// A what-if campaign, as sweep-spec TOML text for the lab.
    Sweep(String),
}

/// One workload: its frozen name, the reason it exists, and its builder.
pub struct Workload {
    /// Name fixed by `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// A second allocator thread count worth one extra run in the layer
    /// pass (`dataplane.thread_speedup`); every workload's end-to-end
    /// repetitions solve on one thread.
    pub parallel_threads: Option<usize>,
    build: fn(seed: u64, smoke: bool, engine_threads: usize) -> Input,
    topology: fn(smoke: bool) -> Topology,
}

impl Workload {
    /// Builds the workload's input from a seed. `smoke` shrinks it to
    /// roughly 1/50 of the work; `engine_threads` overrides the single
    /// allocator thread (the `dataplane.thread_speedup` run's only use).
    pub fn build(&self, seed: u64, smoke: bool, engine_threads: Option<usize>) -> Input {
        (self.build)(seed, smoke, engine_threads.unwrap_or(1))
    }

    /// Builds only the workload's fabric, through the same public builder
    /// the scenario uses (the `topology.build_s` probe times this).
    pub fn topology(&self, smoke: bool) -> Topology {
        (self.topology)(smoke)
    }
}

/// All workloads, in report order.
pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ixp_steady",
        why: "200-member IXP at 4x load: many medium incremental solves, dataplane does ~all the work; bypass for control-plane changes",
        parallel_threads: None,
        build: ixp_steady,
        topology: |_| builders::ixp_fabric(&ixp_fabric(200, 400.0)).topology,
    },
    Workload {
        name: "ixp_waves",
        why: "400-member IXP, synchronized 400-flow waves: few huge epoch-batched solves plus stale-completion churn in the queue; the same allocator used differently",
        parallel_threads: Some(2),
        build: ixp_waves,
        topology: |smoke| builders::ixp_fabric(&ixp_fabric(waves_shape(smoke).0, 40.0)).topology,
    },
    Workload {
        name: "fat_tree_flaps",
        why: "k=8 fat-tree under link flaps and a switch crash: controlplane recompile, openflow apply and the event queue; bypass for allocator changes",
        parallel_threads: None,
        build: fat_tree_flaps,
        topology: |smoke| fat_tree_fabric(flaps_shape(smoke).0),
    },
    Workload {
        name: "fat_tree_k16_cold",
        why: "k=16 fat-tree cold start: topology build, PathDb, policy compile and synchronous install dominate, so setup_s is seconds",
        parallel_threads: None,
        build: fat_tree_k16_cold,
        topology: |smoke| fat_tree_fabric(cold_k(smoke)),
    },
    Workload {
        name: "ixp_hybrid_pkt",
        why: "50-member IXP with a packet-fidelity foreground: packet plane and hybrid coupling dominate; guards the burst/cache fast path",
        parallel_threads: None,
        build: ixp_hybrid_pkt,
        topology: |_| builders::ixp_fabric(&ixp_fabric(50, 400.0)).topology,
    },
    Workload {
        name: "ixp_whatif_fork",
        why: "200-member reactive mac_learning IXP, 8 late what-if forks: lab runner, snapshot encode/decode and per-flow flow-in round trips",
        parallel_threads: None,
        build: ixp_whatif_fork,
        topology: |smoke| builders::ixp_fabric(&ixp_fabric(whatif_shape(smoke).0, 400.0)).topology,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn config(engine_threads: usize) -> SimConfig {
    SimConfig::default()
        .with_alloc_mode(AllocMode::Incremental)
        .with_engine_threads(engine_threads)
}

fn ecmp() -> PolicySpec {
    PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp })
}

fn secs(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

/// The IXP fabric every IXP workload uses: `members/25` edges, `members/100`
/// cores (the experiment-harness rule), uniform 10G access ports — the
/// point is simulator cost, not a slow tail member's congestion pile-up.
fn ixp_fabric(members: usize, uplink_gbps: f64) -> IxpFabricParams {
    IxpFabricParams {
        members,
        edge_switches: (members / 25).clamp(2, 16),
        core_switches: (members / 100).clamp(2, 4),
        member_port_speeds: vec![Rate::gbps(10.0)],
        uplink_speed: Rate::gbps(uplink_gbps),
        ..Default::default()
    }
}

fn ixp_scenario(members: usize, load: f64, max_bytes: u64, horizon: f64, seed: u64) -> Scenario {
    Scenario::ixp(&IxpScenarioParams {
        fabric: ixp_fabric(members, 400.0),
        offered_bps: members as f64 * 40e6 * load,
        zipf_alpha: 1.0,
        sizes: FlowSizeDist::Pareto {
            alpha: 1.3,
            min_bytes: 100_000,
            max_bytes,
        },
        diurnal: None,
        policy: ecmp(),
        horizon: secs(horizon),
        seed,
    })
}

fn ixp_steady(seed: u64, smoke: bool, threads: usize) -> Input {
    let horizon = if smoke { 0.03 } else { 1.4 };
    let s = ixp_scenario(200, 4.0, 100_000_000, horizon, seed);
    Input::Sim(Box::new(s), config(threads))
}

/// `(members, waves)`.
fn waves_shape(smoke: bool) -> (usize, usize) {
    if smoke {
        (100, 2)
    } else {
        (400, 48)
    }
}

fn ixp_waves(seed: u64, smoke: bool, threads: usize) -> Input {
    let (members, waves) = waves_shape(smoke);
    // Tight 40G uplinks: the waves contend at the fabric trunks, so every
    // arrival and completion shifts whole trunk components.
    let fabric = builders::ixp_fabric(&ixp_fabric(members, 40.0));
    let horizon = secs(0.05 + 0.1 * waves as f64 + 2.0);
    let mut s = Scenario::bare(fabric.topology, horizon);
    s.members = fabric.members;
    s.policy = ecmp();
    // The seed rotates which member pairs talk; the shape (one timestamp
    // per wave, equal sizes, every flow crossing the fabric) is fixed.
    let rot = (seed % members as u64) as usize;
    for w in 0..waves {
        let at = SimTime::from_millis(50 + 100 * w as u64);
        for i in 0..members {
            let src = (i + rot) % members;
            let dst = (src + members / 2) % members;
            let spec = s
                .flow_between(
                    s.members[src],
                    s.members[dst],
                    AppClass::Https,
                    (4000 + (w * members + i) % 60_000) as u16,
                    Some(ByteSize::mib(100)),
                    DemandModel::Greedy,
                )
                .expect("member pair resolves");
            s.explicit_flows.push((at, spec));
        }
    }
    Input::Sim(Box::new(s), config(threads))
}

fn fat_tree_generator(k: usize) -> GeneratorParams {
    GeneratorParams {
        kind: TopologyKind::FatTree,
        fat_tree_k: k,
        ..Default::default()
    }
}

fn fat_tree_fabric(k: usize) -> Topology {
    generators::generate(&fat_tree_generator(k))
        .expect("fat-tree builds")
        .topology
}

fn fat_tree_params(k: usize, horizon: f64, seed: u64) -> FabricScenarioParams {
    FabricScenarioParams {
        generator: fat_tree_generator(k),
        horizon: secs(horizon),
        seed,
        ..Default::default()
    }
}

/// `(k, horizon seconds)`.
fn flaps_shape(smoke: bool) -> (usize, f64) {
    if smoke {
        (4, 0.3)
    } else {
        (8, 0.6)
    }
}

fn fat_tree_flaps(seed: u64, smoke: bool, threads: usize) -> Input {
    let (k, horizon) = flaps_shape(smoke);
    let mut s = Scenario::fabric(&fat_tree_params(k, horizon, seed)).expect("fat-tree builds");
    // The fault schedule has its own fixed seed (the chaos engine keeps it
    // independent of the workload seed on purpose): `--seed` varies the
    // traffic, while the number of port-status events — which is what this
    // workload costs — stays put, so seeds are comparable.
    s.chaos = Some(ChaosSpec {
        seed: 7,
        start_secs: 0.1,
        link_flaps: 8,
        flap_rate_per_sec: 8.0,
        switch_crashes: 1,
        crash_downtime_secs: 0.2,
        ..Default::default()
    });
    Input::Sim(Box::new(s), config(threads))
}

fn cold_k(smoke: bool) -> usize {
    if smoke {
        6
    } else {
        16
    }
}

fn fat_tree_k16_cold(seed: u64, smoke: bool, threads: usize) -> Input {
    let mut p = fat_tree_params(cold_k(smoke), if smoke { 1.0 } else { 3.0 }, seed);
    p.pattern = Some(TrafficPattern::Uniform);
    let s = Scenario::fabric(&p).expect("fat-tree builds");
    Input::Sim(Box::new(s), config(threads))
}

fn ixp_hybrid_pkt(seed: u64, smoke: bool, threads: usize) -> Input {
    let (horizon, foreground) = if smoke { (0.3, 160) } else { (10.0, 16_000) };
    let mut s = ixp_scenario(50, 4.0, 20_000_000, horizon, seed);
    s.packet_foreground = foreground;
    Input::Sim(Box::new(s), config(threads))
}

/// `(members, horizon seconds)`.
fn whatif_shape(smoke: bool) -> (usize, f64) {
    if smoke {
        (50, 0.6)
    } else {
        (200, 18.0)
    }
}

fn ixp_whatif_fork(seed: u64, smoke: bool, threads: usize) -> Input {
    let (members, horizon) = whatif_shape(smoke);
    let (at, fail, repair) = (horizon * 0.8, horizon * 0.85, horizon * 0.95);
    // Eight candidate access cables, spread over the members by the seed.
    // The fabric builder wires the edge-core mesh first, so member i's
    // up-link is directed link 2 * (edges * cores + i).
    let fabric = ixp_fabric(members, 400.0);
    let mesh = fabric.edge_switches * fabric.core_switches;
    let links: Vec<String> = (0..8)
        .map(|v| {
            let member = (seed as usize)
                .wrapping_mul(7)
                .wrapping_add(v * (members / 8))
                % members;
            (2 * (mesh + member)).to_string()
        })
        .collect();
    Input::Sweep(format!(
        "name = \"ixp_whatif_fork\"\n\
         [scenario]\n\
         kind = \"ixp\"\n\
         members = {members}\n\
         horizon_secs = {horizon}\n\
         load_factor = 2.0\n\
         seed = {seed}\n\
         whatif_at_secs = {at}\n\
         whatif_fail_secs = {fail}\n\
         whatif_repair_secs = {repair}\n\
         [[scenario.policies]]\n\
         type = \"mac_learning\"\n\
         [config]\n\
         alloc_mode = \"incremental\"\n\
         engine_threads = {threads}\n\
         [axes]\n\
         whatif_link_down = [{}]\n",
        links.join(", ")
    ))
}

/// What a scenario offers up to its horizon (explicit flows plus the
/// generated arrival stream): the denominator of the failed share.
pub struct Offered {
    /// Flows offered.
    pub flows: u64,
    /// Bytes offered.
    pub bytes: f64,
}

/// Counts the offered flows by replaying the scenario's arrival stream
/// outside the simulator.
pub fn offered(s: &Scenario) -> Offered {
    let mut out = Offered {
        flows: 0,
        bytes: 0.0,
    };
    for (at, spec) in &s.explicit_flows {
        if *at <= s.horizon {
            out.flows += 1;
            out.bytes += spec.size.map_or(0.0, |b| b.as_bytes() as f64);
        }
    }
    if let Some(params) = &s.workload {
        let mut gen = FlowGenerator::new(params.clone());
        while let Some(a) = gen.next_arrival() {
            if a.at > s.horizon {
                break;
            }
            out.flows += 1;
            out.bytes += a.size_bytes as f64;
        }
    }
    out
}

/// The first `n` flows the scenario offers, as data-plane specs in
/// arrival order — the probes' inputs ("inputs taken from the workload").
pub fn first_flows(s: &Scenario, n: usize) -> Vec<(SimTime, FlowSpec)> {
    let mut flows: Vec<(SimTime, FlowSpec)> = s.explicit_flows.iter().take(n).cloned().collect();
    if let Some(params) = &s.workload {
        let mut gen = FlowGenerator::new(params.clone());
        while flows.len() < n {
            let Some(a) = gen.next_arrival() else { break };
            let demand = match a.demand {
                horse::workloads::DemandKind::Greedy => DemandModel::Greedy,
                horse::workloads::DemandKind::Cbr(bps) => DemandModel::Cbr(Rate::bps(bps)),
            };
            let (Some(&src), Some(&dst)) = (s.members.get(a.src), s.members.get(a.dst)) else {
                continue;
            };
            if let Some(spec) = s.flow_between(
                src,
                dst,
                a.app,
                a.src_port,
                Some(ByteSize::bytes(a.size_bytes)),
                demand,
            ) {
                flows.push((a.at, spec));
            }
        }
    }
    flows.sort_by_key(|(at, _)| *at);
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(input: &Input) -> String {
        match input {
            Input::Sim(s, c) => format!(
                "{}|{}",
                serde_json::to_string(&**s).unwrap(),
                serde_json::to_string(c).unwrap()
            ),
            Input::Sweep(toml) => toml.clone(),
        }
    }

    #[test]
    fn a_repeated_seed_generates_byte_identical_inputs() {
        for w in &WORKLOADS {
            let a = fingerprint(&w.build(3, true, None));
            let b = fingerprint(&w.build(3, true, None));
            assert_eq!(a, b, "{}: same seed, different input", w.name);
            let c = fingerprint(&w.build(4, true, None));
            assert_ne!(a, c, "{}: the seed does not reach the input", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(by_name(w.name).unwrap(), w));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn offered_counts_match_first_flows() {
        let Input::Sim(s, _) = by_name("ixp_steady").unwrap().build(1, true, None) else {
            panic!("ixp_steady is a single simulation");
        };
        let o = offered(&s);
        assert!(o.flows > 0 && o.bytes > 0.0);
        // the generated stream is time-ordered, so its first `o.flows`
        // arrivals are exactly the ones inside the horizon
        let flows = first_flows(&s, o.flows as usize + 1);
        let within = flows.iter().filter(|(at, _)| *at <= s.horizon).count() as u64;
        assert_eq!(within, o.flows);
    }
}
