//! E5 — Policy-configuration sweep: "from basic forwarding based on
//! source and destination MAC, to more complex combination of policies
//! such as load-balancing and application-layer peering" (paper, §2).
//!
//! Each row simulates the same 100-member workload under a progressively
//! richer policy configuration and reports simulation cost plus
//! control-plane activity. Reactive MAC learning pays per-flow controller
//! round trips; the richer proactive mixes cost more rules but no
//! round trips.
//!
//! Run with: `cargo run --release -p horse-bench --bin exp_e5`

use horse::prelude::*;
use horse_bench::{fmt_wall, ixp_scenario};

fn policy_mix(level: usize) -> (String, PolicySpec) {
    match level {
        0 => (
            "mac-forwarding".into(),
            PolicySpec::new().with(PolicyRule::MacForwarding),
        ),
        1 => (
            "mac-learning (reactive)".into(),
            PolicySpec::new().with(PolicyRule::MacLearning),
        ),
        2 => (
            "load-balancing".into(),
            PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp }),
        ),
        3 => {
            let mut spec = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
            for i in 0..5 {
                spec = spec.with(PolicyRule::AppPeering {
                    src: format!("m{}", i * 2 + 1),
                    dst: format!("m{}", i * 2 + 2),
                    app: AppClass::Http,
                    path_rank: 1,
                });
            }
            ("lb + 5x app-peering".into(), spec)
        }
        _ => {
            let mut spec = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
            for i in 0..5 {
                spec = spec.with(PolicyRule::AppPeering {
                    src: format!("m{}", i * 2 + 1),
                    dst: format!("m{}", i * 2 + 2),
                    app: AppClass::Http,
                    path_rank: 1,
                });
                spec = spec.with(PolicyRule::RateLimit {
                    src: format!("m{}", i * 2 + 11),
                    dst: format!("m{}", i * 2 + 12),
                    rate_mbps: 500.0,
                });
            }
            spec = spec
                .with(PolicyRule::SourceRouting {
                    src: "m31".into(),
                    dst: "m32".into(),
                    via: vec!["c1".into()],
                })
                .with(PolicyRule::Blackhole {
                    victim: "m40".into(),
                });
            ("full mix (lb+peer+limit+srcroute+blackhole)".into(), spec)
        }
    }
}

fn main() {
    let horizon = SimTime::from_secs(10);
    println!("== E5: policy sweep at 100 members (10 simulated seconds) ==");
    println!("configuration                                |  wall     |   events | flow-ins | msgs down | drops");
    println!("---------------------------------------------+-----------+----------+----------+-----------+------");
    for level in 0..5 {
        let (label, policy) = policy_mix(level);
        let scenario = ixp_scenario(100, 1.0, policy, horizon, 4);
        let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid scenario");
        let r = sim.run();
        println!(
            "{label:<44} | {:>9} | {:>8} | {:>8} | {:>9} | {:>5}",
            fmt_wall(r.wall_seconds),
            r.events,
            r.flow_ins,
            r.msgs_to_switch,
            r.flows_dropped,
        );
    }
}
