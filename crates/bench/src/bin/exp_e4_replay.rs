//! E4 — IXP replay over time: the paper's "assess the simulator using
//! real data from the IXP itself, by replaying its behavior over time".
//!
//! Real traces being proprietary, the replay drives the documented
//! synthetic equivalent (gravity matrix × diurnal profile — DESIGN.md §4)
//! through a 100-member fabric and reports the recovered daily load curve
//! plus the wall-clock cost of the replay.
//!
//! Run with: `cargo run --release -p horse-bench --bin exp_e4_replay [hours]`
//! (default 2 simulated hours; 24 reproduces the full day)

use horse::prelude::*;
use horse_bench::fmt_wall;

fn main() {
    let hours = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(2);

    let mut params = IxpScenarioParams::default();
    params.fabric.members = 100;
    params.fabric.edge_switches = 8;
    params.fabric.core_switches = 4;
    params.fabric.member_port_speeds = vec![Rate::gbps(10.0)];
    params.offered_bps = 20e9;
    params.sizes = FlowSizeDist::Pareto {
        alpha: 1.2,
        min_bytes: 2_000_000,
        max_bytes: 5_000_000_000,
    };
    params.diurnal = Some(DiurnalProfile::default());
    params.horizon = SimTime::from_secs(hours * 3600);
    params.seed = 20160822;
    let scenario = Scenario::ixp(&params);

    let config = SimConfig::default().with_stats_epoch(Some(SimDuration::from_secs(300)));
    println!("== E4: {hours}h diurnal replay over 100 members ==");
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    let results = sim.run();

    println!("hour | load (Gbps) | active flows");
    println!("-----+-------------+-------------");
    for epoch in results.collector.epochs.iter().step_by(12) {
        println!(
            "{:>4.1} | {:>11.2} | {:>12}",
            epoch.time.as_secs_f64() / 3600.0,
            epoch.aggregate_rate_bps / 1e9,
            epoch.active_flows
        );
    }
    println!();
    println!(
        "replayed {:.1} simulated hours in {} ({:.0}x real time, {} events, {} flows)",
        results.sim_time.as_secs_f64() / 3600.0,
        fmt_wall(results.wall_seconds),
        results.speedup(),
        results.events,
        results.flows_admitted,
    );
}
