//! IXP replay (experiment E4, scaled to example size): a 24-hour diurnal
//! traffic day over a 100-member IXP fabric, replayed in simulated time.
//!
//! This is the paper's promised evaluation — "replaying its behavior over
//! time" — with the synthetic stand-in for the proprietary IXP trace
//! (gravity matrix × diurnal profile; see DESIGN.md §4). Prints the
//! aggregate load curve (the famous IXP daily sawtooth) and the wall-clock
//! cost of simulating the day.
//!
//! Run with: `cargo run --release --example ixp_replay [hours]`
//! (default 4 simulated hours; pass 24 for the full day)

use horse::prelude::*;

fn main() {
    let hours = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(4);

    let mut params = IxpScenarioParams::default();
    params.fabric.members = 100;
    params.fabric.edge_switches = 8;
    params.fabric.core_switches = 4;
    params.fabric.member_port_speeds = vec![Rate::gbps(10.0)];
    params.offered_bps = 20e9; // peak aggregate
    params.sizes = FlowSizeDist::Pareto {
        alpha: 1.2,
        min_bytes: 2_000_000,
        max_bytes: 5_000_000_000,
    };
    params.diurnal = Some(DiurnalProfile::default());
    params.horizon = SimTime::from_secs(hours * 3600);
    params.seed = 20160822; // SIGCOMM'16 week

    let scenario = Scenario::ixp(&params);
    let config = SimConfig::default().with_stats_epoch(Some(SimDuration::from_secs(300))); // 5-min bins

    println!(
        "replaying {hours}h over {} members ({} nodes, {} links)…",
        params.fabric.members,
        scenario.topology.node_count(),
        scenario.topology.link_count()
    );
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    let results = sim.run();

    println!("\naggregate IXP load (5-minute epochs):");
    let max_rate = results
        .collector
        .epochs
        .iter()
        .map(|e| e.aggregate_rate_bps)
        .fold(1.0, f64::max);
    for epoch in results.collector.epochs.iter().step_by(6) {
        let bar = "#".repeat((epoch.aggregate_rate_bps / max_rate * 60.0) as usize);
        println!(
            "  {:>5.1}h {:>8.2} Gbps |{bar}",
            epoch.time.as_secs_f64() / 3600.0,
            epoch.aggregate_rate_bps / 1e9,
        );
    }
    println!("\n{}", results.summary_table());
}
