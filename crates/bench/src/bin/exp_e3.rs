//! E3 — Accuracy of the flow-level abstraction vs packet-level ground
//! truth: per-flow FCT error, per-link utilization error, delivered-volume
//! error, on identical workloads.
//!
//! For three Pareto size classes (minimum 50 kB, 500 kB and 5 MB) on a
//! 16-member IXP it prints the p50/p95 of the per-flow relative FCT error
//! (unsigned), the mean and RMS per-link utilization error, and the
//! relative error in delivered volume. The FCT error does not shrink as
//! flows grow: its p50 reads 33.0%, 67.4% and 39.0% for the three
//! classes. ROADMAP direction 5 records the sign of that error and owns
//! attributing it.
//!
//! Run with: `cargo run --release -p horse-bench --bin exp_e3`

use horse::compare::{compare_planes, materialize_workload};
use horse::prelude::*;

fn accuracy_with_sizes(min_bytes: u64, label: &str) {
    let mut params = IxpScenarioParams::default();
    params.fabric.members = 16;
    params.fabric.member_port_speeds = vec![Rate::mbps(200.0)];
    params.fabric.uplink_speed = Rate::gbps(1.0);
    params.offered_bps = 16.0 * 40e6;
    params.sizes = FlowSizeDist::Pareto {
        alpha: 1.3,
        min_bytes,
        max_bytes: min_bytes * 200,
    };
    params.horizon = SimTime::from_secs(5);
    params.seed = 33;
    let mut scenario = Scenario::ixp(&params);
    materialize_workload(&mut scenario, 150);
    let report = compare_planes(
        &scenario,
        SimConfig::default().with_stats_epoch(Some(SimDuration::from_millis(500))),
    );
    println!(
        "{label:>9} | {:>5} | {:>10.1}% | {:>10.1}% | {:>8.4} | {:>8.4} | {:>9.2}%",
        report.flows_compared,
        report.fct_rel_error.p50 * 100.0,
        report.fct_rel_error.p95 * 100.0,
        report.util_mae,
        report.util_rmse,
        report.bytes_rel_error * 100.0,
    );
}

fn main() {
    println!("== E3: flow-level vs packet-level accuracy (16-member IXP, 5 s) ==");
    println!("flow size | flows | fct-err p50 | fct-err p95 | util MAE | util RMSE | volume err");
    println!("----------+-------+-------------+-------------+----------+-----------+-----------");
    accuracy_with_sizes(50_000, "50 kB");
    accuracy_with_sizes(500_000, "500 kB");
    accuracy_with_sizes(5_000_000, "5 MB");
    println!();
    println!("(fct-err is unsigned; aggregate utilization and volume are the");
    println!(" quantities the flow-level abstraction targets for policy studies)");
}
