//! E2 — Simulation time vs traffic load.
//!
//! Fixed 200-member IXP; the offered load scales ×{0.25, 0.5, 1, 2, 4}.
//! Flow-level cost grows with the *flow event rate* (arrivals ×
//! rate-change cascades), not with packets — the table shows wall-clock
//! tracking the admitted-flow count roughly linearly.
//!
//! Run with: `cargo run --release -p horse-bench --bin exp_e2`

use horse::prelude::*;
use horse_bench::{fmt_wall, ixp_scenario, lb_policy, run_fluid};

fn main() {
    let horizon = SimTime::from_secs(10);
    println!("== E2: load sweep at 200 members (10 simulated seconds) ==");
    println!("load    | flows adm. |   events |  wall     | ev/s     | realloc flows");
    println!("--------+------------+----------+-----------+----------+--------------");
    for factor in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let s = ixp_scenario(200, factor, lb_policy(), horizon, 2);
        let r = run_fluid(s, SimConfig::default());
        println!(
            "x{factor:<5.2} | {:>10} | {:>8} | {:>9} | {:>8.0} | {:>12}",
            r.flows_admitted,
            r.events,
            fmt_wall(r.wall_seconds),
            r.events_per_sec(),
            r.realloc_flows_touched,
        );
    }
}
