//! Million-flow scaling demo: drives the fluid engine directly (no
//! simulation loop) at a parameterized population size and prints the
//! deterministic size counters next to the wall costs — the numbers the
//! `docs/PERFORMANCE.md` scaling guide explains.
//!
//! Usage:
//!   million_flow [--classes N] [--flows-per-class M] [--churn-epochs E]
//!
//! The default point is the headline one: 1024 path classes × 1024
//! flows per class ≈ 10^6 concurrent flows, solved as 1024 weighted
//! variables.

use horse_bench::{fmt_wall, million_flow_point};

fn main() {
    let mut classes = 1024usize;
    let mut flows_per_class = 1024usize;
    let mut churn_epochs = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} takes a number"))
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("{name} takes a number"))
        };
        match a.as_str() {
            "--classes" => classes = take("--classes"),
            "--flows-per-class" => flows_per_class = take("--flows-per-class"),
            "--churn-epochs" => churn_epochs = take("--churn-epochs"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: million_flow [--classes N] [--flows-per-class M] [--churn-epochs E]"
                );
                std::process::exit(2);
            }
        }
    }
    println!(
        "million_flow: {classes} classes x {flows_per_class} flows/class, \
         {churn_epochs} churn epochs"
    );
    let s = million_flow_point(classes, flows_per_class, churn_epochs);
    println!("  flows admitted     {:>12}", s.flows);
    println!(
        "  macro variables    {:>12}   ({}x aggregation)",
        s.macro_vars,
        s.flows / s.macro_vars.max(1)
    );
    println!("  admit wall         {:>12}", fmt_wall(s.admit_secs));
    println!("  cold full solve    {:>12}", fmt_wall(s.full_solve_secs));
    println!(
        "  churn epoch wall   {:>12}   ({:.1} ns/flow)",
        fmt_wall(s.churn_ns_per_epoch / 1e9),
        s.churn_ns_per_flow
    );
}
