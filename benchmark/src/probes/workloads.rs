//! `workloads`: drawing arrivals from the flow generator. Should move
//! `run_s` on `ixp_steady` (predicted < 2%).

use super::{secs, Input, Reading, Shared};
use horse::workloads::FlowGenerator;

pub const METRICS: &[&str] = &["workloads.gen_ns_per_flow"];

pub fn run(input: &Input, _: &mut Shared) -> Vec<Reading> {
    let reading = match &input.scenario.workload {
        None => Err("workload schedules explicit flows only".to_string()),
        Some(params) => {
            let n = if input.smoke { 5_000 } else { 100_000 };
            let mut gen = FlowGenerator::new(params.clone());
            let (_, s) = secs(|| {
                for _ in 0..n {
                    std::hint::black_box(gen.next_arrival());
                }
            });
            Ok(s * 1e9 / n as f64)
        }
    };
    vec![(METRICS[0], reading)]
}
