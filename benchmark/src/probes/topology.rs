//! `topology`: fabric construction and single-source shortest-path trees
//! (what `PathDb::build` runs once per switch). Should move `setup_s` on
//! `fat_tree_k16_cold`.

use super::{median_secs, secs, Input, Reading, Shared};
use horse::topology::routing::{sssp, Metric};

pub const METRICS: &[&str] = &["topology.build_s", "topology.sssp_ns_per_tree"];

/// Shortest-path trees timed (one per switch, capped).
const TREES: usize = 64;

pub fn run(input: &Input, _: &mut Shared) -> Vec<Reading> {
    let build_s = median_secs(3, || {
        std::hint::black_box(input.workload.topology(input.smoke));
    });
    let topo = &input.scenario.topology;
    let switches: Vec<_> = topo.switches().take(TREES).collect();
    let sssp_ns = if switches.is_empty() {
        Err("fabric has no switches".to_string())
    } else {
        let (_, s) = secs(|| {
            for &sw in &switches {
                std::hint::black_box(sssp(topo, sw, Metric::Hops));
            }
        });
        Ok(s * 1e9 / switches.len() as f64)
    };
    vec![
        ("topology.build_s", Ok(build_s)),
        ("topology.sssp_ns_per_tree", sssp_ns),
    ]
}
