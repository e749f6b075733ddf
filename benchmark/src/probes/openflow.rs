//! `openflow`: replaying the compiled rule set into fresh switches and
//! walking workload flow keys through the pipeline. `apply_ns_per_msg` and
//! `table_entries` should move `setup_s` on `fat_tree_k16_cold` and `run_s`
//! on `fat_tree_flaps`; `process_ns_per_lookup` should move `run_s` on
//! `ixp_steady` (small share) and `ixp_hybrid_pkt` (cache misses only).

use super::{secs, Input, Reading, Shared};
use horse::openflow::OpenFlowSwitch;
use horse::prelude::*;
use horse::types::TableId;
use std::collections::HashMap;

pub const METRICS: &[&str] = &[
    "openflow.apply_ns_per_msg",
    "openflow.table_entries",
    "openflow.process_ns_per_lookup",
];

/// Flow tables per switch, as the fluid and packet planes build them.
const TABLES: usize = 2;

pub fn run(input: &Input, shared: &mut Shared) -> Vec<Reading> {
    let topo = &input.scenario.topology;
    let compiled = match shared.compiled(input) {
        Ok(c) => c,
        Err(why) => return METRICS.iter().map(|m| (*m, Err(why.clone()))).collect(),
    };
    let mut switches: HashMap<NodeId, OpenFlowSwitch> = topo
        .switches()
        .map(|id| {
            let ports: Vec<_> = topo.ports(id).collect();
            (id, OpenFlowSwitch::new(id, TABLES, &ports))
        })
        .collect();
    let (_, apply_s) = secs(|| {
        for (sw, msg) in &compiled.msgs {
            if let Some(s) = switches.get_mut(sw) {
                std::hint::black_box(s.apply(msg, SimTime::ZERO));
            }
        }
    });
    let entries: usize = switches
        .values()
        .flat_map(|s| (0..TABLES).filter_map(|t| s.table(TableId(t as u8))))
        .map(|t| t.len())
        .sum();
    let lookups = input.edge_lookups();
    let process = if lookups.is_empty() {
        Err("workload offers no flows".to_string())
    } else {
        let (_, s) = secs(|| {
            for (sw, port, key) in &lookups {
                if let Some(s) = switches.get_mut(sw) {
                    std::hint::black_box(s.process(*port, key, SimTime::ZERO));
                }
            }
        });
        Ok(s * 1e9 / lookups.len() as f64)
    };
    vec![
        (
            "openflow.apply_ns_per_msg",
            if compiled.msgs.is_empty() {
                Err("policy compiles to no messages".into())
            } else {
                Ok(apply_s * 1e9 / compiled.msgs.len() as f64)
            },
        ),
        ("openflow.table_entries", Ok(entries as f64)),
        ("openflow.process_ns_per_lookup", process),
    ]
}
