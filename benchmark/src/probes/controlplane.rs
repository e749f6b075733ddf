//! `controlplane`: path database, proactive compile, the reaction to one
//! port-status, and the reactive flow-in callback. `pathdb_build_s` and
//! `compile_*` should move `setup_s` on `fat_tree_k16_cold`;
//! `port_status_*` should move `run_s` on `fat_tree_flaps`;
//! `flow_in_ns_per_call` should move `run_s` on `ixp_whatif_fork`.

use super::{generator, secs, Input, Reading, Shared};
use horse::controlplane::{Controller, ControllerCtx, Outbox, PathDb};
use horse::prelude::*;
use horse::topology::link::LinkState;

pub const METRICS: &[&str] = &[
    "controlplane.pathdb_build_s",
    "controlplane.compile_s",
    "controlplane.compile_msgs",
    "controlplane.port_status_s",
    "controlplane.port_status_msgs",
    "controlplane.flow_in_ns_per_call",
];

pub fn run(input: &Input, shared: &mut Shared) -> Vec<Reading> {
    let topo = &input.scenario.topology;
    let (_, pathdb_s) = secs(|| std::hint::black_box(PathDb::build(topo)));
    let mut out = vec![("controlplane.pathdb_build_s", Ok(pathdb_s))];

    let mut gen = match generator(input) {
        Ok(g) => g,
        Err(why) => {
            out.extend(METRICS[1..].iter().map(|m| (*m, Err(why.clone()))));
            return out;
        }
    };
    let (compiled, compile_s) = secs(|| gen.compile(topo));
    out.push(("controlplane.compile_s", Ok(compile_s)));
    out.push(("controlplane.compile_msgs", Ok(compiled.msgs.len() as f64)));
    shared.compiled = Some(compiled);

    // The reactive path first, on the intact fabric: every offered flow's
    // key as a table miss at its source's edge switch.
    let ctx = ControllerCtx {
        topo,
        now: SimTime::ZERO,
    };
    let misses = input.edge_lookups();
    out.push((
        "controlplane.flow_in_ns_per_call",
        if misses.is_empty() {
            Err("workload offers no flows".into())
        } else {
            let mut sink = Outbox::new();
            let (_, s) = secs(|| {
                for (sw, port, key) in &misses {
                    gen.on_flow_in(*sw, *port, key, &ctx, &mut sink);
                    sink.msgs.clear();
                }
            });
            Ok(s * 1e9 / misses.len() as f64)
        },
    ));

    // One cable between two switches goes down; the controller sees the
    // topology with the change applied, as in the simulator.
    let cable = topo.links().find(|(_, l)| {
        let is_switch = |n| topo.node(n).is_some_and(|n| n.kind.is_switch());
        is_switch(l.src) && is_switch(l.dst)
    });
    match cable {
        Some((id, link)) => {
            let mut cut = topo.clone();
            cut.set_cable_state(id, LinkState::Down)
                .expect("link id came from this topology");
            let ctx = ControllerCtx {
                topo: &cut,
                now: SimTime::ZERO,
            };
            let mut reaction = Outbox::new();
            let (_, s) =
                secs(|| gen.on_port_status(link.src, link.src_port, false, &ctx, &mut reaction));
            out.push(("controlplane.port_status_s", Ok(s)));
            out.push((
                "controlplane.port_status_msgs",
                Ok(reaction.msgs.len() as f64),
            ));
        }
        None => {
            let why = "fabric has no switch-to-switch cable".to_string();
            out.push(("controlplane.port_status_s", Err(why.clone())));
            out.push(("controlplane.port_status_msgs", Err(why)));
        }
    }
    out
}
