//! `dataplane`: admission, removal and the incremental reallocation on a
//! `FluidNet` holding the workload's first flows, with the compiled rules
//! installed. Should move `run_s` on `ixp_steady` and `ixp_waves`; flat on
//! the fat-tree workloads.

use super::{secs, Input, Reading, Shared};
use horse::dataplane::{AdmitOutcome, FluidNet};
use horse::prelude::*;

pub const METRICS: &[&str] = &[
    "dataplane.admit_ns_per_flow",
    "dataplane.remove_ns_per_flow",
    "dataplane.churn_ns_per_realloc",
];

/// Wall-clock cap on the churn loop.
const CHURN_SECONDS: f64 = 0.5;

pub fn run(input: &Input, shared: &mut Shared) -> Vec<Reading> {
    let fail = |why: String| METRICS.iter().map(|m| (*m, Err(why.clone()))).collect();
    let (population, churn) = if input.smoke { (64, 32) } else { (512, 400) };
    let compiled = match shared.compiled(input) {
        Ok(c) => c,
        Err(why) => return fail(why),
    };
    let mut net = FluidNet::new(input.scenario.topology.clone(), input.config.fluid());
    for (sw, msg) in &compiled.msgs {
        net.apply_ctrl(*sw, msg, SimTime::ZERO);
    }
    let t0 = SimTime::ZERO;
    let admit = |net: &mut FluidNet, spec: &FlowSpec, at: SimTime| {
        let id = net.reserve_id();
        matches!(net.try_admit(id, spec.clone(), at), AdmitOutcome::Admitted).then_some(id)
    };
    let resident = &input.flows[..population.min(input.flows.len())];
    let (ids, admit_s) = secs(|| {
        resident
            .iter()
            .filter_map(|(_, spec)| admit(&mut net, spec, t0))
            .collect::<Vec<_>>()
    });
    if ids.len() * 2 < resident.len().max(1) {
        return fail(format!(
            "only {} of {} flows admit without a controller round trip (reactive policy)",
            ids.len(),
            resident.len()
        ));
    }
    net.reallocate(t0);
    // Steady-state churn: admit one more flow, reallocate, remove it,
    // reallocate — the per-epoch cost at this population.
    let extra = &input.flows[resident.len()..];
    let churn_ns = if extra.is_empty() {
        Err("workload offers no flows beyond the resident population".to_string())
    } else {
        let mut reallocs = 0u64;
        let started = std::time::Instant::now();
        let (_, s) = secs(|| {
            for e in 0..churn {
                // a reallocation costs milliseconds on a k=16 fabric
                if started.elapsed().as_secs_f64() > CHURN_SECONDS {
                    break;
                }
                let at = SimTime::from_micros(1 + 2 * e as u64);
                let (_, spec) = &extra[e % extra.len()];
                if let Some(id) = admit(&mut net, spec, at) {
                    net.reallocate(at);
                    net.remove_flow(id, at + SimDuration::from_micros(1), false);
                    net.reallocate(at + SimDuration::from_micros(1));
                    reallocs += 2;
                }
            }
        });
        if reallocs == 0 {
            Err("no churn flow admitted".to_string())
        } else {
            Ok(s * 1e9 / reallocs as f64)
        }
    };
    let end = SimTime::from_secs(1);
    let (_, remove_s) = secs(|| {
        for &id in &ids {
            std::hint::black_box(net.remove_flow(id, end, false));
        }
    });
    vec![
        (
            "dataplane.admit_ns_per_flow",
            Ok(admit_s * 1e9 / resident.len() as f64),
        ),
        (
            "dataplane.remove_ns_per_flow",
            Ok(remove_s * 1e9 / ids.len() as f64),
        ),
        ("dataplane.churn_ns_per_realloc", churn_ns),
    ]
}
