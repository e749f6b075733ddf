//! Layer probes, one module per crate. Each times calls into one crate's
//! public functions on inputs taken from the workload, from outside the
//! program. Probes are independent: one that cannot run (or panics)
//! reports `null` with a reason for each of its metrics and never aborts
//! the pass.

pub mod controlplane;
pub mod dataplane;
pub mod events;
pub mod lab;
pub mod openflow;
pub mod packetsim;
pub mod snap;
pub mod topology;
pub mod workloads;

use crate::spans::Spans;
use crate::workloads::Workload;
use horse::controlplane::Outbox;
use horse::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One probe reading: a metric name and its value, or why there is none.
pub type Reading = (&'static str, Result<f64, String>);

/// What every probe may look at.
pub struct Input<'a> {
    /// The workload (for its fabric builder).
    pub workload: &'a Workload,
    /// The scenario the workload generated (a campaign's shared prefix).
    pub scenario: &'a Scenario,
    /// The workload's simulator configuration.
    pub config: SimConfig,
    /// The sweep-spec text, when the workload is a campaign.
    pub sweep: Option<&'a str>,
    /// The first flows the scenario offers, in arrival order.
    pub flows: &'a [(SimTime, FlowSpec)],
    /// Shrink iteration counts to smoke size.
    pub smoke: bool,
}

impl Input<'_> {
    /// Every offered flow as the table lookup its first packet causes:
    /// `(source's edge switch, ingress port, key)`.
    pub fn edge_lookups(&self) -> Vec<(NodeId, horse::types::PortNo, FlowKey)> {
        let topo = &self.scenario.topology;
        self.flows
            .iter()
            .filter_map(|(_, f)| {
                let (_, access) = topo.out_links(f.src).next()?;
                Some((access.dst, access.dst_port, f.key))
            })
            .collect()
    }
}

/// The compiled proactive rule set. The control-plane probe leaves it
/// here after timing the compile so the probes that need an installed
/// fabric do not pay for it again (seconds at k=16); a probe that finds
/// it missing compiles its own.
#[derive(Default)]
pub struct Shared {
    compiled: Option<Outbox>,
}

impl Shared {
    /// The compiled rule set, compiling it now if no probe has yet.
    pub fn compiled(&mut self, input: &Input) -> Result<&Outbox, String> {
        if self.compiled.is_none() {
            let mut gen = generator(input)?;
            self.compiled = Some(gen.compile(&input.scenario.topology));
        }
        Ok(self.compiled.as_ref().expect("just filled"))
    }
}

/// A policy generator for the workload's policy and fabric.
pub fn generator(input: &Input) -> Result<horse::controlplane::PolicyGenerator, String> {
    horse::controlplane::PolicyGenerator::new(
        input.scenario.policy.clone(),
        &input.scenario.topology,
    )
    .map_err(|report| format!("policy does not validate: {report:?}"))
}

/// Seconds a closure takes.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median of `reps` timings of a closure, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| secs(&mut f).1).collect();
    crate::stats::median(&samples).expect("at least one sample")
}

struct Probe {
    span: &'static str,
    metrics: &'static [&'static str],
    run: fn(&Input, &mut Shared) -> Vec<Reading>,
}

const PROBES: [Probe; 8] = [
    Probe {
        span: "probe.topology",
        metrics: topology::METRICS,
        run: topology::run,
    },
    Probe {
        span: "probe.controlplane",
        metrics: controlplane::METRICS,
        run: controlplane::run,
    },
    Probe {
        span: "probe.openflow",
        metrics: openflow::METRICS,
        run: openflow::run,
    },
    Probe {
        span: "probe.events",
        metrics: events::METRICS,
        run: events::run,
    },
    Probe {
        span: "probe.dataplane",
        metrics: dataplane::METRICS,
        run: dataplane::run,
    },
    Probe {
        span: "probe.packetsim",
        metrics: packetsim::METRICS,
        run: packetsim::run,
    },
    Probe {
        span: "probe.workloads",
        metrics: workloads::METRICS,
        run: workloads::run,
    },
    Probe {
        span: "probe.lab",
        metrics: lab::METRICS,
        run: lab::run,
    },
];

/// Runs every probe under its own harness span.
pub fn run_all(input: &Input, spans: &mut Spans) -> Vec<Reading> {
    let mut shared = Shared::default();
    let mut out = Vec::new();
    for probe in &PROBES {
        let span = spans.begin(probe.span);
        match catch_unwind(AssertUnwindSafe(|| (probe.run)(input, &mut shared))) {
            Ok(readings) => out.extend(readings),
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "probe panicked".into());
                out.extend(probe.metrics.iter().map(|m| (*m, Err(why.clone()))));
            }
        }
        spans.end(span);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_metric_is_a_declared_layer_metric() {
        let declared = PROBES.iter().flat_map(|p| p.metrics).chain(snap::METRICS);
        for m in declared {
            assert!(
                crate::spec::layer(m).is_some(),
                "{m} is not in spec::LAYERS"
            );
        }
    }
}
