//! Output verification: conservation invariants on every run, and for
//! seed 1 a digest of flow-level outcomes against
//! `benchmark/expected/<workload>.json` (written by `record`).
//!
//! Event, message and allocator-run counts are layer counters and are
//! deliberately **not** in the digest, so a change that legitimately
//! sends fewer messages still verifies.

use crate::json::{num, obj, uint, Value};
use crate::workloads::Offered;
use horse::lab::RunMetrics;
use horse::prelude::*;
use std::path::PathBuf;

/// The seed whose outcomes are pinned by the committed digests.
pub const DIGEST_SEED: u64 = 1;

/// Relative tolerance for the digest's float fields: the simulator is
/// bit-deterministic today, but a change that only reorders a float sum
/// is not a wrong answer.
const FLOAT_RTOL: f64 = 1e-9;

/// Flow-level outcomes of one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Flows offered up to the horizon.
    pub flows_offered: u64,
    /// Admissions (a rerouted flow is admitted twice).
    pub flows_admitted: u64,
    /// Flows that ran to byte-completion.
    pub flows_completed: u64,
    /// Flows dropped (policy, no route, controller timeout, failure).
    pub flows_dropped: u64,
    /// Flows still active at the horizon.
    pub flows_active_at_end: u64,
    /// Bytes delivered end to end.
    pub bytes_delivered: f64,
    /// Median flow completion time, seconds.
    pub fct_p50: f64,
    /// 99th-percentile flow completion time, seconds.
    pub fct_p99: f64,
    /// Flows knocked off a failed element and re-admitted.
    pub flows_rerouted: u64,
    /// Flows knocked off a failed element and never re-admitted.
    pub flows_stranded: u64,
    /// Packets the packet plane dropped (0 in a fluid run).
    pub pkt_drops: u64,
}

impl Outcome {
    /// From a finished simulation.
    pub fn of_sim(r: &SimResults, sim: &Simulation, offered: &Offered) -> Self {
        Outcome {
            flows_offered: offered.flows,
            flows_admitted: r.flows_admitted,
            flows_completed: r.flows_completed,
            flows_dropped: r.flows_dropped,
            flows_active_at_end: r.flows_active_at_end,
            bytes_delivered: r.bytes_delivered,
            fct_p50: r.fct.p50,
            fct_p99: r.fct.p99,
            flows_rerouted: r.chaos.flows_rerouted,
            flows_stranded: r.chaos.flows_stranded,
            pkt_drops: sim.hybrid().map_or(0, |h| h.plane().drops()),
        }
    }

    /// From one run of a lab campaign report.
    pub fn of_run(m: &RunMetrics, offered: &Offered) -> Self {
        Outcome {
            flows_offered: offered.flows,
            flows_admitted: m.flows_admitted,
            flows_completed: m.flows_completed,
            flows_dropped: m.flows_dropped,
            flows_active_at_end: m.flows_active_at_end,
            bytes_delivered: m.bytes_delivered,
            fct_p50: m.fct.p50,
            fct_p99: m.fct.p99,
            flows_rerouted: m.chaos.flows_rerouted,
            flows_stranded: m.chaos.flows_stranded,
            pkt_drops: 0,
        }
    }

    /// Flows that did not get service: dropped plus stranded, capped at
    /// the number offered.
    pub fn failed(&self) -> u64 {
        (self.flows_dropped + self.flows_stranded).min(self.flows_offered)
    }

    /// The digest entry.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("flows_offered", uint(self.flows_offered)),
            ("flows_admitted", uint(self.flows_admitted)),
            ("flows_completed", uint(self.flows_completed)),
            ("flows_dropped", uint(self.flows_dropped)),
            ("flows_active_at_end", uint(self.flows_active_at_end)),
            ("bytes_delivered", num(self.bytes_delivered)),
            ("fct_p50", num(self.fct_p50)),
            ("fct_p99", num(self.fct_p99)),
            ("flows_rerouted", uint(self.flows_rerouted)),
            ("flows_stranded", uint(self.flows_stranded)),
            ("pkt_drops", uint(self.pkt_drops)),
        ])
    }

    /// Invariants that need only the outcome: flow accounting closes and
    /// nothing is delivered that was not offered.
    pub fn check(&self, offered: &Offered, errors: &mut Vec<String>) {
        let o = self;
        if o.flows_completed > o.flows_admitted {
            errors.push(format!(
                "completed {} > admitted {}",
                o.flows_completed, o.flows_admitted
            ));
        }
        // Every admission is a distinct offered flow or a re-admission
        // after a fault; every drop is an offered flow.
        if o.flows_admitted > o.flows_offered + o.flows_rerouted {
            errors.push(format!(
                "admitted {} > offered {} + rerouted {}",
                o.flows_admitted, o.flows_offered, o.flows_rerouted
            ));
        }
        if o.flows_dropped > o.flows_offered {
            errors.push(format!(
                "dropped {} > offered {}",
                o.flows_dropped, o.flows_offered
            ));
        }
        if o.flows_completed + o.flows_active_at_end > o.flows_admitted {
            errors.push(format!(
                "completed {} + active {} > admitted {}",
                o.flows_completed, o.flows_active_at_end, o.flows_admitted
            ));
        }
        if !(o.bytes_delivered >= 0.0 && o.bytes_delivered <= offered.bytes * (1.0 + 1e-9)) {
            errors.push(format!(
                "bytes delivered {} outside [0, offered {}]",
                o.bytes_delivered, offered.bytes
            ));
        }
    }
}

/// Invariants that need the finished simulation: admitted flows are all
/// accounted for (completed, still active, or torn down by a fault) and
/// no link carries more than its capacity.
pub fn check_sim(r: &SimResults, sim: &Simulation, errors: &mut Vec<String>) {
    let fluid = sim.fluid();
    let torn_down = fluid.records().iter().filter(|rec| !rec.completed).count() as u64;
    if r.flows_admitted != r.flows_completed + r.flows_active_at_end + torn_down {
        errors.push(format!(
            "admitted {} != completed {} + active {} + torn down {}",
            r.flows_admitted, r.flows_completed, r.flows_active_at_end, torn_down
        ));
    }
    let topo = fluid.topology();
    for (id, link) in topo.links() {
        let load = fluid.link_stats()[id.index()].current_rate_bps;
        let cap = link.capacity.as_bps();
        if load > cap * (1.0 + 1e-6) + 1e-3 {
            errors.push(format!("{id} carries {load} bps over capacity {cap} bps"));
            break;
        }
    }
}

/// Where a workload's committed digest lives. `benchmark/` is resolved
/// against the working directory first (the driver runs from the
/// checkout root) and against this crate's manifest otherwise.
pub fn expected_path(workload: &str) -> PathBuf {
    let rel = PathBuf::from("benchmark/expected").join(format!("{workload}.json"));
    if rel.parent().is_some_and(|d| d.is_dir()) {
        rel
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{workload}.json"))
    }
}

/// The digest of a run: one outcome per simulation (a campaign has one
/// per variant).
pub fn digest(outcomes: &[Outcome]) -> Value {
    obj(vec![(
        "runs",
        Value::Seq(outcomes.iter().map(Outcome::to_json).collect()),
    )])
}

fn diff(path: &str, want: &Value, got: &Value, errors: &mut Vec<String>) {
    match (want, got) {
        (Value::Map(w), Value::Map(_)) => {
            for (k, wv) in w {
                diff(&format!("{path}.{k}"), wv, got.get(k), errors);
            }
        }
        (Value::Seq(w), Value::Seq(g)) => {
            if w.len() != g.len() {
                errors.push(format!("{path}: {} entries, expected {}", g.len(), w.len()));
                return;
            }
            for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                diff(&format!("{path}[{i}]"), wv, gv, errors);
            }
        }
        (Value::Number(w), Value::Number(g)) => {
            let same = match (w.as_u64(), g.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => {
                    let (a, b) = (w.as_f64(), g.as_f64());
                    (a - b).abs() <= FLOAT_RTOL * a.abs().max(b.abs())
                }
            };
            if !same {
                errors.push(format!("{path}: got {g}, expected {w}"));
            }
        }
        _ if want == got => {}
        _ => errors.push(format!("{path}: got {got:?}, expected {want:?}")),
    }
}

/// Compares a run's digest with the committed one. Only full-size runs
/// on [`DIGEST_SEED`] have one; everything else runs the invariants only.
pub fn check_digest(workload: &str, got: &Value, errors: &mut Vec<String>) {
    let path = expected_path(workload);
    match crate::json::read_file(&path) {
        Ok(want) => diff("digest", &want, got, errors),
        Err(e) => errors.push(format!("no expected digest ({e}); run `record` first")),
    }
}

/// Sums `(attempted, failed)` over outcomes.
pub fn ops(outcomes: &[Outcome]) -> (u64, u64) {
    outcomes
        .iter()
        .fold((0, 0), |(a, f), o| (a + o.flows_offered, f + o.failed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            flows_offered: 10,
            flows_admitted: 9,
            flows_completed: 7,
            flows_dropped: 1,
            flows_active_at_end: 2,
            bytes_delivered: 1234.5,
            fct_p50: 0.25,
            fct_p99: 1.5,
            flows_rerouted: 0,
            flows_stranded: 0,
            pkt_drops: 3,
        }
    }

    #[test]
    fn digest_is_stable_and_survives_a_text_round_trip() {
        let d = digest(&[outcome(), outcome()]);
        assert_eq!(d, digest(&[outcome(), outcome()]));
        let back = crate::json::parse(&crate::json::to_pretty(&d)).unwrap();
        let mut errors = Vec::new();
        diff("digest", &back, &d, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn digest_diff_names_the_field_and_tolerates_float_dust() {
        let want = digest(&[outcome()]);
        let mut changed = outcome();
        changed.bytes_delivered *= 1.0 + 1e-12;
        let mut errors = Vec::new();
        diff("digest", &want, &digest(&[changed.clone()]), &mut errors);
        assert!(errors.is_empty(), "float dust is not a wrong answer");
        changed.flows_completed = 6;
        diff("digest", &want, &digest(&[changed]), &mut errors);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("runs[0].flows_completed"), "{errors:?}");
        // a run going missing is a mismatch too
        let mut errors = Vec::new();
        diff("digest", &want, &digest(&[]), &mut errors);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn invariants_catch_broken_accounting() {
        let offered = Offered {
            flows: 10,
            bytes: 2000.0,
        };
        let mut errors = Vec::new();
        outcome().check(&offered, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        let mut bad = outcome();
        bad.flows_completed = 12;
        bad.bytes_delivered = 5000.0;
        bad.check(&offered, &mut errors);
        assert!(errors.len() >= 2, "{errors:?}");
        assert_eq!(outcome().failed(), 1);
        assert_eq!(ops(&[outcome(), outcome()]), (20, 2));
    }
}
