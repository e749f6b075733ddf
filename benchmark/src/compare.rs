//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians and quartiles, the delta with its base, the bound
//! and a verdict; layer metrics beneath with their deltas. This is the
//! tool for the same-commit agreement check and for every later PR.

use crate::json::{get_f64, get_u64, Value};
use crate::spec::{END_TO_END, LAYERS};
use crate::stats::{verdict, worsening, Estimate, Verdict};
use crate::workloads::WORKLOADS;

fn estimate(metric: &Value) -> Option<Estimate> {
    Some(Estimate {
        median: get_f64(metric, "median")?,
        q1: get_f64(metric, "q1")?,
        q3: get_f64(metric, "q3")?,
        min: get_f64(metric, "min")?,
        n: get_u64(metric, "n")? as usize,
    })
}

fn failed_share(workload: &Value) -> f64 {
    let attempted = get_u64(workload, "ops_attempted").unwrap_or(0);
    let failed = get_u64(workload, "ops_failed").unwrap_or(0);
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Prints the comparison of result set `b` against baseline `a`; returns
/// false when any pair is `worse` or a failed share grew.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<12} {:>11} {:>22} {:>11} {:>22} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    for w in &WORKLOADS {
        let (wa, wb) = (
            a.get("workloads").get(w.name),
            b.get("workloads").get(w.name),
        );
        if wa.as_map().is_none() || wb.as_map().is_none() {
            println!("{:<18} missing from one of the two sets", w.name);
            continue;
        }
        for m in &END_TO_END {
            let (Some(ea), Some(eb)) = (
                estimate(wa.get("end_to_end").get(m.name)),
                estimate(wb.get("end_to_end").get(m.name)),
            ) else {
                println!("{:<18} {:<12} not measured in both sets", w.name, m.name);
                continue;
            };
            let v = verdict(&ea, &eb, m.better, m.bound);
            ok &= v != Verdict::Worse;
            // positive = worse, in percent of A's median (the base)
            let delta = worsening(ea.median, eb.median, m.better) * 100.0;
            println!(
                "{:<18} {:<12} {:>11.5} {:>22} {:>11.5} {:>22} {:>+8.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                ea.median,
                format!("[{:.5}, {:.5}]", ea.q1, ea.q3),
                eb.median,
                format!("[{:.5}, {:.5}]", eb.q1, eb.q3),
                delta,
                m.bound * 100.0,
                v.as_str(),
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            ok = false;
            println!(
                "{:<18} failed share grew: {:.4}% of {} -> {:.4}% of {}",
                w.name,
                fa * 100.0,
                get_u64(wa, "ops_attempted").unwrap_or(0),
                fb * 100.0,
                get_u64(wb, "ops_attempted").unwrap_or(0),
            );
        }
    }
    println!("(B vs A: change of B's median as a share of A's median; positive is worse)");

    println!("\nlayer metrics (no bound; counters should repeat exactly on one commit and seed)");
    let mut counters_differ = 0;
    for w in &WORKLOADS {
        let la = a.get("workloads").get(w.name).get("layers");
        let lb = b.get("workloads").get(w.name).get("layers");
        if la.as_map().is_none() || lb.as_map().is_none() {
            continue;
        }
        println!("-- {}", w.name);
        for l in &LAYERS {
            match (get_f64(la, l.name), get_f64(lb, l.name)) {
                (Some(x), Some(y)) => {
                    // signed so that positive is worse, like the table above
                    let delta = if x == 0.0 {
                        String::from("    n/a")
                    } else {
                        format!("{:>+6.1}%", worsening(x, y, l.better) * 100.0)
                    };
                    let flag = if l.counter && x != y {
                        counters_differ += 1;
                        "  COUNTER DIFFERS"
                    } else {
                        ""
                    };
                    println!(
                        "   {:<36} {:>16.6} {:>16.6} {:<6} {delta} of A{flag}",
                        l.name, x, y, l.unit
                    );
                }
                (None, None) => {}
                _ => println!("   {:<36} measured in only one set", l.name),
            }
        }
    }
    println!(
        "deterministic counters: {}",
        if counters_differ == 0 {
            "identical".to_string()
        } else {
            format!("{counters_differ} differ")
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, obj, uint};

    fn set(run_median: f64, failed: u64) -> Value {
        let metric = |m: f64| {
            obj(vec![
                ("median", num(m)),
                ("q1", num(m * 0.99)),
                ("q3", num(m * 1.01)),
                ("min", num(m * 0.98)),
                ("n", uint(5)),
            ])
        };
        let workload = obj(vec![
            (
                "end_to_end",
                obj(vec![
                    ("setup_s", metric(0.02)),
                    ("run_s", metric(run_median)),
                    ("peak_rss_mb", metric(12.0)),
                ]),
            ),
            ("ops_attempted", uint(1000)),
            ("ops_failed", uint(failed)),
            (
                "layers",
                obj(vec![("core.events", num(10.0)), ("core.epoch_s", num(1.0))]),
            ),
        ]);
        obj(vec![("workloads", obj(vec![("ixp_steady", workload)]))])
    }

    #[test]
    fn agreement_passes_regression_and_failures_do_not() {
        assert!(compare(&set(3.0, 0), &set(3.05, 0)));
        assert!(!compare(&set(3.0, 0), &set(4.2, 0)), "40% slower is worse");
        assert!(!compare(&set(3.0, 0), &set(3.0, 2)), "failed share grew");
        assert!(compare(&set(3.0, 2), &set(2.0, 2)), "faster is fine");
    }
}
