//! Drives the built binary the way a user and the driver do, at smoke
//! scale: the whole pass (end-to-end repetitions, layer passes,
//! verification, result file, compare) and the one-workload contract.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

const WORKLOADS: [&str; 6] = [
    "ixp_steady",
    "ixp_waves",
    "fat_tree_flaps",
    "fat_tree_k16_cold",
    "ixp_hybrid_pkt",
    "ixp_whatif_fork",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_horse-benchmark"))
        .args(args)
        // `benchmark/expected` is resolved from the checkout root first
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the benchmark binary starts")
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn last_line(out: &Output) -> serde::Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("something was printed");
    serde_json::parse_value(line).expect("the last line is JSON")
}

fn keys(v: &serde::Value) -> Vec<&str> {
    v.as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn smoke_pass_runs_every_workload_verifies_and_compares_with_itself() {
    let out_file = tmp("smoke_result.json");
    let out_arg = out_file.to_str().unwrap();
    let started = Instant::now();
    let out = bench(&["run", "--smoke", "--reps", "2", "--out", out_arg]);
    let took = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke pass failed:\n{stdout}");
    assert!(took < 15.0, "smoke pass took {took:.1} s");
    assert!(stdout.contains("all outputs verified"));

    let text = std::fs::read_to_string(&out_file).expect("result file written");
    let doc = serde_json::parse_value(&text).expect("result file is JSON");
    for w in WORKLOADS {
        let r = doc.get("workloads").get(w);
        assert_eq!(r.get("verified").as_bool(), Some(true), "{w}");
        assert_eq!(r.get("layers_verified").as_bool(), Some(true), "{w}");
        for m in ["setup_s", "run_s", "peak_rss_mb"] {
            let median = r.get("end_to_end").get(m).get("median").as_number();
            assert!(median.is_some_and(|n| n.as_f64() > 0.0), "{w}.{m}");
            assert!(stdout.contains(m), "{m} is printed by name");
        }
        assert!(r.get("ops_attempted").as_number().unwrap().as_f64() >= 1.0);
        // every layer metric is present: a number, or null with a reason
        for (name, value) in r.get("layers").as_map().expect("layers") {
            if *value == serde::Value::Null {
                assert!(
                    r.get("layer_notes").get(name).as_str().is_some(),
                    "{w}: {name} is null without a reason"
                );
            }
        }
        assert!(out_file.with_file_name(format!("trace_{w}.json")).is_file());
    }

    // A set agrees with itself: no `worse`, counters identical.
    let cmp = bench(&["compare", out_arg, out_arg]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(
        table.contains("deterministic counters: identical"),
        "{table}"
    );
    let worse = table.lines().any(|l| l.trim_end().ends_with(" worse"));
    assert!(!worse, "{table}");
}

#[test]
fn contract_lines_carry_exactly_the_declared_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = serde_json::parse_value(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        contract
            .get(key)
            .as_seq()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").as_str().unwrap().to_string(),
                    m.get("unit").as_str().unwrap().to_string(),
                )
            })
            .collect()
    };
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench(&[
            "run",
            "--workload",
            "ixp_hybrid_pkt",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(out.status.success());
        let line = last_line(&out);
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").as_bool(), Some(true));
        assert!(line.get("attempted").as_number().unwrap().as_u64().unwrap() >= 1);
        let metrics = line.get("metrics");
        let want = declared(key);
        assert_eq!(
            keys(metrics),
            want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        for (name, unit) in &want {
            let m = metrics.get(name);
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(m.get("value").as_number().is_some(), "{name} is a number");
            assert_eq!(m.get("unit").as_str(), Some(unit.as_str()), "{name}");
        }
    }
}

#[test]
fn bad_invocations_fail_without_a_result_line() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seed"][..],
        &["frobnicate"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
