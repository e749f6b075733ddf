//! Runner determinism: the same sweep spec with fixed seeds must produce
//! byte-identical aggregate metric reports at 1 thread and N threads —
//! the property that makes parallel campaigns trustworthy.

use horse_lab::prelude::*;

fn spec() -> SweepSpec {
    SweepSpec::from_toml(
        r#"
        name = "det"
        replicates = 2
        [scenario]
        kind = "ixp"
        members = 10
        horizon_secs = 0.5
        [[scenario.policies]]
        type = "mac_learning"
        [axes]
        ctrl_latency_us = [0, 1000]
        alloc_mode = ["full", "incremental"]
        "#,
    )
    .unwrap()
}

#[test]
fn one_thread_and_n_threads_agree_byte_for_byte() {
    let s = spec();
    let serial = run_sweep(&s, 1).expect("serial campaign runs");
    let parallel = run_sweep(&s, 4).expect("parallel campaign runs");
    assert_eq!(serial.runs.len(), 8);
    assert_eq!(parallel.runs.len(), 8);
    assert_eq!(
        serial.metrics_csv(),
        parallel.metrics_csv(),
        "CSV must be byte-identical across thread counts"
    );
    assert_eq!(
        serial.metrics_json(),
        parallel.metrics_json(),
        "JSON must be byte-identical across thread counts"
    );
}

#[test]
fn rerun_is_reproducible() {
    let s = spec();
    let a = run_sweep(&s, 2).unwrap();
    let b = run_sweep(&s, 2).unwrap();
    assert_eq!(a.metrics_csv(), b.metrics_csv());
}

#[test]
fn replicate_seeds_differ_but_are_stable() {
    let s = spec();
    let report = run_sweep(&s, 2).unwrap();
    // replicate pairs share axes but not seeds → different event streams
    let r0 = &report.runs[0];
    let r1 = &report.runs[1];
    assert_eq!(r0.params[0], r1.params[0], "same axis point");
    assert_ne!(r0.params.last(), r1.params.last(), "different seed");
    assert_ne!(
        (r0.metrics.count("sim.events"), r0.metrics.flows_admitted),
        (r1.metrics.count("sim.events"), r1.metrics.flows_admitted),
        "different seeds should not shadow each other"
    );
}
