//! Prefix-shared what-if sweeps must be indistinguishable from naive
//! execution: a 2-axis sweep whose variants only diverge after the fork
//! point produces byte-identical CSV/JSON reports whether every run is
//! simulated from t=0 or forked from one shared prefix checkpoint — while
//! the fork path reports the re-simulation it skipped.

use horse_lab::prelude::*;
use horse_lab::whatif::{fork_groups, run_forked, ForkOptions};

/// A 2-axis what-if campaign: which cable failure, injected when. All
/// four variants share the identical prefix `[0, 0.8s)`.
fn whatif_spec() -> SweepSpec {
    SweepSpec::from_toml(
        r#"
        name = "whatif"
        [scenario]
        kind = "fabric"
        topology = "leaf_spine"
        leaves = 3
        spines = 2
        hosts_per_leaf = 3
        horizon_secs = 2.0
        whatif_at_secs = 0.8
        whatif_repair_secs = 1.8
        [axes]
        whatif_link_down = [0, 3]
        whatif_fail_secs = [1.0, 1.4]
        "#,
    )
    .unwrap()
}

fn naive_report(spec: &SweepSpec) -> CampaignReport {
    run_plans_with(&spec.name, expand(spec).unwrap(), 1, |_| {}).unwrap()
}

#[test]
fn forked_sweep_matches_naive_byte_for_byte() {
    let spec = whatif_spec();
    let plans = expand(&spec).unwrap();
    assert_eq!(plans.len(), 4);
    let naive = naive_report(&spec);

    let groups = fork_groups(&plans).unwrap().expect("eligible campaign");
    assert_eq!(groups.len(), 1, "axes only touch post-fork knobs");
    let (forked, stats) = run_forked(&spec.name, &groups, &ForkOptions::default(), |_| {}).unwrap();

    assert_eq!(
        naive.metrics_csv(),
        forked.metrics_csv(),
        "CSV must be byte-identical: forked execution is an optimization, \
         not an approximation"
    );
    assert_eq!(
        naive.metrics_json(),
        forked.metrics_json(),
        "JSON (including per-run metrics snapshots) must be byte-identical"
    );

    assert_eq!(stats.groups, 1);
    assert_eq!(stats.variant_runs, 4);
    assert!(stats.prefix_events > 0, "the shared prefix did real work");
    assert_eq!(
        stats.prefix_events_saved,
        stats.prefix_events * 3,
        "three of four variants rode the shared prefix"
    );

    // The what-if event actually fired in every variant — the sweep is
    // comparing genuinely different futures, not four copies of one run.
    for run in &forked.runs {
        assert!(run.metrics.chaos.cable_downs > 0, "run {}", run.index);
    }
}

#[test]
fn checkpoint_dir_round_trips_through_resume() {
    let spec = whatif_spec();
    let plans = expand(&spec).unwrap();
    let groups = fork_groups(&plans).unwrap().expect("eligible");

    let dir = std::env::temp_dir().join(format!("horse-whatif-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let save = ForkOptions {
        checkpoint_dir: Some(dir.clone()),
        resume_dir: None,
    };
    let (first, first_stats) = run_forked(&spec.name, &groups, &save, |_| {}).unwrap();
    assert!(dir.join("whatif.g0.snap").is_file(), "snapshot persisted");
    assert_eq!(first_stats.resumed_prefixes, 0);

    let load = ForkOptions {
        checkpoint_dir: None,
        resume_dir: Some(dir.clone()),
    };
    let (second, second_stats) = run_forked(&spec.name, &groups, &load, |_| {}).unwrap();
    assert_eq!(
        second_stats.resumed_prefixes, 1,
        "prefix loaded, not re-run"
    );
    assert_eq!(
        second_stats.prefix_events_saved,
        second_stats.prefix_events * 4,
        "a resumed prefix saves every variant's share"
    );
    assert_eq!(first.metrics_csv(), second.metrics_csv());
    assert_eq!(first.metrics_json(), second.metrics_json());

    let _ = std::fs::remove_dir_all(&dir);
}
