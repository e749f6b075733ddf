//! `lab`: spec expansion, and the forked campaign against naive
//! re-simulation of every variant (two lab threads), with the two reports
//! compared byte for byte. Should move `run_s` on `ixp_whatif_fork`; not
//! applicable to single-simulation workloads.

use super::{median_secs, secs, Input, Reading, Shared};
use horse::lab::{expand, fork_groups, run_forked, run_plans_with, ForkOptions, SweepSpec};

pub const METRICS: &[&str] = &[
    "lab.expand_s",
    "lab.prefix_events_saved",
    "lab.fork_speedup",
];

/// Worker threads of the naive campaign (`nproc` on the reference host).
const NAIVE_THREADS: usize = 2;

pub fn run(input: &Input, _: &mut Shared) -> Vec<Reading> {
    let fail = |why: String| METRICS.iter().map(|m| (*m, Err(why.clone()))).collect();
    let Some(toml) = input.sweep else {
        return fail("workload is a single simulation, not a campaign".into());
    };
    let prepare = || -> Result<_, horse::lab::LabError> {
        let spec = SweepSpec::from_toml(toml)?;
        let plans = expand(&spec)?;
        let groups = fork_groups(&plans)?;
        Ok((spec, plans, groups))
    };
    let expand_s = median_secs(5, || {
        let _ = std::hint::black_box(prepare());
    });
    let (spec, plans, groups) = match prepare() {
        Ok((spec, plans, Some(groups))) => (spec, plans, groups),
        Ok(_) => return fail("campaign is not fork-eligible".into()),
        Err(e) => return fail(e.to_string()),
    };
    let (naive, naive_s) =
        secs(|| run_plans_with(&spec.name, plans.clone(), NAIVE_THREADS, |_| {}));
    let (forked, forked_s) =
        secs(|| run_forked(&spec.name, &groups, &ForkOptions::default(), |_| {}));
    let (naive, (forked, stats)) = match (naive, forked) {
        (Ok(n), Ok(f)) => (n, f),
        (Err(e), _) | (_, Err(e)) => return fail(e.to_string()),
    };
    let speedup = if naive.metrics_csv() == forked.metrics_csv()
        && naive.metrics_json() == forked.metrics_json()
    {
        Ok(naive_s / forked_s)
    } else {
        Err("forked and naive reports differ".to_string())
    };
    vec![
        ("lab.expand_s", Ok(expand_s)),
        (
            "lab.prefix_events_saved",
            Ok(stats.prefix_events_saved as f64),
        ),
        ("lab.fork_speedup", speedup),
    ]
}
