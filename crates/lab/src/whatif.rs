//! Prefix-shared what-if sweeps: simulate the common prefix once, fork
//! per variant.
//!
//! A sweep whose axes only diverge **after** a point in time — "same
//! workload, but which cable failure at t=1.2s hurts most?" — wastes most
//! of its cycles re-simulating an identical prefix for every grid point.
//! When a spec declares `whatif_at_secs = T` and sweeps only the
//! `whatif_*` event knobs (and/or `engine_threads`, which never changes
//! results), this module:
//!
//! 1. groups the expanded [`RunPlan`]s by their stripped spec (divergence
//!    knobs cleared) — see [`fork_groups`];
//! 2. simulates each group's shared prefix `[0, T)` **once**, takes a
//!    [`Simulation::checkpoint`], and
//! 3. [`Simulation::fork`]s the checkpoint per variant, injecting that
//!    variant's failure/repair pair into the reserved late-event band.
//!
//! Because the band fixes every late event's `(time, seq)` coordinates to
//! exactly what a straight-through run would have used, the forked
//! campaign's [`CampaignReport`] is **byte-identical** to a naive one —
//! `tests/whatif.rs` pins this down — while only paying for each prefix
//! once. [`ForkStats::prefix_events_saved`] reports the events that were
//! *not* re-simulated.
//!
//! Checkpoints can outlive one invocation: `checkpoint_dir` persists each
//! group's prefix snapshot, `resume_dir` loads it back instead of
//! re-simulating (the CLI's `--checkpoint` / `--resume`). A resumed
//! snapshot is trusted as-is — wipe the directory after editing the spec.

use crate::report::{CampaignReport, RunRecord};
use crate::runner::RunMetrics;
use crate::sweep::RunPlan;
use crate::LabError;
use horse::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

/// One group of plans sharing an identical simulation prefix.
#[derive(Clone, Debug)]
pub struct ForkGroup {
    /// The shared-prefix fork point (`whatif_at_secs`).
    pub at: SimTime,
    /// The prefix plan: the group's first variant with its divergence
    /// knobs stripped. Building it yields the scenario the prefix
    /// simulation runs (late-event band reserved, no events injected).
    pub prefix: RunPlan,
    /// The variant plans forked from the prefix checkpoint, in plan
    /// order.
    pub variants: Vec<RunPlan>,
}

/// Wall-clock savings accounting for one forked campaign.
#[derive(Clone, Debug, Default)]
pub struct ForkStats {
    /// Distinct shared prefixes simulated (or resumed).
    pub groups: usize,
    /// Variant runs forked off those prefixes.
    pub variant_runs: usize,
    /// Events processed across all prefix simulations.
    pub prefix_events: u64,
    /// Prefix events a naive campaign would have re-simulated but this
    /// one did not: each variant beyond the first per group rides the
    /// shared prefix (all of them, when the prefix came from
    /// `resume_dir`).
    pub prefix_events_saved: u64,
    /// Prefixes loaded from `resume_dir` instead of simulated.
    pub resumed_prefixes: usize,
    /// Total serialized snapshot bytes across groups.
    pub snapshot_bytes: u64,
}

/// Options for [`run_forked`].
#[derive(Clone, Debug, Default)]
pub struct ForkOptions {
    /// Persist each group's prefix snapshot as
    /// `<dir>/<name>.g<k>.snap`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load prefix snapshots from a directory previously populated by
    /// `checkpoint_dir` (missing files fall back to simulating).
    pub resume_dir: Option<PathBuf>,
}

/// Groups a campaign's plans by shared prefix.
///
/// Returns `Ok(None)` when the campaign is not eligible for prefix
/// sharing: some plan's scenario declares no `whatif_at_secs`, or two
/// plans in a would-be group disagree on anything other than the
/// divergence knobs (`whatif_link_down` / `whatif_fail_secs` /
/// `whatif_repair_secs`) and `engine_threads`. Eligibility is per
/// campaign, not per group: a sweep that *also* varies, say, the seed
/// simply expands into more groups, one per distinct prefix.
pub fn fork_groups(plans: &[RunPlan]) -> Result<Option<Vec<ForkGroup>>, LabError> {
    let mut groups: Vec<(String, ForkGroup)> = Vec::new();
    for plan in plans {
        let Some(at_secs) = plan.scenario.common.whatif_at_secs else {
            return Ok(None);
        };
        // The prefix every variant starts from: divergence knobs cleared.
        let mut stripped_scenario = plan.scenario.clone();
        let knobs = &mut stripped_scenario.common;
        knobs.whatif_link_down = None;
        knobs.whatif_fail_secs = None;
        knobs.whatif_repair_secs = None;
        let mut stripped_config = plan.config.clone();
        stripped_config.engine_threads = None;
        let key = serde_json::to_string(&(stripped_scenario.clone(), stripped_config.clone()))
            .map_err(|e| LabError::build(format!("cannot key plan {}: {e}", plan.index)))?;
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.variants.push(plan.clone()),
            None => groups.push((
                key,
                ForkGroup {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
                    prefix: RunPlan {
                        index: plan.index,
                        scenario: stripped_scenario,
                        config: stripped_config,
                        params: Vec::new(),
                    },
                    variants: vec![plan.clone()],
                },
            )),
        }
    }
    Ok(Some(groups.into_iter().map(|(_, g)| g).collect()))
}

/// Executes a grouped campaign: one prefix simulation (or snapshot load)
/// per group, one fork per variant. The resulting [`CampaignReport`] is
/// byte-identical to [`crate::runner::run_plans_with`] over the same
/// plans.
pub fn run_forked(
    name: &str,
    groups: &[ForkGroup],
    opts: &ForkOptions,
    mut progress: impl FnMut(&RunRecord),
) -> Result<(CampaignReport, ForkStats), LabError> {
    let campaign_start = Instant::now();
    let mut stats = ForkStats {
        groups: groups.len(),
        ..Default::default()
    };
    let mut runs: Vec<RunRecord> = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        let snap_name = format!("{name}.g{gi}.snap");
        let resume_path = opts
            .resume_dir
            .as_ref()
            .map(|d| d.join(&snap_name))
            .filter(|p| p.is_file());
        let (snapshot, prefix_events, resumed) = match resume_path {
            Some(path) => {
                let bytes = std::fs::read(&path).map_err(|e| {
                    LabError::cli(format!("cannot read snapshot {}: {e}", path.display()))
                })?;
                // The checkpoint carries the event counter, so savings
                // accounting survives the round-trip through disk.
                let events = Simulation::resume(&bytes)
                    .map_err(|e| {
                        LabError::build(format!("snapshot {} is unusable: {e}", path.display()))
                    })?
                    .events_processed();
                (bytes, events, true)
            }
            None => {
                let scenario = group.prefix.scenario.build()?;
                let config = group.prefix.config.to_config()?;
                let mut sim = Simulation::new(scenario, config)
                    .map_err(|e| LabError::build(format!("prefix of group {gi}: {e}")))?;
                // The tracer must be on during the prefix so the
                // checkpoint carries the metrics-registry dump — forked
                // reports embed registry snapshots and must match naive
                // runs bitwise.
                sim.set_tracer(SimTracer::new());
                sim.run_until(group.at);
                (sim.checkpoint(), sim.events_processed(), false)
            }
        };
        if resumed {
            stats.resumed_prefixes += 1;
            stats.prefix_events_saved += prefix_events * group.variants.len() as u64;
        } else {
            stats.prefix_events_saved += prefix_events * (group.variants.len() as u64 - 1);
        }
        stats.prefix_events += prefix_events;
        stats.snapshot_bytes += snapshot.len() as u64;
        if let Some(dir) = &opts.checkpoint_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| LabError::cli(format!("cannot create {}: {e}", dir.display())))?;
            let path = dir.join(&snap_name);
            std::fs::write(&path, &snapshot).map_err(|e| {
                LabError::cli(format!("cannot write snapshot {}: {e}", path.display()))
            })?;
        }
        for plan in &group.variants {
            let run_start = Instant::now();
            let overrides = ForkSpec {
                // Always explicit: the prefix ran with the thread knob
                // stripped, so the snapshot's config does not carry the
                // variant's setting.
                engine_threads: Some(plan.config.to_config()?.engine_threads),
                ctrl_latency: None,
                late_events: plan.scenario.build()?.late_events,
            };
            let mut sim = Simulation::fork(&snapshot, &overrides)
                .map_err(|e| LabError::build(format!("run {}: fork failed: {e}", plan.index)))?;
            sim.set_tracer(SimTracer::new());
            let results = sim.run();
            let record = RunRecord {
                index: plan.index,
                params: plan.params.clone(),
                metrics: RunMetrics::from_results(&results),
                wall_seconds: run_start.elapsed().as_secs_f64(),
            };
            progress(&record);
            runs.push(record);
            stats.variant_runs += 1;
        }
    }
    runs.sort_by_key(|r| r.index);
    Ok((
        CampaignReport {
            name: name.to_string(),
            runs,
            threads: 1,
            campaign_wall_seconds: campaign_start.elapsed().as_secs_f64(),
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use crate::sweep::expand;

    fn whatif_spec() -> SweepSpec {
        SweepSpec::from_toml(
            r#"
            name = "whatif"
            [scenario]
            kind = "fabric"
            topology = "leaf_spine"
            horizon_secs = 1.0
            whatif_at_secs = 0.4
            [axes]
            whatif_link_down = [0, 1]
            whatif_fail_secs = [0.5, 0.7]
            "#,
        )
        .unwrap()
    }

    #[test]
    fn whatif_axes_group_into_one_prefix() {
        let plans = expand(&whatif_spec()).unwrap();
        assert_eq!(plans.len(), 4);
        let groups = fork_groups(&plans).unwrap().expect("eligible");
        assert_eq!(groups.len(), 1, "axes only touch divergence knobs");
        assert_eq!(groups[0].variants.len(), 4);
        let prefix = groups[0].prefix.scenario.build().unwrap();
        assert_eq!(prefix.late_band, 2, "band reserved for the fork");
        assert!(prefix.late_events.is_empty(), "no event in the prefix");
    }

    #[test]
    fn non_divergence_axes_split_groups() {
        let mut spec = whatif_spec();
        let seed = |n| serde::Value::Number(serde::Number::UInt(n));
        spec.axes.0.push(("seed".into(), vec![seed(1), seed(2)]));
        let plans = expand(&spec).unwrap();
        let groups = fork_groups(&plans).unwrap().expect("still eligible");
        assert_eq!(groups.len(), 2, "one prefix per seed");
        assert_eq!(groups.iter().map(|g| g.variants.len()).sum::<usize>(), 8);
    }

    #[test]
    fn engine_threads_axis_shares_the_prefix() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "wt"
            [scenario]
            kind = "fabric"
            topology = "leaf_spine"
            horizon_secs = 1.0
            whatif_at_secs = 0.4
            whatif_link_down = 0
            whatif_fail_secs = 0.6
            [axes]
            engine_threads = [1, 2]
            "#,
        )
        .unwrap();
        let plans = expand(&spec).unwrap();
        let groups = fork_groups(&plans).unwrap().expect("eligible");
        assert_eq!(groups.len(), 1, "thread knob never changes results");
        assert_eq!(groups[0].variants.len(), 2);
    }

    #[test]
    fn campaigns_without_a_fork_point_are_ineligible() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "plain"
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            [axes]
            ctrl_latency_us = [0, 100]
            "#,
        )
        .unwrap();
        let plans = expand(&spec).unwrap();
        assert!(fork_groups(&plans).unwrap().is_none());
    }
}
