//! Sweep expansion: axes × replicates → a cartesian grid of concrete
//! run plans.
//!
//! Axis names are exactly the field names of [`ScenarioSpec`] and
//! [`SimConfigSpec`] — an axis is applied by rewriting that field in the
//! spec's serialized form and deserializing back, so type mismatches
//! surface with the same actionable messages as hand-written specs, and
//! new spec fields become sweepable without touching this module.

use crate::spec::{ScenarioSpec, SimConfigSpec, SweepSpec};
use crate::LabError;
use serde::{Deserialize, Serialize, Value};

/// One fully concrete run: a scenario + config with every axis applied.
#[derive(Clone, Debug, PartialEq)]
pub struct RunPlan {
    /// Position in the campaign (stable ordering key for reports).
    pub index: usize,
    /// The concrete scenario.
    pub scenario: ScenarioSpec,
    /// The concrete simulator config.
    pub config: SimConfigSpec,
    /// `(axis, value)` pairs that produced this run, in axis order,
    /// always ending with the effective `seed`.
    pub params: Vec<(String, Value)>,
}

impl RunPlan {
    /// A compact `axis=value axis=value` label for logs and tables.
    pub fn label(&self) -> String {
        self.params
            .iter()
            .map(|(k, v)| format!("{k}={}", value_text(v)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Renders an axis value the way it appears in CSV cells and labels.
pub fn value_text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Number(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => serde_json::to_string(other).unwrap_or_else(|_| format!("{other:?}")),
    }
}

/// Expands a sweep spec into its full run grid. Axis order in the file
/// is significant: later axes vary fastest (odometer order), and
/// replicates vary fastest of all.
pub fn expand(spec: &SweepSpec) -> Result<Vec<RunPlan>, LabError> {
    let axes = &spec.axes.0;
    let replicates = spec.replicates.unwrap_or(1).max(1);
    let base_config = spec.config.clone().unwrap_or_default();

    // Serialized forms of the base specs; axes rewrite these maps.
    let scenario_map = spec.scenario.to_value();
    let config_map = base_config.to_value();

    let mut plans = Vec::new();
    let mut odometer = vec![0usize; axes.len()];
    loop {
        let mut sc_val = scenario_map.clone();
        let mut cfg_val = config_map.clone();
        let mut params = Vec::new();
        for (axis_idx, (name, values)) in axes.iter().enumerate() {
            let value = &values[odometer[axis_idx]];
            apply_axis(&mut sc_val, &mut cfg_val, name, value)?;
            params.push((name.clone(), value.clone()));
        }
        let scenario: ScenarioSpec = ScenarioSpec::from_value(&sc_val)
            .map_err(|e| LabError::spec(format!("axis value does not fit the scenario: {e}")))?;
        let config: SimConfigSpec = SimConfigSpec::from_value(&cfg_val)
            .map_err(|e| LabError::spec(format!("axis value does not fit the config: {e}")))?;

        for r in 0..replicates {
            let mut scenario = scenario.clone();
            let seed = scenario.seed() + r as u64;
            scenario.common.seed = Some(seed);
            let mut params = params.clone();
            params.push(("seed".to_string(), Value::Number(serde::Number::UInt(seed))));
            plans.push(RunPlan {
                index: plans.len(),
                scenario,
                config: config.clone(),
                params,
            });
        }

        // advance the odometer (last axis fastest)
        let mut pos = axes.len();
        loop {
            if pos == 0 {
                return Ok(plans);
            }
            pos -= 1;
            odometer[pos] += 1;
            if odometer[pos] < axes[pos].1.len() {
                break;
            }
            odometer[pos] = 0;
        }
    }
}

/// Rewrites one axis value into whichever spec map owns the field.
fn apply_axis(
    scenario: &mut Value,
    config: &mut Value,
    name: &str,
    value: &Value,
) -> Result<(), LabError> {
    // "seed" is also a scenario field, so it resolves naturally below;
    // axes may not address the sweep-control fields.
    const CONTROL: [&str; 4] = ["replicates", "threads", "kind", "name"];
    if CONTROL.contains(&name) {
        return Err(LabError::spec(format!(
            "`{name}` cannot be swept as an axis (it controls the sweep itself)"
        )));
    }
    for target in [&mut *scenario, &mut *config] {
        if let Value::Map(entries) = target {
            if let Some(slot) = entries.iter_mut().find(|(k, _)| k == name) {
                slot.1 = value.clone();
                return Ok(());
            }
        }
    }
    let sweepable: Vec<&str> = [&*scenario, &*config]
        .into_iter()
        .filter_map(Value::as_map)
        .flatten()
        .map(|(k, _)| k.as_str())
        .filter(|k| !CONTROL.contains(k))
        .collect();
    Err(LabError::spec(format!(
        "unknown axis `{name}`; sweepable parameters are the scenario fields \
         and the config fields of this spec: {}",
        sweepable.join(", ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn spec(toml_text: &str) -> SweepSpec {
        SweepSpec::from_toml(toml_text).unwrap()
    }

    #[test]
    fn cartesian_grid_with_replicates() {
        let s = spec(
            r#"
            name = "grid"
            replicates = 2
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            [axes]
            members = [10, 20]
            ctrl_latency_us = [0, 500, 1000]
            "#,
        );
        let plans = expand(&s).unwrap();
        assert_eq!(plans.len(), 2 * 3 * 2);
        // later axis varies fastest, replicates fastest of all
        let labels: Vec<String> = plans.iter().take(4).map(|p| p.label()).collect();
        assert_eq!(labels[0], "members=10 ctrl_latency_us=0 seed=1");
        assert_eq!(labels[1], "members=10 ctrl_latency_us=0 seed=2");
        assert_eq!(labels[2], "members=10 ctrl_latency_us=500 seed=1");
        assert_eq!(labels[3], "members=10 ctrl_latency_us=500 seed=2");
        // indices are dense and ordered
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn axes_rewrite_scenario_and_config() {
        let s = spec(
            r#"
            name = "rw"
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            [axes]
            alloc_mode = ["full", "incremental"]
            offered_gbps = [0.5]
            "#,
        );
        let plans = expand(&s).unwrap();
        assert_eq!(plans.len(), 2);
        let cfg = plans[1].config.to_config().unwrap();
        assert_eq!(cfg.alloc_mode, horse::prelude::AllocMode::Incremental);
        match &plans[0].scenario.family {
            crate::spec::ScenarioFamily::Ixp { offered_gbps, .. } => {
                assert_eq!(*offered_gbps, Some(0.5));
            }
            other => panic!("unexpected scenario {other:?}"),
        }
    }

    #[test]
    fn fidelity_axis_rewrites_scenario_mode() {
        let s = spec(
            r#"
            name = "fid"
            [scenario]
            kind = "ixp"
            members = 8
            horizon_secs = 1.0
            foreground_flows = 4
            [axes]
            fidelity = ["fluid", "hybrid", "packet"]
            "#,
        );
        let plans = expand(&s).unwrap();
        assert_eq!(plans.len(), 3);
        let foregrounds: Vec<usize> = plans
            .iter()
            .map(|p| p.scenario.build().unwrap().packet_foreground)
            .collect();
        assert_eq!(foregrounds, vec![0, 4, usize::MAX]);
    }

    #[test]
    fn topology_axis_sweeps_fabric_families() {
        let s = spec(
            r#"
            name = "fabrics"
            [scenario]
            kind = "fabric"
            topology = "fat_tree"
            horizon_secs = 1.0
            hosts = 16
            [axes]
            topology = ["fat_tree", "leaf_spine", "jellyfish"]
            "#,
        );
        let plans = expand(&s).unwrap();
        assert_eq!(plans.len(), 3);
        let built: Vec<usize> = plans
            .iter()
            .map(|p| p.scenario.build().unwrap().members.len())
            .collect();
        assert_eq!(built, vec![16, 16, 16], "identical workload size");
        assert_eq!(plans[2].label(), "topology=jellyfish seed=1");
    }

    #[test]
    fn unknown_axis_is_actionable() {
        let err = SweepSpec::from_toml(
            r#"
            name = "bad"
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            [axes]
            warp_factor = [9]
            "#,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp_factor"), "{msg}");
        for candidate in ["ctrl_latency_us", "whatif_link_down"] {
            assert!(msg.contains(candidate), "suggests candidates: {msg}");
        }
    }

    #[test]
    fn mistyped_axis_value_is_actionable() {
        let err = SweepSpec::from_toml(
            r#"
            name = "bad"
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            [axes]
            members = ["many"]
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("axis value"), "{err}");
    }

    #[test]
    fn sweep_control_fields_rejected_as_axes() {
        let err = SweepSpec::from_toml(
            r#"
            name = "bad"
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            [axes]
            replicates = [1, 2]
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("controls the sweep"), "{err}");
    }
}
