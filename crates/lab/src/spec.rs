//! Declarative experiment specs: scenarios and simulator configuration
//! as data, loadable from TOML or JSON.
//!
//! A spec file describes *what to simulate* without writing a `main()`:
//!
//! ```toml
//! name = "ctrl_latency"
//! replicates = 2
//!
//! [scenario]
//! kind = "ixp"
//! members = 25
//! horizon_secs = 2.0
//!
//! [[scenario.policies]]
//! type = "mac_learning"
//!
//! [axes]
//! ctrl_latency_us = [0, 100, 1000, 10000]
//! ```
//!
//! [`ScenarioSpec`] lowers to a concrete [`Scenario`] through the canned
//! builders; [`SimConfigSpec`] folds onto [`SimConfig::default`]. Both are
//! plain data with serde round-trips, so sweeps can rewrite any field.
//!
//! Every `kind` accepts the same [`CommonKnobs`] — `horizon_secs`,
//! `seed`, `fidelity`, `foreground_flows`, the `chaos_*` fault schedule
//! and the `whatif_*` fork knobs — next to its own [`ScenarioFamily`]
//! keys, all flat under `[scenario]`. A key that no field of the root,
//! `[scenario]` (for the given `kind`) or `[config]` table takes is an
//! error naming the key and listing the accepted ones, so a typo cannot
//! silently switch a knob off.

use crate::sweep::RunPlan;
use crate::LabError;
use horse::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// A declarative scenario: the knobs every family shares plus one canned
/// experiment family. On disk both halves sit flat under `[scenario]`;
/// the hand-written serde impls below merge and split them.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Knobs every `kind` accepts.
    pub common: CommonKnobs,
    /// The `kind`-selected family and its own knobs.
    pub family: ScenarioFamily,
}

/// The `[scenario]` keys every family accepts: horizon, workload seed,
/// fidelity, the `chaos_*` fault schedule and the `whatif_*` fork knobs.
/// Every field except `horizon_secs` has a default.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommonKnobs {
    /// Simulation horizon in seconds.
    pub horizon_secs: f64,
    /// Workload seed (default 1); also the jellyfish wiring seed.
    pub seed: Option<u64>,
    /// Fidelity mode: `"fluid"` (default), `"hybrid"` (packet
    /// foreground over fluid background) or `"packet"` (every arrival
    /// packet-level).
    pub fidelity: Option<FidelityMode>,
    /// Hybrid foreground size: how many leading workload arrivals run at
    /// packet fidelity (default 8; only used by `"hybrid"`).
    pub foreground_flows: Option<usize>,
    /// Chaos: fault-schedule seed (default 0, independent of the
    /// workload seed so one fault pattern replays against any traffic).
    pub chaos_seed: Option<u64>,
    /// Chaos: warm-up seconds before the first fault (default 0).
    pub chaos_start_secs: Option<f64>,
    /// Chaos: number of flapping switch-to-switch cables.
    pub chaos_link_flaps: Option<u32>,
    /// Chaos: mean flaps per second per flapping cable (default 1.0).
    pub chaos_flap_rate_per_sec: Option<f64>,
    /// Chaos: mean downtime of one flap in seconds (default 0.05).
    pub chaos_flap_downtime_secs: Option<f64>,
    /// Chaos: number of switches that crash once (tables wiped, ports
    /// down) and later rejoin empty.
    pub chaos_switch_crashes: Option<u32>,
    /// Chaos: seconds a crashed switch stays down (default 0.5).
    pub chaos_crash_downtime_secs: Option<f64>,
    /// Chaos: number of controller outage windows (messages buffer and
    /// replay in order on recovery).
    pub chaos_ctrl_outages: Option<u32>,
    /// Chaos: length of one controller outage in seconds (default 0.5).
    pub chaos_ctrl_outage_secs: Option<f64>,
    /// Chaos: number of control-latency spike windows.
    pub chaos_ctrl_latency_spikes: Option<u32>,
    /// Chaos: latency multiplier during a spike (default 10.0).
    pub chaos_ctrl_latency_factor: Option<f64>,
    /// Chaos: length of one latency spike in seconds (default 0.5).
    pub chaos_ctrl_spike_secs: Option<f64>,
    /// Chaos: number of cables suffering a gray-failure window (up, but
    /// degraded).
    pub chaos_gray_links: Option<u32>,
    /// Chaos: capacity fraction a gray cable retains (default 0.5).
    pub chaos_gray_capacity_factor: Option<f64>,
    /// Chaos: extra loss fraction a gray cable drops (default 0).
    pub chaos_gray_loss_frac: Option<f64>,
    /// Chaos: length of one gray window in seconds (default 1.0).
    pub chaos_gray_duration_secs: Option<f64>,
    /// What-if: shared-prefix fork point in seconds. Runs whose specs
    /// differ only in `whatif_*` event knobs simulate the prefix
    /// `[0, T)` once and fork per variant.
    pub whatif_at_secs: Option<f64>,
    /// What-if: link (by [`LinkId`] index) to fail after the fork point.
    /// Sweepable, so one spec compares candidate failures.
    pub whatif_link_down: Option<u32>,
    /// What-if: failure injection time in seconds (must lie after
    /// `whatif_at_secs`).
    pub whatif_fail_secs: Option<f64>,
    /// What-if: repair time in seconds (after `whatif_fail_secs`); omit
    /// to leave the cable down for the rest of the run.
    pub whatif_repair_secs: Option<f64>,
}

/// One of the canned experiment families, selected by `kind`.
///
/// `kind = "figure1"` is the paper's Figure-1 fabric with its full policy
/// mix; `kind = "ixp"` is the parameterized two-tier IXP fabric behind
/// experiments E1–E5; `kind = "fabric"` is the generated-topology
/// suite (fat-tree / leaf-spine / jellyfish / linear / ring / WAN) with
/// a sweepable `topology` axis. Fields other than `members` and
/// `topology` have defaults matching the experiment harness.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
// the variant size gap is real but specs are built a handful at a time;
// boxing would complicate the derive shim for no measurable win
#[allow(clippy::large_enum_variant)]
pub enum ScenarioFamily {
    /// The paper's Figure-1 scenario (fixed fabric, all five policies).
    Figure1,
    /// The parameterized IXP fabric (experiments E1–E5).
    Ixp {
        /// Number of member routers.
        members: usize,
        /// Edge switches; default scales with members (`members/25`,
        /// clamped to 2–16, the harness rule).
        edge_switches: Option<usize>,
        /// Core switches; default scales with members (`members/100`,
        /// clamped to 2–4).
        core_switches: Option<usize>,
        /// Aggregate offered load in Gbit/s; default `members × 0.04`
        /// (40 Mbit/s per member) × `load_factor`.
        offered_gbps: Option<f64>,
        /// Multiplier on the default offered load (ignored when
        /// `offered_gbps` is set explicitly).
        load_factor: Option<f64>,
        /// Zipf skew of member weights (default 1.0).
        zipf_alpha: Option<f64>,
        /// Flow-size distribution; default bounded Pareto
        /// (α=1.3, 1 MB–1 GB), the harness default.
        sizes: Option<FlowSizeDist>,
        /// Optional diurnal profile (flat when absent).
        diurnal: Option<DiurnalProfile>,
        /// Policy rules; default ECMP load balancing.
        policies: Option<Vec<PolicyRule>>,
        /// Member access-port speeds in Gbit/s, assigned cyclically;
        /// default uniform 10G (the harness rule for cost sweeps).
        member_port_speeds_gbps: Option<Vec<f64>>,
        /// Edge→core uplink speed in Gbit/s (default 400).
        uplink_gbps: Option<f64>,
    },
    /// A generated topology family (`horse_topology::generators`):
    /// fat-tree, leaf-spine, jellyfish, linear/ring chains, or a WAN
    /// graph loaded from disk. The `topology` field takes the family
    /// name as a string and is itself sweepable, so one spec can compare
    /// fabrics under an identical workload.
    Fabric {
        /// Topology family: `"fat_tree"`, `"leaf_spine"`,
        /// `"jellyfish"`, `"linear"`, `"ring"` or `"wan"`.
        topology: TopologyKind,
        /// Fat-tree arity `k` (even; default 4 → 16 hosts, 20 switches).
        fat_tree_k: Option<usize>,
        /// Leaf-spine: leaf count (default 4).
        leaves: Option<usize>,
        /// Leaf-spine: spine count (default 2).
        spines: Option<usize>,
        /// Leaf-spine: hosts per leaf (default 4).
        hosts_per_leaf: Option<usize>,
        /// Leaf-spine oversubscription ratio (default 1.0 =
        /// non-blocking; uplink speed is derived from it).
        oversubscription: Option<f64>,
        /// Jellyfish / linear / ring: switch count (default 8).
        switches: Option<usize>,
        /// Jellyfish: inter-switch ports per switch (default 3).
        degree: Option<usize>,
        /// Jellyfish / linear / ring: host count, spread round-robin
        /// (default 16).
        hosts: Option<usize>,
        /// WAN graph file (a `TopologySpec` in JSON or TOML); required
        /// when `topology = "wan"`, rejected otherwise. A relative path
        /// in a spec file, as the base value or as an axis value,
        /// resolves against that file's directory (e.g.
        /// `../topologies/abilene.json` from `examples/sweeps/`); in
        /// spec text parsed without a file it resolves against the
        /// working directory.
        wan_file: Option<String>,
        /// WAN: hosts attached per PoP when the graph carries none
        /// (default 1).
        hosts_per_pop: Option<usize>,
        /// Host access-link speed in Gbit/s (default 10).
        access_gbps: Option<f64>,
        /// Switch-to-switch link speed in Gbit/s (default 40;
        /// leaf-spine derives uplink speed from `oversubscription`
        /// instead).
        trunk_gbps: Option<f64>,
        /// Traffic-matrix shape (`{ model = "gravity", alpha = 0.8 }`,
        /// `{ model = "hotspot", frac = 0.5 }`, `{ model = "uniform" }`);
        /// default per family.
        pattern: Option<TrafficPattern>,
        /// Aggregate offered load in Gbit/s; default
        /// `hosts × 0.04 × load_factor` (40 Mbit/s per host).
        offered_gbps: Option<f64>,
        /// Multiplier on the default offered load (ignored when
        /// `offered_gbps` is set).
        load_factor: Option<f64>,
        /// Flow-size distribution; default bounded Pareto
        /// (α=1.3, 1 MB–1 GB).
        sizes: Option<FlowSizeDist>,
        /// Policy rules; default ECMP load balancing (which installs
        /// select groups wherever the fabric offers equal-cost paths).
        policies: Option<Vec<PolicyRule>>,
    },
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let (Value::Map(mut keys), Value::Map(common)) =
            (self.family.to_value(), self.common.to_value())
        else {
            unreachable!("both halves serialize as maps")
        };
        keys.extend(common);
        Value::Map(keys)
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(ScenarioSpec {
            family: ScenarioFamily::from_value(v)?,
            common: CommonKnobs::from_value(v)?,
        })
    }
}

/// Resolves `file`, when relative, against `dir`.
fn resolve_path(dir: &std::path::Path, file: &mut String) {
    if std::path::Path::new(file.as_str()).is_relative() {
        *file = dir.join(&*file).to_string_lossy().into_owned();
    }
}

impl ScenarioSpec {
    /// Resolves a relative `wan_file` against `dir`, the directory of
    /// the spec file it was read from.
    fn resolve_paths(&mut self, dir: &std::path::Path) {
        if let ScenarioFamily::Fabric {
            wan_file: Some(file),
            ..
        } = &mut self.family
        {
            resolve_path(dir, file);
        }
    }

    /// The seed this spec would run with (sweeps rewrite it per
    /// replicate).
    pub fn seed(&self) -> u64 {
        self.common.seed.unwrap_or(1)
    }

    /// Lowers the spec to a concrete [`Scenario`].
    pub fn build(&self) -> Result<Scenario, LabError> {
        let common = &self.common;
        let horizon = horizon_from_secs(common.horizon_secs)?;
        let seed = self.seed();
        let mut scenario = match &self.family {
            ScenarioFamily::Figure1 => Scenario::figure1(horizon, seed),
            ScenarioFamily::Ixp {
                members,
                edge_switches,
                core_switches,
                offered_gbps,
                load_factor,
                zipf_alpha,
                sizes,
                diurnal,
                policies,
                member_port_speeds_gbps,
                uplink_gbps,
            } => {
                if *members == 0 {
                    return Err(LabError::spec(
                        "scenario.members must be at least 1 (an IXP with no members offers no traffic)",
                    ));
                }
                let mut params = IxpScenarioParams::default();
                params.fabric.members = *members;
                params.fabric.edge_switches = edge_switches.unwrap_or((*members / 25).clamp(2, 16));
                params.fabric.core_switches = core_switches.unwrap_or((*members / 100).clamp(2, 4));
                params.fabric.member_port_speeds = match member_port_speeds_gbps {
                    Some(speeds) if speeds.is_empty() => {
                        return Err(LabError::spec(
                            "scenario.member_port_speeds_gbps must not be empty; omit it for uniform 10G",
                        ))
                    }
                    Some(speeds) => speeds.iter().map(|&g| Rate::gbps(g)).collect(),
                    None => vec![Rate::gbps(10.0)],
                };
                if let Some(g) = uplink_gbps {
                    params.fabric.uplink_speed = Rate::gbps(*g);
                }
                params.offered_bps = offered_bps(*offered_gbps)?
                    .unwrap_or(*members as f64 * 40e6 * load_factor.unwrap_or(1.0));
                params.zipf_alpha = zipf_alpha.unwrap_or(1.0);
                params.sizes = sizes.unwrap_or(FlowSizeDist::Pareto {
                    alpha: 1.3,
                    min_bytes: 1_000_000,
                    max_bytes: 1_000_000_000,
                });
                params.diurnal = *diurnal;
                if let Some(rules) = policies {
                    params.policy = policy_spec(rules);
                }
                params.horizon = horizon;
                params.seed = seed;
                Scenario::ixp(&params)
            }
            ScenarioFamily::Fabric {
                topology,
                fat_tree_k,
                leaves,
                spines,
                hosts_per_leaf,
                oversubscription,
                switches,
                degree,
                hosts,
                wan_file,
                hosts_per_pop,
                access_gbps,
                trunk_gbps,
                pattern,
                offered_gbps,
                load_factor,
                sizes,
                policies,
            } => {
                let mut gen = GeneratorParams {
                    kind: *topology,
                    seed,
                    ..Default::default()
                };
                if let Some(k) = fat_tree_k {
                    gen.fat_tree_k = *k;
                }
                if let Some(v) = leaves {
                    gen.leaves = *v;
                }
                if let Some(v) = spines {
                    gen.spines = *v;
                }
                if let Some(v) = hosts_per_leaf {
                    gen.hosts_per_leaf = *v;
                }
                if let Some(v) = oversubscription {
                    gen.oversubscription = *v;
                }
                if let Some(v) = switches {
                    gen.switches = *v;
                }
                if let Some(v) = degree {
                    gen.degree = *v;
                }
                if let Some(v) = hosts {
                    gen.hosts = *v;
                }
                if let Some(v) = hosts_per_pop {
                    gen.hosts_per_pop = *v;
                }
                if let Some(g) = access_gbps {
                    if *g <= 0.0 {
                        return Err(LabError::spec(format!(
                            "scenario.access_gbps must be positive, got {g}"
                        )));
                    }
                    gen.access = Rate::gbps(*g);
                }
                if let Some(g) = trunk_gbps {
                    if *g <= 0.0 {
                        return Err(LabError::spec(format!(
                            "scenario.trunk_gbps must be positive, got {g}"
                        )));
                    }
                    gen.trunk = Rate::gbps(*g);
                }
                match (*topology == TopologyKind::Wan, wan_file) {
                    (true, Some(path)) => {
                        gen.wan = Some(
                            horse::topology::generators::load_topology_spec(std::path::Path::new(
                                path,
                            ))
                            .map_err(|e| LabError::spec(e.to_string()))?,
                        );
                    }
                    (true, None) => {
                        return Err(LabError::spec(
                            "topology = \"wan\" needs `wan_file` \
                             (e.g. examples/topologies/abilene.json)",
                        ))
                    }
                    (false, Some(_)) => {
                        return Err(LabError::spec(format!(
                            "`wan_file` only applies to topology = \"wan\", not {topology}"
                        )))
                    }
                    (false, None) => {}
                }
                let mut params = FabricScenarioParams {
                    generator: gen,
                    pattern: *pattern,
                    offered_bps: offered_bps(*offered_gbps)?,
                    load_factor: load_factor.unwrap_or(1.0),
                    horizon,
                    seed,
                    ..Default::default()
                };
                if let Some(s) = sizes {
                    params.sizes = *s;
                }
                if let Some(rules) = policies {
                    params.policy = policy_spec(rules);
                }
                Scenario::fabric(&params).map_err(|e| LabError::spec(e.to_string()))?
            }
        };
        scenario.packet_foreground = common
            .fidelity
            .unwrap_or_default()
            .foreground(common.foreground_flows.unwrap_or(8));
        scenario.chaos = common.chaos_spec();
        common.apply_whatif(&mut scenario)?;
        Ok(scenario)
    }
}

impl CommonKnobs {
    /// Folds the flattened `chaos_*` knobs (each individually sweepable
    /// as an axis) into a [`ChaosSpec`]; `None` when no fault kind is
    /// requested, so fault-free specs build byte-identical scenarios to
    /// before the chaos engine existed.
    fn chaos_spec(&self) -> Option<ChaosSpec> {
        let spec = ChaosSpec {
            seed: self.chaos_seed.unwrap_or(0),
            start_secs: self.chaos_start_secs.unwrap_or(0.0),
            link_flaps: self.chaos_link_flaps.unwrap_or(0),
            flap_rate_per_sec: self.chaos_flap_rate_per_sec.unwrap_or(0.0),
            flap_downtime_secs: self.chaos_flap_downtime_secs.unwrap_or(0.0),
            switch_crashes: self.chaos_switch_crashes.unwrap_or(0),
            crash_downtime_secs: self.chaos_crash_downtime_secs.unwrap_or(0.0),
            ctrl_outages: self.chaos_ctrl_outages.unwrap_or(0),
            ctrl_outage_secs: self.chaos_ctrl_outage_secs.unwrap_or(0.0),
            ctrl_latency_spikes: self.chaos_ctrl_latency_spikes.unwrap_or(0),
            ctrl_latency_factor: self.chaos_ctrl_latency_factor.unwrap_or(0.0),
            ctrl_spike_secs: self.chaos_ctrl_spike_secs.unwrap_or(0.0),
            gray_links: self.chaos_gray_links.unwrap_or(0),
            gray_capacity_factor: self.chaos_gray_capacity_factor.unwrap_or(0.0),
            gray_loss_frac: self.chaos_gray_loss_frac.unwrap_or(0.0),
            gray_duration_secs: self.chaos_gray_duration_secs.unwrap_or(0.0),
        };
        spec.is_active().then_some(spec)
    }

    /// Lowers the `whatif_*` knobs onto the built scenario: reserves the
    /// late-event sequence band (constant across variants, so forked and
    /// straight-through runs agree on every `(time, seq)` coordinate) and
    /// schedules the variant's failure/repair pair as late events.
    fn apply_whatif(&self, scenario: &mut Scenario) -> Result<(), LabError> {
        if self.whatif_at_secs.is_none()
            && self.whatif_link_down.is_none()
            && self.whatif_fail_secs.is_none()
            && self.whatif_repair_secs.is_none()
        {
            return Ok(());
        }
        let at = self.whatif_at_secs.ok_or_else(|| {
            LabError::spec("whatif_* knobs need `whatif_at_secs` (the shared-prefix fork point)")
        })?;
        if !(at.is_finite() && at > 0.0) {
            return Err(LabError::spec(format!(
                "scenario.whatif_at_secs must be a positive number of seconds, got {at}"
            )));
        }
        scenario.late_band = 2;
        // The event is injected only when both the link and the failure
        // time are known. A partial pair is not an error at this level:
        // sweeps routinely fix one knob in the base spec while an axis
        // supplies the other, so the base spec (and the forked runner's
        // stripped prefix) legitimately build with the band reserved and
        // nothing injected.
        let (Some(link), Some(fail)) = (self.whatif_link_down, self.whatif_fail_secs) else {
            return Ok(());
        };
        let links = scenario.topology.links().count() as u32;
        if link >= links {
            return Err(LabError::spec(format!(
                "scenario.whatif_link_down = {link} is out of range (topology has {links} links)"
            )));
        }
        if !(fail.is_finite() && fail > at) {
            return Err(LabError::spec(format!(
                "scenario.whatif_fail_secs must lie after whatif_at_secs ({at}), got {fail}"
            )));
        }
        let t = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
        scenario
            .late_events
            .push((t(fail), LateEvent::CableDown(LinkId(link))));
        if let Some(rep) = self.whatif_repair_secs {
            if !(rep.is_finite() && rep > fail) {
                return Err(LabError::spec(format!(
                    "scenario.whatif_repair_secs must lie after whatif_fail_secs ({fail}), got {rep}"
                )));
            }
            scenario
                .late_events
                .push((t(rep), LateEvent::CableUp(LinkId(link))));
        }
        Ok(())
    }
}

/// An explicit `offered_gbps`, in bit/s; it must be positive.
fn offered_bps(offered_gbps: Option<f64>) -> Result<Option<f64>, LabError> {
    match offered_gbps {
        Some(g) if g <= 0.0 => Err(LabError::spec(format!(
            "scenario.offered_gbps must be positive, got {g}"
        ))),
        gbps => Ok(gbps.map(|g| g * 1e9)),
    }
}

/// The policy a spec's `policies` list installs, in file order.
fn policy_spec(rules: &[PolicyRule]) -> PolicySpec {
    rules
        .iter()
        .cloned()
        .fold(PolicySpec::new(), PolicySpec::with)
}

fn horizon_from_secs(secs: f64) -> Result<SimTime, LabError> {
    if !(secs.is_finite() && secs > 0.0) {
        return Err(LabError::spec(format!(
            "scenario.horizon_secs must be a positive number of seconds, got {secs}"
        )));
    }
    Ok(SimTime::ZERO + SimDuration::from_secs_f64(secs))
}

/// Declarative [`SimConfig`] overrides. Every field is optional; absent
/// fields inherit [`SimConfig::default`]. Durations use friendly units
/// (`_us`/`_secs`); `stats_epoch_secs = 0.0` disables periodic stats,
/// `expiry_scan_secs = 0.0` disables expiry scans.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct SimConfigSpec {
    /// One-way control-channel latency in microseconds.
    pub ctrl_latency_us: Option<f64>,
    /// `"full"` or `"incremental"` max-min recomputation.
    pub alloc_mode: Option<AllocMode>,
    /// Average packet size in bytes (packet-counter derivation).
    pub avg_packet_bytes: Option<u64>,
    /// Statistics epoch in seconds (0 disables).
    pub stats_epoch_secs: Option<f64>,
    /// Flow-entry expiry scan period in seconds (0 disables).
    pub expiry_scan_secs: Option<f64>,
    /// Controller round-trip budget per admission.
    pub admit_retry_limit: Option<u32>,
    /// Congestion alarm threshold (link utilization 0–1).
    pub alarm_threshold: Option<f64>,
    /// Accepted and ignored: the frozen benchmark harness still writes
    /// this key. ROADMAP direction 1's benchmark PR deletes it.
    pub engine_threads: Option<usize>,
    /// Packet-plane burst cap (max packets one burst event models).
    /// Defaults to 32; `1` is the per-packet oracle, so `[1, 32]` sweeps
    /// as a fidelity-vs-speed ablation axis.
    pub pkt_burst: Option<u32>,
}

impl SimConfigSpec {
    /// Folds the overrides onto [`SimConfig::default`].
    pub fn to_config(&self) -> Result<SimConfig, LabError> {
        let mut c = SimConfig::default();
        if let Some(us) = self.ctrl_latency_us {
            if !(us.is_finite() && us >= 0.0) {
                return Err(LabError::spec(format!(
                    "config.ctrl_latency_us must be non-negative, got {us}"
                )));
            }
            c.ctrl_latency = SimDuration::from_secs_f64(us / 1e6);
        }
        if let Some(m) = self.alloc_mode {
            c.alloc_mode = m;
        }
        if let Some(b) = self.avg_packet_bytes {
            if b == 0 {
                return Err(LabError::spec("config.avg_packet_bytes must be positive"));
            }
            c.avg_packet = ByteSize::bytes(b);
        }
        if let Some(s) = self.stats_epoch_secs {
            c.stats_epoch = optional_duration("config.stats_epoch_secs", s)?;
        }
        if let Some(s) = self.expiry_scan_secs {
            c.expiry_scan = optional_duration("config.expiry_scan_secs", s)?;
        }
        if let Some(n) = self.admit_retry_limit {
            if n == 0 {
                return Err(LabError::spec(
                    "config.admit_retry_limit must be at least 1",
                ));
            }
            c.admit_retry_limit = n;
        }
        if let Some(t) = self.alarm_threshold {
            if !(0.0..=1.0).contains(&t) {
                return Err(LabError::spec(format!(
                    "config.alarm_threshold must be within 0..=1, got {t}"
                )));
            }
            c.alarm_threshold = Some(t);
        }
        if let Some(n) = self.pkt_burst {
            if n == 0 {
                return Err(LabError::spec(
                    "config.pkt_burst must be at least 1 (1 = per-packet oracle)",
                ));
            }
            c.pkt_burst = n;
        }
        Ok(c)
    }
}

fn optional_duration(field: &str, secs: f64) -> Result<Option<SimDuration>, LabError> {
    if !(secs.is_finite() && secs >= 0.0) {
        return Err(LabError::spec(format!(
            "{field} must be a non-negative number of seconds, got {secs}"
        )));
    }
    if secs == 0.0 {
        Ok(None)
    } else {
        Ok(Some(SimDuration::from_secs_f64(secs)))
    }
}

/// Ordered sweep axes: `parameter → values`, preserving file order so run
/// enumeration (and therefore reports) is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Axes(pub Vec<(String, Vec<Value>)>);

impl Serialize for Axes {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, vs)| (k.clone(), Value::Seq(vs.clone())))
                .collect(),
        )
    }
}

impl Deserialize for Axes {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("axes must be a table of `name = [values…]`"))?;
        let mut axes = Vec::new();
        for (k, val) in m {
            let seq = val.as_seq().ok_or_else(|| {
                serde::Error::custom(format!(
                    "axis `{k}` must be an array of values, found {}",
                    val.kind()
                ))
            })?;
            if seq.is_empty() {
                return Err(serde::Error::custom(format!(
                    "axis `{k}` must list at least one value"
                )));
            }
            axes.push((k.clone(), seq.to_vec()));
        }
        Ok(Axes(axes))
    }

    fn absent() -> Option<Self> {
        Some(Axes::default())
    }
}

/// A whole experiment campaign: base scenario + config, sweep axes and
/// replicate count. This is the on-disk format of `*.toml`/`*.json`
/// sweep files.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Campaign name (report files are named after it).
    pub name: String,
    /// The base scenario every run starts from.
    pub scenario: ScenarioSpec,
    /// Simulator-config overrides applied to every run.
    pub config: Option<SimConfigSpec>,
    /// Sweep axes, expanded as a cartesian grid.
    pub axes: Axes,
    /// Seed replicates per grid point (run `r` uses `base_seed + r`);
    /// default 1.
    pub replicates: Option<u32>,
    /// Default worker-thread count for this campaign (CLI `--threads`
    /// wins; absent/0 means "one per CPU").
    pub threads: Option<usize>,
}

impl SweepSpec {
    /// Parses a spec from TOML text (relative paths in it resolve
    /// against the working directory).
    pub fn from_toml(text: &str) -> Result<Self, LabError> {
        Self::from_raw(&toml::parse(text).map_err(invalid_spec)?, None)
    }

    /// Parses a spec from JSON text (relative paths in it resolve
    /// against the working directory).
    pub fn from_json(text: &str) -> Result<Self, LabError> {
        Self::from_raw(&serde_json::parse_value(text).map_err(invalid_spec)?, None)
    }

    /// Deserializes a parsed document, rejects keys the deserializer
    /// would have dropped, resolves relative paths against `dir` (when
    /// the document came from a file) and validates the result.
    fn from_raw(raw: &Value, dir: Option<&std::path::Path>) -> Result<Self, LabError> {
        let mut spec = SweepSpec::from_value(raw).map_err(invalid_spec)?;
        reject_unknown_keys(raw, &spec.to_value())?;
        if let Some(dir) = dir {
            spec.scenario.resolve_paths(dir);
            for (_, values) in spec.axes.0.iter_mut().filter(|(k, _)| k == "wan_file") {
                for value in values {
                    if let Value::Str(file) = value {
                        resolve_path(dir, file);
                    }
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Loads a spec from a file path, dispatching on the extension
    /// (`.json` is JSON, everything else parses as TOML). A relative
    /// `wan_file` resolves against the file's directory.
    pub fn load(path: &std::path::Path) -> Result<Self, LabError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            LabError::spec(format!("cannot read sweep spec {}: {e}", path.display()))
        })?;
        let raw = if path.extension().is_some_and(|e| e == "json") {
            serde_json::parse_value(&text).map_err(invalid_spec)?
        } else {
            toml::parse(&text).map_err(invalid_spec)?
        };
        Self::from_raw(&raw, path.parent())
    }

    /// Structural validation beyond what deserialization enforces; also
    /// dry-builds the base scenario and config so spec errors surface
    /// before any run starts.
    pub fn validate(&self) -> Result<(), LabError> {
        if self.name.is_empty() {
            return Err(LabError::spec("sweep name must not be empty"));
        }
        if self
            .name
            .chars()
            .any(|c| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        {
            return Err(LabError::spec(format!(
                "sweep name `{}` may only contain [a-zA-Z0-9_-] (it names report files)",
                self.name
            )));
        }
        if self.replicates == Some(0) {
            return Err(LabError::spec("replicates must be at least 1"));
        }
        self.scenario.build()?;
        self.config.clone().unwrap_or_default().to_config()?;
        crate::sweep::expand(self).map(|_| ())
    }

    /// Expands the grid and dry-builds every run's scenario and config,
    /// so an axis value that only fails to build (a `wan_file` that does
    /// not resolve) surfaces before any run starts. `horse-lab validate`
    /// runs this; loading a spec builds only the base.
    pub fn build_every_run(&self) -> Result<Vec<RunPlan>, LabError> {
        let plans = crate::sweep::expand(self)?;
        for plan in &plans {
            let in_run = |e: LabError| {
                let (LabError::Spec(m) | LabError::Build(m) | LabError::Cli(m)) = e;
                LabError::spec(format!("run {} ({}): {m}", plan.index, plan.label()))
            };
            plan.scenario.build().map_err(in_run)?;
            plan.config.to_config().map_err(in_run)?;
        }
        Ok(plans)
    }
}

fn invalid_spec(e: impl std::fmt::Display) -> LabError {
    LabError::spec(format!("invalid sweep spec: {e}"))
}

/// Deserialization ignores keys that match no field, so a misspelled
/// knob would silently keep its default. Every key of the root,
/// `[scenario]` and `[config]` tables must be one the parsed spec writes
/// back. Nested tables (`sizes`, `pattern`, `policies`) are checked by
/// their own enums; axis names by [`crate::sweep::expand`].
fn reject_unknown_keys(raw: &Value, parsed: &Value) -> Result<(), LabError> {
    let scenario = format!(
        "[scenario] (kind = \"{}\")",
        parsed["scenario"]["kind"].as_str().unwrap_or_default()
    );
    for (table, raw, known) in [
        ("the spec root", raw, parsed),
        (scenario.as_str(), &raw["scenario"], &parsed["scenario"]),
        ("[config]", &raw["config"], &parsed["config"]),
    ] {
        let (Some(raw), Some(known)) = (raw.as_map(), known.as_map()) else {
            continue;
        };
        if let Some((key, _)) = raw.iter().find(|(k, _)| serde::map_get(known, k).is_none()) {
            let accepted: Vec<&str> = known.iter().map(|(k, _)| k.as_str()).collect();
            return Err(LabError::spec(format!(
                "unknown key `{key}` in {table}; accepted keys: {}",
                accepted.join(", ")
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_toml_spec_parses() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "mini"
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            "#,
        )
        .unwrap();
        assert_eq!(spec.name, "mini");
        assert!(spec.axes.0.is_empty());
        let s = spec.scenario.build().unwrap();
        assert_eq!(s.members.len(), 10);
    }

    #[test]
    fn config_spec_folds_onto_defaults() {
        let c = SimConfigSpec {
            ctrl_latency_us: Some(1000.0),
            stats_epoch_secs: Some(0.0),
            ..Default::default()
        }
        .to_config()
        .unwrap();
        assert_eq!(c.ctrl_latency, SimDuration::from_micros(1000));
        assert!(c.stats_epoch.is_none());
        // untouched fields inherit defaults
        assert_eq!(c.admit_retry_limit, SimConfig::default().admit_retry_limit);
    }

    #[test]
    fn pkt_burst_folds_and_sweeps() {
        let c = SimConfigSpec {
            pkt_burst: Some(1),
            ..Default::default()
        }
        .to_config()
        .unwrap();
        assert_eq!(c.pkt_burst, 1);
        let d = SimConfigSpec::default().to_config().unwrap();
        assert_eq!(d.pkt_burst, 32, "absent knob inherits the default cap");
        let err = SimConfigSpec {
            pkt_burst: Some(0),
            ..Default::default()
        }
        .to_config()
        .unwrap_err();
        assert!(err.to_string().contains("pkt_burst"), "{err}");

        let spec = SweepSpec::from_toml(
            r#"
            name = "pkt_ablate"
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            fidelity = "hybrid"
            [axes]
            pkt_burst = [1, 32]
            "#,
        )
        .unwrap();
        let plans = crate::sweep::expand(&spec).unwrap();
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].config.pkt_burst, Some(1));
        assert_eq!(plans[1].config.pkt_burst, Some(32));
    }

    #[test]
    fn invalid_specs_produce_actionable_errors() {
        let err = SweepSpec::from_toml("name = \"x\"").unwrap_err();
        assert!(err.to_string().contains("scenario"), "{err}");

        let err = SweepSpec::from_toml(
            r#"
            name = "x"
            [scenario]
            kind = "warp_drive"
            members = 10
            horizon_secs = 1.0
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("warp_drive"), "{err}");
        assert!(err.to_string().contains("ixp"), "lists known kinds: {err}");

        let err = SweepSpec::from_toml(
            r#"
            name = "x"
            [scenario]
            kind = "ixp"
            members = 0
            horizon_secs = 1.0
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("members"), "{err}");
    }

    #[test]
    fn fabric_spec_builds_each_family() {
        for (family, extra) in [
            ("fat_tree", "fat_tree_k = 4"),
            ("leaf_spine", "oversubscription = 4.0"),
            ("jellyfish", "switches = 6\ndegree = 3\nhosts = 12"),
            ("linear", "switches = 4\nhosts = 8"),
            ("ring", "switches = 4\nhosts = 8"),
        ] {
            let spec = SweepSpec::from_toml(&format!(
                r#"
                name = "fab"
                [scenario]
                kind = "fabric"
                topology = "{family}"
                horizon_secs = 1.0
                {extra}
                "#,
            ))
            .unwrap_or_else(|e| panic!("{family}: {e}"));
            let s = spec
                .scenario
                .build()
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(!s.members.is_empty(), "{family}");
        }
    }

    #[test]
    fn fabric_spec_wan_requires_file() {
        let err = SweepSpec::from_toml(
            r#"
            name = "w"
            [scenario]
            kind = "fabric"
            topology = "wan"
            horizon_secs = 1.0
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("wan_file"), "{err}");

        let err = SweepSpec::from_toml(
            r#"
            name = "w"
            [scenario]
            kind = "fabric"
            topology = "fat_tree"
            horizon_secs = 1.0
            wan_file = "nope.json"
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("wan"), "{err}");
    }

    #[test]
    fn loaded_spec_resolves_wan_file_against_its_directory() {
        let dir = std::env::temp_dir().join(format!("horse-wan-spec-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sweeps")).unwrap();
        std::fs::create_dir_all(dir.join("topologies")).unwrap();
        let graph = r#"{"nodes": [{"name": "a", "kind": {"type": "core"}},
                                  {"name": "b", "kind": {"type": "core"}}],
                        "cables": [{"a": "a", "b": "b", "capacity_bps": 1e10, "delay_ns": 1000}]}"#;
        std::fs::write(dir.join("topologies/pair.json"), graph).unwrap();
        let text = r#"
            name = "w"
            [scenario]
            kind = "fabric"
            topology = "wan"
            wan_file = "../topologies/pair.json"
            horizon_secs = 0.1
            "#;
        let path = dir.join("sweeps/w.toml");
        std::fs::write(&path, text).unwrap();
        // the crate's working directory holds no `../topologies/pair.json`
        let loaded = SweepSpec::load(&path);
        let from_text = SweepSpec::from_toml(text);
        std::fs::remove_dir_all(&dir).unwrap();
        let spec = loaded.expect("loads by absolute path from elsewhere");
        assert_eq!(crate::expand(&spec).unwrap().len(), 1);
        let err = from_text.expect_err("bare text resolves against the working directory");
        assert!(err.to_string().contains("pair.json"), "{err}");
    }

    /// A copy of the shipped `chaos_wan` sweep that sweeps `wan_file`
    /// as an axis, with the base value's relative path, loads by
    /// absolute path from the crate directory (where the path does not
    /// resolve), validates and runs; an axis path that resolves nowhere
    /// fails to validate, naming its run.
    #[test]
    fn wan_file_axis_resolves_against_the_spec_directory() {
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let shipped = std::fs::read_to_string(repo.join("examples/sweeps/chaos_wan.toml")).unwrap();
        assert!(
            shipped.trim_end().ends_with("]"),
            "[axes] is the last table"
        );
        let dir = std::env::temp_dir().join(format!("horse-wan-axis-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sweeps")).unwrap();
        std::fs::create_dir_all(dir.join("topologies")).unwrap();
        std::fs::copy(
            repo.join("examples/topologies/geant.json"),
            dir.join("topologies/geant.json"),
        )
        .unwrap();
        let good = dir.join("sweeps/chaos_wan.toml");
        let axis = "wan_file = [\"../topologies/geant.json\"]";
        std::fs::write(&good, format!("{}\n{axis}\n", shipped.trim_end())).unwrap();
        let bad = dir.join("sweeps/bad.toml");
        let axis = "wan_file = [\"../topologies/geant.json\", \"../topologies/gone.json\"]";
        std::fs::write(&bad, format!("{}\n{axis}\n", shipped.trim_end())).unwrap();
        let loaded = SweepSpec::load(&good);
        let checked = loaded.as_ref().ok().map(SweepSpec::build_every_run);
        let report = loaded.as_ref().ok().map(|spec| crate::run_sweep(spec, 1));
        let refused = SweepSpec::load(&bad).and_then(|spec| spec.build_every_run());
        std::fs::remove_dir_all(&dir).unwrap();
        loaded.expect("the axis path resolves against the spec's directory");
        assert_eq!(checked.unwrap().expect("every run builds").len(), 6);
        assert_eq!(report.unwrap().expect("every run runs").runs.len(), 6);
        let err = refused.expect_err("an unresolvable axis path fails to validate");
        let msg = err.to_string();
        assert!(
            msg.contains("gone.json") && msg.contains("run 2 ("),
            "{msg}"
        );
    }

    #[test]
    fn fabric_pattern_override_parses() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "pat"
            [scenario]
            kind = "fabric"
            topology = "jellyfish"
            horizon_secs = 1.0
            pattern = { model = "gravity", alpha = 1.2 }
            "#,
        )
        .unwrap();
        let s = spec.scenario.build().unwrap();
        let m = s.workload.unwrap().matrix;
        assert!(m.rate(0, 1) > m.rate(10, 11), "gravity skew applied");
    }

    #[test]
    fn chaos_knobs_lower_to_a_chaos_spec() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "chaos"
            [scenario]
            kind = "fabric"
            topology = "fat_tree"
            horizon_secs = 2.0
            chaos_link_flaps = 2
            chaos_flap_rate_per_sec = 4.0
            chaos_switch_crashes = 1
            chaos_seed = 7
            "#,
        )
        .unwrap();
        let s = spec.scenario.build().unwrap();
        let c = s.chaos.expect("chaos requested");
        assert_eq!(c.link_flaps, 2);
        assert_eq!(c.flap_rate_per_sec, 4.0);
        assert_eq!(c.switch_crashes, 1);
        assert_eq!(c.seed, 7);
        assert!(c.is_active());
    }

    #[test]
    fn chaos_free_spec_builds_chaos_free_scenario() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "calm"
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            "#,
        )
        .unwrap();
        assert!(spec.scenario.build().unwrap().chaos.is_none());
        // Parameters alone (no fault counts) keep chaos off too.
        let spec = SweepSpec::from_toml(
            r#"
            name = "calm2"
            [scenario]
            kind = "ixp"
            members = 6
            horizon_secs = 0.5
            chaos_flap_rate_per_sec = 9.0
            "#,
        )
        .unwrap();
        assert!(spec.scenario.build().unwrap().chaos.is_none());
    }

    #[test]
    fn chaos_fields_are_sweepable_axes() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "chaos_axis"
            [scenario]
            kind = "fabric"
            topology = "fat_tree"
            horizon_secs = 1.0
            chaos_link_flaps = 2
            [axes]
            chaos_flap_rate_per_sec = [1.0, 8.0]
            "#,
        )
        .unwrap();
        let plans = crate::sweep::expand(&spec).unwrap();
        assert_eq!(plans.len(), 2);
        let rates: Vec<f64> = plans
            .iter()
            .map(|p| p.scenario.build().unwrap().chaos.unwrap().flap_rate_per_sec)
            .collect();
        assert_eq!(rates, vec![1.0, 8.0]);
    }

    #[test]
    fn axes_preserve_order() {
        let spec = SweepSpec::from_toml(
            r#"
            name = "ordered"
            [scenario]
            kind = "ixp"
            members = 10
            horizon_secs = 1.0
            [axes]
            zipf_alpha = [0.5, 1.0]
            members = [10]
            "#,
        )
        .unwrap();
        let names: Vec<&str> = spec.axes.0.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            vec!["zipf_alpha", "members"],
            "file order, not sorted"
        );
    }
}
