//! Scenarios: topology + policies + workload + failure schedule.

use crate::chaos::ChaosSpec;
use horse_controlplane::PolicySpec;
use horse_dataplane::{DemandModel, Fidelity, FlowSpec};
use horse_topology::builders::{self, FabricHandles, IxpFabricParams};
use horse_topology::generators::{generate, GeneratorError, GeneratorParams, TopologyKind};
use horse_topology::{Topology, TopologySpec};
use horse_types::{
    AppClass, ByteSize, FlowKey, LinkId, NodeId, Rate, SimTime, Snap, SnapError, SnapReader,
    SnapWriter,
};
use horse_workloads::{
    AppMix, DiurnalProfile, FlowSizeDist, TrafficMatrix, TrafficPattern, WorkloadParams,
};
use serde::{Deserialize, Serialize};

/// A fault event a fork may add after a checkpoint (the "what-if" knobs
/// of a branched run). Kept separate from [`crate::event::SimEvent`]
/// because a late event must be expressible in scenario terms — it is
/// scheduled through a reserved sequence band so the forked run lands it
/// at exactly the `(time, seq)` coordinates a straight-through run with
/// the same schedule would have used.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub enum LateEvent {
    /// A cable fails (both directions).
    CableDown(LinkId),
    /// A cable recovers.
    CableUp(LinkId),
    /// A switch crashes.
    SwitchDown(NodeId),
    /// A crashed switch rejoins.
    SwitchUp(NodeId),
    /// The controller goes dark.
    CtrlDown,
    /// The controller recovers.
    CtrlUp,
}

impl LateEvent {
    /// The simulation event this late event schedules.
    pub(crate) fn to_sim_event(self) -> crate::event::SimEvent {
        use crate::event::SimEvent;
        match self {
            LateEvent::CableDown(l) => SimEvent::CableDown(l),
            LateEvent::CableUp(l) => SimEvent::CableUp(l),
            LateEvent::SwitchDown(n) => SimEvent::SwitchDown(n),
            LateEvent::SwitchUp(n) => SimEvent::SwitchUp(n),
            LateEvent::CtrlDown => SimEvent::CtrlDown,
            LateEvent::CtrlUp => SimEvent::CtrlUp,
        }
    }
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The network.
    pub topology: Topology,
    /// Traffic-generating hosts, in member order (workload indices map
    /// into this list).
    pub members: Vec<NodeId>,
    /// The policy configuration (compiled by the policy generator).
    pub policy: PolicySpec,
    /// Generated background workload (optional).
    pub workload: Option<WorkloadParams>,
    /// Explicitly scheduled flows.
    pub explicit_flows: Vec<(SimTime, FlowSpec)>,
    /// Cable failure schedule: `(time, link, comes_back_up)`.
    pub failures: Vec<(SimTime, LinkId, bool)>,
    /// Declarative chaos injection: expanded into a seed-deterministic
    /// fault schedule (flaps, switch crashes, controller degradation,
    /// gray failures) when the simulation is built. `None` = no chaos.
    pub chaos: Option<ChaosSpec>,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Hybrid foreground: the first `packet_foreground` workload arrivals
    /// are admitted at packet fidelity (0 = pure fluid workload;
    /// `usize::MAX` = every workload arrival at packet fidelity).
    /// Explicit flows carry their own [`FlowSpec::fidelity`] tag.
    pub packet_foreground: usize,
    /// What-if events scheduled through the reserved late band at build
    /// time. A straight-through run of a sweep *variant* lists the
    /// variant's extra faults here; the prefix run shared by the sweep
    /// leaves it empty (and sizes [`Scenario::late_band`] instead), so a
    /// fork of the prefix that adds the same events reproduces the
    /// variant bit-identically.
    pub late_events: Vec<(SimTime, LateEvent)>,
    /// Reserved what-if band size. The effective band is
    /// `max(late_band, late_events.len())` sequence numbers, reserved
    /// after the base schedule (explicit flows, failures, chaos) and
    /// before anything the run loop schedules; slots not used by
    /// `late_events` stay available to [`crate::sim::Simulation::fork`].
    pub late_band: usize,
}

impl Scenario {
    /// A bare scenario over a topology (no policies, no traffic).
    pub fn bare(topology: Topology, horizon: SimTime) -> Self {
        let members = topology.hosts().collect();
        Scenario {
            topology,
            members,
            policy: PolicySpec::new(),
            workload: None,
            explicit_flows: Vec::new(),
            failures: Vec::new(),
            chaos: None,
            horizon,
            packet_foreground: 0,
            late_events: Vec::new(),
            late_band: 0,
        }
    }

    /// Builds a [`FlowSpec`] between two member hosts of this scenario's
    /// topology (convenience for explicit flows).
    pub fn flow_between(
        &self,
        src: NodeId,
        dst: NodeId,
        app: AppClass,
        src_port: u16,
        size: Option<ByteSize>,
        demand: DemandModel,
    ) -> Option<FlowSpec> {
        let s = self.topology.node(src)?;
        let d = self.topology.node(dst)?;
        let key = FlowKey {
            eth_src: s.mac()?,
            eth_dst: d.mac()?,
            eth_type: horse_types::flow::ether_type::IPV4,
            vlan: None,
            ip_src: s.ip()?,
            ip_dst: d.ip()?,
            ip_proto: app.transport(),
            tp_src: src_port,
            tp_dst: app.dst_port(),
        };
        Some(FlowSpec {
            key,
            src,
            dst,
            demand,
            size,
            fidelity: Fidelity::Fluid,
        })
    }

    /// The paper's Figure-1 scenario: the 4-edge/2-core fabric, all five
    /// policy classes, and a gravity workload at ~40% of aggregate access
    /// capacity. Deterministic for a given `seed`.
    pub fn figure1(horizon: SimTime, seed: u64) -> Self {
        let FabricHandles {
            topology, members, ..
        } = builders::figure1_fabric();
        let weights = TrafficMatrix::zipf_weights(members.len(), 0.8);
        // 4 members at 10G access: offer ~16 Gbps aggregate.
        let matrix = TrafficMatrix::gravity(&weights, 16e9);
        let workload = WorkloadParams {
            matrix,
            sizes: FlowSizeDist::Pareto {
                alpha: 1.3,
                min_bytes: 100_000,
                max_bytes: 1_000_000_000,
            },
            apps: AppMix::default_ixp(),
            diurnal: None,
            udp_rate: Rate::mbps(4.0),
            seed,
        };
        Scenario {
            members,
            policy: PolicySpec::figure1(),
            workload: Some(workload),
            explicit_flows: Vec::new(),
            failures: Vec::new(),
            chaos: None,
            horizon,
            topology,
            packet_foreground: 0,
            late_events: Vec::new(),
            late_band: 0,
        }
    }

    /// A scenario over one of the generated topology families (fat-tree,
    /// leaf-spine, jellyfish, linear/ring chains, WAN), with a traffic
    /// matrix derived per generator: the pattern defaults to
    /// [`default_traffic_pattern`] (gravity for Clos fabrics, uniform
    /// for jellyfish, hotspot for chains, degree-weighted gravity for
    /// WANs). Deterministic for a given parameter set.
    pub fn fabric(params: &FabricScenarioParams) -> Result<Self, GeneratorError> {
        let fabric = generate(&params.generator)?;
        let n = fabric.members.len();
        if n == 0 {
            return Err(GeneratorError::BadParam(
                "the generator produced no hosts, so there is nothing to offer traffic".into(),
            ));
        }
        let pattern = params
            .pattern
            .unwrap_or_else(|| default_traffic_pattern(params.generator.kind));
        // Structural member weights for the WAN gravity model: the
        // inter-switch degree of each member's attachment PoP (bigger
        // PoPs originate and sink more traffic).
        let weights: Option<Vec<f64>> = match params.generator.kind {
            TopologyKind::Wan => Some(
                fabric
                    .members
                    .iter()
                    .map(|&m| {
                        fabric
                            .topology
                            .out_links(m)
                            .next()
                            .map(|(_, access)| {
                                fabric
                                    .topology
                                    .out_links(access.dst)
                                    .filter(|(_, l)| {
                                        fabric
                                            .topology
                                            .node(l.dst)
                                            .map(|d| d.kind.is_switch())
                                            .unwrap_or(false)
                                    })
                                    .count() as f64
                            })
                            .unwrap_or(1.0)
                            .max(1.0)
                    })
                    .collect(),
            ),
            _ => None,
        };
        let total = params
            .offered_bps
            .unwrap_or(n as f64 * 40e6 * params.load_factor);
        let matrix = pattern.matrix(n, total, weights.as_deref());
        let workload = WorkloadParams {
            matrix,
            sizes: params.sizes,
            apps: AppMix::default_ixp(),
            diurnal: None,
            udp_rate: Rate::mbps(4.0),
            seed: params.seed,
        };
        Ok(Scenario {
            topology: fabric.topology,
            members: fabric.members,
            policy: params.policy.clone(),
            workload: Some(workload),
            explicit_flows: Vec::new(),
            failures: Vec::new(),
            chaos: None,
            horizon: params.horizon,
            packet_foreground: 0,
            late_events: Vec::new(),
            late_band: 0,
        })
    }

    /// A parameterized IXP scenario (experiments E1–E5).
    pub fn ixp(params: &IxpScenarioParams) -> Self {
        let fabric = builders::ixp_fabric(&params.fabric);
        let n = fabric.members.len();
        let weights = TrafficMatrix::zipf_weights(n, params.zipf_alpha);
        let matrix = TrafficMatrix::gravity(&weights, params.offered_bps);
        let workload = WorkloadParams {
            matrix,
            sizes: params.sizes,
            apps: AppMix::default_ixp(),
            diurnal: params.diurnal,
            udp_rate: Rate::mbps(4.0),
            seed: params.seed,
        };
        Scenario {
            topology: fabric.topology,
            members: fabric.members,
            policy: params.policy.clone(),
            workload: Some(workload),
            explicit_flows: Vec::new(),
            failures: Vec::new(),
            chaos: None,
            horizon: params.horizon,
            packet_foreground: 0,
            late_events: Vec::new(),
            late_band: 0,
        }
    }
}

/// Serialized form of a [`Scenario`], in spec files and checkpoint
/// headers alike: the topology travels as a [`TopologySpec`] (cables
/// only; directed links re-derive on load with identical ids, so
/// `members`, `explicit_flows` and `failures` keep their meaning).
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
struct ScenarioRepr {
    topology: TopologySpec,
    members: Vec<NodeId>,
    policy: PolicySpec,
    workload: Option<WorkloadParams>,
    explicit_flows: Vec<(SimTime, FlowSpec)>,
    failures: Vec<(SimTime, LinkId, bool)>,
    #[serde(default)]
    chaos: Option<ChaosSpec>,
    horizon: SimTime,
    #[serde(default)]
    packet_foreground: usize,
    #[serde(default)]
    late_events: Vec<(SimTime, LateEvent)>,
    #[serde(default)]
    late_band: usize,
}

impl ScenarioRepr {
    fn of(s: &Scenario) -> Self {
        ScenarioRepr {
            topology: TopologySpec::from_topology(&s.topology),
            members: s.members.clone(),
            policy: s.policy.clone(),
            workload: s.workload.clone(),
            explicit_flows: s.explicit_flows.clone(),
            failures: s.failures.clone(),
            chaos: s.chaos,
            horizon: s.horizon,
            packet_foreground: s.packet_foreground,
            late_events: s.late_events.clone(),
            late_band: s.late_band,
        }
    }

    /// Builds the topology and checks that every member, failure,
    /// explicit flow and late event names an existing node or link, and
    /// that the workload's matrix covers exactly the members — the one
    /// validation both decoders share.
    fn into_scenario(self) -> Result<Scenario, String> {
        // A matrix is a few numbers whatever its size, so a forged
        // member count would otherwise cost its square in generator
        // set-up; checked before the topology is built.
        if let Some(w) = &self.workload {
            if w.matrix.len() != self.members.len() {
                return Err(format!(
                    "the workload's traffic matrix covers {} members, the scenario lists {}",
                    w.matrix.len(),
                    self.members.len()
                ));
            }
        }
        let topology = self
            .topology
            .build()
            .map_err(|e| format!("invalid topology spec: {e}"))?;
        for &m in &self.members {
            if topology.node(m).is_none() {
                return Err(format!("member {m} not present in the topology"));
            }
        }
        // A dangling failure link would later be a silent no-op (the
        // engine ignores unknown links when applying cable events), so an
        // experiment would quietly run without its failure schedule —
        // reject it here instead.
        for &(_, link, _) in &self.failures {
            if topology.link(link).is_none() {
                return Err(format!(
                    "failure schedule references {link}, which is not in the topology"
                ));
            }
        }
        for (_, flow) in &self.explicit_flows {
            for node in [flow.src, flow.dst] {
                if topology.node(node).is_none() {
                    return Err(format!(
                        "explicit flow references {node}, which is not in the topology"
                    ));
                }
            }
        }
        for &(_, ev) in &self.late_events {
            match ev {
                LateEvent::CableDown(l) | LateEvent::CableUp(l) => {
                    if topology.link(l).is_none() {
                        return Err(format!(
                            "late event references {l}, which is not in the topology"
                        ));
                    }
                }
                LateEvent::SwitchDown(n) | LateEvent::SwitchUp(n) => {
                    if topology.node(n).is_none() {
                        return Err(format!(
                            "late event references {n}, which is not in the topology"
                        ));
                    }
                }
                LateEvent::CtrlDown | LateEvent::CtrlUp => {}
            }
        }
        Ok(Scenario {
            topology,
            members: self.members,
            policy: self.policy,
            workload: self.workload,
            explicit_flows: self.explicit_flows,
            failures: self.failures,
            chaos: self.chaos,
            horizon: self.horizon,
            packet_foreground: self.packet_foreground,
            late_events: self.late_events,
            late_band: self.late_band,
        })
    }
}

impl Serialize for Scenario {
    fn to_value(&self) -> serde::Value {
        ScenarioRepr::of(self).to_value()
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        ScenarioRepr::from_value(v)?
            .into_scenario()
            .map_err(serde::Error::custom)
    }
}

/// Checkpoint headers embed the full scenario so a snapshot file is
/// self-describing: resume rebuilds the topology, policies and workload
/// from the header and then overlays the mutable state blob.
impl Snap for Scenario {
    fn snap(&self, w: &mut SnapWriter) {
        ScenarioRepr::of(self).snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let at = r.position();
        ScenarioRepr::unsnap(r)?
            .into_scenario()
            .map_err(|e| SnapError::new(e, at))
    }
}

/// Scenario-level fidelity mode — how the canned scenario families (and
/// the lab's sweep specs) pick per-flow fidelities. Lowered onto
/// [`Scenario::packet_foreground`] by the builders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FidelityMode {
    /// Every flow at fluid fidelity (the classic Horse abstraction).
    #[default]
    Fluid,
    /// A packet-fidelity foreground over a fluid background (the hybrid
    /// co-simulation): the first `foreground_flows` workload arrivals run
    /// packet-level.
    Hybrid,
    /// Every workload arrival at packet fidelity (the ns-3-class
    /// baseline, orders of magnitude more events).
    Packet,
}

impl FidelityMode {
    /// The [`Scenario::packet_foreground`] value this mode lowers to,
    /// given the hybrid foreground size.
    pub fn foreground(self, foreground_flows: usize) -> usize {
        match self {
            FidelityMode::Fluid => 0,
            FidelityMode::Hybrid => foreground_flows,
            FidelityMode::Packet => usize::MAX,
        }
    }
}

/// The traffic-matrix shape a topology family defaults to, chosen to
/// exercise what the family is for: gravity skew on the Clos fabrics
/// (fat-tree, leaf-spine — the data-center case), uniform all-to-all on
/// jellyfish (the random-graph papers evaluate permutation/uniform
/// load), a hotspot on chains (every flow crosses the whole diameter
/// toward the head host), and degree-weighted gravity on WANs (large
/// PoPs originate more traffic).
pub fn default_traffic_pattern(kind: TopologyKind) -> TrafficPattern {
    match kind {
        TopologyKind::FatTree | TopologyKind::LeafSpine => TrafficPattern::Gravity { alpha: 0.8 },
        TopologyKind::Jellyfish => TrafficPattern::Uniform,
        TopologyKind::Linear | TopologyKind::Ring => TrafficPattern::Hotspot { frac: 0.5 },
        TopologyKind::Wan => TrafficPattern::Gravity { alpha: 1.0 },
    }
}

/// Parameters of [`Scenario::fabric`]: a generated topology plus the
/// workload and policy riding on it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FabricScenarioParams {
    /// Which topology to generate, and its shape.
    pub generator: GeneratorParams,
    /// Traffic-matrix shape; `None` picks [`default_traffic_pattern`]
    /// for the generator's family.
    pub pattern: Option<TrafficPattern>,
    /// Aggregate offered load at peak (bps); `None` derives
    /// `hosts × 40 Mbps × load_factor`, the same per-host rule the IXP
    /// scenarios use, so fabrics of equal host count carry comparable
    /// load.
    pub offered_bps: Option<f64>,
    /// Multiplier on the derived offered load (ignored when
    /// `offered_bps` is explicit).
    pub load_factor: f64,
    /// Flow sizes.
    pub sizes: FlowSizeDist,
    /// Policy configuration.
    pub policy: PolicySpec,
    /// Horizon.
    pub horizon: SimTime,
    /// Workload (arrival-stream) seed. Topology wiring has its own seed
    /// — [`GeneratorParams::seed`] inside `generator` — so a random
    /// fabric can stay fixed while workloads vary; set both to the same
    /// value to rewire per run (the lab's `kind = "fabric"` specs do).
    pub seed: u64,
}

impl Default for FabricScenarioParams {
    fn default() -> Self {
        FabricScenarioParams {
            generator: GeneratorParams::default(),
            pattern: None,
            offered_bps: None,
            load_factor: 1.0,
            sizes: FlowSizeDist::Pareto {
                alpha: 1.3,
                min_bytes: 1_000_000,
                max_bytes: 1_000_000_000,
            },
            policy: PolicySpec::new().with(horse_controlplane::PolicyRule::LoadBalancing {
                mode: horse_controlplane::LbMode::Ecmp,
            }),
            horizon: SimTime::from_secs(10),
            seed: 1,
        }
    }
}

/// Parameters of the canned IXP scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IxpScenarioParams {
    /// Fabric shape.
    pub fabric: IxpFabricParams,
    /// Aggregate offered load at peak (bps).
    pub offered_bps: f64,
    /// Zipf skew of member weights.
    pub zipf_alpha: f64,
    /// Flow sizes.
    pub sizes: FlowSizeDist,
    /// Optional diurnal profile.
    pub diurnal: Option<DiurnalProfile>,
    /// Policy configuration.
    pub policy: PolicySpec,
    /// Horizon.
    pub horizon: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for IxpScenarioParams {
    fn default() -> Self {
        IxpScenarioParams {
            fabric: IxpFabricParams {
                members: 100,
                edge_switches: 4,
                core_switches: 2,
                ..Default::default()
            },
            offered_bps: 20e9,
            zipf_alpha: 1.0,
            // megabyte-scale flows keep the arrival rate at O(100)/s for
            // the default 20 Gbps offer; drop `min_bytes` to stress-test
            // flow-event throughput instead
            sizes: FlowSizeDist::Pareto {
                alpha: 1.3,
                min_bytes: 1_000_000,
                max_bytes: 2_000_000_000,
            },
            diurnal: None,
            policy: PolicySpec::new().with(horse_controlplane::PolicyRule::LoadBalancing {
                mode: horse_controlplane::LbMode::Ecmp,
            }),
            horizon: SimTime::from_secs(10),
            seed: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_scenario_shape() {
        let s = Scenario::figure1(SimTime::from_secs(1), 7);
        assert_eq!(s.members.len(), 4);
        assert_eq!(s.policy.policies.len(), 5);
        assert!(s.workload.is_some());
    }

    #[test]
    fn flow_between_builds_valid_keys() {
        let s = Scenario::figure1(SimTime::from_secs(1), 7);
        let f = s
            .flow_between(
                s.members[0],
                s.members[2],
                AppClass::Http,
                1234,
                Some(ByteSize::mib(1)),
                DemandModel::Greedy,
            )
            .unwrap();
        assert_eq!(f.key.tp_dst, 80);
        assert_eq!(f.src, s.members[0]);
        // switch nodes have no MAC: flow_between fails cleanly
        let sw = s.topology.node_by_name("e1").unwrap();
        assert!(s
            .flow_between(
                sw,
                s.members[0],
                AppClass::Http,
                1,
                None,
                DemandModel::Greedy
            )
            .is_none());
    }

    #[test]
    fn ixp_scenario_scales_with_params() {
        let mut p = IxpScenarioParams::default();
        p.fabric.members = 20;
        let s = Scenario::ixp(&p);
        assert_eq!(s.members.len(), 20);
        assert!(s.topology.node_count() > 20);
    }

    #[test]
    fn fabric_scenario_builds_every_family() {
        for kind in [
            TopologyKind::FatTree,
            TopologyKind::LeafSpine,
            TopologyKind::Jellyfish,
            TopologyKind::Linear,
            TopologyKind::Ring,
        ] {
            let mut p = FabricScenarioParams::default();
            p.generator.kind = kind;
            let s = Scenario::fabric(&p).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!s.members.is_empty(), "{kind}");
            let w = s.workload.expect("fabric scenarios carry a workload");
            assert!(w.matrix.total() > 0.0, "{kind} offers no traffic");
            assert_eq!(w.matrix.len(), s.members.len(), "{kind}");
        }
    }

    #[test]
    fn fabric_patterns_follow_family_defaults() {
        let mut p = FabricScenarioParams::default();
        p.generator.kind = TopologyKind::Linear;
        let s = Scenario::fabric(&p).unwrap();
        let m = &s.workload.unwrap().matrix;
        // hotspot: member 0 sinks at least half of the offered load
        let n = m.len();
        let into_hot: f64 = (0..n).map(|i| m.rate(i, 0)).sum();
        assert!(into_hot >= m.total() * 0.5);

        let mut p = FabricScenarioParams::default();
        p.generator.kind = TopologyKind::FatTree;
        p.pattern = Some(horse_workloads::TrafficPattern::Uniform);
        let s = Scenario::fabric(&p).unwrap();
        let m = &s.workload.unwrap().matrix;
        assert!((m.rate(0, 1) - m.rate(2, 3)).abs() < 1e-6, "override wins");
    }

    #[test]
    fn wan_fabric_weighs_by_pop_degree() {
        // chain of 3 PoPs: the middle one has degree 2, the ends 1.
        let chain = horse_topology::generators::chain(
            &GeneratorParams {
                kind: TopologyKind::Linear,
                switches: 3,
                hosts: 0,
                ..Default::default()
            },
            false,
        )
        .unwrap();
        let spec = TopologySpec::from_topology(&chain.topology);
        let mut p = FabricScenarioParams::default();
        p.generator.kind = TopologyKind::Wan;
        p.generator.wan = Some(spec);
        p.generator.hosts_per_pop = 1;
        let s = Scenario::fabric(&p).unwrap();
        assert_eq!(s.members.len(), 3);
        let m = &s.workload.unwrap().matrix;
        // the middle PoP's host (index 1) attracts more than an end host
        assert!(m.rate(0, 1) > m.rate(2, 0));
    }

    #[test]
    fn fabric_scenario_is_deterministic() {
        let mut p = FabricScenarioParams::default();
        p.generator.kind = TopologyKind::Jellyfish;
        p.generator.seed = 11;
        let a = serde_json::to_string(&Scenario::fabric(&p).unwrap()).unwrap();
        let b = serde_json::to_string(&Scenario::fabric(&p).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
