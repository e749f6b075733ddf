//! Serde round-trip of topologies.
//!
//! [`TopologySpec`] is the on-disk form (JSON) of a topology — Fig. 2 of
//! the paper shows configuration entering the simulator as structured text;
//! topologies follow the same route. Only cables (undirected pairs) are
//! stored; directed links are re-derived on load so the spec stays small
//! and cannot encode a half-connected cable.

use crate::graph::{Topology, TopologyError};
use crate::node::{NodeKind, SwitchRole};
use horse_types::{MacAddr, Rate, SimDuration, Snap};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One node in the spec.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Snap)]
pub struct NodeSpec {
    /// Unique name.
    pub name: String,
    /// `host`, `edge` or `core`.
    pub kind: NodeKindSpec,
}

/// Node kind in the spec.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Snap)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum NodeKindSpec {
    /// A host with addresses.
    Host {
        /// MAC address, `aa:bb:cc:dd:ee:ff`.
        mac: MacAddr,
        /// IPv4 address.
        ip: Ipv4Addr,
    },
    /// An edge switch.
    Edge,
    /// A core switch.
    Core,
}

/// One full-duplex cable in the spec.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Snap)]
pub struct CableSpec {
    /// Name of one endpoint.
    pub a: String,
    /// Name of the other endpoint.
    pub b: String,
    /// Capacity in bits per second (per direction).
    pub capacity_bps: f64,
    /// One-way propagation delay in nanoseconds.
    pub delay_ns: u64,
}

/// A serializable topology description.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Default, Snap)]
pub struct TopologySpec {
    /// All nodes.
    pub nodes: Vec<NodeSpec>,
    /// All cables.
    pub cables: Vec<CableSpec>,
}

/// Errors raised when instantiating a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A cable references a node name that does not exist.
    UnknownNodeName(String),
    /// Underlying topology construction failed.
    Topology(TopologyError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownNodeName(n) => write!(f, "cable references unknown node {n:?}"),
            SpecError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> Self {
        SpecError::Topology(e)
    }
}

impl TopologySpec {
    /// Captures an existing topology into a spec. Each cable is emitted
    /// once, from its forward link (the lower id of the pair).
    pub fn from_topology(topo: &Topology) -> TopologySpec {
        let nodes = topo
            .nodes()
            .map(|(_, n)| NodeSpec {
                name: n.name.clone(),
                kind: match n.kind {
                    NodeKind::Host { mac, ip } => NodeKindSpec::Host { mac, ip },
                    NodeKind::Switch {
                        role: SwitchRole::Edge,
                    } => NodeKindSpec::Edge,
                    NodeKind::Switch {
                        role: SwitchRole::Core,
                    } => NodeKindSpec::Core,
                },
            })
            .collect();
        // a cable's forward link is the even id of its pair
        let cables = topo
            .links()
            .step_by(2)
            .map(|(_, l)| CableSpec {
                a: topo.node(l.src).expect("src exists").name.clone(),
                b: topo.node(l.dst).expect("dst exists").name.clone(),
                capacity_bps: l.capacity.as_bps(),
                delay_ns: l.delay.as_nanos(),
            })
            .collect();
        TopologySpec { nodes, cables }
    }

    /// Instantiates the spec into a topology.
    pub fn build(&self) -> Result<Topology, SpecError> {
        let mut t = Topology::new();
        for n in &self.nodes {
            match &n.kind {
                NodeKindSpec::Host { mac, ip } => {
                    t.add_host(&n.name, *mac, *ip)?;
                }
                NodeKindSpec::Edge => {
                    t.add_edge_switch(&n.name)?;
                }
                NodeKindSpec::Core => {
                    t.add_core_switch(&n.name)?;
                }
            }
        }
        for c in &self.cables {
            let a = t
                .node_by_name(&c.a)
                .ok_or_else(|| SpecError::UnknownNodeName(c.a.clone()))?;
            let b = t
                .node_by_name(&c.b)
                .ok_or_else(|| SpecError::UnknownNodeName(c.b.clone()))?;
            t.connect(
                a,
                b,
                Rate::bps(c.capacity_bps),
                SimDuration::from_nanos(c.delay_ns),
            )?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn roundtrip_preserves_shape() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 6,
            edge_switches: 3,
            core_switches: 2,
            ..Default::default()
        });
        let spec = TopologySpec::from_topology(&f.topology);
        let rebuilt = spec.build().unwrap();
        assert_eq!(rebuilt.node_count(), f.topology.node_count());
        assert_eq!(rebuilt.link_count(), f.topology.link_count());
        // spec emits one cable per duplex pair
        assert_eq!(spec.cables.len() * 2, f.topology.link_count());
        // spot-check an attribute survives
        let spec2 = TopologySpec::from_topology(&rebuilt);
        assert_eq!(spec, spec2);
    }

    #[test]
    fn json_roundtrip() {
        let f = builders::star(3, Rate::gbps(1.0));
        let spec = TopologySpec::from_topology(&f.topology);
        let js = serde_json::to_string_pretty(&spec).unwrap();
        let back: TopologySpec = serde_json::from_str(&js).unwrap();
        assert_eq!(spec, back);
        assert!(back.build().is_ok());
    }

    #[test]
    fn unknown_cable_endpoint_errors() {
        let spec = TopologySpec {
            nodes: vec![NodeSpec {
                name: "a".into(),
                kind: NodeKindSpec::Edge,
            }],
            cables: vec![CableSpec {
                a: "a".into(),
                b: "ghost".into(),
                capacity_bps: 1e9,
                delay_ns: 0,
            }],
        };
        assert!(matches!(
            spec.build(),
            Err(SpecError::UnknownNodeName(n)) if n == "ghost"
        ));
    }

    #[test]
    fn duplicate_node_in_spec_errors() {
        let spec = TopologySpec {
            nodes: vec![
                NodeSpec {
                    name: "x".into(),
                    kind: NodeKindSpec::Edge,
                },
                NodeSpec {
                    name: "x".into(),
                    kind: NodeKindSpec::Core,
                },
            ],
            cables: vec![],
        };
        assert!(matches!(spec.build(), Err(SpecError::Topology(_))));
    }
}
