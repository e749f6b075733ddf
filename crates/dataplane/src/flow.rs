//! Flow specifications and resolved routes.

use horse_openflow::table::MatchedEntry;
use horse_types::id::MeterId;
use horse_types::{ByteSize, FlowId, FlowKey, LinkId, NodeId, PortNo, Rate, SimTime};
use serde::{Deserialize, Serialize};

/// How much the source *wants* to send.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DemandModel {
    /// Constant bit rate (UDP-style): the application offers exactly this
    /// rate; excess over the allocated rate is lost (policer/congestion).
    Cbr(Rate),
    /// Greedy (TCP-style): takes whatever max-min fair share the network
    /// grants (demand = ∞), degraded under policing per [`crate::tcp`].
    Greedy,
}

impl DemandModel {
    /// The demand in bps fed to the allocator (before policer effects).
    pub fn demand_bps(&self) -> f64 {
        match self {
            DemandModel::Cbr(r) => r.as_bps(),
            DemandModel::Greedy => f64::INFINITY,
        }
    }

    /// True for the TCP-style model.
    pub fn is_greedy(&self) -> bool {
        matches!(self, DemandModel::Greedy)
    }
}

/// Which simulation mechanics carry a flow in a hybrid run.
///
/// The fidelity tag is honored by the hybrid co-simulation driver in
/// `horse-core`: `Fluid` flows are aggregates with a max-min rate (this
/// crate's model), `Packet` flows are driven packet by packet through
/// `horse-packetsim`'s queues and TCP sources. A pure-fluid engine
/// ignores the tag entirely.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Fidelity {
    /// Flow-level fluid abstraction (the default).
    #[default]
    Fluid,
    /// Packet-level mechanics (queues, serialization, windowed TCP).
    Packet,
}

impl Fidelity {
    /// True for packet-level fidelity.
    pub fn is_packet(self) -> bool {
        matches!(self, Fidelity::Packet)
    }
}

/// A flow to inject: the paper's traffic-matrix entry / generated event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Header fields (identify the aggregate).
    pub key: FlowKey,
    /// Source host node.
    pub src: NodeId,
    /// Destination host node (for records; forwarding follows the tables).
    pub dst: NodeId,
    /// Source demand model.
    pub demand: DemandModel,
    /// Bytes to transfer; `None` = open-ended (runs until removed).
    pub size: Option<ByteSize>,
    /// Simulation fidelity for this flow in hybrid runs (absent in
    /// serialized scenarios ⇒ fluid).
    #[serde(default)]
    pub fidelity: Fidelity,
}

/// One switch traversal of a resolved route.
#[derive(Clone, Debug)]
pub struct RouteHop {
    /// The switch.
    pub node: NodeId,
    /// Ingress port at this switch.
    pub in_port: PortNo,
    /// Egress port chosen by the pipeline.
    pub out_port: PortNo,
    /// Entries matched, with their verified table positions, so the byte
    /// sync credits each one without searching its table.
    pub matched: Vec<MatchedEntry>,
    /// Meters applied at this switch.
    pub meters: Vec<MeterId>,
}

/// A fully resolved path from source host to destination host.
#[derive(Clone, Debug, Default)]
pub struct Route {
    /// Switch hops in order.
    pub hops: Vec<RouteHop>,
    /// Every directed link traversed, in order (access + fabric + egress).
    pub links: Vec<LinkId>,
}

impl Route {
    /// Total one-way propagation delay of the route, given a delay oracle.
    pub fn path_delay<F: Fn(LinkId) -> u64>(&self, delay_ns: F) -> u64 {
        self.links.iter().map(|&l| delay_ns(l)).sum()
    }
}

/// A flow admitted into the fluid network.
#[derive(Clone, Debug)]
pub struct ActiveFlow {
    /// Simulator-assigned id.
    pub id: FlowId,
    /// The spec it was created from.
    pub spec: FlowSpec,
    /// The resolved route.
    pub route: Route,
    /// Currently allocated rate.
    pub rate: Rate,
    /// The tightest meter cap along the route, if any.
    pub meter_cap: Option<Rate>,
    /// Bytes already transferred (fluid-integrated).
    pub bytes_sent: f64,
    /// Bytes still to transfer (`None` for open-ended flows).
    pub bytes_remaining: Option<f64>,
    /// Bytes offered but not delivered (CBR demand above allocation).
    pub bytes_dropped: f64,
    /// Time of admission.
    pub started: SimTime,
    /// Last lazy-accounting sync.
    pub last_update: SimTime,
}

impl ActiveFlow {
    /// The allocator demand for this flow, after meter caps and the TCP
    /// policer model.
    pub fn effective_demand(&self) -> f64 {
        crate::tcp::effective_demand(&self.spec.demand, self.meter_cap)
    }

    /// Integrates bytes over `[last_update, now]` at the current rate.
    /// Returns the bytes transferred in the interval; for CBR flows the
    /// shortfall versus the offered rate is added to `bytes_dropped`.
    pub fn sync_to(&mut self, now: SimTime) -> f64 {
        if now <= self.last_update {
            return 0.0;
        }
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        let mut bytes = self.rate.as_bps() * dt / 8.0;
        if let Some(rem) = self.bytes_remaining {
            bytes = bytes.min(rem);
        }
        self.bytes_sent += bytes;
        if let Some(rem) = self.bytes_remaining.as_mut() {
            *rem = (*rem - bytes).max(0.0);
        }
        if let DemandModel::Cbr(offered) = self.spec.demand {
            let offered_bytes = offered.as_bps() * dt / 8.0;
            if offered_bytes > bytes {
                self.bytes_dropped += offered_bytes - bytes;
            }
        }
        self.last_update = now;
        bytes
    }

    /// Predicted time to completion at the current rate; `None` when the
    /// flow is open-ended or the rate is zero (never completes by itself).
    pub fn time_to_complete(&self) -> Option<f64> {
        let rem = self.bytes_remaining?;
        if rem <= 0.0 {
            return Some(0.0);
        }
        if self.rate.is_zero() {
            return None;
        }
        Some(rem * 8.0 / self.rate.as_bps())
    }

    /// True once the byte budget is exhausted.
    pub fn is_complete(&self) -> bool {
        matches!(self.bytes_remaining, Some(rem) if rem <= 1e-6)
    }
}

// Checkpointing: active flows (with their resolved routes) are part of
// the data-plane snapshot. Specs are serde types and go through the
// canonical serde bridge; routes and flows encode field by field.
horse_types::impl_snap_via_serde!(FlowSpec);
horse_types::impl_snap_struct!(RouteHop {
    node,
    in_port,
    out_port,
    matched,
    meters,
});
horse_types::impl_snap_struct!(Route { hops, links });
horse_types::impl_snap_struct!(ActiveFlow {
    id,
    spec,
    route,
    rate,
    meter_cap,
    bytes_sent,
    bytes_remaining,
    bytes_dropped,
    started,
    last_update,
});

#[cfg(test)]
mod tests {
    use super::*;
    use horse_types::MacAddr;
    use std::net::Ipv4Addr;

    fn spec(demand: DemandModel, size: Option<ByteSize>) -> FlowSpec {
        FlowSpec {
            key: FlowKey::tcp(
                MacAddr::local_from_id(1),
                MacAddr::local_from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1234,
                80,
            ),
            src: NodeId(0),
            dst: NodeId(1),
            demand,
            size,
            fidelity: Default::default(),
        }
    }

    fn active(demand: DemandModel, size: Option<ByteSize>, rate: Rate) -> ActiveFlow {
        ActiveFlow {
            id: FlowId(1),
            spec: spec(demand, size),
            route: Route::default(),
            rate,
            meter_cap: None,
            bytes_sent: 0.0,
            bytes_remaining: size.map(|s| s.as_bytes() as f64),
            bytes_dropped: 0.0,
            started: SimTime::ZERO,
            last_update: SimTime::ZERO,
        }
    }

    #[test]
    fn demand_model_values() {
        assert_eq!(DemandModel::Cbr(Rate::mbps(5.0)).demand_bps(), 5e6);
        assert!(DemandModel::Greedy.demand_bps().is_infinite());
        assert!(DemandModel::Greedy.is_greedy());
    }

    #[test]
    fn sync_integrates_bytes() {
        let mut f = active(
            DemandModel::Greedy,
            Some(ByteSize::mib(1)),
            Rate::mbps(8.0), // 1 MB/s
        );
        let moved = f.sync_to(SimTime::from_millis(500));
        assert!((moved - 500_000.0).abs() < 1.0);
        assert!((f.bytes_remaining.unwrap() - (1048576.0 - 500_000.0)).abs() < 1.0);
        assert_eq!(f.last_update, SimTime::from_millis(500));
    }

    #[test]
    fn sync_is_idempotent_at_same_time() {
        let mut f = active(DemandModel::Greedy, Some(ByteSize::mib(1)), Rate::mbps(8.0));
        f.sync_to(SimTime::from_millis(100));
        assert_eq!(f.sync_to(SimTime::from_millis(100)), 0.0);
        assert_eq!(f.sync_to(SimTime::from_millis(50)), 0.0, "past is ignored");
    }

    #[test]
    fn sync_clamps_at_flow_size() {
        let mut f = active(
            DemandModel::Greedy,
            Some(ByteSize::bytes(1000)),
            Rate::mbps(8.0),
        );
        let moved = f.sync_to(SimTime::from_secs(10));
        assert!((moved - 1000.0).abs() < 1e-9);
        assert!(f.is_complete());
    }

    #[test]
    fn cbr_shortfall_counts_as_drops() {
        let mut f = active(DemandModel::Cbr(Rate::mbps(16.0)), None, Rate::mbps(8.0));
        f.sync_to(SimTime::from_secs(1));
        // offered 2 MB, delivered 1 MB, dropped 1 MB
        assert!((f.bytes_sent - 1_000_000.0).abs() < 1.0);
        assert!((f.bytes_dropped - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn time_to_complete() {
        let f = active(
            DemandModel::Greedy,
            Some(ByteSize::bytes(1_000_000)),
            Rate::mbps(8.0),
        );
        assert!((f.time_to_complete().unwrap() - 1.0).abs() < 1e-9);
        let open = active(DemandModel::Greedy, None, Rate::mbps(8.0));
        assert!(open.time_to_complete().is_none());
        let stalled = active(DemandModel::Greedy, Some(ByteSize::bytes(1)), Rate::ZERO);
        assert!(stalled.time_to_complete().is_none());
    }

    #[test]
    fn route_delay_sums_links() {
        let r = Route {
            hops: vec![],
            links: vec![LinkId(0), LinkId(1), LinkId(2)],
        };
        assert_eq!(r.path_delay(|l| (l.0 as u64 + 1) * 100), 600);
    }
}
