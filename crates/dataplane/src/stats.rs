//! Traffic statistics — data-plane building block (3) of the paper.

use horse_types::{FlowId, FlowKey, LinkId, NodeId, Rate, SimTime, Snap};
use serde::{Deserialize, Serialize};

/// Cumulative per-directed-link statistics.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize, Snap)]
pub struct LinkStats {
    /// Bytes carried (fluid-integrated), exact as of each crossing
    /// flow's last sync; a mid-run reader calls `FluidNet::sync_all(now)`
    /// first.
    pub bytes: f64,
    /// Sum of currently allocated flow rates (bps).
    pub current_rate_bps: f64,
    /// Number of flows currently routed over the link.
    pub active_flows: u32,
}

impl LinkStats {
    /// Instantaneous utilization against `capacity` (0 when capacity is 0).
    pub fn utilization(&self, capacity: Rate) -> f64 {
        if capacity.is_zero() {
            0.0
        } else {
            (self.current_rate_bps / capacity.as_bps()).clamp(0.0, 1.0)
        }
    }
}

/// Record of a completed (or torn-down) flow.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub struct FlowRecord {
    /// Flow id.
    pub id: FlowId,
    /// Header fields.
    pub key: FlowKey,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes delivered.
    pub bytes: f64,
    /// Bytes offered but dropped (CBR shortfall / policing).
    pub dropped_bytes: f64,
    /// Admission time.
    pub started: SimTime,
    /// Completion / teardown time.
    pub finished: SimTime,
    /// Whether the flow ran to byte-completion (vs torn down / failed).
    pub completed: bool,
}

impl FlowRecord {
    /// Flow completion time in seconds.
    pub fn fct_secs(&self) -> f64 {
        self.finished.saturating_since(self.started).as_secs_f64()
    }

    /// Average goodput over the flow's lifetime (bps).
    pub fn avg_rate_bps(&self) -> f64 {
        let t = self.fct_secs();
        if t > 0.0 {
            self.bytes * 8.0 / t
        } else {
            0.0
        }
    }
}

/// Why a flow was dropped at admission or teardown.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Snap)]
pub enum DropCause {
    /// A switch pipeline dropped it (policy, blackhole, dead group…).
    Pipeline(String),
    /// No route reached the destination host.
    NoRoute,
    /// The controller never installed usable rules within the retry budget.
    ControllerTimeout,
    /// A link on its path failed and no reroute existed.
    LinkFailure,
}

/// Record of a dropped/rejected flow.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub struct DropRecord {
    /// Flow id (assigned even to rejected flows).
    pub id: FlowId,
    /// Header fields.
    pub key: FlowKey,
    /// Where it was dropped (switch) if applicable.
    pub at: Option<NodeId>,
    /// Why.
    pub cause: DropCause,
    /// When.
    pub time: SimTime,
}

/// A point-in-time link utilization sample (monitoring export).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkSample {
    /// The link.
    pub link: LinkId,
    /// Sample time.
    pub time: SimTime,
    /// Utilization in `[0, 1]`.
    pub utilization: f64,
    /// Absolute rate (bps).
    pub rate_bps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_types::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn utilization_bounds() {
        let s = LinkStats {
            bytes: 0.0,
            current_rate_bps: 5e8,
            active_flows: 1,
        };
        assert!((s.utilization(Rate::gbps(1.0)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(Rate::ZERO), 0.0);
        let over = LinkStats {
            bytes: 0.0,
            current_rate_bps: 2e9,
            active_flows: 1,
        };
        assert_eq!(over.utilization(Rate::gbps(1.0)), 1.0, "clamped");
    }

    #[test]
    fn flow_record_derived_metrics() {
        let r = FlowRecord {
            id: FlowId(1),
            key: FlowKey::tcp(
                MacAddr::local_from_id(1),
                MacAddr::local_from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                80,
            ),
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 1_000_000.0,
            dropped_bytes: 0.0,
            started: SimTime::from_secs(1),
            finished: SimTime::from_secs(3),
            completed: true,
        };
        assert_eq!(r.fct_secs(), 2.0);
        assert!((r.avg_rate_bps() - 4e6).abs() < 1e-6);
    }

    #[test]
    fn zero_duration_rate_is_zero() {
        let r = FlowRecord {
            id: FlowId(1),
            key: FlowKey::tcp(
                MacAddr::local_from_id(1),
                MacAddr::local_from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                80,
            ),
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 10.0,
            dropped_bytes: 0.0,
            started: SimTime::from_secs(1),
            finished: SimTime::from_secs(1),
            completed: true,
        };
        assert_eq!(r.avg_rate_bps(), 0.0);
    }
}
