//! The high-level policy specification.
//!
//! Fig. 2 of the paper shows policies entering the simulator as a
//! structured configuration document:
//!
//! ```json
//! {
//!   "policies": [
//!     { "type": "load_balancing", "mode": "ecmp" },
//!     { "type": "app_peering", "src": "m1", "dst": "m3", "app": "Http" },
//!     { "type": "rate_limit", "src": "m2", "dst": "m4", "rate_mbps": 500.0 }
//!   ]
//! }
//! ```
//!
//! [`PolicySpec`] is that document; the [`PolicyGenerator`] compiles it to
//! OpenFlow messages.
//!
//! [`PolicyGenerator`]: crate::generator::PolicyGenerator

use horse_types::{AppClass, Snap};
use serde::{Deserialize, Serialize};

/// Load-balancing flavour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
#[serde(rename_all = "snake_case")]
pub enum LbMode {
    /// Equal-cost multipath via select groups (equal weights).
    Ecmp,
    /// Weighted multipath; weights adapt to polled port utilization.
    Adaptive,
}

/// One policy of the paper's Fig. 1 set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Snap)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum PolicyRule {
    /// Proactive MAC forwarding along deterministic shortest paths —
    /// the paper's "basic forwarding based on source and destination MAC".
    MacForwarding,
    /// Reactive MAC learning (flood until learned, then exact rules).
    MacLearning,
    /// Load balancing edge→core ("load balancing: edge->core").
    LoadBalancing {
        /// ECMP or adaptive weighted.
        mode: LbMode,
    },
    /// Application-specific peering ("e1->e3 : http"): steer one member
    /// pair's application traffic over a pinned alternate path.
    AppPeering {
        /// Source member (host name).
        src: String,
        /// Destination member (host name).
        dst: String,
        /// Which application class.
        app: AppClass,
        /// Which alternate path to pin (0 = shortest, 1 = next, …).
        #[serde(default)]
        path_rank: usize,
    },
    /// Blackholing: drop all traffic destined to a member at every edge.
    Blackhole {
        /// Victim member (host name).
        victim: String,
    },
    /// Source routing: pin a member pair's traffic through waypoints.
    SourceRouting {
        /// Source member.
        src: String,
        /// Destination member.
        dst: String,
        /// Switch names to traverse, in order.
        via: Vec<String>,
    },
    /// Rate limiting ("rate limiting: e2->e4: 500 Mbps"): police one
    /// member pair at the source edge switch.
    RateLimit {
        /// Source member.
        src: String,
        /// Destination member.
        dst: String,
        /// Limit in Mbit/s.
        rate_mbps: f64,
    },
}

impl PolicyRule {
    /// Stable kind string (used in reports and validation messages).
    pub fn kind(&self) -> &'static str {
        match self {
            PolicyRule::MacForwarding => "mac_forwarding",
            PolicyRule::MacLearning => "mac_learning",
            PolicyRule::LoadBalancing { .. } => "load_balancing",
            PolicyRule::AppPeering { .. } => "app_peering",
            PolicyRule::Blackhole { .. } => "blackhole",
            PolicyRule::SourceRouting { .. } => "source_routing",
            PolicyRule::RateLimit { .. } => "rate_limit",
        }
    }
}

/// The full policy configuration document.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize, Snap)]
pub struct PolicySpec {
    /// Policies, applied together (priority bands resolve overlaps).
    pub policies: Vec<PolicyRule>,
}

impl PolicySpec {
    /// An empty spec.
    pub fn new() -> Self {
        PolicySpec::default()
    }

    /// Builder: append a policy.
    pub fn with(mut self, rule: PolicyRule) -> Self {
        self.policies.push(rule);
        self
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// The paper's Figure-1 policy mix on the figure-1 fabric (members
    /// m1..m4 attached to e1..e4): load balancing (the forwarding owner),
    /// app-specific peering m1→m3 (http), source routing m1→m4 via c2, a
    /// 500 Mbps rate limit m2→m4, and blackholing of m2's inbound traffic.
    pub fn figure1() -> Self {
        PolicySpec::new()
            .with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp })
            .with(PolicyRule::AppPeering {
                src: "m1".into(),
                dst: "m3".into(),
                app: AppClass::Http,
                path_rank: 1,
            })
            .with(PolicyRule::SourceRouting {
                src: "m1".into(),
                dst: "m4".into(),
                via: vec!["c2".into()],
            })
            .with(PolicyRule::RateLimit {
                src: "m2".into(),
                dst: "m4".into(),
                rate_mbps: 500.0,
            })
            .with(PolicyRule::Blackhole {
                victim: "m2".into(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let spec = PolicySpec::figure1();
        let js = spec.to_json();
        let back = PolicySpec::from_json(&js).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn parses_fig2_style_document() {
        let js = r#"{
            "policies": [
                { "type": "load_balancing", "mode": "ecmp" },
                { "type": "app_peering", "src": "m1", "dst": "m3", "app": "Http" },
                { "type": "rate_limit", "src": "m2", "dst": "m4", "rate_mbps": 500.0 }
            ]
        }"#;
        let spec = PolicySpec::from_json(js).unwrap();
        assert_eq!(spec.policies.len(), 3);
        assert_eq!(
            spec.policies[0],
            PolicyRule::LoadBalancing { mode: LbMode::Ecmp }
        );
        // defaulted field
        assert_eq!(
            spec.policies[1],
            PolicyRule::AppPeering {
                src: "m1".into(),
                dst: "m3".into(),
                app: AppClass::Http,
                path_rank: 0
            }
        );
    }

    #[test]
    fn kinds_are_stable() {
        for (rule, kind) in [
            (PolicyRule::MacForwarding, "mac_forwarding"),
            (PolicyRule::MacLearning, "mac_learning"),
            (PolicyRule::Blackhole { victim: "x".into() }, "blackhole"),
        ] {
            assert_eq!(rule.kind(), kind);
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(PolicySpec::from_json("{").is_err());
        assert!(PolicySpec::from_json(r#"{"policies":[{"type":"bogus"}]}"#).is_err());
    }
}
