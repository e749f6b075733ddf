//! Simulation configuration.

use horse_dataplane::FluidConfig;
use horse_types::{ByteSize, SimDuration};
use serde::{Deserialize, Serialize};

/// Which flows a reallocation re-solves.
///
/// ```
/// use horse_core::config::AllocMode;
///
/// // Round-trips through serde using snake_case names (this is what the
/// // lab's TOML sweep axes parse).
/// let m: AllocMode = serde_json::from_str("\"incremental\"").unwrap();
/// assert_eq!(m, AllocMode::Incremental);
/// assert_ne!(AllocMode::Full, AllocMode::Incremental);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AllocMode {
    /// Oracle: mark every link that carries a flow dirty before each run
    /// ([`horse_dataplane::FluidNet::mark_all_dirty`]), so every flow is
    /// re-solved.
    Full,
    /// Re-solve only the flows sharing links with what changed.
    Incremental,
}

/// Tunables of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// One-way control-channel latency (switch ↔ controller). The paper
    /// removes real OpenFlow connections but keeps their *timing*: a
    /// reactive flow setup costs two crossings (`FlowIn` up, `FlowMod`
    /// down). Ablation A2 (`examples/sweeps/ctrl_latency.toml`) sweeps
    /// this.
    pub ctrl_latency: SimDuration,
    /// Which flows a reallocation re-solves. `Full` is the oracle:
    /// re-solve every flow on every run.
    pub alloc_mode: AllocMode,
    /// Average packet size for deriving packet counters from bytes.
    pub avg_packet: ByteSize,
    /// Statistics-export epoch; `None` disables periodic collection.
    pub stats_epoch: Option<SimDuration>,
    /// Flow-entry timeout scan period; `None` disables expiry.
    pub expiry_scan: Option<SimDuration>,
    /// How many controller round-trips a single flow admission may take
    /// before the flow is dropped as `ControllerTimeout`.
    pub admit_retry_limit: u32,
    /// Congestion alarm threshold for the collector (utilization 0–1).
    pub alarm_threshold: Option<f64>,
    /// Hybrid coupling floor: a packet serializer always drains at at
    /// least this fraction of link capacity even while the fluid
    /// allocator momentarily holds the whole link — the live-lock guard
    /// for the window between a port going busy and the next coupling
    /// point. Irrelevant to pure fluid runs.
    pub hybrid_min_drain_frac: f64,
    /// Accepted and ignored: the allocator always water-fills its
    /// components serially. Kept only because the frozen benchmark
    /// harness still sets it; ROADMAP direction 1's benchmark PR deletes
    /// it together with [`SimConfig::with_engine_threads`].
    #[serde(default)]
    pub engine_threads: usize,
    /// Run the allocator once per *event* instead of once per epoch
    /// (batch of same-timestamp events) — the pre-epoch-batching cadence,
    /// kept as the equivalence oracle for tests and as the bench
    /// baseline. Leave `false` outside those uses.
    #[serde(default)]
    pub realloc_per_event: bool,
    /// Collapse flows sharing an identical link sequence and demand into
    /// one weighted macro-flow allocation variable (the million-flow
    /// scaling trick). Rates and reports are **bit-identical** with the
    /// knob on or off — only solver work changes — so it defaults on;
    /// keep the `false` side for ablations.
    #[serde(default = "default_true")]
    pub macro_flows: bool,
    /// Maximum packets one packet-plane burst event may model (GSO-style
    /// batching of back-to-back same-flow packets). `1` disables batching
    /// and is bit-identical to the per-packet plane; larger values trade
    /// a bounded (sub-1%) FCT skew for a ~burst-factor event reduction.
    #[serde(default = "default_pkt_burst")]
    pub pkt_burst: u32,
    /// Cache per-flow pipeline decisions in the packet plane so only a
    /// burst's head packet walks the OpenFlow tables. Generation-stamped:
    /// any flow/group/meter mod, port or cable change invalidates.
    /// Bit-identical either way; defaults on, `false` for ablations.
    #[serde(default = "default_true")]
    pub pkt_decision_cache: bool,
}

fn default_true() -> bool {
    true
}

fn default_pkt_burst() -> u32 {
    32
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            ctrl_latency: SimDuration::from_micros(500),
            alloc_mode: AllocMode::Incremental,
            avg_packet: ByteSize::bytes(1000),
            stats_epoch: Some(SimDuration::from_secs(1)),
            expiry_scan: Some(SimDuration::from_secs(1)),
            admit_retry_limit: 8,
            alarm_threshold: None,
            hybrid_min_drain_frac: 0.05,
            engine_threads: 1,
            realloc_per_event: false,
            macro_flows: true,
            pkt_burst: 32,
            pkt_decision_cache: true,
        }
    }
}

impl SimConfig {
    /// The fluid-plane slice of this configuration.
    pub fn fluid(&self) -> FluidConfig {
        FluidConfig {
            avg_packet: self.avg_packet,
            max_route_hops: 64,
            macro_flows: self.macro_flows,
        }
    }

    /// Builder: set the control latency.
    pub fn with_ctrl_latency(mut self, d: SimDuration) -> Self {
        self.ctrl_latency = d;
        self
    }

    /// Builder: set the allocation mode.
    pub fn with_alloc_mode(mut self, m: AllocMode) -> Self {
        self.alloc_mode = m;
        self
    }

    /// Builder: set the stats epoch.
    pub fn with_stats_epoch(mut self, d: Option<SimDuration>) -> Self {
        self.stats_epoch = d;
        self
    }

    /// Builder: set the flow-entry expiry scan period.
    pub fn with_expiry_scan(mut self, d: Option<SimDuration>) -> Self {
        self.expiry_scan = d;
        self
    }

    /// Builder: set the hybrid coupling floor (fraction of capacity).
    pub fn with_hybrid_min_drain_frac(mut self, f: f64) -> Self {
        self.hybrid_min_drain_frac = f.clamp(0.0, 1.0);
        self
    }

    /// Builder: set [`SimConfig::engine_threads`], which nothing reads
    /// (see there).
    pub fn with_engine_threads(mut self, n: usize) -> Self {
        self.engine_threads = n;
        self
    }

    /// Builder: select the per-event reallocation oracle cadence.
    pub fn with_realloc_per_event(mut self, on: bool) -> Self {
        self.realloc_per_event = on;
        self
    }

    /// Builder: toggle macro-flow aggregation (ablation knob; results
    /// are bit-identical either way).
    pub fn with_macro_flows(mut self, on: bool) -> Self {
        self.macro_flows = on;
        self
    }

    /// Builder: set the packet-plane burst cap (`1` = per-packet oracle).
    pub fn with_pkt_burst(mut self, n: u32) -> Self {
        self.pkt_burst = n.max(1);
        self
    }

    /// Builder: toggle the packet-plane decision cache (ablation knob;
    /// results are bit-identical either way).
    pub fn with_pkt_decision_cache(mut self, on: bool) -> Self {
        self.pkt_decision_cache = on;
        self
    }
}

// Checkpoint headers carry the config next to the scenario so a resumed
// run re-derives every config-dependent structure instead of snapshotting
// it.
horse_types::impl_snap_via_serde!(SimConfig);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.ctrl_latency, SimDuration::from_micros(500));
        assert_eq!(c.alloc_mode, AllocMode::Incremental, "Full is the oracle");
        assert!(c.admit_retry_limit >= 1);
        assert_eq!(c.fluid().avg_packet, c.avg_packet);
        assert!(c.macro_flows, "aggregation defaults on (bit-identical)");
        assert_eq!(c.pkt_burst, 32, "packet bursts default on");
        assert!(c.pkt_decision_cache, "decision cache defaults on");
        let ablated = c.with_macro_flows(false);
        assert!(!ablated.fluid().macro_flows);
        let per_packet = ablated.with_pkt_burst(0).with_pkt_decision_cache(false);
        assert_eq!(per_packet.pkt_burst, 1, "burst cap floors at 1");
        assert!(!per_packet.pkt_decision_cache);
    }

    #[test]
    fn macro_and_packet_knobs_default_on_when_absent_from_toml() {
        // Older checked-in sweeps predate the knobs; deserialising them
        // must land on the new defaults, not `false`.
        let j = serde_json::to_string(&SimConfig::default()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        let serde_json::Value::Map(entries) = v else {
            panic!("config serializes to a map");
        };
        let pruned: Vec<_> = entries
            .into_iter()
            .filter(|(k, _)| k != "macro_flows" && k != "pkt_burst" && k != "pkt_decision_cache")
            .collect();
        let c: SimConfig = serde::Deserialize::from_value(&serde_json::Value::Map(pruned)).unwrap();
        assert!(c.macro_flows);
        assert_eq!(c.pkt_burst, 32);
        assert!(c.pkt_decision_cache);
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::default()
            .with_ctrl_latency(SimDuration::from_millis(10))
            .with_alloc_mode(AllocMode::Full)
            .with_stats_epoch(None);
        assert_eq!(c.ctrl_latency, SimDuration::from_millis(10));
        assert_eq!(c.alloc_mode, AllocMode::Full);
        assert!(c.stats_epoch.is_none());
    }
}
