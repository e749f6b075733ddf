//! Simulation configuration.

use horse_dataplane::FluidConfig;
use horse_types::{ByteSize, SimDuration, Snap};
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
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
///
/// Checkpoint headers carry the config next to the scenario, so a
/// resumed run re-derives every config-dependent structure instead of
/// snapshotting it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub struct SimConfig {
    /// One-way control-channel latency (switch ↔ controller). The paper
    /// removes real OpenFlow connections but keeps their *timing*: a
    /// reactive flow setup costs two crossings (`FlowIn` up, `FlowMod`
    /// down). `examples/sweeps/ctrl_latency.toml` sweeps this.
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
    /// harness still sets it; ROADMAP direction 2's benchmark PR deletes
    /// it together with [`SimConfig::with_engine_threads`].
    #[serde(default)]
    pub engine_threads: usize,
    /// Maximum packets one packet-plane burst event may model (GSO-style
    /// batching of back-to-back same-flow packets). `1` disables batching
    /// and is bit-identical to the per-packet plane. Larger values trade
    /// FCT skew for a ~burst-factor event reduction. The skew stays under
    /// 1% of the per-packet FCT only while no serializer tail-drops: once
    /// a burst loses packets, no-SACK recovery can diverge by whole RTO
    /// backoffs.
    #[serde(default = "default_pkt_burst")]
    pub pkt_burst: u32,
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
            pkt_burst: 32,
        }
    }
}

impl SimConfig {
    /// The fluid-plane slice of this configuration.
    pub fn fluid(&self) -> FluidConfig {
        FluidConfig {
            avg_packet: self.avg_packet,
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

    /// Builder: set the packet-plane burst cap (`1` = per-packet oracle).
    pub fn with_pkt_burst(mut self, n: u32) -> Self {
        self.pkt_burst = n.max(1);
        self
    }
}

/// Test support: the reference paths the fast paths are proven against,
/// set with `Simulation::set_oracles`. Not configuration: no spec, sweep
/// or snapshot carries them.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Oracles {
    /// Run the allocator after every event that requests it, and couple
    /// the hybrid planes on every run, instead of once per epoch (batch
    /// of same-timestamp events).
    pub per_event_realloc: bool,
    /// Solve one allocation variable per flow instead of one weighted
    /// variable per macro-flow class (identical link sequence and demand).
    pub per_flow_variables: bool,
    /// Walk the packet plane's OpenFlow pipeline for every packet instead
    /// of replaying cached per-flow decisions.
    pub uncached_pipeline: bool,
}

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
        assert_eq!(c.pkt_burst, 32, "packet bursts default on");
        assert_eq!(c.with_pkt_burst(0).pkt_burst, 1, "burst cap floors at 1");
    }

    /// The config as a serde map, for editing keys the way older writers
    /// laid them out.
    fn config_entries() -> Vec<(String, serde_json::Value)> {
        let j = serde_json::to_string(&SimConfig::default()).unwrap();
        match serde_json::from_str(&j).unwrap() {
            serde_json::Value::Map(entries) => entries,
            _ => panic!("config serializes to a map"),
        }
    }

    #[test]
    fn pkt_burst_defaults_when_absent() {
        // Configs written before the burst cap existed carry no key.
        let pruned: Vec<_> = config_entries()
            .into_iter()
            .filter(|(k, _)| k != "pkt_burst")
            .collect();
        let c: SimConfig = serde::Deserialize::from_value(&serde_json::Value::Map(pruned)).unwrap();
        assert_eq!(c.pkt_burst, 32);
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
