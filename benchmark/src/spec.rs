//! The metric tables: every name, unit, direction and bound the benchmark
//! reports. `BENCHMARK.json` mirrors these (a test checks the two agree);
//! later PRs refer to metrics and workloads by the names fixed here.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (ratios of useful work).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The three end-to-end metrics, all host time or host memory.
///
/// The two time bounds sit at the contract's 25% ceiling, not at the 15%
/// and 10% first proposed: ten 20-second runs of one commit on the
/// reference host (a shared 2-vCPU microVM whose speed drifts by tens of
/// percent for a minute at a time) spread 4-19% on `run_s`, and a bound has
/// to stay clear of the metric's own spread to mean anything.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric (layer = crate). No bound: these explain the
/// end-to-end numbers, they do not gate.
pub struct Layer {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A deterministic count: identical between two runs of one commit on
    /// one seed, so `compare` can demand equality.
    pub counter: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        counter: false,
    }
}

const fn count(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: Better::Lower,
        counter: true,
    }
}

const fn ratio(name: &'static str, better: Better, counter: bool) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better,
        counter,
    }
}

/// The six journal kinds the event census names, with their metrics;
/// everything else lands in `core.events.other`. Fixed (not "the six
/// commonest of this run") because `BENCHMARK.json` needs one name list
/// for all workloads.
pub const CENSUS: [(&str, &str); 6] = [
    ("flow_arrival", "core.events.flow_arrival"),
    ("completion", "core.events.completion"),
    ("to_switch", "core.events.to_switch"),
    ("to_controller", "core.events.to_controller"),
    ("admit_retry", "core.events.admit_retry"),
    ("pkt", "core.events.pkt"),
];

/// Every per-layer metric, grouped by crate.
pub const LAYERS: [Layer; 69] = [
    // topology
    time("topology.build_s", "s"),
    time("topology.sssp_ns_per_tree", "ns"),
    // controlplane
    time("controlplane.pathdb_build_s", "s"),
    time("controlplane.compile_s", "s"),
    count("controlplane.compile_msgs"),
    time("controlplane.port_status_s", "s"),
    count("controlplane.port_status_msgs"),
    count("controlplane.msgs_to_switch"),
    ratio("controlplane.msgs_per_input", Better::Lower, true),
    time("controlplane.flow_in_ns_per_call", "ns"),
    // openflow
    time("openflow.apply_ns_per_msg", "ns"),
    count("openflow.table_entries"),
    time("openflow.process_ns_per_lookup", "ns"),
    // events
    time("events.hold_ns_per_op.1k", "ns"),
    time("events.hold_ns_per_op.1m", "ns"),
    time("events.cancel_ns_per_op", "ns"),
    count("events.scheduled"),
    count("events.cancelled"),
    count("events.skipped"),
    count("events.compactions"),
    // dataplane
    time("dataplane.discovery_s", "s"),
    time("dataplane.build_s", "s"),
    time("dataplane.solve_s", "s"),
    time("dataplane.apply_s", "s"),
    count("dataplane.realloc_runs"),
    ratio("dataplane.flows_touched_per_run", Better::Lower, true),
    ratio("dataplane.macro_ratio", Better::Lower, true),
    ratio("dataplane.warm_hit_ratio", Better::Higher, true),
    ratio("dataplane.stale_completion_ratio", Better::Lower, true),
    time("dataplane.admit_ns_per_flow", "ns"),
    time("dataplane.remove_ns_per_flow", "ns"),
    time("dataplane.churn_ns_per_realloc", "ns"),
    ratio("dataplane.thread_speedup", Better::Higher, false),
    // packetsim
    time("packetsim.standalone_ns_per_pkt", "ns"),
    count("packetsim.tx_packets"),
    ratio("packetsim.burst_len_mean", Better::Higher, true),
    ratio("packetsim.cache_hit_ratio", Better::Higher, true),
    count("packetsim.drops"),
    // core
    time("core.new_s", "s"),
    time("core.start_s", "s"),
    time("core.epoch_s", "s"),
    time("core.handler_self_s", "s"),
    time("core.finish_s", "s"),
    count("core.events"),
    count("core.epochs"),
    ratio("core.epoch_batch_mean", Better::Higher, true),
    count("core.epoch_batch_max"),
    count("core.events.flow_arrival"),
    count("core.events.completion"),
    count("core.events.to_switch"),
    count("core.events.to_controller"),
    count("core.events.admit_retry"),
    count("core.events.pkt"),
    count("core.events.other"),
    // workloads
    time("workloads.gen_ns_per_flow", "ns"),
    // types / lab
    time("types.snap_encode_s", "s"),
    time("types.snap_decode_s", "s"),
    Layer {
        name: "types.snap_bytes",
        unit: "B",
        better: Better::Lower,
        counter: true,
    },
    time("lab.expand_s", "s"),
    Layer {
        name: "lab.prefix_events_saved",
        unit: "count",
        better: Better::Higher,
        counter: true,
    },
    ratio("lab.fork_speedup", Better::Higher, false),
    // trace
    ratio("trace.overhead_frac", Better::Lower, false),
    time("trace.journal_ns_per_event", "ns"),
    // the untraced reference run and the traced run, so every share in
    // the layer pass has its base next to it
    time("trace.untraced_run_s", "s"),
    time("trace.traced_run_s", "s"),
    time("trace.traced_setup_s", "s"),
    // harness-side spans that are not a crate's own
    time("harness.scenario_build_s", "s"),
    time("harness.probes_s", "s"),
    time("harness.layer_pass_s", "s"),
];

/// Looks a layer metric up by name.
#[cfg(test)]
pub fn layer(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|l| l.name == name)
}
