//! Acceptance tests for the observability layer: spans name every
//! controller input, the lab's trace export is valid Chrome-trace JSON,
//! and when two runs *do* diverge, `horse-trace`'s bisector names the
//! exact first diverging event. That tracing never perturbs a run and
//! that journals are deterministic run the `Traced` and `Resumed` points
//! of the differential lattice (`support::lattice`) on Figure 1.

mod support;

use horse::prelude::*;
use horse::tracing::{chrome_trace, describe_divergence, first_divergence, Divergence};
use support::lattice::{lattice_at, Case, Point};
use support::{entries, run_journaled};

/// The journal of a Figure-1 run, with one cable cut at `inject_down_at`.
fn journal(inject_down_at: Option<SimTime>) -> Vec<horse::tracing::JournalEntry> {
    let scenario = Scenario::figure1(SimTime::from_secs(5), 11);
    let mut sim = Simulation::new(scenario, SimConfig::default()).expect("valid scenario");
    if let Some(at) = inject_down_at {
        sim.schedule_cable_down(at, horse::types::LinkId(0));
    }
    entries(&run_journaled(sim).1)
}

/// The Figure-1 case (3 s, seed 11) the lattice tests below run.
fn figure1() -> Case {
    let scenario = Scenario::figure1(SimTime::from_secs(3), 11);
    Case::new("figure1", scenario, SimConfig::default())
}

/// The journal is part of the determinism contract: the `Resumed` run's
/// prefix and suffix journals must equal the independently traced run's
/// byte for byte.
#[test]
fn journals_are_byte_identical_run_to_run() {
    let l = lattice_at(&[Point::Resumed], figure1());
    assert!(l.base.flows_completed > 0, "scenario must exercise flows");
    l.assert_engaged("figure1", &[Point::Traced, Point::Resumed]);
}

/// Attaching the full tracer (metrics + spans + journal) must not change
/// any deterministic output.
#[test]
fn tracing_on_vs_off_yields_identical_results() {
    let l = lattice_at(&[Point::Traced], figure1());
    assert!(l.base.flows_completed > 0, "scenario must exercise flows");
    l.assert_engaged("figure1", &[Point::Traced]);
}

/// With spans on, every controller callback is one `controller.dispatch`
/// span carrying the number of messages it emitted — here the two
/// port-status reports of one cut uplink: the first installs the path
/// delta, the second finds nothing left to do.
#[test]
fn controller_dispatch_spans_name_every_controller_input() {
    let fabric = builders::ixp_fabric(&IxpFabricParams {
        members: 4,
        edge_switches: 2,
        core_switches: 2,
        ..Default::default()
    });
    let uplink = fabric
        .topology
        .out_links(fabric.edges[0])
        .find(|(_, l)| l.dst == fabric.cores[0])
        .map(|(id, _)| id)
        .expect("uplink exists");
    let mut s = Scenario::bare(fabric.topology.clone(), SimTime::from_secs(2));
    s.policy = PolicySpec::new().with(PolicyRule::MacForwarding);
    s.failures.push((SimTime::from_secs(1), uplink, false));
    let mut sim = Simulation::new(s, SimConfig::default()).unwrap();
    sim.set_tracer(SimTracer::new().with_spans());
    let r = sim.run();
    assert_eq!(r.msgs_to_controller, 2);
    let spans = sim.take_tracer().unwrap().take_spans().unwrap();
    let emitted: Vec<u64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == "controller.dispatch")
        .map(|s| s.args.iter().find(|(k, _)| *k == "msgs").unwrap().1)
        .collect();
    assert_eq!(emitted, [6, 0]);
}

/// Seeded fault injection: run B is run A plus one cable-down at
/// t = 2.5 s. The bisector must name that exact event as the first
/// divergence — the workflow CI applies when determinism breaks.
#[test]
fn diff_pinpoints_injected_fault_event() {
    let a = journal(None);
    let inject = SimTime::from_millis(2500);
    let b = journal(Some(inject));
    let div = first_divergence(&a, &b);
    let first_b = match &div {
        Divergence::Mismatch { a: ea, b: eb, .. } => {
            assert_ne!(
                (&ea.kind, ea.t_ns),
                (&eb.kind, eb.t_ns),
                "mismatch entries must actually differ"
            );
            eb.clone()
        }
        Divergence::Truncated {
            longer: 'b',
            next: e,
            ..
        } => e.clone(),
        other => panic!("expected a pinpointed divergence, got {other:?}"),
    };
    assert_eq!(first_b.kind, "cable_down", "bisector names the fault kind");
    assert_eq!(
        first_b.t_ns,
        inject.as_nanos(),
        "bisector names the fault time"
    );
    // Everything before the fault agreed.
    let idx = match div {
        Divergence::Mismatch { index, .. } => index,
        Divergence::Truncated { index, .. } => index,
        Divergence::Identical { .. } => unreachable!(),
    };
    assert!(a[..idx].iter().all(|e| e.t_ns < inject.as_nanos()));
    let text = describe_divergence(&div);
    assert!(
        text.contains("cable_down") && text.contains("2.500"),
        "human description pinpoints the event: {text}"
    );
}

/// `horse-lab run --trace` output must be loadable Chrome-trace JSON
/// with the epoch + allocator phase spans present.
#[test]
fn lab_trace_export_is_valid_chrome_trace_json() {
    let spec = SweepSpec::from_toml(
        r#"
        name = "tracecheck"
        [scenario]
        kind = "figure1"
        horizon_secs = 2.0
        "#,
    )
    .expect("spec parses");
    let plans = horse::lab::expand(&spec).expect("expands");
    let opts = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let (report, traces) =
        horse::lab::run_plans_opts(&spec.name, plans, 1, &opts, |_| {}).expect("runs");
    assert_eq!(traces.len(), report.runs.len(), "one span log per run");
    let processes: Vec<(u32, &str, &horse::tracing::SpanLog)> = traces
        .iter()
        .map(|t| (t.index as u32, t.label.as_str(), &t.spans))
        .collect();
    let json = chrome_trace(&processes);
    let doc = serde_json::parse_value(&json).expect("chrome trace is valid JSON");
    let events = doc["traceEvents"].as_seq().expect("traceEvents array");
    assert!(!events.is_empty());
    for name in [
        "epoch",
        "realloc.discovery",
        "realloc.build",
        "realloc.solve",
        "realloc.apply",
    ] {
        assert!(
            events.iter().any(|e| e["name"] == name),
            "span `{name}` missing from trace export"
        );
    }
    // Duration events carry microsecond timestamps and a pid per run.
    assert!(events
        .iter()
        .any(|e| e["ph"] == "X" && e["dur"].as_number().is_some()));
}
