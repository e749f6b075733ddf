//! Acceptance tests for the observability layer (PR 6): event journals
//! must be bit-identical wherever the determinism contract promises it,
//! tracing must never perturb deterministic results, and when two runs
//! *do* diverge, `horse-trace`'s bisector must name the exact first
//! diverging event.

use horse::prelude::*;
use horse::tracing::journal::SharedBuf;
use horse::tracing::{chrome_trace, describe_divergence, first_divergence, Divergence};
use horse::tracing::{parse_journal, JournalEntry};

/// Runs a scenario with a journaling tracer; returns the results, the
/// journal entries, and the raw journal text.
fn journaled_run(
    scenario: Scenario,
    config: SimConfig,
    inject_down_at: Option<SimTime>,
) -> (SimResults, Vec<JournalEntry>, String) {
    let buf = SharedBuf::new();
    let mut sim = Simulation::new(scenario, config).expect("valid scenario");
    if let Some(at) = inject_down_at {
        sim.schedule_cable_down(at, horse::types::LinkId(0));
    }
    sim.set_tracer(SimTracer::new().with_journal(buf.clone()));
    let r = sim.run();
    let mut tracer = sim.take_tracer().expect("tracer attached");
    tracer.finish_journal();
    let text = buf.contents();
    let entries = parse_journal(&text).expect("journal parses");
    (r, entries, text)
}

/// The journal is part of the determinism contract: same scenario +
/// same seed must journal byte-for-byte identically on every run.
#[test]
fn journals_are_byte_identical_run_to_run() {
    let scenario = || Scenario::figure1(SimTime::from_secs(3), 11);
    let (r1, e1, t1) = journaled_run(scenario(), SimConfig::default(), None);
    let (_, e2, t2) = journaled_run(scenario(), SimConfig::default(), None);
    assert!(r1.flows_completed > 0, "scenario must exercise flows");
    assert!(!e1.is_empty(), "journal captured events");
    assert_eq!(t1, t2, "journal text differs between identical runs");
    assert!(matches!(
        first_divergence(&e1, &e2),
        Divergence::Identical { .. }
    ));
}

/// Attaching the full tracer (metrics + spans + journal) must not change
/// any deterministic output.
#[test]
fn tracing_on_vs_off_yields_identical_results() {
    let scenario = || Scenario::figure1(SimTime::from_secs(3), 11);
    let untraced = {
        let mut sim = Simulation::new(scenario(), SimConfig::default()).unwrap();
        sim.run()
    };
    let traced = {
        let mut sim = Simulation::new(scenario(), SimConfig::default()).unwrap();
        sim.set_tracer(SimTracer::new().with_spans().with_journal(std::io::sink()));
        sim.run()
    };
    assert_eq!(untraced.events, traced.events);
    assert_eq!(untraced.epochs, traced.epochs);
    assert_eq!(untraced.flows_admitted, traced.flows_admitted);
    assert_eq!(untraced.flows_completed, traced.flows_completed);
    assert_eq!(untraced.realloc_runs, traced.realloc_runs);
    assert_eq!(
        untraced.bytes_delivered.to_bits(),
        traced.bytes_delivered.to_bits()
    );
    assert_eq!(untraced.fct.p50.to_bits(), traced.fct.p50.to_bits());
    assert_eq!(untraced.fct.p99.to_bits(), traced.fct.p99.to_bits());
    assert_eq!(
        untraced.goodput.mean.to_bits(),
        traced.goodput.mean.to_bits()
    );
    // The traced run additionally carries a populated metrics snapshot.
    assert!(
        traced
            .metrics
            .entries()
            .iter()
            .any(|(k, v)| k == "sim.events" && *v == traced.events as f64),
        "metrics snapshot records the event count"
    );
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
    let scenario = || Scenario::figure1(SimTime::from_secs(5), 11);
    let (_, a, _) = journaled_run(scenario(), SimConfig::default(), None);
    let inject = SimTime::from_millis(2500);
    let (_, b, _) = journaled_run(scenario(), SimConfig::default(), Some(inject));
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
