//! Differential oracle for the path-delta install: after a fault the
//! policy generator re-installs only the path-database cells that moved
//! (and a rejoined switch's whole row). The oracle is the controller it
//! replaced — every port-status and every rejoin a full compile for every
//! switch — kept here as test support only. Both must leave every switch
//! with the same tables and groups and every flow with the same fate, and
//! every outbox either sends after a topology change must pass
//! `validate_rules`: an entry's group travels with it, ahead of it.

use horse::controlplane::{validate_rules, ControllerCtx, Outbox, PolicyGenerator, Sink};
use horse::openflow::actions::{Action, Instruction};
use horse::openflow::messages::StatsReply;
use horse::prelude::*;
use horse::topology::builders::FabricHandles;
use horse::types::{FlowKey, NodeId, PortNo, TableId};
use std::cell::Cell;
use std::rc::Rc;

/// The policy generator, with every outbox it sends in reaction to a
/// topology change checked by `validate_rules` (and counted). With
/// `full`, the reaction is the retired one: recompile everything.
struct Reinstall {
    gen: PolicyGenerator,
    full: bool,
    checked: Rc<Cell<usize>>,
}

impl Reinstall {
    fn react(
        &mut self,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
        delta: impl FnOnce(&mut PolicyGenerator, &mut Outbox),
    ) {
        let before = out.msgs.len();
        if self.full {
            // `on_start` is the full compile; the adaptive balancer's
            // polling timer it arms is already running.
            let timers = out.timers.len();
            self.gen.on_start(ctx, out);
            out.timers.truncate(timers);
        } else {
            delta(&mut self.gen, out);
        }
        let report = validate_rules(&out.msgs[before..]);
        assert!(
            report.is_ok(),
            "reinstall outbox at {:?}: {report}",
            ctx.now
        );
        self.checked.set(self.checked.get() + 1);
    }
}

impl Controller for Reinstall {
    fn name(&self) -> &str {
        self.gen.name()
    }
    fn on_start(&mut self, ctx: &ControllerCtx<'_>, out: &mut dyn Sink) {
        self.gen.on_start(ctx, out);
    }
    fn on_flow_in(
        &mut self,
        switch: NodeId,
        in_port: PortNo,
        key: &FlowKey,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        self.gen.on_flow_in(switch, in_port, key, ctx, out);
    }
    fn on_port_status(
        &mut self,
        switch: NodeId,
        port: PortNo,
        up: bool,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        self.react(ctx, out, |g, out| {
            g.on_port_status(switch, port, up, ctx, out)
        });
    }
    fn on_switch_up(&mut self, switch: NodeId, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.react(ctx, out, |g, out| g.on_switch_up(switch, ctx, out));
    }
    fn on_stats(
        &mut self,
        switch: NodeId,
        reply: &StatsReply,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        self.gen.on_stats(switch, reply, ctx, out);
    }
    fn on_timer(&mut self, token: u64, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.gen.on_timer(token, ctx, out);
    }
}

fn fat_tree_k4() -> FabricHandles {
    generate(&GeneratorParams {
        kind: TopologyKind::FatTree,
        fat_tree_k: 4,
        ..Default::default()
    })
    .expect("fat-tree generates")
}

fn two_core_ixp() -> FabricHandles {
    builders::ixp_fabric(&IxpFabricParams {
        members: 8,
        edge_switches: 4,
        core_switches: 2,
        member_port_speeds: vec![Rate::gbps(10.0)],
        uplink_speed: Rate::gbps(10.0),
        ..Default::default()
    })
}

/// The first cable from `from` that lands on a switch / on a host.
fn cable(f: &FabricHandles, from: NodeId, to_switch: bool) -> LinkId {
    let t = &f.topology;
    t.out_links(from)
        .find(|(_, l)| t.node(l.dst).is_some_and(|n| n.kind.is_switch()) == to_switch)
        .map(|(id, _)| id)
        .expect("cable exists")
}

/// Long-lived and finite flows from the start, then a short probe flow
/// every 40 ms over rotating pairs, so admissions walk the tables of
/// every intermediate state of the chaos script below: flaps (alone,
/// overlapping, and of an access cable), a switch crash, and a second
/// crash whose whole down-up cycle falls inside a controller outage.
fn scenario(f: &FabricHandles, policy: PolicyRule, spikes: bool) -> Scenario {
    let n = f.members.len();
    let mut s = Scenario::bare(f.topology.clone(), SimTime::from_secs(3));
    s.members = f.members.clone();
    s.policy = PolicySpec::new().with(policy);
    let flow = |s: &mut Scenario, at_ms: u64, i: usize, j: usize, size: Option<ByteSize>| {
        let port = 2000 + s.explicit_flows.len() as u16;
        let spec = s
            .flow_between(
                f.members[i % n],
                f.members[j % n],
                AppClass::Https,
                port,
                size,
                DemandModel::Greedy,
            )
            .expect("member pair resolves");
        s.explicit_flows.push((SimTime::from_millis(at_ms), spec));
    };
    for i in 0..n {
        let size = (i % 3 == 0).then(|| ByteSize::mib(8 + 4 * i as u64));
        flow(&mut s, 10 + 7 * i as u64, i, i + n / 2 + i % 2, size);
    }
    for step in 0..70 {
        let i = step * 5 + 1;
        flow(
            &mut s,
            100 + 40 * step as u64,
            i,
            i + 3 + step % 4,
            Some(ByteSize::kib(256)),
        );
    }

    let (e0, e1) = (f.edges[0], f.edges[1]);
    let (up0, up1) = (cable(f, e0, true), cable(f, e1, true));
    let access = cable(f, f.members[2], true);
    let (crash_a, crash_b) = (f.cores[0], *f.cores.last().expect("fabric has cores"));
    let ms = SimTime::from_millis;
    s.late_events = vec![
        (ms(300), LateEvent::CableDown(up0)),
        (ms(400), LateEvent::CableUp(up0)),
        (ms(500), LateEvent::CableDown(up1)),
        (ms(550), LateEvent::CableDown(up0)),
        (ms(700), LateEvent::CableUp(up1)),
        (ms(800), LateEvent::CableUp(up0)),
        (ms(1000), LateEvent::SwitchDown(crash_a)),
        (ms(1300), LateEvent::SwitchUp(crash_a)),
        (ms(1600), LateEvent::CtrlDown),
        (ms(1700), LateEvent::SwitchDown(crash_b)),
        (ms(1850), LateEvent::SwitchUp(crash_b)),
        (ms(2000), LateEvent::CtrlUp),
        (ms(2200), LateEvent::CableDown(access)),
        (ms(2400), LateEvent::CableUp(access)),
    ];
    if spikes {
        s.chaos = Some(ChaosSpec {
            seed: 3,
            start_secs: 0.2,
            ctrl_latency_spikes: 3,
            ctrl_spike_secs: 0.4,
            ..Default::default()
        });
    }
    s
}

/// One switch's state: `(table, priority, match, instructions, cookie)`
/// per entry in table order, then, per entry in the same order, the
/// contents of each select group the entry points at (`None` for a group
/// the switch does not hold). Entry counters are deliberately absent: an
/// entry the delta does not re-send keeps its counters, one the oracle
/// overwrites starts from zero.
type SwitchState = (NodeId, Vec<String>, Vec<String>);

/// Everything the two controllers must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The state of every live switch half-way between each two steps of
    /// the script (so a cell that flaps back is seen while it is away),
    /// then of every switch at the horizon. A crashed switch is skipped
    /// while it is down: nothing can reach it, and the oracle pushes
    /// plumbing at it that the delta saves for the rejoin.
    tables: Vec<Vec<SwitchState>>,
    /// `(id, bytes, started, finished, completed)` per flow record.
    records: Vec<(u64, u64, u64, u64, bool)>,
    drops: usize,
    admitted: u64,
    completed: u64,
    active_at_end: u64,
    fct: [u64; 4],
    recovery: [u64; 3],
    chaos: ChaosCounters,
}

fn switch_states(sim: &Simulation, down: &[NodeId]) -> Vec<SwitchState> {
    let fluid = sim.fluid();
    let topo = fluid.topology();
    topo.switches()
        .filter(|sw| !down.contains(sw))
        .map(|sw| {
            let of = fluid.switch(sw).expect("switch exists");
            let entries = || {
                (0..of.table_count()).flat_map(|t| {
                    let table = of.table(TableId(t as u8)).expect("table exists");
                    table.entries().map(move |e| (t, e))
                })
            };
            let tables = entries()
                .map(|(t, e)| {
                    format!(
                        "{t} {} {:?} {:?} {:#x}",
                        e.priority, e.matcher, e.instructions, e.cookie
                    )
                })
                .collect();
            let groups = entries()
                .flat_map(|(_, e)| &e.instructions)
                .flat_map(|ins| match ins {
                    Instruction::ApplyActions(actions) => actions.as_slice(),
                    _ => &[],
                })
                .filter_map(|a| match a {
                    Action::Group(g) => Some(format!("{g}: {:?}", of.group(*g))),
                    _ => None,
                })
                .collect();
            (sw, tables, groups)
        })
        .collect()
}

/// Runs `scenario` under the delta install (or, with `full`, the
/// recompile-everything oracle); also returns how many reinstall outboxes
/// passed `validate_rules`.
fn run(scenario: Scenario, full: bool) -> (Outcome, SimResults, usize) {
    let gen =
        PolicyGenerator::new(scenario.policy.clone(), &scenario.topology).expect("valid policy");
    let checked = Rc::new(Cell::new(0));
    let controller = Box::new(Reinstall {
        gen,
        full,
        checked: checked.clone(),
    });
    let script = scenario.late_events.clone();
    let horizon = scenario.horizon;
    let mut sim =
        Simulation::with_controller(scenario, SimConfig::default(), controller).expect("builds");
    let mut tables = Vec::new();
    let mut down = Vec::new();
    for (i, &(at, ev)) in script.iter().enumerate() {
        match ev {
            LateEvent::SwitchDown(sw) => down.push(sw),
            LateEvent::SwitchUp(sw) => down.retain(|&d| d != sw),
            _ => {}
        }
        let next = script.get(i + 1).map_or(horizon, |&(t, _)| t);
        sim.run_until(SimTime::from_nanos((at.as_nanos() + next.as_nanos()) / 2));
        tables.push(switch_states(&sim, &down));
    }
    sim.run_until(horizon);
    let r = sim.finish();
    tables.push(switch_states(&sim, &[]));
    let fluid = sim.fluid();
    let outcome = Outcome {
        tables,
        records: fluid
            .records()
            .iter()
            .map(|rec| {
                (
                    rec.id.0,
                    rec.bytes.to_bits(),
                    rec.started.as_nanos(),
                    rec.finished.as_nanos(),
                    rec.completed,
                )
            })
            .collect(),
        drops: fluid.drops().len(),
        admitted: r.flows_admitted,
        completed: r.flows_completed,
        active_at_end: r.flows_active_at_end,
        fct: [r.fct.mean, r.fct.p50, r.fct.p99, r.fct.max].map(f64::to_bits),
        recovery: [r.recovery.mean, r.recovery.p99, r.recovery.max].map(f64::to_bits),
        chaos: r.chaos.clone(),
    };
    (outcome, r, checked.get())
}

fn policies() -> [PolicyRule; 3] {
    [
        PolicyRule::MacForwarding,
        PolicyRule::LoadBalancing { mode: LbMode::Ecmp },
        PolicyRule::LoadBalancing {
            mode: LbMode::Adaptive,
        },
    ]
}

#[test]
fn delta_install_matches_full_reinstall() {
    for (name, fabric) in [
        ("fat-tree k=4", fat_tree_k4()),
        ("2-core IXP", two_core_ixp()),
    ] {
        for policy in policies() {
            let label = format!("{name}, {policy:?}");
            let (delta, rd, _) = run(scenario(&fabric, policy.clone(), false), false);
            let (full, rf, _) = run(scenario(&fabric, policy, false), true);

            // the script did what it says, and the flows felt it
            assert_eq!(delta.chaos.switch_crashes, 2, "{label}");
            assert_eq!(delta.chaos.switch_rejoins, 2, "{label}");
            assert_eq!(delta.chaos.ctrl_outages, 1, "{label}");
            assert!(delta.chaos.ctrl_msgs_buffered > 0, "{label}");
            assert!(delta.chaos.flows_rerouted > 0, "{label}");
            assert!(delta.completed > 50, "{label}: probes complete");
            for (sw, entries, _) in delta.tables.last().expect("final state") {
                assert!(
                    entries.len() > fabric.members.len() / 2,
                    "{label}: {sw} ended the run (nearly) blank"
                );
            }

            assert_eq!(delta, full, "{label}");
            assert!(
                rd.msgs_to_switch * 3 < rf.msgs_to_switch,
                "{label}: delta sent {} messages, full reinstall {}",
                rd.msgs_to_switch,
                rf.msgs_to_switch
            );
        }
    }
}

/// Latency spikes can reorder in-flight control messages (a message sent
/// during a spike lands after one sent later at the base latency), and
/// the two controllers put different messages in flight, so their final
/// tables may legitimately differ. What must hold is determinism.
#[test]
fn delta_install_is_deterministic_under_latency_spikes() {
    let fabric = fat_tree_k4();
    for policy in policies() {
        let (a, ra, checked) = run(scenario(&fabric, policy.clone(), true), false);
        let (b, rb, _) = run(scenario(&fabric, policy.clone(), true), false);
        assert!(a.chaos.ctrl_latency_spikes > 0, "{policy:?}: spikes fired");
        // one outbox per port-status report and rejoin of the script
        assert!(checked >= 14, "{policy:?}: {checked} reinstall outboxes");
        assert_eq!(a, b, "{policy:?}");
        assert_eq!(ra.events, rb.events, "{policy:?}");
        assert_eq!(ra.msgs_to_switch, rb.msgs_to_switch, "{policy:?}");
    }
}
