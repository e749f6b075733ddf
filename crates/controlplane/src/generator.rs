//! The Policy Generator — the paper's "lightweight and modular controller
//! that translates high level policies into OpenFlow control messages".
//!
//! [`PolicyGenerator`] validates a [`PolicySpec`] against the topology,
//! instantiates one [`PolicyModule`] per rule, and implements
//! [`Controller`]:
//!
//! * `on_start` is the full compile: the pipeline plumbing (table-0
//!   fall-through, table-1 miss entry) and every module's proactive rules
//!   for every switch;
//! * `on_flow_in` dispatches to reactive modules (MAC learning);
//! * `on_port_status` rebuilds the path database from the changed
//!   topology, diffs it against the one it held, and installs the **path
//!   delta**: the two O(switches × hosts) modules (MAC forwarding, load
//!   balancing) re-emit only the `(switch, host)` cells whose next hop or
//!   ECMP set changed, the per-pair modules re-emit their handful of
//!   rules — failed links disappear from paths, so replacement rules
//!   route around them (the paper's "reaction of the controller to
//!   specific network events"), at a cost proportional to the fault;
//! * `on_switch_up` is the full compile *for the rejoined switch* (it
//!   comes back blank, plumbing included) plus the path delta for
//!   everyone else;
//! * `on_stats` / `on_timer` feed the adaptive load balancer.
//!
//! Entries whose cell did not change are not re-sent, so they keep their
//! counters, and a fault no longer bumps every switch's generation (which
//! would flush the packet plane's decision cache fabric-wide). The
//! generator keeps no copy of the rules it sent: the previous [`PathDb`]
//! is all the diff needs.

use crate::api::{Controller, ControllerCtx, Outbox};
use crate::modules::{
    AppPeeringModule, BlackholeModule, CompileCtx, LoadBalanceModule, MacForwardingModule,
    MacLearningModule, PolicyModule, RateLimitModule, SourceRoutingModule,
};
use crate::pathdb::PathDb;
use crate::spec::{PolicyRule, PolicySpec};
use crate::validate::{validate_spec, ValidationReport};
use crate::{cookies, priorities};
use horse_openflow::actions::{Action, Instruction};
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand};
use horse_openflow::table::FlowEntry;
use horse_openflow::MeterId;
use horse_topology::Topology;
use horse_types::{FlowKey, NodeId, PortNo, Rate, Snap, TableId};

/// See module docs.
pub struct PolicyGenerator {
    spec: PolicySpec,
    modules: Vec<Box<dyn PolicyModule>>,
    paths: PathDb,
    /// The validation outcome (always `is_ok()` for a constructed
    /// generator; kept for its warnings).
    pub report: ValidationReport,
    /// Whether a reactive module is present (drives the table-1 miss rule).
    reactive: bool,
    /// Flow-ins received.
    pub flow_ins: u64,
    /// Flow-ins no module handled.
    pub unhandled_flow_ins: u64,
    /// Messages emitted (all callbacks).
    pub msgs_emitted: u64,
    /// Path-database builds (the start compile, then one per port-status
    /// or switch-rejoin callback).
    pub pathdb_rebuilds: u64,
    /// `(switch, host)` cells those rebuilds found changed and
    /// re-installed (the start compile's cells are not counted).
    pub cells_dirty: u64,
}

impl PolicyGenerator {
    /// Validates the spec and builds the module stack. Returns the
    /// validation report on hard errors.
    pub fn new(spec: PolicySpec, topo: &Topology) -> Result<Self, ValidationReport> {
        let report = validate_spec(&spec, topo);
        if !report.is_ok() {
            return Err(report);
        }
        let mut modules: Vec<Box<dyn PolicyModule>> = Vec::new();
        let mut meter_seq = 0u32;
        let mut reactive = false;
        let host = |name: &str| topo.node_by_name(name).expect("validated");
        let mac = |name: &str| {
            topo.node(host(name))
                .and_then(|n| n.mac())
                .expect("validated host has MAC")
        };
        for (rule_idx, rule) in spec.policies.iter().enumerate() {
            let instance = rule_idx as u64 + 1;
            match rule {
                PolicyRule::MacForwarding => modules.push(Box::new(MacForwardingModule)),
                PolicyRule::MacLearning => {
                    reactive = true;
                    modules.push(Box::new(MacLearningModule::default()));
                }
                PolicyRule::LoadBalancing { mode } => {
                    modules.push(Box::new(LoadBalanceModule::new(*mode)))
                }
                PolicyRule::AppPeering {
                    src,
                    dst,
                    app,
                    path_rank,
                } => modules.push(Box::new(AppPeeringModule {
                    src: host(src),
                    dst: host(dst),
                    src_mac: mac(src),
                    dst_mac: mac(dst),
                    app: *app,
                    path_rank: *path_rank,
                    index: instance,
                })),
                PolicyRule::Blackhole { victim } => modules.push(Box::new(BlackholeModule {
                    victim: host(victim),
                    victim_mac: mac(victim),
                })),
                PolicyRule::SourceRouting { src, dst, via } => {
                    let waypoints: Vec<NodeId> = via
                        .iter()
                        .map(|w| topo.node_by_name(w).expect("validated waypoint"))
                        .collect();
                    modules.push(Box::new(SourceRoutingModule {
                        src: host(src),
                        dst: host(dst),
                        src_mac: mac(src),
                        dst_mac: mac(dst),
                        via: waypoints,
                        index: instance,
                    }))
                }
                PolicyRule::RateLimit {
                    src,
                    dst,
                    rate_mbps,
                } => {
                    meter_seq += 1;
                    modules.push(Box::new(RateLimitModule {
                        src: host(src),
                        dst: host(dst),
                        src_mac: mac(src),
                        dst_mac: mac(dst),
                        rate: Rate::mbps(*rate_mbps),
                        meter: MeterId(meter_seq),
                    }))
                }
            }
        }
        Ok(PolicyGenerator {
            spec,
            modules,
            // built by `on_start` against the topology the run starts
            // on, or unsnapped by `restore_state`
            paths: PathDb::default(),
            report,
            reactive,
            flow_ins: 0,
            unhandled_flow_ins: 0,
            msgs_emitted: 0,
            pathdb_rebuilds: 0,
            cells_dirty: 0,
        })
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &PolicySpec {
        &self.spec
    }

    /// Compiles all proactive rules (plumbing + modules) without running a
    /// simulation — used by tests and by [`validate_rules`] consumers.
    ///
    /// [`validate_rules`]: crate::validate::validate_rules
    pub fn compile(&mut self, topo: &Topology) -> Outbox {
        let mut out = Outbox::new();
        let ctx = ControllerCtx {
            topo,
            now: horse_types::SimTime::ZERO,
        };
        self.on_start(&ctx, &mut out);
        out
    }

    /// The pipeline plumbing of one switch (part of the full compile: a
    /// switch needs it once, at start or when it rejoins blank).
    fn install_plumbing(&self, sw: NodeId, out: &mut Outbox) {
        // table 0 fall-through: every flow continues into table 1
        out.send(
            sw,
            CtrlMsg::FlowMod(FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add,
                entry: FlowEntry::new(
                    priorities::FALLTHROUGH,
                    FlowMatch::ANY,
                    vec![Instruction::GotoTable(TableId(1))],
                )
                .with_cookie(cookies::PLUMBING),
            }),
        );
        // table 1 miss: reactive setups punt to the controller
        if self.reactive {
            out.send(
                sw,
                CtrlMsg::FlowMod(FlowMod {
                    table: TableId(1),
                    command: FlowModCommand::Add,
                    entry: FlowEntry::new(
                        0,
                        FlowMatch::ANY,
                        vec![Instruction::ApplyActions(vec![Action::Output(
                            PortNo::CONTROLLER,
                        )])],
                    )
                    .with_cookie(cookies::PLUMBING),
                }),
            );
        }
    }

    /// The scoped install after a topology change: rebuilds the path
    /// database against `ctx.topo`, diffs it against the one held (what
    /// the switches' rules were compiled from) and has every module
    /// re-emit for the cells that differ (see
    /// [`PolicyModule::reinstall`]).
    fn install_delta(&mut self, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        let new = PathDb::build(ctx.topo);
        let dirty = new.dirty_cells(&self.paths);
        let prev = std::mem::replace(&mut self.paths, new);
        self.pathdb_rebuilds += 1;
        self.cells_dirty += dirty.len() as u64;
        let cctx = CompileCtx {
            topo: ctx.topo,
            paths: &self.paths,
            now: ctx.now,
        };
        for m in self.modules.iter_mut() {
            m.reinstall(&cctx, &prev, &dirty, out);
        }
    }
}

impl Controller for PolicyGenerator {
    fn name(&self) -> &str {
        "policy_generator"
    }

    fn on_start(&mut self, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        self.paths = PathDb::build(ctx.topo);
        self.pathdb_rebuilds += 1;
        let before = out.msgs.len();
        for sw in ctx.topo.switches() {
            self.install_plumbing(sw, out);
        }
        let cctx = CompileCtx {
            topo: ctx.topo,
            paths: &self.paths,
            now: ctx.now,
        };
        for m in self.modules.iter_mut() {
            m.install(&cctx, out);
        }
        self.msgs_emitted += (out.msgs.len() - before) as u64;
    }

    fn on_flow_in(
        &mut self,
        switch: NodeId,
        in_port: PortNo,
        key: &FlowKey,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        self.flow_ins += 1;
        let before = out.msgs.len();
        let cctx = CompileCtx {
            topo: ctx.topo,
            paths: &self.paths,
            now: ctx.now,
        };
        let mut handled = false;
        for m in self.modules.iter_mut() {
            if m.on_flow_in(switch, in_port, key, &cctx, out) {
                handled = true;
                break;
            }
        }
        if !handled {
            self.unhandled_flow_ins += 1;
        }
        self.msgs_emitted += (out.msgs.len() - before) as u64;
    }

    fn on_port_status(
        &mut self,
        _switch: NodeId,
        _port: PortNo,
        _up: bool,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        // Topology in ctx already reflects the change; recompute paths and
        // install what moved so forwarding routes around the failure. The
        // second endpoint's report of the same cable finds nothing dirty.
        let before = out.msgs.len();
        self.install_delta(ctx, out);
        self.msgs_emitted += (out.msgs.len() - before) as u64;
    }

    fn on_stats(
        &mut self,
        switch: NodeId,
        reply: &horse_openflow::messages::StatsReply,
        ctx: &ControllerCtx<'_>,
        out: &mut Outbox,
    ) {
        let before = out.msgs.len();
        let cctx = CompileCtx {
            topo: ctx.topo,
            paths: &self.paths,
            now: ctx.now,
        };
        for m in self.modules.iter_mut() {
            m.on_stats(switch, reply, &cctx, out);
        }
        self.msgs_emitted += (out.msgs.len() - before) as u64;
    }

    fn on_switch_up(&mut self, switch: NodeId, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        // The rejoined switch is blank: forgetting its row makes the diff
        // re-install all of it (on top of its plumbing); everyone else
        // gets the path delta against the restored topology.
        let before = out.msgs.len();
        self.paths.forget_switch(switch);
        self.install_plumbing(switch, out);
        self.install_delta(ctx, out);
        self.msgs_emitted += (out.msgs.len() - before) as u64;
    }

    fn on_timer(&mut self, token: u64, ctx: &ControllerCtx<'_>, out: &mut Outbox) {
        let before = out.msgs.len();
        let cctx = CompileCtx {
            topo: ctx.topo,
            paths: &self.paths,
            now: ctx.now,
        };
        for m in self.modules.iter_mut() {
            if m.on_timer(token, &cctx, out) {
                break;
            }
        }
        self.msgs_emitted += (out.msgs.len() - before) as u64;
    }

    fn snapshot_state(&self, w: &mut horse_types::SnapWriter) {
        // The path DB is serialized, not rebuilt: it may legitimately be
        // stale relative to the topology while a port-status callback is
        // still in the control-channel latency window.
        self.paths.snap(w);
        self.flow_ins.snap(w);
        self.unhandled_flow_ins.snap(w);
        self.msgs_emitted.snap(w);
        self.pathdb_rebuilds.snap(w);
        self.cells_dirty.snap(w);
        w.len_prefix(self.modules.len());
        for m in &self.modules {
            m.snapshot_state(w);
        }
    }

    fn restore_state(
        &mut self,
        r: &mut horse_types::SnapReader,
    ) -> Result<(), horse_types::SnapError> {
        self.paths = horse_types::Snap::unsnap(r)?;
        self.flow_ins = horse_types::Snap::unsnap(r)?;
        self.unhandled_flow_ins = horse_types::Snap::unsnap(r)?;
        self.msgs_emitted = horse_types::Snap::unsnap(r)?;
        self.pathdb_rebuilds = horse_types::Snap::unsnap(r)?;
        self.cells_dirty = horse_types::Snap::unsnap(r)?;
        // Not `len_prefix`: stateless modules write nothing, so the count
        // may exceed the bytes left.
        let n = r.u64()?;
        if n != self.modules.len() as u64 {
            return Err(horse_types::SnapError::new(
                format!(
                    "snapshot has {n} policy modules, generator has {}",
                    self.modules.len()
                ),
                r.position(),
            ));
        }
        for m in self.modules.iter_mut() {
            m.restore_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LbMode;
    use crate::validate::validate_rules;
    use horse_topology::builders;

    fn fig1_fabric() -> horse_topology::builders::FabricHandles {
        builders::figure1_fabric()
    }

    #[test]
    fn rejects_invalid_spec() {
        let f = fig1_fabric();
        let bad = PolicySpec::new().with(PolicyRule::Blackhole {
            victim: "ghost".into(),
        });
        let err = PolicyGenerator::new(bad, &f.topology)
            .err()
            .expect("rejected");
        assert!(!err.is_ok());
    }

    #[test]
    fn figure1_compiles_conflict_free() {
        let f = fig1_fabric();
        let mut gen = PolicyGenerator::new(PolicySpec::figure1(), &f.topology).expect("valid spec");
        let out = gen.compile(&f.topology);
        assert!(!out.msgs.is_empty());
        let rep = validate_rules(&out.msgs);
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn reactive_spec_installs_table1_miss() {
        let f = fig1_fabric();
        let mut gen =
            PolicyGenerator::new(PolicySpec::new().with(PolicyRule::MacLearning), &f.topology)
                .unwrap();
        let out = gen.compile(&f.topology);
        // every switch gets fall-through + controller-miss
        let switches = f.topology.switches().count();
        let miss_rules = out
            .msgs
            .iter()
            .filter(|(_, m)| {
                matches!(m, CtrlMsg::FlowMod(fm) if fm.table == TableId(1) && fm.entry.priority == 0)
            })
            .count();
        assert_eq!(miss_rules, switches);
    }

    #[test]
    fn proactive_spec_has_no_controller_miss() {
        let f = fig1_fabric();
        let mut gen = PolicyGenerator::new(
            PolicySpec::new().with(PolicyRule::MacForwarding),
            &f.topology,
        )
        .unwrap();
        let out = gen.compile(&f.topology);
        let miss_rules = out
            .msgs
            .iter()
            .filter(|(_, m)| {
                matches!(m, CtrlMsg::FlowMod(fm) if fm.table == TableId(1) && fm.entry.priority == 0)
            })
            .count();
        assert_eq!(miss_rules, 0);
    }

    #[test]
    fn adaptive_lb_arms_timer_through_generator() {
        let f = fig1_fabric();
        let mut gen = PolicyGenerator::new(
            PolicySpec::new().with(PolicyRule::LoadBalancing {
                mode: LbMode::Adaptive,
            }),
            &f.topology,
        )
        .unwrap();
        let out = gen.compile(&f.topology);
        assert_eq!(out.timers.len(), 1);
        // firing the timer emits stats requests
        let ctx = ControllerCtx {
            topo: &f.topology,
            now: horse_types::SimTime::from_secs(5),
        };
        let mut out2 = Outbox::new();
        gen.on_timer(out.timers[0].1, &ctx, &mut out2);
        assert!(out2
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, CtrlMsg::StatsRequest(_))));
    }

    #[test]
    fn port_status_triggers_reinstall() {
        let f = fig1_fabric();
        let mut topo = f.topology.clone();
        let mut gen =
            PolicyGenerator::new(PolicySpec::new().with(PolicyRule::MacForwarding), &topo).unwrap();
        let _ = gen.compile(&topo);
        // fail an edge-core cable, then notify
        let e1 = topo.node_by_name("e1").unwrap();
        let cable = topo.out_links(e1).next().map(|(l, _)| l).unwrap();
        let port = topo.link(cable).unwrap().src_port;
        topo.set_cable_state(cable, horse_topology::LinkState::Down)
            .unwrap();
        let ctx = ControllerCtx {
            topo: &topo,
            now: horse_types::SimTime::from_secs(1),
        };
        let mut out = Outbox::new();
        gen.on_port_status(e1, port, false, &ctx, &mut out);
        assert!(
            !out.msgs.is_empty(),
            "reinstall must emit replacement rules"
        );
        // none of the re-installed rules on e1 may output on the dead port
        for (sw, msg) in &out.msgs {
            if *sw == e1 {
                if let CtrlMsg::FlowMod(fm) = msg {
                    for ins in &fm.entry.instructions {
                        if let Instruction::ApplyActions(actions) = ins {
                            for a in actions {
                                if let Action::Output(p) = a {
                                    assert_ne!(*p, port, "rule still uses dead port");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejoin_recompiles_the_blank_switch_only() {
        let f = fig1_fabric();
        let spec = PolicySpec::new().with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
        let mut gen = PolicyGenerator::new(spec, &f.topology).unwrap();
        let compiled = gen.compile(&f.topology);
        let e1 = f.topology.node_by_name("e1").unwrap();
        let ctx = ControllerCtx {
            topo: &f.topology,
            now: horse_types::SimTime::from_secs(1),
        };
        // Nothing moved while it was away: the rejoined switch gets
        // exactly its share of the start compile, nobody else anything.
        let mut out = Outbox::new();
        gen.on_switch_up(e1, &ctx, &mut out);
        let share: Vec<_> = compiled.msgs.iter().filter(|(sw, _)| *sw == e1).collect();
        assert!(share.len() > 1 && share.len() < compiled.msgs.len());
        assert_eq!(
            format!("{:?}", out.msgs.iter().collect::<Vec<_>>()),
            format!("{share:?}")
        );
        let row = gen.paths.hosts().len() as u64;
        assert_eq!((gen.pathdb_rebuilds, gen.cells_dirty), (2, row));
        assert_eq!(gen.msgs_emitted, (compiled.msgs.len() + share.len()) as u64);
        // A port-status that changes no path costs a rebuild and nothing
        // else.
        let mut out = Outbox::new();
        gen.on_port_status(e1, PortNo(1), true, &ctx, &mut out);
        assert!(out.is_empty());
        assert_eq!((gen.pathdb_rebuilds, gen.cells_dirty), (3, row));
    }

    #[test]
    fn unhandled_flow_ins_counted() {
        let f = fig1_fabric();
        let mut gen = PolicyGenerator::new(
            PolicySpec::new().with(PolicyRule::MacForwarding),
            &f.topology,
        )
        .unwrap();
        let ctx = ControllerCtx {
            topo: &f.topology,
            now: horse_types::SimTime::ZERO,
        };
        let mut out = Outbox::new();
        let key = horse_types::FlowKey::tcp(
            horse_types::MacAddr::local_from_id(1),
            horse_types::MacAddr::local_from_id(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.1.1".parse().unwrap(),
            1,
            80,
        );
        gen.on_flow_in(f.edges[0], PortNo(1), &key, &ctx, &mut out);
        assert_eq!(gen.flow_ins, 1);
        assert_eq!(gen.unhandled_flow_ins, 1, "no reactive module present");
    }
}
