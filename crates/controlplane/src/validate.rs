//! "Basic policy validation of policy composition" (paper, §2).
//!
//! Two layers:
//!
//! * [`validate_spec`] — spec-level checks before compilation: name
//!   resolution, duplicate policies, exactly one forwarding owner,
//!   blackhole shadowing warnings.
//! * [`validate_rules`] — rule-level checks after compilation: two rules
//!   on the same switch/table/priority with overlapping matches but
//!   different instructions are a hard conflict; a lower-priority rule
//!   fully subsumed by a higher-priority one with different instructions
//!   is reported as shadowed (warning); an entry that points at a group
//!   no earlier group-mod in the same list defines is a hard error (the
//!   switch would drop its traffic as a dead group).

use crate::spec::{PolicyRule, PolicySpec};
use horse_openflow::actions::{Action, Instruction};
use horse_openflow::messages::{CtrlMsg, FlowModCommand, GroupMod};
use horse_openflow::GroupId;
use horse_topology::Topology;
use horse_types::NodeId;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Outcome of validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Hard errors — the spec must not be deployed.
    pub errors: Vec<String>,
    /// Soft findings — deployable, but the operator should know.
    pub warnings: Vec<String>,
}

impl ValidationReport {
    /// True when no hard errors were found.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    fn warn(&mut self, msg: impl Into<String>) {
        self.warnings.push(msg.into());
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.errors {
            writeln!(f, "error: {e}")?;
        }
        for w in &self.warnings {
            writeln!(f, "warning: {w}")?;
        }
        Ok(())
    }
}

fn resolve_host(topo: &Topology, name: &str) -> Option<NodeId> {
    topo.node_by_name(name)
        .filter(|&id| topo.node(id).map(|n| n.kind.is_host()).unwrap_or(false))
}

/// Spec-level validation (see module docs).
pub fn validate_spec(spec: &PolicySpec, topo: &Topology) -> ValidationReport {
    let mut rep = ValidationReport::default();

    let mut forwarding_owners: Vec<&'static str> = Vec::new();
    let mut rate_pairs: HashSet<(String, String)> = HashSet::new();
    let mut peering_triples: HashSet<(String, String, String)> = HashSet::new();
    let mut blackholed: HashSet<String> = HashSet::new();

    let check_host = |rep: &mut ValidationReport, rule: &PolicyRule, name: &str| {
        if resolve_host(topo, name).is_none() {
            rep.error(format!(
                "{}: {:?} is not a host in the topology",
                rule.kind(),
                name
            ));
        }
    };

    for rule in &spec.policies {
        match rule {
            PolicyRule::MacForwarding => forwarding_owners.push("mac_forwarding"),
            PolicyRule::MacLearning => forwarding_owners.push("mac_learning"),
            PolicyRule::LoadBalancing { .. } => forwarding_owners.push("load_balancing"),
            PolicyRule::AppPeering { src, dst, app, .. } => {
                check_host(&mut rep, rule, src);
                check_host(&mut rep, rule, dst);
                if src == dst {
                    rep.error(format!("app_peering: src == dst ({src})"));
                }
                if !peering_triples.insert((src.clone(), dst.clone(), format!("{app}"))) {
                    rep.error(format!(
                        "app_peering: duplicate policy for ({src} -> {dst}, {app})"
                    ));
                }
            }
            PolicyRule::Blackhole { victim } => {
                check_host(&mut rep, rule, victim);
                blackholed.insert(victim.clone());
            }
            PolicyRule::SourceRouting { src, dst, via } => {
                check_host(&mut rep, rule, src);
                check_host(&mut rep, rule, dst);
                for w in via {
                    if topo.node_by_name(w).is_none() {
                        rep.error(format!("source_routing: unknown waypoint {w:?}"));
                    }
                }
            }
            PolicyRule::RateLimit {
                src,
                dst,
                rate_mbps,
            } => {
                check_host(&mut rep, rule, src);
                check_host(&mut rep, rule, dst);
                if *rate_mbps <= 0.0 {
                    rep.error(format!(
                        "rate_limit: non-positive rate {rate_mbps} for ({src} -> {dst})"
                    ));
                }
                if !rate_pairs.insert((src.clone(), dst.clone())) {
                    rep.error(format!("rate_limit: duplicate policy for ({src} -> {dst})"));
                }
            }
        }
    }

    if forwarding_owners.len() > 1 {
        rep.error(format!(
            "multiple forwarding owners: {} — pick one of mac_forwarding / mac_learning / load_balancing",
            forwarding_owners.join(", ")
        ));
    }
    if forwarding_owners.is_empty() {
        rep.warn("no forwarding policy: only explicitly routed traffic will flow");
    }

    // Shadowing: any policy whose destination is blackholed never sees
    // traffic (blackhole priority wins).
    for rule in &spec.policies {
        let dst = match rule {
            PolicyRule::AppPeering { dst, .. } => Some(dst),
            PolicyRule::SourceRouting { dst, .. } => Some(dst),
            PolicyRule::RateLimit { dst, .. } => Some(dst),
            _ => None,
        };
        if let Some(dst) = dst {
            if blackholed.contains(dst) {
                rep.warn(format!(
                    "{}: destination {dst} is blackholed — policy is shadowed",
                    rule.kind()
                ));
            }
        }
        // app-peering overrides source-routing for its application class
        if let PolicyRule::AppPeering { src, dst, app, .. } = rule {
            let sr = spec.policies.iter().any(|r| {
                matches!(r, PolicyRule::SourceRouting { src: s2, dst: d2, .. } if s2 == src && d2 == dst)
            });
            if sr {
                rep.warn(format!(
                    "app_peering({src}->{dst}, {app}) overrides source_routing for that class"
                ));
            }
        }
    }
    rep
}

/// Rule-level validation over compiled messages (see module docs).
pub fn validate_rules(msgs: &[(NodeId, CtrlMsg)]) -> ValidationReport {
    let mut rep = ValidationReport::default();
    // Group FlowMod Adds by (switch, table); check each one's groups
    // against the group-mods before it.
    let mut groups: HashMap<(NodeId, u8), Vec<&horse_openflow::table::FlowEntry>> = HashMap::new();
    let mut defined: HashSet<(NodeId, GroupId)> = HashSet::new();
    for (sw, msg) in msgs {
        match msg {
            CtrlMsg::GroupMod(GroupMod::Add(g)) => {
                defined.insert((*sw, g.id));
            }
            CtrlMsg::GroupMod(GroupMod::Delete(id)) => {
                defined.remove(&(*sw, *id));
            }
            CtrlMsg::FlowMod(fm) if fm.command == FlowModCommand::Add => {
                let named = fm.entry.instructions.iter().flat_map(|ins| match ins {
                    Instruction::ApplyActions(actions) => actions.as_slice(),
                    _ => &[],
                });
                for action in named {
                    if let Action::Group(g) = action {
                        if !defined.contains(&(*sw, *g)) {
                            rep.error(format!(
                                "dangling group on {sw} table {}: [{}] points at {g}, which no earlier group-mod defines",
                                fm.table.0, fm.entry.matcher
                            ));
                        }
                    }
                }
                groups.entry((*sw, fm.table.0)).or_default().push(&fm.entry);
            }
            _ => {}
        }
    }
    for ((sw, table), entries) in groups {
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                let (a, b) = (entries[i], entries[j]);
                if !a.matcher.overlaps(&b.matcher) {
                    continue;
                }
                if a.priority == b.priority
                    && a.instructions != b.instructions
                    && a.matcher != b.matcher
                {
                    rep.error(format!(
                        "conflict on {sw} table {table}: [{}] and [{}] overlap at priority {} with different actions",
                        a.matcher, b.matcher, a.priority
                    ));
                } else if a.priority != b.priority && a.instructions != b.instructions {
                    let (hi, lo) = if a.priority > b.priority {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    if lo.matcher.is_subset_of(&hi.matcher) {
                        rep.warn(format!(
                            "shadow on {sw} table {table}: [{}] (prio {}) is subsumed by [{}] (prio {})",
                            lo.matcher, lo.priority, hi.matcher, hi.priority
                        ));
                    }
                }
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PolicyGenerator;
    use crate::spec::LbMode;
    use horse_openflow::actions::Instruction;
    use horse_openflow::flow_match::FlowMatch;
    use horse_openflow::group::GroupEntry;
    use horse_openflow::messages::FlowMod;
    use horse_openflow::table::FlowEntry;
    use horse_topology::builders::{self, FabricHandles};
    use horse_topology::generators::{generate, GeneratorParams, TopologyKind};
    use horse_types::{AppClass, PortNo};

    fn fabric() -> Topology {
        builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        })
        .topology
    }

    #[test]
    fn figure1_spec_is_valid() {
        let rep = validate_spec(&PolicySpec::figure1(), &fabric());
        assert!(rep.is_ok(), "{rep}");
    }

    #[test]
    fn unknown_names_are_errors() {
        let spec = PolicySpec::new().with(PolicyRule::Blackhole {
            victim: "ghost".into(),
        });
        let rep = validate_spec(&spec, &fabric());
        assert!(!rep.is_ok());
        assert!(rep.errors[0].contains("ghost"));
    }

    #[test]
    fn switch_name_is_not_a_host() {
        let spec = PolicySpec::new().with(PolicyRule::RateLimit {
            src: "e1".into(), // a switch, not a member
            dst: "m1".into(),
            rate_mbps: 100.0,
        });
        let rep = validate_spec(&spec, &fabric());
        assert!(!rep.is_ok());
    }

    #[test]
    fn multiple_forwarding_owners_rejected() {
        let spec = PolicySpec::new()
            .with(PolicyRule::MacForwarding)
            .with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp });
        let rep = validate_spec(&spec, &fabric());
        assert!(!rep.is_ok());
        assert!(rep.errors[0].contains("forwarding owners"));
    }

    #[test]
    fn no_forwarding_owner_is_a_warning() {
        let spec = PolicySpec::new().with(PolicyRule::Blackhole {
            victim: "m1".into(),
        });
        let rep = validate_spec(&spec, &fabric());
        assert!(rep.is_ok());
        assert!(!rep.warnings.is_empty());
    }

    #[test]
    fn duplicate_rate_limit_rejected() {
        let spec = PolicySpec::new()
            .with(PolicyRule::MacForwarding)
            .with(PolicyRule::RateLimit {
                src: "m1".into(),
                dst: "m2".into(),
                rate_mbps: 100.0,
            })
            .with(PolicyRule::RateLimit {
                src: "m1".into(),
                dst: "m2".into(),
                rate_mbps: 200.0,
            });
        let rep = validate_spec(&spec, &fabric());
        assert!(!rep.is_ok());
    }

    #[test]
    fn negative_rate_rejected() {
        let spec = PolicySpec::new().with(PolicyRule::RateLimit {
            src: "m1".into(),
            dst: "m2".into(),
            rate_mbps: -5.0,
        });
        assert!(!validate_spec(&spec, &fabric()).is_ok());
    }

    #[test]
    fn blackholed_destination_warns() {
        let spec = PolicySpec::new()
            .with(PolicyRule::MacForwarding)
            .with(PolicyRule::Blackhole {
                victim: "m3".into(),
            })
            .with(PolicyRule::AppPeering {
                src: "m1".into(),
                dst: "m3".into(),
                app: AppClass::Http,
                path_rank: 0,
            });
        let rep = validate_spec(&spec, &fabric());
        assert!(rep.is_ok(), "shadowing is a warning, not an error");
        assert!(rep.warnings.iter().any(|w| w.contains("shadowed")));
    }

    #[test]
    fn app_peering_overriding_source_routing_warns() {
        let spec = PolicySpec::new()
            .with(PolicyRule::MacForwarding)
            .with(PolicyRule::SourceRouting {
                src: "m1".into(),
                dst: "m4".into(),
                via: vec!["c1".into()],
            })
            .with(PolicyRule::AppPeering {
                src: "m1".into(),
                dst: "m4".into(),
                app: AppClass::Http,
                path_rank: 0,
            });
        let rep = validate_spec(&spec, &fabric());
        assert!(rep.is_ok());
        assert!(rep.warnings.iter().any(|w| w.contains("overrides")));
    }

    #[test]
    fn rule_conflict_same_priority_detected() {
        let m1 = FlowMatch::ANY.with_tp_dst(80);
        let m2 = FlowMatch::ANY.with_ip_proto(horse_types::IpProtocol::Tcp);
        let msgs = vec![
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    m1,
                    vec![Instruction::output(PortNo(1))],
                ))),
            ),
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    m2,
                    vec![Instruction::output(PortNo(2))],
                ))),
            ),
        ];
        let rep = validate_rules(&msgs);
        assert!(!rep.is_ok());
        assert!(rep.errors[0].contains("conflict"));
    }

    #[test]
    fn rule_shadow_detected_as_warning() {
        let wide = FlowMatch::ANY.with_tp_dst(80);
        let narrow = wide.with_ip_proto(horse_types::IpProtocol::Tcp);
        let msgs = vec![
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    100,
                    wide,
                    vec![Instruction::drop()],
                ))),
            ),
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    narrow,
                    vec![Instruction::output(PortNo(2))],
                ))),
            ),
        ];
        let rep = validate_rules(&msgs);
        assert!(rep.is_ok());
        assert!(rep.warnings[0].contains("shadow"));
    }

    #[test]
    fn disjoint_rules_are_clean() {
        let msgs = vec![
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    FlowMatch::ANY.with_tp_dst(80),
                    vec![Instruction::output(PortNo(1))],
                ))),
            ),
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    FlowMatch::ANY.with_tp_dst(443),
                    vec![Instruction::output(PortNo(2))],
                ))),
            ),
        ];
        let rep = validate_rules(&msgs);
        assert!(rep.is_ok());
        assert!(rep.warnings.is_empty());
    }

    #[test]
    fn same_rule_on_different_switches_is_fine() {
        let m = FlowMatch::ANY.with_tp_dst(80);
        let msgs = vec![
            (
                NodeId(1),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    m,
                    vec![Instruction::output(PortNo(1))],
                ))),
            ),
            (
                NodeId(2),
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    m,
                    vec![Instruction::output(PortNo(2))],
                ))),
            ),
        ];
        assert!(validate_rules(&msgs).is_ok());
    }

    /// Every policy class the generator ships, on `f`: each forwarding
    /// owner alone, and a Fig. 1-shaped composition over its members.
    fn shipped_policies(f: &FabricHandles) -> Vec<PolicySpec> {
        let name = |n: NodeId| f.topology.node(n).expect("node exists").name.clone();
        let m = |i: usize| name(f.members[i]);
        let via = name(
            *f.cores
                .first()
                .or(f.edges.last())
                .expect("fabric has switches"),
        );
        let mut specs: Vec<PolicySpec> = [
            PolicyRule::MacForwarding,
            PolicyRule::MacLearning,
            PolicyRule::LoadBalancing { mode: LbMode::Ecmp },
            PolicyRule::LoadBalancing {
                mode: LbMode::Adaptive,
            },
        ]
        .into_iter()
        .map(|rule| PolicySpec::new().with(rule))
        .collect();
        specs.push(
            PolicySpec::new()
                .with(PolicyRule::LoadBalancing { mode: LbMode::Ecmp })
                .with(PolicyRule::AppPeering {
                    src: m(0),
                    dst: m(2),
                    app: AppClass::Http,
                    path_rank: 1,
                })
                .with(PolicyRule::SourceRouting {
                    src: m(0),
                    dst: m(3),
                    via: vec![via],
                })
                .with(PolicyRule::RateLimit {
                    src: m(1),
                    dst: m(3),
                    rate_mbps: 500.0,
                })
                .with(PolicyRule::Blackhole { victim: m(1) }),
        );
        specs
    }

    #[test]
    fn shipped_policies_compile_clean_on_every_fabric() {
        let ixp = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        });
        let fat_tree = generate(&GeneratorParams {
            kind: TopologyKind::FatTree,
            fat_tree_k: 4,
            ..Default::default()
        })
        .expect("fat-tree generates");
        let jellyfish = generate(&GeneratorParams {
            kind: TopologyKind::Jellyfish,
            switches: 12,
            degree: 4,
            hosts: 24,
            ..Default::default()
        })
        .expect("jellyfish generates");
        for (fabric, f) in [
            ("IXP", ixp),
            ("fat-tree", fat_tree),
            ("jellyfish", jellyfish),
        ] {
            let mut groups = 0;
            for spec in shipped_policies(&f) {
                let mut gen = PolicyGenerator::new(spec.clone(), &f.topology).expect("valid spec");
                let out = gen.compile(&f.topology);
                let rep = validate_rules(&out.msgs);
                assert!(rep.is_ok(), "{fabric}, {spec:?}: {rep}");
                groups += out
                    .msgs
                    .iter()
                    .filter(|(_, msg)| matches!(msg, CtrlMsg::GroupMod(_)))
                    .count();
            }
            assert!(groups > 0, "{fabric}: no policy used a group");
        }
    }

    #[test]
    fn entry_naming_an_undefined_group_is_an_error() {
        let sw = NodeId(1);
        let group = || {
            (
                sw,
                CtrlMsg::GroupMod(GroupMod::Add(GroupEntry::ecmp(
                    GroupId(7),
                    &[PortNo(1), PortNo(2)],
                ))),
            )
        };
        let entry = |on: NodeId| {
            (
                on,
                CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    10,
                    FlowMatch::ANY.with_tp_dst(80),
                    vec![Instruction::group(GroupId(7))],
                ))),
            )
        };
        assert!(validate_rules(&[group(), entry(sw)]).is_ok());
        // after the entry, on another switch, deleted before it, or absent
        for msgs in [
            vec![entry(sw), group()],
            vec![group(), entry(NodeId(2))],
            vec![
                group(),
                (sw, CtrlMsg::GroupMod(GroupMod::Delete(GroupId(7)))),
                entry(sw),
            ],
            vec![entry(sw)],
        ] {
            let rep = validate_rules(&msgs);
            assert_eq!(rep.errors.len(), 1, "{msgs:?}");
            assert!(rep.errors[0].contains("dangling group"), "{rep}");
        }
    }
}
