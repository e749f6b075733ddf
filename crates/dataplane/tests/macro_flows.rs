//! End-to-end equivalence proofs for the million-flow machinery
//! (macro-flow aggregation, ARCHITECTURE.md §10): under randomized
//! arrival/departure/external-demand churn, the aggregating engine must
//! emit **bit-identical** rate changes (same flows, same order, same
//! `f64` bits) and leave bit-identical per-flow rates and external grants
//! behind.
//!
//! The per-flow engine is the oracle; nothing here tolerates an
//! epsilon.

use horse_dataplane::{AdmitOutcome, AllocMode, DemandModel, FlowSpec, FluidConfig, FluidNet};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod};
use horse_openflow::table::FlowEntry;
use horse_topology::builders;
use horse_types::{ByteSize, FlowId, FlowKey, LinkId, MacAddr, Rate, SimTime};
use proptest::prelude::*;

const MEMBERS: usize = 8;

/// Star fabric with per-MAC forwarding on the hub, under one engine variant.
fn star_net(macro_flows: bool) -> FluidNet {
    let f = builders::star(MEMBERS, Rate::gbps(1.0));
    let cfg = FluidConfig {
        alloc_mode: AllocMode::Incremental,
        macro_flows,
        ..FluidConfig::default()
    };
    let mut net = FluidNet::new(f.topology, cfg);
    let hub = f.edges[0];
    let topo = net.topology().clone();
    for (_, l) in topo.out_links(hub) {
        if let Some(host) = topo.node(l.dst).filter(|n| n.kind.is_host()) {
            net.apply_ctrl(
                hub,
                &CtrlMsg::FlowMod(FlowMod::add(FlowEntry::new(
                    100,
                    FlowMatch::ANY.with_eth_dst(host.mac().unwrap()),
                    vec![Instruction::output(l.src_port)],
                ))),
                SimTime::ZERO,
            );
        }
    }
    net
}

fn spec(net: &FluidNet, src: usize, dst: usize, sport: u16, demand: DemandModel) -> FlowSpec {
    let topo = net.topology();
    let members: Vec<_> = topo
        .nodes()
        .filter(|(_, n)| n.kind.is_host())
        .map(|(id, _)| id)
        .collect();
    FlowSpec {
        key: FlowKey::tcp(
            MacAddr::local_from_id(src as u32 + 1),
            MacAddr::local_from_id(dst as u32 + 1),
            topo.node(members[src]).unwrap().ip().unwrap(),
            topo.node(members[dst]).unwrap().ip().unwrap(),
            sport,
            80,
        ),
        src: members[src],
        dst: members[dst],
        demand,
        size: Some(ByteSize::mib(64)),
        fidelity: Default::default(),
    }
}

/// The observable allocator state: active (id, rate-bits) pairs plus the
/// grant for every directed link carrying external demand.
fn fingerprint(net: &FluidNet) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = net
        .active_flows()
        .map(|f| (f.id.0, f.rate.as_bps().to_bits()))
        .collect();
    v.sort_unstable();
    let n_links = net.topology().links().count();
    for l in 0..n_links {
        v.push((
            u64::MAX - l as u64,
            net.external_granted(LinkId(l as u32)).to_bits(),
        ));
    }
    v
}

/// One churn script replayed against every engine variant. Each step is
/// decoded from the same xorshift stream, so all nets see identical
/// admissions (same reserved ids), removals and external demands.
fn run_script(seed: u64, steps: usize) {
    let mut nets = [
        star_net(false), // oracle: per-flow
        star_net(true),
    ];
    let mut x = seed | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut live: Vec<FlowId> = Vec::new();
    let mut sport = 1u16;
    for step in 0..steps {
        let t = SimTime::from_millis(step as u64);
        let roll = rnd() % 10;
        if roll < 6 || live.is_empty() {
            // Admit a small wave between one pair: same link set and —
            // for greedy flows — same demand, so macro classes form.
            let src = (rnd() % MEMBERS as u64) as usize;
            let mut dst = (rnd() % MEMBERS as u64) as usize;
            if dst == src {
                dst = (dst + 1) % MEMBERS;
            }
            let demand = match rnd() % 3 {
                0 => DemandModel::Cbr(Rate::mbps(((rnd() % 4) + 1) as f64 * 50.0)),
                _ => DemandModel::Greedy,
            };
            let wave = (rnd() % 4) + 1;
            for _ in 0..wave {
                sport = sport.wrapping_add(1);
                let mut id = None;
                for net in nets.iter_mut() {
                    let fid = net.reserve_id();
                    assert!(id.is_none_or(|i| i == fid), "id streams diverged");
                    id = Some(fid);
                    let s = spec(net, src, dst, sport, demand);
                    assert!(matches!(net.try_admit(fid, s, t), AdmitOutcome::Admitted));
                }
                live.push(id.unwrap());
            }
        } else if roll < 9 {
            // Remove a random live flow.
            let id = live.swap_remove((rnd() % live.len() as u64) as usize);
            for net in nets.iter_mut() {
                net.remove_flow(id, t, true);
            }
        } else {
            // Perturb external demand on a random hub link (covers the
            // ext-grant indexing under aggregation).
            let n_links = nets[0].topology().links().count() as u64;
            let link = LinkId((rnd() % n_links) as u32);
            let bps = (rnd() % 5) as f64 * 100e6;
            for net in nets.iter_mut() {
                net.set_external_demand(link, bps);
            }
        }

        // Solve and compare the emitted rate changes bit-for-bit.
        let changes: Vec<Vec<(u64, u64, u64)>> = nets
            .iter_mut()
            .map(|net| {
                net.reallocate(t)
                    .iter()
                    .map(|rc| {
                        (
                            rc.id.0,
                            rc.rate.as_bps().to_bits(),
                            rc.completes_in.unwrap_or(-1.0).to_bits(),
                        )
                    })
                    .collect()
            })
            .collect();
        for (i, c) in changes.iter().enumerate().skip(1) {
            assert_eq!(
                c, &changes[0],
                "variant {i} diverged from the oracle at step {step} (seed {seed})"
            );
        }
        let base = fingerprint(&nets[0]);
        for (i, net) in nets.iter().enumerate().skip(1) {
            assert_eq!(
                fingerprint(net),
                base,
                "variant {i} state diverged at step {step} (seed {seed})"
            );
        }
    }

    // Aggregation really did its work on this script: the oracle solved
    // one variable per flow, the aggregating engine no more than that.
    // Both water-filled the same components.
    assert_eq!(nets[0].macro_flows, nets[0].realloc_flows_touched);
    assert!(nets[1].macro_flows <= nets[1].realloc_flows_touched);
    assert_eq!(nets[1].cold_solves, nets[0].cold_solves);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Per-flow vs aggregated: both engine variants stay bit-identical
    /// across randomized churn.
    #[test]
    fn all_variants_are_bit_identical(seed in 0u64..u64::MAX) {
        run_script(seed, 24);
    }
}

/// A fixed long script as a plain test, so the property is exercised even
/// under `cargo test` filters that skip proptests.
#[test]
fn fixed_long_script_is_bit_identical() {
    run_script(0xC0FFEE, 64);
}

/// The million-flow scaling contract as a counter: the cold solve
/// water-fills one weighted variable per path class, however many flows
/// each class holds — 8× the population, the same variable count. (The
/// wall-clock half is `dataplane.*_s` in `benchmark/`.)
#[test]
fn macro_variables_track_classes_not_flows() {
    let classes = (MEMBERS * (MEMBERS - 1)) as u64;
    for per_class in [4u16, 32] {
        let mut net = star_net(true);
        for src in 0..MEMBERS {
            for dst in (0..MEMBERS).filter(|&d| d != src) {
                for sport in 0..per_class {
                    let id = net.reserve_id();
                    let s = spec(&net, src, dst, sport, DemandModel::Greedy);
                    assert!(matches!(
                        net.try_admit(id, s, SimTime::ZERO),
                        AdmitOutcome::Admitted
                    ));
                }
            }
        }
        net.reallocate(SimTime::ZERO);
        assert_eq!(net.realloc_flows_touched, classes * u64::from(per_class));
        assert_eq!(net.macro_flows, classes, "{per_class} flows per class");
    }
}
