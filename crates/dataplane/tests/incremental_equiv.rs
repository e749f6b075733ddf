//! Property: incremental discovery (re-solve the flows sharing links with
//! what changed) produces the same rates as the full oracle
//! ([`FluidNet::mark_all_dirty`] before every run) after **every** event
//! of a randomized admit/remove scenario — the invariant that makes the
//! oracle a pure performance comparison rather than a semantics change.
//!
//! Property: lazy byte integration conserves bytes. A flow's bytes are
//! integrated only when its rate changes, when it leaves the network, or
//! when every flow is synced for a reader — so after `sync_all(t)` at
//! any read point of a random schedule of admissions, completions,
//! teardowns, cable failures and reallocations:
//!
//! * every sized flow has `bytes_sent + bytes_remaining == size`;
//! * every link's `LinkStats::bytes` equals the bytes of the flows that
//!   crossed it, active and recorded (the test keeps each flow's links
//!   itself, so a missed or doubled interval shows up);
//! * every flow's bytes, active and recorded, equal the test's own
//!   integral of the piecewise-constant rates `reallocate` reported (so
//!   an interval integrated at the wrong rate shows up).

use horse_dataplane::{AdmitOutcome, DemandModel, FlowSpec, FluidConfig, FluidNet};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod};
use horse_openflow::table::FlowEntry;
use horse_topology::builders;
use horse_types::{ByteSize, FlowId, FlowKey, LinkId, MacAddr, NodeId, Rate, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

const MEMBERS: usize = 8;

fn star_net() -> (FluidNet, Vec<NodeId>) {
    let f = builders::star(MEMBERS, Rate::gbps(1.0));
    let mut net = FluidNet::new(f.topology, FluidConfig::default());
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
    (net, f.members)
}

fn mk_spec(
    topo: &horse_topology::Topology,
    members: &[NodeId],
    src: usize,
    dst: usize,
    sport: u16,
    demand: DemandModel,
    size: Option<ByteSize>,
) -> FlowSpec {
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
        size,
        fidelity: Default::default(),
    }
}

fn assert_states_agree(full: &FluidNet, inc: &FluidNet, step: usize) {
    assert_eq!(
        full.active_flow_count(),
        inc.active_flow_count(),
        "step {step}: active flow counts diverged"
    );
    for (a, b) in full.active_flows().zip(inc.active_flows()) {
        assert_eq!(a.id, b.id, "step {step}: flow sets diverged");
        let (ra, rb) = (a.rate.as_bps(), b.rate.as_bps());
        assert!(
            (ra - rb).abs() <= 1e-6 * rb.abs().max(1.0),
            "step {step}: flow {} rate {} (full) vs {} (incremental)",
            a.id,
            ra,
            rb
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn incremental_matches_full_after_every_event(seed in 1u64..u64::MAX) {
        let (mut full, members) = star_net();
        let (mut inc, _) = star_net();
        let topo = full.topology().clone();

        let mut x = seed | 1;
        let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let mut active: Vec<FlowId> = Vec::new();
        let mut sport = 1000u16;

        for step in 0..60usize {
            let t = SimTime::from_millis(step as u64);
            let admit = active.is_empty() || rnd() % 3 != 0;
            if admit {
                let src = (rnd() % MEMBERS as u64) as usize;
                let mut dst = (rnd() % MEMBERS as u64) as usize;
                if dst == src {
                    dst = (dst + 1) % MEMBERS;
                }
                let demand = if rnd() % 4 == 0 {
                    DemandModel::Cbr(Rate::mbps((50 + rnd() % 400) as f64))
                } else {
                    DemandModel::Greedy
                };
                let size = if rnd() % 3 == 0 { None } else { Some(ByteSize::mib(32)) };
                sport = sport.wrapping_add(1);
                let id_f = full.reserve_id();
                let id_i = inc.reserve_id();
                prop_assert_eq!(id_f, id_i, "id streams must stay aligned");
                let s = mk_spec(&topo, &members, src, dst, sport, demand, size);
                let of = full.try_admit(id_f, s.clone(), t);
                let oi = inc.try_admit(id_i, s, t);
                match (&of, &oi) {
                    (AdmitOutcome::Admitted, AdmitOutcome::Admitted) => active.push(id_f),
                    (AdmitOutcome::Dropped(_), AdmitOutcome::Dropped(_)) => {}
                    _ => prop_assert!(false, "step {}: admit outcomes diverged", step),
                }
            } else {
                let idx = (rnd() % active.len() as u64) as usize;
                let id = active.swap_remove(idx);
                let rf = full.remove_flow(id, t, true);
                let ri = inc.remove_flow(id, t, true);
                prop_assert_eq!(rf.is_some(), ri.is_some());
            }
            full.mark_all_dirty();
            full.reallocate(t);
            inc.reallocate(t);
            assert_states_agree(&full, &inc, step);
        }
        prop_assert!(full.realloc_flows_touched >= inc.realloc_flows_touched,
            "incremental must never touch more flows than full");
    }
}

/// The test's own integral of one flow's reported rates.
struct Integral {
    size: Option<f64>,
    rate: f64,
    since: SimTime,
    sent: f64,
    left: Option<f64>,
}

impl Integral {
    fn advance(&mut self, now: SimTime) {
        let mut moved = self.rate * now.saturating_since(self.since).as_secs_f64() / 8.0;
        if let Some(left) = self.left.as_mut() {
            moved = moved.min(*left);
            *left = (*left - moved).max(0.0);
        }
        self.sent += moved;
        self.since = now;
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// What the test remembers about every flow it admitted.
#[derive(Default)]
struct Ledger {
    /// Re-solve every flow on every run (the full oracle).
    full: bool,
    links: BTreeMap<FlowId, Vec<LinkId>>,
    integrals: BTreeMap<FlowId, Integral>,
    /// Pending completion instant of each sized flow with a rate.
    due: BTreeMap<FlowId, SimTime>,
}

impl Ledger {
    fn admit(&mut self, net: &mut FluidNet, spec: FlowSpec, now: SimTime) {
        let id = net.reserve_id();
        let size = spec.size.map(|s| s.as_bytes() as f64);
        if let AdmitOutcome::Admitted = net.try_admit(id, spec, now) {
            self.links
                .insert(id, net.flow(id).unwrap().route.links.clone());
            let integral = Integral {
                size,
                rate: 0.0,
                since: now,
                sent: 0.0,
                left: size,
            };
            self.integrals.insert(id, integral);
        }
    }

    /// A flow leaves the network at `now` (completion, teardown or
    /// detachment).
    fn leave(&mut self, id: FlowId, now: SimTime) {
        self.due.remove(&id);
        self.integrals.get_mut(&id).expect("admitted").advance(now);
    }

    fn reallocate(&mut self, net: &mut FluidNet, now: SimTime) {
        if self.full {
            net.mark_all_dirty();
        }
        for c in net.reallocate(now) {
            let integral = self.integrals.get_mut(&c.id).expect("admitted");
            integral.advance(now);
            integral.rate = c.rate.as_bps();
            match c.completes_in {
                Some(s) => self.due.insert(c.id, now + SimDuration::from_secs_f64(s)),
                None => self.due.remove(&c.id),
            };
        }
    }

    /// Completes every flow due by `until`, in time order.
    fn complete_until(&mut self, net: &mut FluidNet, until: SimTime) {
        while let Some((id, at)) = self
            .due
            .iter()
            .map(|(&id, &at)| (id, at))
            .filter(|&(_, at)| at <= until)
            .min_by_key(|&(id, at)| (at, id))
        {
            self.leave(id, at);
            net.remove_flow(id, at, true).expect("due flow is active");
            self.reallocate(net, at);
        }
    }

    fn check(&mut self, net: &FluidNet, t: SimTime) {
        for f in net.active_flows() {
            prop_assert_eq!(f.last_update, t, "flow {} not synced", f.id);
            let integral = self.integrals.get_mut(&f.id).expect("admitted");
            integral.advance(t);
            prop_assert!(
                close(f.bytes_sent, integral.sent),
                "t={:?} flow {}: {} bytes sent, its rates integrate to {}",
                t,
                f.id,
                f.bytes_sent,
                integral.sent
            );
            if let Some(size) = integral.size {
                let total = f.bytes_sent + f.bytes_remaining.expect("sized");
                prop_assert!(
                    close(total, size),
                    "t={:?} flow {}: sent + remaining = {} of {}",
                    t,
                    f.id,
                    total,
                    size
                );
            }
        }
        for r in net.records() {
            let sent = self.integrals[&r.id].sent;
            prop_assert!(
                close(r.bytes, sent),
                "record {}: {} bytes, its rates integrate to {}",
                r.id,
                r.bytes,
                sent
            );
        }
        let mut want = vec![0.0; net.link_stats().len()];
        let bytes = net
            .active_flows()
            .map(|f| (f.id, f.bytes_sent))
            .chain(net.records().iter().map(|r| (r.id, r.bytes)));
        for (id, b) in bytes {
            for l in &self.links[&id] {
                want[l.index()] += b;
            }
        }
        for (l, (s, w)) in net.link_stats().iter().zip(&want).enumerate() {
            prop_assert!(
                close(s.bytes, *w),
                "t={:?} link {}: {} bytes counted, flows crossed it with {}",
                t,
                l,
                s.bytes,
                w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn lazily_integrated_bytes_are_conserved(seed in 1u64..u64::MAX) {
        let mut x = seed | 1;
        let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let (mut net, members) = star_net();
        let topo = net.topology().clone();
        let access: Vec<LinkId> = members
            .iter()
            .map(|&m| topo.out_links(m).next().expect("access link").0)
            .collect();
        let mut down = [false; MEMBERS];
        let mut ledger = Ledger { full: rnd() % 2 == 0, ..Ledger::default() };
        let mut t = SimTime::ZERO;
        let mut sport = 1000u16;

        for _ in 0..80 {
            t += SimDuration::from_millis(1 + rnd() % 40);
            ledger.complete_until(&mut net, t);
            match rnd() % 10 {
                0..=4 => {
                    let src = (rnd() % MEMBERS as u64) as usize;
                    let dst = (src + 1 + (rnd() % (MEMBERS as u64 - 1)) as usize) % MEMBERS;
                    let demand = if rnd() % 3 == 0 {
                        DemandModel::Cbr(Rate::mbps((50 + rnd() % 400) as f64))
                    } else {
                        DemandModel::Greedy
                    };
                    let size = (rnd() % 4 != 0).then(|| ByteSize::bytes(100_000 + rnd() % 4_000_000));
                    sport = sport.wrapping_add(1);
                    let spec = mk_spec(&topo, &members, src, dst, sport, demand, size);
                    ledger.admit(&mut net, spec, t);
                }
                5 => {
                    let active: Vec<FlowId> = net.active_flows().map(|f| f.id).collect();
                    if !active.is_empty() {
                        let id = active[(rnd() % active.len() as u64) as usize];
                        ledger.leave(id, t);
                        net.remove_flow(id, t, false);
                    }
                }
                6 => {
                    let m = (rnd() % MEMBERS as u64) as usize;
                    if !down[m] {
                        down[m] = true;
                        let (specs, _, detached) = net.cable_down(access[m], t);
                        for id in detached {
                            ledger.leave(id, t);
                        }
                        // Re-admission of the remaining bytes: flows of a
                        // cut-off host drop, the others find their path.
                        for spec in specs {
                            ledger.admit(&mut net, spec, t);
                        }
                    }
                }
                7 => {
                    let m = (rnd() % MEMBERS as u64) as usize;
                    if down[m] {
                        down[m] = false;
                        net.cable_up(access[m], t);
                    }
                }
                _ => {
                    net.sync_all(t);
                    ledger.check(&net, t);
                }
            }
            ledger.reallocate(&mut net, t);
        }
        net.sync_all(t);
        ledger.check(&net, t);
    }
}
