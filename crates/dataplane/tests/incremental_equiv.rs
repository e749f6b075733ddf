//! Property: the resident components (re-solve the component of every
//! dirty link, kept between runs, with macro-flows aggregating flows that
//! share links and demand) produce bit-identical rate changes, rates and
//! external grants to two references after **every** event of a
//! randomized schedule of admission waves, controller-retry admissions,
//! removals, gray changes, cable failures and repairs and external
//! demand:
//!
//! * the rebuild oracle, [`FluidNet::mark_all_dirty`] before every run,
//!   which discards every component and admits every flow again;
//! * the per-flow oracle, [`FluidNet::set_per_flow_variables`], which
//!   solves one allocation variable per flow instead of one weighted
//!   variable per macro class.
//!
//! Nothing here tolerates an epsilon: that is what makes both oracles
//! pure performance comparisons rather than semantics changes.
//!
//! Both oracles share the engine's component machinery, so after every
//! event the test also checks the plane against a reference of its own
//! that shares none of it: a union-find over the active flows' routes
//! finds the link-sharing components, and each is solved with the public
//! [`max_min_allocate_csr`], one variable per flow. Every rate must lie
//! within the apply pass's no-change threshold (1e-6 bps) of its
//! reference rate, and every external grant must equal the reference's.
//! Every cable failure must detach exactly the flows that cross it.
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

use horse_dataplane::{
    max_min_allocate_csr, ActiveFlow, AdmitOutcome, DemandModel, FlowSpec, FluidConfig, FluidNet,
    MaxMinScratch,
};
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

/// Every active flow's id and rate bits, in admission order.
fn rate_bits(net: &FluidNet) -> Vec<(FlowId, u64)> {
    net.active_flows()
        .map(|f| (f.id, f.rate.as_bps().to_bits()))
        .collect()
}

/// One reallocation's rate changes as bits.
fn change_bits(net: &mut FluidNet, t: SimTime) -> Vec<(FlowId, u64, u64)> {
    net.reallocate(t)
        .iter()
        .map(|c| {
            (
                c.id,
                c.rate.as_bps().to_bits(),
                c.completes_in.unwrap_or(-1.0).to_bits(),
            )
        })
        .collect()
}

/// The plane under test and its references, in that order.
const REFERENCES: [&str; 3] = ["resident", "rebuild", "per-flow"];

/// Allocatable capacity of a link: nominal times its gray factor while
/// up, 0 while down.
fn capacity(net: &FluidNet, l: LinkId) -> f64 {
    let link = net.topology().link(l).expect("link exists");
    if link.is_up() {
        link.capacity.as_bps() * net.gray_factor(l)
    } else {
        0.0
    }
}

/// Checks `net` against the independent reference (module docs): its own
/// union-find over the active flows' routes, one
/// [`max_min_allocate_csr`] problem per component with one variable per
/// flow and one virtual single-link variable per component link that
/// carries external demand.
fn matches_independent_reference(net: &FluidNet, ctx: &str) {
    let nl = net.topology().link_count();
    let mut parent: Vec<usize> = (0..nl).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for f in net.active_flows() {
        let first = f.route.links[0].index();
        for l in &f.route.links[1..] {
            let (a, b) = (find(&mut parent, first), find(&mut parent, l.index()));
            parent[a] = b;
        }
    }
    let mut comps: BTreeMap<usize, Vec<&ActiveFlow>> = BTreeMap::new();
    for f in net.active_flows() {
        let root = find(&mut parent, f.route.links[0].index());
        comps.entry(root).or_default().push(f);
    }
    let mut scratch = MaxMinScratch::default();
    for flows in comps.values() {
        let mut local: BTreeMap<LinkId, u32> = BTreeMap::new();
        let mut raw: Vec<LinkId> = Vec::new();
        let (mut demands, mut offsets, mut links) = (Vec::new(), vec![0u32], Vec::new());
        for f in flows {
            for &l in &f.route.links {
                links.push(*local.entry(l).or_insert_with(|| {
                    raw.push(l);
                    raw.len() as u32 - 1
                }));
            }
            offsets.push(links.len() as u32);
            demands.push(f.effective_demand());
        }
        let caps: Vec<f64> = raw.iter().map(|&l| capacity(net, l)).collect();
        let external: Vec<LinkId> = raw
            .iter()
            .copied()
            .filter(|&l| net.external_demand(l) > 0.0)
            .collect();
        for &l in &external {
            links.push(local[&l]);
            offsets.push(links.len() as u32);
            demands.push(net.external_demand(l));
        }
        let mut rates = vec![0.0; demands.len()];
        max_min_allocate_csr(&demands, &offsets, &links, &caps, &mut rates, &mut scratch);
        for (f, want) in flows.iter().zip(&rates) {
            let got = f.rate.as_bps();
            assert!(
                (got - want).abs() <= 1e-6,
                "{ctx}: flow {} runs at {got} bps, the reference solve gives {want}",
                f.id
            );
        }
        for (&l, want) in external.iter().zip(&rates[flows.len()..]) {
            assert_eq!(
                net.external_granted(l).to_bits(),
                want.to_bits(),
                "{ctx}: grant on {l} is {}, the reference solve gives {want}",
                net.external_granted(l)
            );
        }
    }
}

/// Replays one random schedule on the resident plane and on both
/// references and asserts, after every event, bit-identical rate
/// changes, rates and external grants. Events: admission waves between
/// one pair (same links and demand, so macro classes form); controller-
/// retry admissions, whose id was reserved before younger live flows';
/// completions and teardowns; gray changes; access cable failures and
/// repairs, with the victims re-admitted under their old ids; and
/// external (packet-plane) demand. Returns the resident plane.
fn matches_references(seed: u64, steps: usize) -> FluidNet {
    let (resident, members) = star_net();
    let mut nets = [resident, star_net().0, star_net().0];
    nets[2].set_per_flow_variables(true);
    let topo = nets[0].topology().clone();
    let access: Vec<LinkId> = members
        .iter()
        .map(|&m| topo.out_links(m).next().expect("access link").0)
        .collect();
    let mut x = seed | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut active: Vec<FlowId> = Vec::new();
    let mut parked: Vec<(FlowId, FlowSpec)> = Vec::new();
    let mut down = [false; MEMBERS];
    let mut sport = 1000u16;
    for step in 0..steps {
        let t = SimTime::from_millis(step as u64);
        let admit = |nets: &mut [FluidNet; 3], active: &mut Vec<FlowId>, id, s: FlowSpec| {
            let outcomes = nets.each_mut().map(|net| net.try_admit(id, s.clone(), t));
            match outcomes {
                [AdmitOutcome::Admitted, AdmitOutcome::Admitted, AdmitOutcome::Admitted] => {
                    active.push(id)
                }
                [AdmitOutcome::Dropped(_), AdmitOutcome::Dropped(_), AdmitOutcome::Dropped(_)] => {}
                _ => panic!("step {step}: admit outcomes diverged"),
            }
        };
        match rnd() % 12 {
            0..=5 => {
                let src = (rnd() % MEMBERS as u64) as usize;
                let dst = (src + 1 + (rnd() % (MEMBERS as u64 - 1)) as usize) % MEMBERS;
                let demand = if rnd() % 4 == 0 {
                    DemandModel::Cbr(Rate::mbps((50 + rnd() % 400) as f64))
                } else {
                    DemandModel::Greedy
                };
                let size = if rnd() % 3 == 0 {
                    None
                } else {
                    Some(ByteSize::mib(32))
                };
                for _ in 0..1 + rnd() % 4 {
                    sport = sport.wrapping_add(1);
                    let [id, ids @ ..] = nets.each_mut().map(|net| net.reserve_id());
                    assert_eq!(ids, [id; 2], "id streams must stay aligned");
                    let s = mk_spec(&topo, &members, src, dst, sport, demand, size);
                    if rnd() % 5 == 0 {
                        // A controller round trip: admitted some steps later.
                        parked.push((id, s));
                    } else {
                        admit(&mut nets, &mut active, id, s);
                    }
                }
            }
            6 if !parked.is_empty() => {
                let (id, s) = parked.swap_remove((rnd() % parked.len() as u64) as usize);
                admit(&mut nets, &mut active, id, s);
            }
            6 | 7 if !active.is_empty() => {
                let id = active.swap_remove((rnd() % active.len() as u64) as usize);
                let completed = rnd() % 2 == 0;
                for net in &mut nets {
                    assert!(net.remove_flow(id, t, completed).is_some());
                }
            }
            8 => {
                let l = access[(rnd() % MEMBERS as u64) as usize];
                let factor = [1.0, 0.5, 0.25, 0.1][(rnd() % 4) as usize];
                for net in &mut nets {
                    net.set_gray(l, factor);
                }
            }
            9 => {
                let m = (rnd() % MEMBERS as u64) as usize;
                down[m] = !down[m];
                if !down[m] {
                    for net in &mut nets {
                        net.cable_up(access[m], t);
                    }
                } else {
                    let cable = [access[m], topo.reverse_of(access[m]).expect("duplex")];
                    let mut crossing: Vec<FlowId> = nets[0]
                        .active_flows()
                        .filter(|f| f.route.links.iter().any(|l| cable.contains(l)))
                        .map(|f| f.id)
                        .collect();
                    crossing.sort_unstable();
                    let [(specs, _, ids), rest @ ..] =
                        nets.each_mut().map(|net| net.cable_down(access[m], t));
                    assert_eq!(
                        ids, crossing,
                        "step {step}: detached flows are not the cable's"
                    );
                    for (_, _, other) in rest {
                        assert_eq!(other, ids, "step {step}: detached sets diverged");
                    }
                    active.retain(|id| !ids.contains(id));
                    // Re-admitted under their old ids: flows of the cut-off
                    // host drop, the others find their path again.
                    for (id, s) in ids.into_iter().zip(specs) {
                        admit(&mut nets, &mut active, id, s);
                    }
                }
            }
            10 => {
                let n_links = topo.link_count() as u64;
                let l = LinkId((rnd() % n_links) as u32);
                let bps = (rnd() % 5) as f64 * 100e6;
                for net in &mut nets {
                    net.set_external_demand(l, bps);
                }
            }
            _ => {}
        }
        nets[1].mark_all_dirty();
        let [got, wants @ ..] = nets.each_mut().map(|net| change_bits(net, t));
        let (resident, references) = (&nets[0], &nets[1..]);
        matches_independent_reference(resident, &format!("step {step} (seed {seed})"));
        for ((name, net), want) in REFERENCES[1..].iter().zip(references).zip(&wants) {
            assert_eq!(
                &got, want,
                "step {step} (seed {seed}): rate changes diverged from {name}"
            );
            assert_eq!(
                rate_bits(resident),
                rate_bits(net),
                "step {step} (seed {seed}): rates diverged from {name}"
            );
            for l in 0..topo.link_count() {
                let l = LinkId::from_index(l);
                assert_eq!(
                    resident.external_granted(l).to_bits(),
                    net.external_granted(l).to_bits(),
                    "step {step} (seed {seed}): grant on {l} diverged from {name}"
                );
            }
        }
    }
    let [resident, rebuild, per_flow] = nets;
    assert!(
        rebuild.realloc_flows_touched >= resident.realloc_flows_touched,
        "the resident plane must never touch more flows than the rebuild"
    );
    // The per-flow oracle solved one variable per flow, the aggregating
    // plane no more than that; both water-filled the same components.
    assert_eq!(per_flow.macro_flows, per_flow.realloc_flows_touched);
    assert!(resident.macro_flows <= resident.realloc_flows_touched);
    assert_eq!(resident.cold_solves, per_flow.cold_solves);
    resident
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn resident_matches_both_references_after_every_event(seed in 1u64..u64::MAX) {
        matches_references(seed, 80);
    }
}

/// A fixed long schedule as a plain test, so the property is exercised
/// even under `cargo test` filters that skip proptests, and proof that
/// macro-flows aggregated on it.
#[test]
fn fixed_schedule_aggregates_and_matches_both_references() {
    let net = matches_references(0xC0FFEE, 160);
    assert!(net.macro_flows < net.realloc_flows_touched);
}

/// The same schedule, longer and over many more seeds, and proof that it
/// merged, split and compacted components and aggregated flows on the
/// way. Ignored by default; CI runs it in release with `cargo test
/// --release -p horse-dataplane -- --ignored`.
#[test]
#[ignore]
fn stress_resident_matches_both_references() {
    let mut total = std::collections::BTreeMap::new();
    for seed in 1..=2000u64 {
        let net = matches_references(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), 400);
        for (name, n) in net.counts().into_iter().chain(net.resident_counts()) {
            *total.entry(name).or_insert(0u64) += n;
        }
    }
    let t = |name: &str| total[name];
    assert!(t("alloc.merges") > 0 && t("alloc.splits") > 0, "{total:?}");
    assert!(
        t("alloc.rebuilds") > t("alloc.splits"),
        "no compaction: {total:?}"
    );
    assert!(
        t("alloc.macro_flows") < t("alloc.flows_touched"),
        "no aggregation"
    );
}

/// The million-flow scaling contract as a counter: the cold solve
/// water-fills one weighted variable per path class, however many flows
/// each class holds — 8× the population, the same variable count. (The
/// wall-clock half is `dataplane.*_s` in `benchmark/`.)
#[test]
fn macro_variables_track_classes_not_flows() {
    let classes = (MEMBERS * (MEMBERS - 1)) as u64;
    for per_class in [4u16, 32] {
        let (mut net, members) = star_net();
        let topo = net.topology().clone();
        for src in 0..MEMBERS {
            for dst in (0..MEMBERS).filter(|&d| d != src) {
                for sport in 0..per_class {
                    let id = net.reserve_id();
                    let size = Some(ByteSize::mib(64));
                    let s = mk_spec(&topo, &members, src, dst, sport, DemandModel::Greedy, size);
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
