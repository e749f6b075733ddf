//! Verifies the tentpole property of the arena-backed engine: once scratch
//! buffers are warm, [`FluidNet::reallocate`] performs **zero heap
//! allocations** — incrementally and under the full oracle
//! ([`FluidNet::mark_all_dirty`] before every run), with admissions,
//! completions and rate churn in between.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary; allocation deltas are sampled tightly around the `reallocate`
//! calls (admission itself legitimately allocates: routes, records).

use horse_dataplane::{AdmitOutcome, DemandModel, FlowSpec, FluidConfig, FluidNet};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod};
use horse_openflow::table::FlowEntry;
use horse_topology::builders;
use horse_types::{ByteSize, FlowKey, MacAddr, NodeId, Rate, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per-thread, so tests running in parallel on the harness's threads
    // never see each other's allocations. Const-initialised and without
    // a destructor: touching it from inside the allocator allocates
    // nothing and stays valid through thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Star fabric with per-MAC forwarding on the hub switch.
fn star_net(members: usize) -> (FluidNet, Vec<NodeId>) {
    let f = builders::star(members, Rate::gbps(1.0));
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

fn spec(
    topo: &horse_topology::Topology,
    members: &[NodeId],
    src: usize,
    dst: usize,
    sport: u16,
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
        demand: DemandModel::Greedy,
        size: Some(ByteSize::mib(64)),
        fidelity: Default::default(),
    }
}

/// One allocator run; `full` re-solves every flow (the oracle). Returns
/// the allocations it made, the dirty marking included.
fn counted_realloc(net: &mut FluidNet, full: bool, t: SimTime) -> u64 {
    let before = allocs();
    if full {
        net.mark_all_dirty();
    }
    net.reallocate(t);
    allocs() - before
}

/// Admission/completion churn; counts allocations strictly inside the
/// `reallocate` calls of the post-warmup cycles, and returns them with
/// the plane. The allocator's histograms record on the hot path and
/// must not allocate either.
fn churn_and_count(full: bool) -> (u64, FluidNet) {
    let (mut net, members) = star_net(8);
    let topo = net.topology().clone();
    let mut sport = 1000u16;
    let mut in_realloc = 0u64;
    let mut measuring = false;
    for cycle in 0..6 {
        // A wave of admissions, reallocating after each (the sim driver's
        // cadence): crossing pairs share the hub's access links, so
        // components are non-trivial in incremental mode.
        let mut wave = Vec::new();
        for i in 0..members.len() / 2 {
            let id = net.reserve_id();
            let s = spec(&topo, &members, i, members.len() - 1 - i, sport);
            sport = sport.wrapping_add(1);
            assert!(matches!(
                net.try_admit(id, s, SimTime::from_millis(cycle * 10)),
                AdmitOutcome::Admitted
            ));
            wave.push(id);
            let n = counted_realloc(&mut net, full, SimTime::from_millis(cycle * 10));
            if measuring {
                in_realloc += n;
            }
        }
        // Drain the wave, reallocating after each removal.
        for (k, id) in wave.into_iter().enumerate() {
            let t = SimTime::from_millis(cycle * 10 + 1 + k as u64);
            net.remove_flow(id, t, true);
            let n = counted_realloc(&mut net, full, t);
            if measuring {
                in_realloc += n;
            }
        }
        // Everything after the first two full cycles is steady state: the
        // scratch high-water marks are established.
        if cycle >= 1 {
            measuring = true;
        }
    }
    (in_realloc, net)
}

#[test]
fn reallocate_steady_state_is_allocation_free_full_mode() {
    let (n, _) = churn_and_count(true);
    assert_eq!(
        n, 0,
        "full-mode reallocate allocated {n} times in steady state"
    );
}

#[test]
fn reallocate_steady_state_is_allocation_free_incremental_mode() {
    let (n, _) = churn_and_count(false);
    assert_eq!(
        n, 0,
        "incremental-mode reallocate allocated {n} times in steady state"
    );
}

#[test]
fn histograms_record_every_solve_without_allocating() {
    for full in [true, false] {
        let (n, net) = churn_and_count(full);
        assert_eq!(n, 0, "reallocate (full: {full}) allocated {n} times");
        // The steady state above really recorded: one observation of
        // each histogram per component solve.
        let solves = net.counts()[2];
        assert_eq!(solves.0, "alloc.components");
        assert!(solves.1 > 0, "full: {full}");
        for (name, hist) in net.hists() {
            assert_eq!(hist.count, solves.1, "{name} (full: {full})");
        }
    }
}

/// Epoch-batched cadence: a whole wave of admissions (or removals) marks
/// dirty state first and pays **one** `reallocate` for the batch — the
/// order the simulation driver now produces. Steady state must stay
/// zero-allocation: solver scratch is pre-grown across calls, not
/// re-allocated per epoch.
fn batched_churn_and_count(full: bool) -> u64 {
    let (mut net, members) = star_net(8);
    let topo = net.topology().clone();
    let mut sport = 4000u16;
    let mut in_realloc = 0u64;
    let mut measuring = false;
    for cycle in 0..6 {
        // One epoch: the whole admission wave, then a single realloc.
        let t = SimTime::from_millis(cycle * 10);
        let mut wave = Vec::new();
        for i in 0..members.len() / 2 {
            let id = net.reserve_id();
            let s = spec(&topo, &members, i, members.len() - 1 - i, sport);
            sport = sport.wrapping_add(1);
            assert!(matches!(net.try_admit(id, s, t), AdmitOutcome::Admitted));
            wave.push(id);
        }
        let n = counted_realloc(&mut net, full, t);
        if measuring {
            in_realloc += n;
        }
        // One epoch: the whole completion wave, then a single realloc.
        let t = SimTime::from_millis(cycle * 10 + 5);
        for id in wave {
            net.remove_flow(id, t, true);
        }
        let n = counted_realloc(&mut net, full, t);
        if measuring {
            in_realloc += n;
        }
        if cycle >= 1 {
            measuring = true;
        }
    }
    in_realloc
}

#[test]
fn epoch_batched_reallocate_is_allocation_free_full_mode() {
    let n = batched_churn_and_count(true);
    assert_eq!(
        n, 0,
        "batched full-mode reallocate allocated {n} times in steady state"
    );
}

#[test]
fn epoch_batched_reallocate_is_allocation_free_incremental_mode() {
    let n = batched_churn_and_count(false);
    assert_eq!(
        n, 0,
        "batched incremental-mode reallocate allocated {n} times in steady state"
    );
}

/// Macro-flow churn: several flows per host pair, so aggregation really
/// engages (identical link set + demand ⇒ one weighted variable) and the
/// weighted build / fair-split apply machinery runs — it must be just as
/// allocation-free as the per-flow path.
#[test]
fn macro_flow_reallocate_is_allocation_free_and_aggregates() {
    let (mut net, members) = star_net(8);
    let topo = net.topology().clone();
    let mut sport = 7000u16;
    let mut in_realloc = 0u64;
    let mut measuring = false;
    for cycle in 0..6u64 {
        let t = SimTime::from_millis(cycle * 10);
        let mut wave = Vec::new();
        // 4 flows per crossing pair: each pair is one path class.
        for i in 0..members.len() / 2 {
            for _ in 0..4 {
                let id = net.reserve_id();
                let s = spec(&topo, &members, i, members.len() - 1 - i, sport);
                sport = sport.wrapping_add(1);
                assert!(matches!(net.try_admit(id, s, t), AdmitOutcome::Admitted));
                wave.push(id);
            }
        }
        let n = counted_realloc(&mut net, true, t);
        if measuring {
            in_realloc += n;
        }
        let t = SimTime::from_millis(cycle * 10 + 5);
        for id in wave {
            net.remove_flow(id, t, true);
        }
        let n = counted_realloc(&mut net, true, t);
        if measuring {
            in_realloc += n;
        }
        if cycle >= 1 {
            measuring = true;
        }
    }
    assert_eq!(
        in_realloc, 0,
        "macro-flow reallocate allocated {in_realloc} times in steady state"
    );
    assert!(
        net.macro_flows < net.realloc_flows_touched,
        "aggregation never engaged: {} variables for {} flows touched",
        net.macro_flows,
        net.realloc_flows_touched
    );
}

#[test]
fn sync_all_is_allocation_free_after_warmup() {
    let (mut net, members) = star_net(6);
    let topo = net.topology().clone();
    for i in 0..3 {
        let id = net.reserve_id();
        let s = spec(&topo, &members, i, 5 - i, 2000 + i as u16);
        assert!(matches!(
            net.try_admit(id, s, SimTime::ZERO),
            AdmitOutcome::Admitted
        ));
    }
    net.reallocate(SimTime::ZERO);
    net.sync_all(SimTime::from_millis(1)); // warm the slot scratch
    let before = allocs();
    net.sync_all(SimTime::from_millis(2));
    net.sync_all(SimTime::from_millis(3));
    assert_eq!(allocs() - before, 0, "sync_all allocated after warmup");
}
