//! Packet-plane hot-path allocation discipline (PR 10 satellite).
//!
//! [`PacketPlane::handle`] is the per-event workhorse of both drivers
//! (the standalone baseline and the hybrid co-simulation). Once warm —
//! port queues touched, the decision cache populated, scratch buffers
//! grown to their high-water marks — steady-state event handling must
//! perform **zero heap allocations**: burst coalescing reuses the queued
//! packets in place, ACK replay and fast-retransmit collection run
//! through the plane's scratch vectors, and cache hits replay memoized
//! pipeline verdicts without touching the tables.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary; deltas are sampled tightly around each `handle` call (the
//! event queue itself belongs to the driver, not the plane). Loss-free
//! traffic only: a lost segment legitimately allocates in the receiver's
//! out-of-order `BTreeSet`, which is the cold path by construction.

use horse_controlplane::{
    ApplyNow, Controller, ControllerCtx, PolicyGenerator, PolicyRule, PolicySpec,
};
use horse_events::EventQueue;
use horse_openflow::switch::{OpenFlowSwitch, Switches};
use horse_packetsim::{
    PacketPlane, PacketSimConfig, PktEvent, PktFlowSpec, PktOut, SourceKind, TcpState,
};
use horse_topology::builders;
use horse_types::{ByteSize, FlowKey, LinkId, Rate, SimTime};
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

/// Drives one flow through a 2-member star with proactive MAC forwarding
/// until `horizon`, counting allocations strictly inside the
/// `PacketPlane::handle` calls after the first `warmup` events. Returns
/// `(allocs_in_handle, events_processed, flow_completed,
/// cache_hits_after_warmup)`.
fn drive(source: SourceKind, size: ByteSize, warmup: u64) -> (u64, u64, bool, u64) {
    let f = builders::star(2, Rate::mbps(100.0));
    let topo = f.topology;
    let mut gen =
        PolicyGenerator::new(PolicySpec::new().with(PolicyRule::MacForwarding), &topo).unwrap();
    // The dense switch table both drivers use.
    let mut switches: Switches = topo
        .switches()
        .map(|id| OpenFlowSwitch::new(id, 2, &topo.ports(id).collect::<Vec<_>>()))
        .collect();
    // Proactive bootstrap, as the standalone driver does at t=0.
    gen.on_start(
        &ControllerCtx {
            topo: &topo,
            now: SimTime::ZERO,
        },
        &mut ApplyNow::new(&mut switches, SimTime::ZERO),
    );

    let (src, dst) = (f.members[0], f.members[1]);
    let (s, d) = (topo.node(src).unwrap(), topo.node(dst).unwrap());
    let mut plane = PacketPlane::new(topo.link_count(), PacketSimConfig::default());
    let i = plane.add_flow(PktFlowSpec {
        key: FlowKey::tcp(
            s.mac().unwrap(),
            d.mac().unwrap(),
            s.ip().unwrap(),
            d.ip().unwrap(),
            1000,
            80,
        ),
        src,
        dst,
        size,
        start: SimTime::from_millis(1),
        source,
    });

    let horizon = SimTime::from_secs(60);
    let mut q: EventQueue<PktEvent> = EventQueue::new();
    q.schedule_at(SimTime::from_millis(1), PktEvent::Start(i));
    let mut pkt_out = PktOut::default();
    // The completion push is a once-per-flow cold event that may land
    // anywhere in the run; give the buffer its one-slot capacity up
    // front, exactly as the first completion of any earlier flow would.
    pkt_out.finished.reserve(1);
    let mut events = 0u64;
    let mut in_handle = 0u64;
    let mut warm_hits = 0u64;
    while let Some(t) = q.peek_time() {
        if t > horizon {
            break;
        }
        let ev = q.pop().expect("peeked");
        events += 1;
        let drain = |l: LinkId| topo.link(l).map(|lk| lk.capacity.as_bps()).unwrap_or(0.0);
        let hits = plane.cache_hits();
        let before = allocs();
        plane.handle(
            ev.time,
            ev.event,
            &topo,
            &mut switches,
            &drain,
            &mut pkt_out,
        );
        if events > warmup {
            in_handle += allocs() - before;
            warm_hits += plane.cache_hits() - hits;
        }
        assert!(
            pkt_out.flow_ins.is_empty(),
            "proactive forwarding must never miss"
        );
        for (t, e) in pkt_out.events.drain(..) {
            q.schedule_at(t, e);
        }
        pkt_out.clear();
    }
    assert_eq!(plane.drops(), 0, "the loss-free premise must hold");
    (in_handle, events, plane.is_finished(i), warm_hits)
}

/// CBR steady state: pacing ticks, burst sends, store-and-forward hops
/// and receiver accounting — the pure forwarding cadence.
#[test]
fn cbr_steady_state_handle_is_allocation_free() {
    let src = || SourceKind::Cbr { rate_bps: 20e6 };
    // Pass 1 sizes the run; pass 2 measures its second half.
    let (_, total, done, _) = drive(src(), ByteSize::bytes(1_500_000), u64::MAX);
    assert!(done, "CBR flow must complete");
    let (n, _, _, hits) = drive(src(), ByteSize::bytes(1_500_000), total / 2);
    assert!(hits > 0, "the measured half must replay cached decisions");
    assert_eq!(
        n, 0,
        "CBR steady-state handle allocated {n} times after warmup"
    );
}

/// TCP in its loss-free operating region (the flow completes within the
/// window ramp, under the buffer ceiling): window pumps, burst
/// coalescing at the serializer, cumulative-ACK burst replay and the
/// decision-cache hit path all ride scratch state.
#[test]
fn tcp_steady_state_handle_is_allocation_free() {
    let src = || SourceKind::Tcp(TcpState::new());
    let size = ByteSize::bytes(192_000); // 128 segments: completes in slow start
    let (_, total, done, _) = drive(src(), size, u64::MAX);
    assert!(done, "TCP flow must complete");
    let (n, _, _, hits) = drive(src(), size, total / 2);
    assert!(hits > 0, "the measured half must replay cached decisions");
    assert_eq!(
        n, 0,
        "TCP steady-state handle allocated {n} times after warmup"
    );
}
