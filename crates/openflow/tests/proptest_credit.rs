//! Hinted crediting ≡ identity crediting.
//!
//! [`FlowTable::credit`] tries the trail's remembered table position
//! before it searches. This drives a table through random interleavings
//! of everything that moves entries — inserts at mixed priorities,
//! same-identity replaces, strict and non-strict deletes, idle expiry —
//! while crediting through trails whose hints are stale or scrambled,
//! and checks every step against a model that only ever finds entries
//! by `(priority, match)`.

use horse_openflow::actions::Instruction;
use horse_openflow::counters::FlowCounters;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::table::{FlowEntry, FlowTable, MatchedEntry};
use horse_types::{ByteSize, IpProtocol, PortNo, SimDuration, SimTime, TableId};
use proptest::prelude::*;

const PRIORITIES: [u16; 3] = [10, 20, 30];

fn matchers() -> [FlowMatch; 5] {
    [
        FlowMatch::ANY,
        FlowMatch::ANY.with_tp_dst(80),
        FlowMatch::ANY.with_tp_dst(443),
        FlowMatch::ANY.with_ip_proto(IpProtocol::Tcp),
        FlowMatch::ANY
            .with_ip_proto(IpProtocol::Tcp)
            .with_tp_dst(80),
    ]
}

/// The identity-scan oracle: entries are only ever found by
/// `(priority, match)`; order is irrelevant to it.
#[derive(Default)]
struct Model {
    entries: Vec<(u16, FlowMatch, SimDuration, FlowCounters)>,
}

impl Model {
    fn insert(&mut self, p: u16, m: FlowMatch, idle: SimDuration, now: SimTime) {
        self.entries.retain(|e| (e.0, e.1) != (p, m));
        self.entries.push((p, m, idle, FlowCounters::new(now)));
    }

    fn credit(&mut self, p: u16, m: FlowMatch, pkts: u64, bytes: ByteSize, now: SimTime) -> bool {
        match self.entries.iter_mut().find(|e| (e.0, e.1) == (p, m)) {
            Some(e) => {
                e.3.credit(pkts, bytes, now);
                true
            }
            None => false,
        }
    }

    fn expire(&mut self, now: SimTime) {
        self.entries
            .retain(|e| e.2.is_zero() || now.saturating_since(e.3.last_used) < e.2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hinted_credit_equals_identity_credit(
        ops in prop::collection::vec(
            (0u8..8, 0usize..3, 0usize..5, 0usize..3, 0u32..20, 1u64..4),
            1..80,
        ),
    ) {
        let matchers = matchers();
        let mut table = FlowTable::new();
        let mut model = Model::default();
        // One long-lived trail per identity, like the route hops of flows
        // admitted long ago: its hint is whatever the last credit left.
        let mut trails: Vec<MatchedEntry> = PRIORITIES
            .iter()
            .flat_map(|&priority| {
                matchers.iter().map(move |&matcher| MatchedEntry {
                    table: TableId(0),
                    priority,
                    matcher,
                    cookie: 0,
                    pos: 0,
                })
            })
            .collect();
        let mut now = SimTime::ZERO;

        for (kind, pi, mi, idle, scramble, dt) in ops {
            now = SimTime::from_secs(now.as_nanos() / 1_000_000_000 + dt);
            let (p, m) = (PRIORITIES[pi], matchers[mi]);
            match kind {
                0 | 1 => {
                    let idle = SimDuration::from_secs([0, 3, 7][idle]);
                    let e = FlowEntry::new(p, m, vec![Instruction::output(PortNo(1))])
                        .with_idle_timeout(idle);
                    table.insert(e, now);
                    model.insert(p, m, idle, now);
                }
                2 => {
                    table.delete(&m, Some(p), true);
                    model.entries.retain(|e| (e.0, e.1) != (p, m));
                }
                3 => {
                    table.delete(&m, None, false);
                    model.entries.retain(|e| !e.1.is_subset_of(&m));
                }
                4 => {
                    table.expire(now);
                    model.expire(now);
                }
                _ => {
                    let t = &mut trails[pi * matchers.len() + mi];
                    if kind == 7 {
                        t.pos = scramble; // in range, past the end, anything
                    }
                    let exact = table
                        .entries()
                        .nth(t.pos as usize)
                        .is_some_and(|e| (e.priority, e.matcher) == (p, m));
                    let rescans = table.rescans();
                    let bytes = ByteSize::bytes(1500 * dt);
                    let hit = table.credit(t, dt, bytes, now, now);
                    prop_assert_eq!(hit, model.credit(p, m, dt, bytes, now));
                    prop_assert_eq!(table.rescans() - rescans, u64::from(!exact));
                    if hit {
                        let at = table.entries().nth(t.pos as usize).expect("healed hint");
                        prop_assert_eq!((at.priority, at.matcher), (p, m));
                    }
                }
            }
            // Every entry, not just the credited one: a hint pointing at
            // some other identity must never have credited it.
            prop_assert_eq!(table.len(), model.entries.len());
            for e in table.entries() {
                let want = model
                    .entries
                    .iter()
                    .find(|w| (w.0, w.1) == (e.priority, e.matcher))
                    .map(|w| w.3);
                prop_assert_eq!(Some(e.counters), want);
            }
        }
    }
}
