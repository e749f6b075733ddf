//! Indexed table ≡ linear table.
//!
//! [`LinearTable`] is the flow table as it was before the exact-match
//! index: every search a scan. The proptests drive both through random
//! op sequences — inserts and replaces at mixed priorities, bulk installs
//! that carry the table across [`INDEX_MIN_LEN`] and back, strict and
//! non-strict deletes, expiry, lookups, crediting through stale hints and
//! a snapshot round trip — and require the same entries in the same
//! order, the same lookup answers, the same credits and the same counters
//! after every step.

use super::*;
use horse_types::snap::{Snap, SnapReader, SnapWriter};
use horse_types::IpProtocol;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// The reference: sorted by descending priority, first-installed first,
/// found by scanning. Counts its scan steps like [`FlowTable`] does.
#[derive(Default)]
struct LinearTable {
    entries: Vec<FlowEntry>,
    rescans: u64,
    scan_steps: u64,
}

impl LinearTable {
    fn position(&mut self, f: impl Fn(&FlowEntry) -> bool) -> Option<usize> {
        let found = self.entries.iter().position(f);
        self.scan_steps += found.map_or(self.entries.len(), |p| p + 1) as u64;
        found
    }

    fn insert(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.counters = FlowCounters::new(now);
        let (priority, m) = (entry.priority, entry.matcher);
        if let Some(pos) = self.position(|e| e.priority == priority && e.matcher == m) {
            self.entries[pos] = entry;
            return;
        }
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
    }

    fn peek(&mut self, in_port: PortNo, key: &FlowKey) -> Option<usize> {
        self.position(|e| e.matcher.matches(in_port, key))
    }

    fn credit(
        &mut self,
        m: &mut MatchedEntry,
        packets: u64,
        bytes: ByteSize,
        from: SimTime,
        now: SimTime,
    ) -> bool {
        let (priority, matcher) = (m.priority, m.matcher);
        let same = move |e: &FlowEntry| e.priority == priority && e.matcher == matcher;
        if !self.entries.get(m.pos as usize).is_some_and(same) {
            self.rescans += 1;
            match self.position(same) {
                Some(pos) => m.pos = pos as u32,
                None => return false,
            }
        }
        let counters = &mut self.entries[m.pos as usize].counters;
        let (packets, bytes) = if counters.created > from && now > from {
            let share = now.saturating_since(counters.created).as_secs_f64()
                / now.saturating_since(from).as_secs_f64();
            let scale = |n: u64| (n as f64 * share) as u64;
            (scale(packets), ByteSize::bytes(scale(bytes.as_bytes())))
        } else {
            (packets, bytes)
        };
        counters.credit(packets, bytes, now);
        true
    }

    fn delete(
        &mut self,
        matcher: &FlowMatch,
        priority: Option<u16>,
        strict: bool,
    ) -> Vec<FlowEntry> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            let matches = if strict {
                Some(e.priority) == priority && e.matcher == *matcher
            } else {
                e.matcher.is_subset_of(matcher)
            };
            if matches {
                removed.push(e.clone());
            }
            !matches
        });
        removed
    }

    fn expire(&mut self, now: SimTime) -> Vec<(FlowEntry, RemovalReason)> {
        let mut out = Vec::new();
        self.entries.retain(|e| match e.expired_at(now) {
            Some(reason) => {
                out.push((e.clone(), reason));
                false
            }
            None => true,
        });
        out
    }
}

/// splitmix64: the op stream of one case, from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PRIORITIES: [u16; 4] = [0, 10, 20, 30];

/// Match shapes the fabric and IXP policies install, plus two that only
/// the wildcard list can hold (/24, `ANY`) and a VLAN shape that untagged
/// keys must never hit.
const KINDS: u64 = 8;

fn ip(v: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 | v)
}

fn matcher(kind: u64, v: u32) -> FlowMatch {
    let mac = MacAddr::local_from_id;
    match kind {
        0 => FlowMatch::ANY.with_eth_dst(mac(v)),
        1 => FlowMatch::ANY
            .with_in_port(PortNo(1 + (v % 4) as u16))
            .with_eth_dst(mac(v)),
        2 => FlowMatch::ANY.with_eth_src(mac(v / 3)).with_eth_dst(mac(v)),
        3 => FlowMatch::ANY.with_ip_dst(Ipv4Net::host(ip(v))),
        4 => FlowMatch::ANY.with_ip_dst(Ipv4Net::new(ip(v), 24)),
        5 => FlowMatch::ANY
            .with_vlan((v % 3) as u16)
            .with_eth_dst(mac(v)),
        6 => FlowMatch::ANY
            .with_eth_type(0x0800)
            .with_ip_proto(IpProtocol::Tcp)
            .with_tp_dst((v % 7) as u16),
        _ => FlowMatch::ANY,
    }
}

/// A packet that hits the `v` entries of several kinds at once.
fn key(rng: &mut Rng, v: u32) -> (PortNo, FlowKey) {
    let mut k = FlowKey::tcp(
        MacAddr::local_from_id(v / 3),
        MacAddr::local_from_id(v),
        ip(v ^ 0x100),
        ip(v),
        40000,
        (v % 7) as u16,
    );
    if rng.below(4) == 0 {
        k.vlan = Some((v % 3) as u16);
    }
    (PortNo(1 + rng.below(4) as u16), k)
}

/// Values for one op: mostly a small space (so ops collide with earlier
/// ones), sometimes anywhere a bulk install reached.
fn value(rng: &mut Rng, max_bulk: u64) -> u32 {
    if rng.below(2) == 0 {
        rng.below(48) as u32
    } else {
        (rng.below(4) * 100_000 + rng.below(max_bulk)) as u32
    }
}

fn identity(e: &FlowEntry) -> (u16, FlowMatch, u64) {
    (e.priority, e.matcher, e.cookie)
}

fn assert_same(t: &FlowTable, r: &LinearTable) {
    assert_eq!(t.len(), r.entries.len());
    for (a, b) in t.entries().zip(&r.entries) {
        assert_eq!(identity(a), identity(b));
        assert_eq!(a.counters, b.counters);
        assert_eq!(
            (a.idle_timeout, a.instructions.len()),
            (b.idle_timeout, b.instructions.len())
        );
    }
    assert_eq!(t.rescans(), r.rescans);
}

/// Runs `ops` random ops of one case against both tables, bulk installs
/// stopping at `max_bulk` entries; true when the table crossed the
/// threshold and later fell back below it.
fn run_case(seed: u64, ops: usize, max_bulk: u64) -> bool {
    let mut rng = Rng(seed);
    let mut t = FlowTable::new();
    let mut r = LinearTable::default();
    // Trails kept across ops, like the route hops of admitted flows:
    // their hints go stale as the tables change.
    let mut trails: Vec<MatchedEntry> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut cookie = 0u64;
    let (mut up, mut down) = (false, false);
    for _ in 0..ops {
        now += SimDuration::from_millis(rng.below(700));
        let mut fresh = |rng: &mut Rng, kind: u64, v: u32| {
            cookie += 1;
            let idle = [0, 0, 1, 3][rng.below(4) as usize];
            let priority = PRIORITIES[rng.below(4) as usize];
            FlowEntry::new(
                priority,
                matcher(kind, v),
                vec![Instruction::output(PortNo(1))],
            )
            .with_cookie(cookie)
            .with_idle_timeout(SimDuration::from_secs(idle))
        };
        match rng.below(20) {
            0..=3 => {
                let (kind, v) = (rng.below(KINDS), value(&mut rng, max_bulk));
                let e = fresh(&mut rng, kind, v);
                t.insert(e.clone(), now);
                r.insert(e, now);
            }
            4 => {
                // Bulk install of one shape, as a controller's start-up
                // burst: enough to carry the table past the threshold.
                let kind = rng.below(KINDS - 1);
                let base = rng.below(4) as u32 * 100_000;
                let n = 1 + rng.below(max_bulk) as usize;
                for i in 0..n.min((max_bulk as usize).saturating_sub(t.len())) as u32 {
                    let e = fresh(&mut rng, kind, base + i);
                    t.insert(e.clone(), now);
                    r.insert(e, now);
                }
            }
            5 => {
                let p = Some(PRIORITIES[rng.below(4) as usize]);
                let m = matcher(rng.below(KINDS), value(&mut rng, max_bulk));
                let got: Vec<_> = t.delete(&m, p, true).iter().map(identity).collect();
                let want: Vec<_> = r.delete(&m, p, true).iter().map(identity).collect();
                assert_eq!(got, want);
            }
            6 => {
                // Non-strict: a kind-4 (/24) matcher takes whole blocks of
                // exact /32 entries; `ANY` empties the table.
                let kind = [0, 3, 4, 4, 6, 7][rng.below(6) as usize];
                let m = matcher(kind, value(&mut rng, max_bulk));
                let got: Vec<_> = t.delete(&m, None, false).iter().map(identity).collect();
                let want: Vec<_> = r.delete(&m, None, false).iter().map(identity).collect();
                assert_eq!(got, want);
            }
            7 | 8 => {
                let got: Vec<_> = t
                    .expire(now)
                    .iter()
                    .map(|(e, why)| (identity(e), *why))
                    .collect();
                let want: Vec<_> = r
                    .expire(now)
                    .iter()
                    .map(|(e, why)| (identity(e), *why))
                    .collect();
                assert_eq!(got, want);
            }
            9..=13 => {
                let v = value(&mut rng, max_bulk);
                let (port, k) = key(&mut rng, v);
                let got = t.peek(port, &k).map(|(p, e)| (p, identity(e)));
                let want = r.peek(port, &k).map(|p| (p, identity(&r.entries[p])));
                assert_eq!(got, want);
                if let Some((pos, (priority, matcher, cookie))) = got {
                    trails.push(MatchedEntry {
                        table: TableId(0),
                        priority,
                        matcher,
                        cookie,
                        pos: pos as u32,
                    });
                }
            }
            14..=17 if !trails.is_empty() => {
                let i = rng.below(trails.len() as u64) as usize;
                let mut a = trails[i];
                if rng.below(3) == 0 {
                    a.pos = rng.below(t.len() as u64 + 2) as u32;
                }
                let mut b = a;
                let from =
                    SimTime::from_nanos(now.as_nanos().saturating_sub(rng.below(2_000_000_000)));
                let (pkts, bytes) = (rng.below(50), ByteSize::bytes(rng.below(1 << 20)));
                let got = t.credit(&mut a, pkts, bytes, from, now);
                assert_eq!(got, r.credit(&mut b, pkts, bytes, from, now));
                assert_eq!(a.pos, b.pos);
                trails[i] = a;
            }
            18 => {
                let mut w = SnapWriter::new();
                t.snap(&mut w);
                let bytes = w.into_bytes();
                t = FlowTable::unsnap(&mut SnapReader::new(&bytes)).unwrap();
                assert!(t.index.get().is_none(), "the index is never serialized");
                r.rescans = 0;
            }
            _ => {}
        }
        assert_same(&t, &r);
        up |= t.len() >= INDEX_MIN_LEN;
        down |= up && t.len() < INDEX_MIN_LEN;
        trails.truncate(256);
    }
    up && down
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// 24 seeds; at least one of them must carry its table across the
    /// threshold and back.
    #[test]
    fn indexed_table_equals_linear_table(seeds in prop::collection::vec(any::<u64>(), 24..25)) {
        let both_ways = seeds.iter().filter(|&&s| run_case(s, 120, 1024)).count();
        prop_assert!(both_ways > 0);
    }

    /// Tables of up to 8,192 entries; release mode only
    /// (`cargo test --release -p horse-openflow --lib -- --ignored`).
    #[test]
    #[ignore]
    fn indexed_table_equals_linear_table_stress(seeds in prop::collection::vec(any::<u64>(), 16..17)) {
        let both_ways = seeds.iter().filter(|&&s| run_case(s, 200, 8192)).count();
        prop_assert!(both_ways > 0);
    }
}

/// 4,096 distinct `eth_dst` installs followed by 4,096 lookups take O(n)
/// search steps, where the linear table takes O(n²).
#[test]
fn install_and_lookup_take_linear_steps() {
    const N: u32 = 4096;
    let mut t = FlowTable::new();
    let mut r = LinearTable::default();
    for v in 0..N {
        let e = FlowEntry::new(100, matcher(0, v), vec![]);
        t.insert(e.clone(), SimTime::ZERO);
        r.insert(e, SimTime::ZERO);
    }
    let miss = FlowEntry::new(0, FlowMatch::ANY, vec![]);
    t.insert(miss.clone(), SimTime::ZERO);
    r.insert(miss, SimTime::ZERO);
    let mut rng = Rng(7);
    for v in 0..N {
        let (port, k) = key(&mut rng, v);
        assert_eq!(t.peek(port, &k).map(|(p, _)| p), r.peek(port, &k));
    }
    let n = N as u64;
    // The scans below the threshold cost INDEX_MIN_LEN² / 2 ≈ 32 n here.
    assert!(t.scan_steps() < 40 * n, "{} steps", t.scan_steps());
    assert!(r.scan_steps > n * n / 2, "{} steps", r.scan_steps);
}
