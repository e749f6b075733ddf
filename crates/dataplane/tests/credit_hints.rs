//! The byte sync credits OpenFlow counters through table positions the
//! route hops remember. Two contracts:
//!
//! * **Same numbers.** Positions are hints; identity decides. After the
//!   tables under live flows are reshuffled — a higher-priority insert
//!   above the in-use rules, an in-use rule deleted and re-added, idle
//!   expiry — every flow-entry, table and port counter on every switch
//!   equals what the identity-scanning engine produced (golden numbers
//!   recorded from the commit before position hints existed).
//! * **No search.** Syncing over unchanged tables performs zero identity
//!   scans, from the very first credit (classification hands the position
//!   over); a position shift costs exactly one rescan per affected trail
//!   entry, after which syncing is search-free again.

use horse_dataplane::{AdmitOutcome, DemandModel, FlowSpec, FluidConfig, FluidNet};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand, StatsReply, StatsRequest};
use horse_openflow::table::FlowEntry;
use horse_topology::builders::{self, IxpFabricParams};
use horse_topology::routing::shortest_path;
use horse_topology::Metric;
use horse_types::{FlowKey, NodeId, Rate, SimDuration, SimTime, TableId};

const MEMBERS: usize = 6;
/// Member whose forwarding rules carry an idle timeout and never see
/// traffic: they expire mid-run, shifting the rules installed after them.
const IDLE_MEMBER: usize = 4;

/// Per-destination-MAC forwarding rule towards `member` on `switch`.
fn rule(net: &FluidNet, members: &[NodeId], switch: NodeId, member: usize) -> FlowEntry {
    let topo = net.topology();
    let path = shortest_path(topo, switch, members[member], Metric::Hops).expect("connected");
    let out = topo.link(path.links[0]).expect("link").src_port;
    let mac = topo.node(members[member]).and_then(|n| n.mac()).unwrap();
    FlowEntry::new(
        100,
        FlowMatch::ANY.with_eth_dst(mac),
        vec![Instruction::output(out)],
    )
}

/// Two edges hanging off one core, six members, proactive per-MAC rules
/// on every switch.
fn ixp_star() -> (FluidNet, Vec<NodeId>) {
    let f = builders::ixp_fabric(&IxpFabricParams {
        members: MEMBERS,
        edge_switches: 2,
        core_switches: 1,
        member_port_speeds: vec![Rate::gbps(1.0)],
        uplink_speed: Rate::gbps(2.0),
        ..IxpFabricParams::default()
    });
    let mut net = FluidNet::new(f.topology, FluidConfig::default());
    for sw in net.switch_ids().to_vec() {
        for m in 0..MEMBERS {
            let mut e = rule(&net, &f.members, sw, m);
            if m == IDLE_MEMBER {
                e = e.with_idle_timeout(SimDuration::from_secs(2));
            }
            net.apply_ctrl(sw, &CtrlMsg::FlowMod(FlowMod::add(e)), SimTime::ZERO);
        }
    }
    (net, f.members)
}

fn admit(net: &mut FluidNet, members: &[NodeId], src: usize, dst: usize, sport: u16, now: SimTime) {
    let topo = net.topology();
    let (s, d) = (
        topo.node(members[src]).unwrap(),
        topo.node(members[dst]).unwrap(),
    );
    let spec = FlowSpec {
        key: FlowKey::tcp(
            s.mac().unwrap(),
            d.mac().unwrap(),
            s.ip().unwrap(),
            d.ip().unwrap(),
            sport,
            80,
        ),
        src: members[src],
        dst: members[dst],
        demand: DemandModel::Greedy,
        size: None,
        fidelity: Default::default(),
    };
    let id = net.reserve_id();
    assert!(matches!(
        net.try_admit(id, spec, now),
        AdmitOutcome::Admitted
    ));
}

/// A higher-priority rule matching none of the traffic lands above every
/// in-use rule on every switch, shifting their positions by one.
fn install_acl(net: &mut FluidNet, now: SimTime) {
    for sw in net.switch_ids().to_vec() {
        let acl = FlowEntry::new(
            200,
            FlowMatch::ANY.with_tp_dst(443),
            vec![Instruction::drop()],
        );
        net.apply_ctrl(sw, &CtrlMsg::FlowMod(FlowMod::add(acl)), now);
    }
}

/// Identity scans performed so far, summed over every table.
fn rescans(net: &FluidNet) -> u64 {
    net.switch_ids()
        .iter()
        .map(|&id| {
            let sw = net.switch(id).unwrap();
            (0..sw.table_count())
                .map(|t| sw.table(TableId(t as u8)).unwrap().rescans())
                .sum::<u64>()
        })
        .sum()
}

/// Every counter the byte sync feeds, per switch in id order:
/// `(priority, packets, bytes)` per table-0 entry in table order,
/// `(lookups, matches)` of table 0, and
/// `(port, rx_packets, tx_packets, rx_bytes, tx_bytes)` per port.
type SwitchCounters = (
    Vec<(u16, u64, u64)>,
    (u64, u64),
    Vec<(u16, u64, u64, u64, u64)>,
);

fn counters(net: &FluidNet) -> Vec<SwitchCounters> {
    net.switch_ids()
        .iter()
        .map(|&id| {
            let sw = net.switch(id).unwrap();
            let StatsReply::Flow(flows) = sw.stats(StatsRequest::Flow(TableId(0))) else {
                panic!("flow stats");
            };
            let StatsReply::Table(tables) = sw.stats(StatsRequest::Table) else {
                panic!("table stats");
            };
            let StatsReply::Port(ports) = sw.stats(StatsRequest::Port(None)) else {
                panic!("port stats");
            };
            (
                flows
                    .iter()
                    .map(|r| (r.priority, r.packets, r.bytes))
                    .collect(),
                (tables[0].lookups, tables[0].matches),
                ports
                    .iter()
                    .map(|r| (r.port.0, r.rx_packets, r.tx_packets, r.rx_bytes, r.tx_bytes))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn counters_survive_table_reshuffles_under_live_flows() {
    let (mut net, members) = ixp_star();
    let secs = SimTime::from_secs;
    // Cross-edge and same-edge pairs (members alternate between edges).
    for (i, (s, d)) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (5, 1)]
        .into_iter()
        .enumerate()
    {
        admit(&mut net, &members, s, d, 1000 + i as u16, SimTime::ZERO);
    }
    net.reallocate(SimTime::ZERO);

    // t=1: a higher-priority rule (matching none of the traffic) lands
    // above every in-use rule on every switch; a new flow arrives.
    install_acl(&mut net, secs(1));
    admit(&mut net, &members, 2, 1, 2000, secs(1));
    net.reallocate(secs(1));

    // t=2: the in-use rule towards member 1 is deleted and re-added on
    // every switch (counters restart, the entry moves behind its peers).
    net.sync_all(secs(2));
    for sw in net.switch_ids().to_vec() {
        let e = rule(&net, &members, sw, 1);
        let del = FlowMod {
            command: FlowModCommand::Delete { strict: true },
            ..FlowMod::add(e.clone())
        };
        net.apply_ctrl(sw, &CtrlMsg::FlowMod(del), secs(2));
        net.apply_ctrl(sw, &CtrlMsg::FlowMod(FlowMod::add(e)), secs(2));
    }

    // t=3: the never-used idle rules expire, shifting what sits behind.
    net.sync_all(secs(3));
    net.expire_entries(secs(3));
    admit(&mut net, &members, 3, 5, 3000, secs(3));
    net.reallocate(secs(3));

    net.sync_all(secs(4));
    assert_eq!(counters(&net), golden());
}

#[test]
fn byte_sync_never_searches_an_unchanged_table() {
    let (mut net, members) = ixp_star();
    let secs = SimTime::from_secs;
    // 0→1 crosses e1, c1, e2; 0→2 stays on e1: four trail entries.
    admit(&mut net, &members, 0, 1, 1000, SimTime::ZERO);
    admit(&mut net, &members, 0, 2, 1001, SimTime::ZERO);
    net.reallocate(SimTime::ZERO);
    for t in 1..=5 {
        net.sync_all(secs(t));
    }
    assert_eq!(
        rescans(&net),
        0,
        "classification hands over the position: even the first credit is a hit"
    );

    // One position-shifting insert per switch: each of the four trail
    // entries rescans exactly once, then syncing is search-free again.
    install_acl(&mut net, secs(5));
    net.sync_all(secs(6));
    assert_eq!(rescans(&net), 4, "one rescan per affected trail entry");
    for t in 7..=10 {
        net.sync_all(secs(t));
    }
    assert_eq!(rescans(&net), 4, "healed hints stay exact");
}

/// Recorded from the parent commit (identity scan on every credit).
#[rustfmt::skip]
fn golden() -> Vec<SwitchCounters> {
    vec![
        (
            vec![(200, 0, 0), (100, 437501, 437500000), (100, 500002, 500000000), (100, 375000, 374999999), (100, 0, 0), (100, 166664, 166666664)],
            (6, 6),
            vec![
                (1, 687500, 687495, 687500000, 687499995),
                (2, 437498, 437500, 437499998, 437500000),
                (3, 499997, 500000, 499999997, 500000000),
                (4, 0, 0, 0, 0),
            ],
        ),
        (
            vec![(200, 0, 0), (100, 437501, 437500000), (100, 250001, 250000000), (100, 375000, 374999999), (100, 62501, 62500000), (100, 249996, 249999996)],
            (7, 7),
            vec![
                (1, 687495, 687500, 687499995, 687500000),
                (2, 250000, 499994, 250000000, 499999994),
                (3, 500000, 374999, 500000000, 374999999),
                (4, 187498, 62500, 187499998, 62500000),
            ],
        ),
        (
            vec![(200, 0, 0), (100, 437501, 437500000), (100, 250001, 250000000), (100, 375000, 374999999), (100, 0, 0), (100, 166664, 166666664)],
            (5, 5),
            vec![
                (1, 687495, 687500, 687499995, 687500000),
                (2, 687500, 687495, 687500000, 687499995),
            ],
        ),
    ]
}
