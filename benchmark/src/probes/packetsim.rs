//! `packetsim`: the packet plane alone — `PacketNet::run` over the
//! workload's packet-fidelity foreground with links draining at full
//! capacity (no fluid background, no hybrid coupling). Should move `run_s`
//! on `ixp_hybrid_pkt` only.

use super::{generator, Input, Reading, Shared};
use horse::hybrid::pkt_flow_spec;
use horse::packetsim::{PacketNet, PacketSimConfig};

pub const METRICS: &[&str] = &["packetsim.standalone_ns_per_pkt"];

pub fn run(input: &Input, _: &mut Shared) -> Vec<Reading> {
    let name = METRICS[0];
    let wanted = input.scenario.packet_foreground.min(input.flows.len());
    if wanted == 0 {
        return vec![(
            name,
            Err("workload has no packet-fidelity foreground".into()),
        )];
    }
    let foreground = if input.smoke {
        wanted.min(64)
    } else {
        wanted.min(512)
    };
    let specs: Vec<_> = input.flows[..foreground]
        .iter()
        .filter_map(|(at, spec)| pkt_flow_spec(spec, *at))
        .collect();
    let mut controller = match generator(input) {
        Ok(g) => g,
        Err(why) => return vec![(name, Err(why))],
    };
    let net = PacketNet::new(input.scenario.topology.clone(), PacketSimConfig::default());
    let results = net.run(&mut controller, specs, input.scenario.horizon);
    let data_pkt = PacketSimConfig::default().data_pkt as u64;
    let packets: u64 = results
        .records
        .iter()
        .map(|r| r.bytes_delivered.div_ceil(data_pkt))
        .sum();
    let reading = if packets == 0 {
        Err("the foreground delivered no packets".to_string())
    } else {
        // `wall_seconds` covers the rule install too; on the IXP fabrics
        // that is microseconds against seconds of packet events.
        Ok(results.wall_seconds * 1e9 / packets as f64)
    };
    vec![(name, reading)]
}
