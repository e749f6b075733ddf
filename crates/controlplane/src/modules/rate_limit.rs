//! Rate limiting ("rate limiting: e2->e4: 500 Mbps" in Fig. 2).
//!
//! Installs a drop-band meter at the source member's edge switch and a
//! table-0 rule steering the pair's traffic through the meter before
//! continuing to the forwarding table (`Meter` + `GotoTable`). The fluid
//! plane enforces the meter as a rate cap (with the TCP AIMD penalty —
//! see `horse_dataplane::tcp`); the packet plane consumes tokens per
//! packet.

use super::{CompileCtx, PolicyModule};
use crate::api::Sink;
use crate::{cookies, priorities};
use horse_openflow::actions::Instruction;
use horse_openflow::flow_match::FlowMatch;
use horse_openflow::messages::{CtrlMsg, FlowMod, FlowModCommand, MeterMod};
use horse_openflow::table::FlowEntry;
use horse_openflow::MeterId;
use horse_types::{ByteSize, MacAddr, NodeId, Rate, TableId};

/// See module docs.
#[derive(Debug)]
pub struct RateLimitModule {
    /// Source member host.
    pub src: NodeId,
    /// Destination member host.
    pub dst: NodeId,
    /// Source member MAC.
    pub src_mac: MacAddr,
    /// Destination member MAC.
    pub dst_mac: MacAddr,
    /// The limit.
    pub rate: Rate,
    /// Meter id (allocated per instance by the generator).
    pub meter: MeterId,
}

impl RateLimitModule {
    /// Token-bucket depth: 50 ms worth of traffic at the limit (a common
    /// policer dimensioning), at least one jumbo frame.
    pub fn burst(&self) -> ByteSize {
        let bytes = (self.rate.as_bps() * 0.050 / 8.0) as u64;
        ByteSize::bytes(bytes.max(9000))
    }
}

impl PolicyModule for RateLimitModule {
    fn name(&self) -> &'static str {
        "rate_limit"
    }

    fn install(&mut self, ctx: &CompileCtx<'_>, out: &mut dyn Sink) {
        // Police at the source's attachment edge — drops happen before the
        // fabric is crossed.
        let Some((edge, _)) = ctx.paths.attachment(self.src) else {
            return;
        };
        out.send(
            edge,
            CtrlMsg::MeterMod(MeterMod::Add {
                id: self.meter,
                rate: self.rate,
                burst: self.burst(),
            }),
        );
        out.send(
            edge,
            CtrlMsg::FlowMod(FlowMod {
                table: TableId(0),
                command: FlowModCommand::Add,
                entry: FlowEntry::new(
                    priorities::RATE_LIMIT,
                    FlowMatch::ANY
                        .with_eth_src(self.src_mac)
                        .with_eth_dst(self.dst_mac),
                    vec![
                        Instruction::Meter(self.meter),
                        Instruction::GotoTable(TableId(1)),
                    ],
                )
                .with_cookie(cookies::RATE_LIMIT | self.meter.0 as u64),
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Outbox;
    use crate::pathdb::PathDb;
    use horse_topology::builders;
    use horse_types::SimTime;

    #[test]
    fn meter_and_rule_at_source_edge() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 1,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let ctx = CompileCtx {
            topo: &f.topology,
            paths: &db,
            now: SimTime::ZERO,
        };
        let (src, dst) = (f.members[1], f.members[3]);
        let src_edge = db.attachment(src).unwrap().0;
        let mut m = RateLimitModule {
            src,
            dst,
            src_mac: f.topology.node(src).unwrap().mac().unwrap(),
            dst_mac: f.topology.node(dst).unwrap().mac().unwrap(),
            rate: Rate::mbps(500.0),
            meter: MeterId(1),
        };
        let mut out = Outbox::new();
        m.install(&ctx, &mut out);
        assert_eq!(out.msgs.len(), 2);
        assert!(out.msgs.iter().all(|(sw, _)| *sw == src_edge));
        match &out.msgs[0].1 {
            CtrlMsg::MeterMod(MeterMod::Add { rate, .. }) => {
                assert_eq!(*rate, Rate::mbps(500.0))
            }
            m => panic!("expected meter, got {m:?}"),
        }
        match &out.msgs[1].1 {
            CtrlMsg::FlowMod(fm) => {
                assert_eq!(
                    fm.entry.instructions,
                    vec![
                        Instruction::Meter(MeterId(1)),
                        Instruction::GotoTable(TableId(1))
                    ]
                );
            }
            m => panic!("expected flowmod, got {m:?}"),
        }
    }

    #[test]
    fn burst_is_50ms_of_rate() {
        let m = RateLimitModule {
            src: NodeId(0),
            dst: NodeId(1),
            src_mac: MacAddr::local_from_id(1),
            dst_mac: MacAddr::local_from_id(2),
            rate: Rate::mbps(800.0),
            meter: MeterId(1),
        };
        // 800 Mbps × 50 ms = 5 MB
        assert_eq!(m.burst().as_bytes(), 5_000_000);
        let tiny = RateLimitModule {
            rate: Rate::kbps(8.0),
            ..m
        };
        assert_eq!(tiny.burst().as_bytes(), 9000, "floor at one jumbo frame");
    }
}
