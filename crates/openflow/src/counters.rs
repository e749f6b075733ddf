//! OpenFlow counters.
//!
//! The paper lists "OpenFlow counters" among the monitoring primitives the
//! control plane reads. In the fluid model a "packet" is an accounting
//! quantum: byte counters are exact (integrated from flow rates), packet
//! counters are derived as `bytes / avg_packet_size` when credited by the
//! fluid plane, and exact when credited by the packet plane.

use horse_types::{ByteSize, SimTime, Snap};
use serde::{Deserialize, Serialize};

/// Per-flow-entry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize, Snap)]
pub struct FlowCounters {
    /// Packets attributed to this entry.
    pub packets: u64,
    /// Bytes attributed to this entry.
    pub bytes: u64,
    /// When the entry was installed.
    pub created: SimTime,
    /// Last time the entry matched traffic (drives idle timeout).
    pub last_used: SimTime,
}

impl FlowCounters {
    /// A fresh counter set created at `now`.
    pub fn new(now: SimTime) -> Self {
        FlowCounters {
            packets: 0,
            bytes: 0,
            created: now,
            last_used: now,
        }
    }

    /// Credits traffic to the entry.
    pub fn credit(&mut self, packets: u64, bytes: ByteSize, now: SimTime) {
        self.packets = self.packets.saturating_add(packets);
        self.bytes = self.bytes.saturating_add(bytes.as_bytes());
        if now > self.last_used {
            self.last_used = now;
        }
    }

    /// Seconds the entry has existed at `now`.
    pub fn age(&self, now: SimTime) -> f64 {
        now.saturating_since(self.created).as_secs_f64()
    }
}

/// Per-port counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize, Snap)]
pub struct PortCounters {
    /// Packets received.
    pub rx_packets: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped on this port (queue overflow or policy).
    pub drops: u64,
}

impl PortCounters {
    /// Credits received traffic.
    pub fn credit_rx(&mut self, packets: u64, bytes: u64) {
        self.rx_packets = self.rx_packets.saturating_add(packets);
        self.rx_bytes = self.rx_bytes.saturating_add(bytes);
    }

    /// Credits transmitted traffic.
    pub fn credit_tx(&mut self, packets: u64, bytes: u64) {
        self.tx_packets = self.tx_packets.saturating_add(packets);
        self.tx_bytes = self.tx_bytes.saturating_add(bytes);
    }
}

/// Per-table counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize, Snap)]
pub struct TableCounters {
    /// Lookups performed in this table.
    pub lookups: u64,
    /// Lookups that matched an entry.
    pub matches: u64,
}

impl TableCounters {
    /// Fraction of lookups that hit, `0.0` when no lookups yet.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.matches as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_counters_credit_and_age() {
        let mut c = FlowCounters::new(SimTime::from_secs(1));
        c.credit(2, ByteSize::bytes(3000), SimTime::from_secs(5));
        assert_eq!(c.packets, 2);
        assert_eq!(c.bytes, 3000);
        assert_eq!(c.last_used, SimTime::from_secs(5));
        assert_eq!(c.age(SimTime::from_secs(11)), 10.0);
        // stale credit does not move last_used backwards
        c.credit(1, ByteSize::bytes(1), SimTime::from_secs(2));
        assert_eq!(c.last_used, SimTime::from_secs(5));
    }

    #[test]
    fn port_counters_accumulate() {
        let mut p = PortCounters::default();
        p.credit_rx(1, 1500);
        p.credit_tx(2, 3000);
        assert_eq!(p.rx_packets, 1);
        assert_eq!(p.tx_bytes, 3000);
    }

    #[test]
    fn table_hit_rate() {
        let mut t = TableCounters::default();
        assert_eq!(t.hit_rate(), 0.0);
        t.lookups = 10;
        t.matches = 4;
        assert!((t.hit_rate() - 0.4).abs() < 1e-12);
    }
}
