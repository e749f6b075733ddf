//! The flow abstraction.
//!
//! The paper defines a data flow as "an aggregate of packets with equal
//! values of the header fields, but with different traffic rates". The
//! [`FlowKey`] carries those header fields — the subset of the OpenFlow
//! 12-tuple the policy set of the paper needs (L2 addresses, EtherType,
//! VLAN, L3 addresses, IP protocol, L4 ports).

use crate::addr::MacAddr;
use crate::snap::Snap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// IP protocol numbers used by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, Snap)]
#[repr(u8)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp = 1,
    /// TCP (6).
    Tcp = 6,
    /// UDP (17).
    Udp = 17,
}

impl IpProtocol {
    /// Protocol number as in the IP header.
    pub const fn number(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
        }
    }
}

/// Common EtherType values.
pub mod ether_type {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
    /// VLAN-tagged frame (802.1Q).
    pub const VLAN: u16 = 0x8100;
}

/// Application classes used for application-specific peering policies and
/// workload generation. Each class implies a canonical transport and
/// destination port (see [`AppClass::transport`] / [`AppClass::dst_port`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, Snap)]
pub enum AppClass {
    /// Plain web traffic (TCP/80).
    Http,
    /// TLS web traffic (TCP/443).
    Https,
    /// DNS (UDP/53).
    Dns,
    /// Video streaming (TCP/8080 in our synthetic mix).
    Video,
    /// Mail (TCP/25).
    Mail,
    /// NTP (UDP/123).
    Ntp,
    /// Anything else (ephemeral ports).
    Other,
}

impl AppClass {
    /// All classes, in a stable order (useful for iteration and reports).
    pub const ALL: [AppClass; 7] = [
        AppClass::Http,
        AppClass::Https,
        AppClass::Dns,
        AppClass::Video,
        AppClass::Mail,
        AppClass::Ntp,
        AppClass::Other,
    ];

    /// Canonical transport protocol of the class.
    pub const fn transport(self) -> IpProtocol {
        match self {
            AppClass::Dns | AppClass::Ntp => IpProtocol::Udp,
            _ => IpProtocol::Tcp,
        }
    }

    /// Canonical destination (server) port of the class.
    pub const fn dst_port(self) -> u16 {
        match self {
            AppClass::Http => 80,
            AppClass::Https => 443,
            AppClass::Dns => 53,
            AppClass::Video => 8080,
            AppClass::Mail => 25,
            AppClass::Ntp => 123,
            AppClass::Other => 49152,
        }
    }

    /// Classifies a (protocol, destination port) pair back into a class.
    pub fn classify(proto: IpProtocol, dst_port: u16) -> AppClass {
        match (proto, dst_port) {
            (IpProtocol::Tcp, 80) => AppClass::Http,
            (IpProtocol::Tcp, 443) => AppClass::Https,
            (IpProtocol::Udp, 53) => AppClass::Dns,
            (IpProtocol::Tcp, 8080) => AppClass::Video,
            (IpProtocol::Tcp, 25) => AppClass::Mail,
            (IpProtocol::Udp, 123) => AppClass::Ntp,
            _ => AppClass::Other,
        }
    }
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppClass::Http => "http",
            AppClass::Https => "https",
            AppClass::Dns => "dns",
            AppClass::Video => "video",
            AppClass::Mail => "mail",
            AppClass::Ntp => "ntp",
            AppClass::Other => "other",
        };
        write!(f, "{s}")
    }
}

/// Header fields identifying a flow — the paper's "aggregate of packets with
/// equal values of the header fields".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, Snap)]
pub struct FlowKey {
    /// Source MAC address.
    pub eth_src: MacAddr,
    /// Destination MAC address.
    pub eth_dst: MacAddr,
    /// EtherType (0x0800 for IPv4).
    pub eth_type: u16,
    /// VLAN id, `None` when untagged.
    pub vlan: Option<u16>,
    /// Source IPv4 address.
    pub ip_src: Ipv4Addr,
    /// Destination IPv4 address.
    pub ip_dst: Ipv4Addr,
    /// IP protocol.
    pub ip_proto: IpProtocol,
    /// Transport source port.
    pub tp_src: u16,
    /// Transport destination port.
    pub tp_dst: u16,
}

impl FlowKey {
    /// Convenience constructor for an IPv4 TCP flow.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        tp_src: u16,
        tp_dst: u16,
    ) -> Self {
        FlowKey {
            eth_src,
            eth_dst,
            eth_type: ether_type::IPV4,
            vlan: None,
            ip_src,
            ip_dst,
            ip_proto: IpProtocol::Tcp,
            tp_src,
            tp_dst,
        }
    }

    /// Convenience constructor for an IPv4 UDP flow.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        tp_src: u16,
        tp_dst: u16,
    ) -> Self {
        FlowKey {
            ip_proto: IpProtocol::Udp,
            ..FlowKey::tcp(eth_src, eth_dst, ip_src, ip_dst, tp_src, tp_dst)
        }
    }

    /// The application class implied by (protocol, dst port).
    pub fn app_class(&self) -> AppClass {
        AppClass::classify(self.ip_proto, self.tp_dst)
    }

    /// The key of the reverse direction (addresses and ports swapped).
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            eth_src: self.eth_dst,
            eth_dst: self.eth_src,
            ip_src: self.ip_dst,
            ip_dst: self.ip_src,
            tp_src: self.tp_dst,
            tp_dst: self.tp_src,
            ..*self
        }
    }

    /// A deterministic 64-bit hash of the key, stable across runs and
    /// platforms (FNV-1a). Used for ECMP bucket selection so that a flow
    /// always hashes to the same path.
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut feed = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.eth_src.octets() {
            feed(b);
        }
        for b in self.eth_dst.octets() {
            feed(b);
        }
        feed((self.eth_type >> 8) as u8);
        feed(self.eth_type as u8);
        let vlan = self.vlan.map(|v| v + 1).unwrap_or(0);
        feed((vlan >> 8) as u8);
        feed(vlan as u8);
        for b in self.ip_src.octets() {
            feed(b);
        }
        for b in self.ip_dst.octets() {
            feed(b);
        }
        feed(self.ip_proto.number());
        feed((self.tp_src >> 8) as u8);
        feed(self.tp_src as u8);
        feed((self.tp_dst >> 8) as u8);
        feed(self.tp_dst as u8);
        h
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{} [{} -> {}]",
            self.ip_proto,
            self.ip_src,
            self.tp_src,
            self.ip_dst,
            self.tp_dst,
            self.eth_src,
            self.eth_dst
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sport: u16, dport: u16) -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            dport,
        )
    }

    #[test]
    fn app_class_roundtrip() {
        for c in AppClass::ALL {
            assert_eq!(AppClass::classify(c.transport(), c.dst_port()), c);
        }
    }

    #[test]
    fn app_class_of_key() {
        assert_eq!(key(30000, 80).app_class(), AppClass::Http);
        assert_eq!(key(30000, 443).app_class(), AppClass::Https);
        assert_eq!(key(30000, 12345).app_class(), AppClass::Other);
        let k = FlowKey::udp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5000,
            53,
        );
        assert_eq!(k.app_class(), AppClass::Dns);
    }

    #[test]
    fn reversed_swaps_everything() {
        let k = key(1111, 80);
        let r = k.reversed();
        assert_eq!(r.eth_src, k.eth_dst);
        assert_eq!(r.ip_dst, k.ip_src);
        assert_eq!(r.tp_src, 80);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        let a = key(1111, 80).stable_hash();
        let b = key(1111, 80).stable_hash();
        assert_eq!(a, b);
        // different ports should (with overwhelming probability) differ
        let c = key(1112, 80).stable_hash();
        assert_ne!(a, c);
        // vlan None vs Some(0) must differ (encoding uses v+1)
        let mut k1 = key(1, 2);
        let mut k2 = key(1, 2);
        k1.vlan = None;
        k2.vlan = Some(0);
        assert_ne!(k1.stable_hash(), k2.stable_hash());
    }

    #[test]
    fn serde_roundtrip() {
        let k = key(1234, 443);
        let js = serde_json::to_string(&k).unwrap();
        let back: FlowKey = serde_json::from_str(&js).unwrap();
        assert_eq!(back, k);
    }
}
