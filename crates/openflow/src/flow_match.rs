//! Wildcard flow matching.
//!
//! [`FlowMatch`] is the OpenFlow match structure reduced to the fields the
//! paper's policy set needs: ingress port, L2 addresses, EtherType, VLAN,
//! L3 prefixes, IP protocol and L4 ports. Each field is optional —
//! `None` means wildcard. IP addresses match by prefix so blackholing and
//! peering policies can target whole networks.

use horse_types::{FlowKey, IpProtocol, Ipv4Net, MacAddr, PortNo, Snap};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A wildcard match over flow-key fields plus the ingress port.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize, Snap)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Source MAC.
    pub eth_src: Option<MacAddr>,
    /// Destination MAC.
    pub eth_dst: Option<MacAddr>,
    /// EtherType.
    pub eth_type: Option<u16>,
    /// VLAN id (matching untagged traffic requires a wildcard here).
    pub vlan: Option<u16>,
    /// Source IPv4 prefix.
    pub ip_src: Option<Ipv4Net>,
    /// Destination IPv4 prefix.
    pub ip_dst: Option<Ipv4Net>,
    /// IP protocol.
    pub ip_proto: Option<IpProtocol>,
    /// Transport source port.
    pub tp_src: Option<u16>,
    /// Transport destination port.
    pub tp_dst: Option<u16>,
}

impl FlowMatch {
    /// The match-everything wildcard (table-miss match).
    pub const ANY: FlowMatch = FlowMatch {
        in_port: None,
        eth_src: None,
        eth_dst: None,
        eth_type: None,
        vlan: None,
        ip_src: None,
        ip_dst: None,
        ip_proto: None,
        tp_src: None,
        tp_dst: None,
    };

    /// Builder: match on ingress port.
    pub fn with_in_port(mut self, p: PortNo) -> Self {
        self.in_port = Some(p);
        self
    }

    /// Builder: match on source MAC.
    pub fn with_eth_src(mut self, m: MacAddr) -> Self {
        self.eth_src = Some(m);
        self
    }

    /// Builder: match on destination MAC.
    pub fn with_eth_dst(mut self, m: MacAddr) -> Self {
        self.eth_dst = Some(m);
        self
    }

    /// Builder: match on EtherType.
    pub fn with_eth_type(mut self, t: u16) -> Self {
        self.eth_type = Some(t);
        self
    }

    /// Builder: match on VLAN id.
    pub fn with_vlan(mut self, v: u16) -> Self {
        self.vlan = Some(v);
        self
    }

    /// Builder: match on source prefix.
    pub fn with_ip_src(mut self, n: Ipv4Net) -> Self {
        self.ip_src = Some(n);
        self
    }

    /// Builder: match on destination prefix.
    pub fn with_ip_dst(mut self, n: Ipv4Net) -> Self {
        self.ip_dst = Some(n);
        self
    }

    /// Builder: match on IP protocol.
    pub fn with_ip_proto(mut self, p: IpProtocol) -> Self {
        self.ip_proto = Some(p);
        self
    }

    /// Builder: match on transport source port.
    pub fn with_tp_src(mut self, p: u16) -> Self {
        self.tp_src = Some(p);
        self
    }

    /// Builder: match on transport destination port.
    pub fn with_tp_dst(mut self, p: u16) -> Self {
        self.tp_dst = Some(p);
        self
    }

    /// Exact-match on every L2–L4 field of `key` (not the ingress port).
    pub fn exact(key: &FlowKey) -> Self {
        FlowMatch {
            in_port: None,
            eth_src: Some(key.eth_src),
            eth_dst: Some(key.eth_dst),
            eth_type: Some(key.eth_type),
            vlan: key.vlan,
            ip_src: Some(Ipv4Net::host(key.ip_src)),
            ip_dst: Some(Ipv4Net::host(key.ip_dst)),
            ip_proto: Some(key.ip_proto),
            tp_src: Some(key.tp_src),
            tp_dst: Some(key.tp_dst),
        }
    }

    /// Does a flow arriving on `in_port` with header `key` match?
    pub fn matches(&self, in_port: PortNo, key: &FlowKey) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            if m != key.eth_src {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            if m != key.eth_dst {
                return false;
            }
        }
        if let Some(t) = self.eth_type {
            if t != key.eth_type {
                return false;
            }
        }
        if let Some(v) = self.vlan {
            if key.vlan != Some(v) {
                return false;
            }
        }
        if let Some(n) = self.ip_src {
            if !n.contains(key.ip_src) {
                return false;
            }
        }
        if let Some(n) = self.ip_dst {
            if !n.contains(key.ip_dst) {
                return false;
            }
        }
        if let Some(p) = self.ip_proto {
            if p != key.ip_proto {
                return false;
            }
        }
        if let Some(p) = self.tp_src {
            if p != key.tp_src {
                return false;
            }
        }
        if let Some(p) = self.tp_dst {
            if p != key.tp_dst {
                return false;
            }
        }
        true
    }

    /// True if some packet could match both `self` and `other`
    /// (field-by-field compatibility). This is the core primitive of the
    /// policy-composition validator.
    pub fn overlaps(&self, other: &FlowMatch) -> bool {
        fn f<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            }
        }
        fn pfx(a: Option<Ipv4Net>, b: Option<Ipv4Net>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x.overlaps(&y),
                _ => true,
            }
        }
        f(self.in_port, other.in_port)
            && f(self.eth_src, other.eth_src)
            && f(self.eth_dst, other.eth_dst)
            && f(self.eth_type, other.eth_type)
            && f(self.vlan, other.vlan)
            && pfx(self.ip_src, other.ip_src)
            && pfx(self.ip_dst, other.ip_dst)
            && f(self.ip_proto, other.ip_proto)
            && f(self.tp_src, other.tp_src)
            && f(self.tp_dst, other.tp_dst)
    }

    /// True if every packet matching `self` also matches `other`
    /// (i.e. `self` is at least as specific).
    pub fn is_subset_of(&self, other: &FlowMatch) -> bool {
        fn f<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
            match (a, b) {
                (_, None) => true,
                (Some(x), Some(y)) => x == y,
                (None, Some(_)) => false,
            }
        }
        fn pfx(a: Option<Ipv4Net>, b: Option<Ipv4Net>) -> bool {
            match (a, b) {
                (_, None) => true,
                (Some(x), Some(y)) => x.len >= y.len && y.contains(x.addr),
                (None, Some(_)) => false,
            }
        }
        f(self.in_port, other.in_port)
            && f(self.eth_src, other.eth_src)
            && f(self.eth_dst, other.eth_dst)
            && f(self.eth_type, other.eth_type)
            && f(self.vlan, other.vlan)
            && pfx(self.ip_src, other.ip_src)
            && pfx(self.ip_dst, other.ip_dst)
            && f(self.ip_proto, other.ip_proto)
            && f(self.tp_src, other.tp_src)
            && f(self.tp_dst, other.tp_dst)
    }

    /// Number of specified (non-wildcard) fields — a crude specificity
    /// measure used by validators and debug output.
    pub fn specificity(&self) -> u32 {
        let mut n = 0;
        n += self.in_port.is_some() as u32;
        n += self.eth_src.is_some() as u32;
        n += self.eth_dst.is_some() as u32;
        n += self.eth_type.is_some() as u32;
        n += self.vlan.is_some() as u32;
        n += self.ip_src.is_some() as u32;
        n += self.ip_dst.is_some() as u32;
        n += self.ip_proto.is_some() as u32;
        n += self.tp_src.is_some() as u32;
        n += self.tp_dst.is_some() as u32;
        n
    }
}

impl fmt::Display for FlowMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FlowMatch::ANY {
            return write!(f, "*");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.in_port {
            parts.push(format!("in={p}"));
        }
        if let Some(m) = self.eth_src {
            parts.push(format!("eth_src={m}"));
        }
        if let Some(m) = self.eth_dst {
            parts.push(format!("eth_dst={m}"));
        }
        if let Some(t) = self.eth_type {
            parts.push(format!("eth_type=0x{t:04x}"));
        }
        if let Some(v) = self.vlan {
            parts.push(format!("vlan={v}"));
        }
        if let Some(n) = self.ip_src {
            parts.push(format!("ip_src={n}"));
        }
        if let Some(n) = self.ip_dst {
            parts.push(format!("ip_dst={n}"));
        }
        if let Some(p) = self.ip_proto {
            parts.push(format!("proto={p}"));
        }
        if let Some(p) = self.tp_src {
            parts.push(format!("tp_src={p}"));
        }
        if let Some(p) = self.tp_dst {
            parts.push(format!("tp_dst={p}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 1, 0, 1),
            40000,
            80,
        )
    }

    #[test]
    fn any_matches_everything() {
        assert!(FlowMatch::ANY.matches(PortNo(1), &key()));
        assert_eq!(FlowMatch::ANY.specificity(), 0);
    }

    #[test]
    fn exact_matches_only_its_key() {
        let m = FlowMatch::exact(&key());
        assert!(m.matches(PortNo(1), &key()));
        assert!(m.matches(PortNo(7), &key()), "exact() wildcards the port");
        let mut other = key();
        other.tp_dst = 443;
        assert!(!m.matches(PortNo(1), &other));
    }

    #[test]
    fn field_mismatches_reject() {
        let k = key();
        assert!(!FlowMatch::ANY
            .with_in_port(PortNo(2))
            .matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY
            .with_eth_src(MacAddr::local_from_id(9))
            .matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY
            .with_eth_dst(MacAddr::local_from_id(9))
            .matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY.with_eth_type(0x0806).matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY.with_vlan(5).matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY
            .with_ip_src("192.168.0.0/16".parse().unwrap())
            .matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY
            .with_ip_proto(IpProtocol::Udp)
            .matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY.with_tp_src(1).matches(PortNo(1), &k));
        assert!(!FlowMatch::ANY.with_tp_dst(443).matches(PortNo(1), &k));
    }

    #[test]
    fn prefix_matching() {
        let m = FlowMatch::ANY.with_ip_dst("10.1.0.0/16".parse().unwrap());
        assert!(m.matches(PortNo(1), &key()));
        let m2 = FlowMatch::ANY.with_ip_dst("10.2.0.0/16".parse().unwrap());
        assert!(!m2.matches(PortNo(1), &key()));
    }

    #[test]
    fn vlan_matching_requires_tag() {
        let m = FlowMatch::ANY.with_vlan(100);
        let mut k = key();
        assert!(!m.matches(PortNo(1), &k), "untagged never matches vlan");
        k.vlan = Some(100);
        assert!(m.matches(PortNo(1), &k));
        k.vlan = Some(200);
        assert!(!m.matches(PortNo(1), &k));
    }

    #[test]
    fn overlap_symmetric_cases() {
        let a = FlowMatch::ANY.with_tp_dst(80);
        let b = FlowMatch::ANY.with_ip_proto(IpProtocol::Tcp);
        assert!(a.overlaps(&b) && b.overlaps(&a), "different fields overlap");
        let c = FlowMatch::ANY.with_tp_dst(443);
        assert!(!a.overlaps(&c), "same field different values disjoint");
        assert!(FlowMatch::ANY.overlaps(&a));
    }

    #[test]
    fn overlap_prefixes() {
        let a = FlowMatch::ANY.with_ip_dst("10.0.0.0/8".parse().unwrap());
        let b = FlowMatch::ANY.with_ip_dst("10.5.0.0/16".parse().unwrap());
        let c = FlowMatch::ANY.with_ip_dst("11.0.0.0/8".parse().unwrap());
        assert!(a.overlaps(&b));
        assert!(!b.overlaps(&c));
    }

    #[test]
    fn subset_relation() {
        let wide = FlowMatch::ANY.with_ip_dst("10.0.0.0/8".parse().unwrap());
        let narrow = wide
            .with_tp_dst(80)
            .with_ip_dst("10.5.0.0/16".parse().unwrap());
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(wide.is_subset_of(&FlowMatch::ANY));
        assert!(narrow.is_subset_of(&narrow));
    }

    #[test]
    fn specificity_counts_fields() {
        // 8 fields set: in_port and vlan stay wildcard for an untagged key
        assert_eq!(FlowMatch::exact(&key()).specificity(), 8);
        assert_eq!(FlowMatch::ANY.with_tp_dst(80).specificity(), 1);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(FlowMatch::ANY.to_string(), "*");
        let m = FlowMatch::ANY
            .with_tp_dst(80)
            .with_ip_proto(IpProtocol::Tcp);
        assert_eq!(m.to_string(), "proto=tcp,tp_dst=80");
    }
}
