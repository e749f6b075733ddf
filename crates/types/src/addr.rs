//! MAC and IPv4 addressing.
//!
//! The simulator abstracts packets into flows, but flow keys still carry
//! real header fields so that OpenFlow-style matching (exact and prefix
//! wildcards) behaves like it would on a switch.

use crate::snap::Snap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A 48-bit Ethernet MAC address.
///
/// ```
/// use horse_types::MacAddr;
/// let m: MacAddr = "02:00:00:00:00:2a".parse().unwrap();
/// assert_eq!(m.to_string(), "02:00:00:00:00:2a");
/// assert_eq!(MacAddr::from_u64(0x2a).octets()[5], 0x2a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Snap)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address (used as "unspecified").
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a MAC from the low 48 bits of `v` (big-endian order).
    pub const fn from_u64(v: u64) -> Self {
        MacAddr([
            (v >> 40) as u8,
            (v >> 32) as u8,
            (v >> 24) as u8,
            (v >> 16) as u8,
            (v >> 8) as u8,
            v as u8,
        ])
    }

    /// Returns the address as a u64 (high 16 bits zero).
    pub const fn to_u64(self) -> u64 {
        let o = self.0;
        ((o[0] as u64) << 40)
            | ((o[1] as u64) << 32)
            | ((o[2] as u64) << 24)
            | ((o[3] as u64) << 16)
            | ((o[4] as u64) << 8)
            | (o[5] as u64)
    }

    /// Raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// True if this is the broadcast address.
    pub const fn is_broadcast(self) -> bool {
        self.to_u64() == MacAddr::BROADCAST.to_u64()
    }

    /// True if the group (multicast) bit is set.
    pub const fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Locally-administered unicast MAC derived from a small integer id;
    /// convenient for synthetic hosts (`02:…` prefix keeps it unicast+local).
    pub const fn local_from_id(id: u32) -> Self {
        MacAddr::from_u64(0x0200_0000_0000 | id as u64)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

/// Error returned when parsing a [`MacAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacParseError(pub String);

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address: {}", self.0)
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut n = 0;
        for part in s.split(':') {
            if n >= 6 {
                return Err(MacParseError(s.to_string()));
            }
            octets[n] = u8::from_str_radix(part, 16).map_err(|_| MacParseError(s.to_string()))?;
            n += 1;
        }
        if n != 6 {
            return Err(MacParseError(s.to_string()));
        }
        Ok(MacAddr(octets))
    }
}

/// An IPv4 prefix (`addr/len`) used for wildcard matching and blackholing.
///
/// ```
/// use horse_types::Ipv4Net;
/// use std::net::Ipv4Addr;
/// let net: Ipv4Net = "10.0.0.0/8".parse().unwrap();
/// assert!(net.contains(Ipv4Addr::new(10, 200, 3, 4)));
/// assert!(!net.contains(Ipv4Addr::new(11, 0, 0, 1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Snap)]
pub struct Ipv4Net {
    /// Network address (host bits may be set; they are masked on use).
    pub addr: Ipv4Addr,
    /// Prefix length, `0..=32`.
    pub len: u8,
}

impl Ipv4Net {
    /// Creates a prefix; `len` is clamped to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        Ipv4Net {
            addr,
            len: len.min(32),
        }
    }

    /// A /32 host route.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Net { addr, len: 32 }
    }

    /// The match-everything prefix `0.0.0.0/0`.
    pub const ANY: Ipv4Net = Ipv4Net {
        addr: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    /// Bitmask corresponding to the prefix length.
    pub fn mask(&self) -> u32 {
        if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - self.len as u32)
        }
    }

    /// True if `ip` falls inside the prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        let m = self.mask();
        (u32::from(ip) & m) == (u32::from(self.addr) & m)
    }

    /// True if the two prefixes share at least one address.
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        let m = self.mask() & other.mask();
        (u32::from(self.addr) & m) == (u32::from(other.addr) & m)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4Net({self})")
    }
}

/// Error returned when parsing an [`Ipv4Net`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4NetParseError(pub String);

impl fmt::Display for Ipv4NetParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 prefix: {}", self.0)
    }
}

impl std::error::Error for Ipv4NetParseError {}

impl FromStr for Ipv4Net {
    type Err = Ipv4NetParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, l) = match s.split_once('/') {
            Some((a, l)) => (a, l),
            None => (s, "32"),
        };
        let addr: Ipv4Addr = a.parse().map_err(|_| Ipv4NetParseError(s.to_string()))?;
        let len: u8 = l.parse().map_err(|_| Ipv4NetParseError(s.to_string()))?;
        if len > 32 {
            return Err(Ipv4NetParseError(s.to_string()));
        }
        Ok(Ipv4Net { addr, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_roundtrip_u64() {
        for v in [
            0u64,
            1,
            0xffff_ffff_ffff,
            0x0200_0000_002a,
            0x1234_5678_9abc,
        ] {
            assert_eq!(MacAddr::from_u64(v).to_u64(), v);
        }
    }

    #[test]
    fn mac_parse_display_roundtrip() {
        let m: MacAddr = "de:ad:be:ef:00:2a".parse().unwrap();
        assert_eq!(m.to_string(), "de:ad:be:ef:00:2a");
        assert_eq!(m.octets(), [0xde, 0xad, 0xbe, 0xef, 0x00, 0x2a]);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_broadcast_and_multicast() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::local_from_id(7).is_broadcast());
        assert!(!MacAddr::local_from_id(7).is_multicast());
        assert!(MacAddr([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
    }

    #[test]
    fn local_from_id_unique_and_local() {
        let a = MacAddr::local_from_id(1);
        let b = MacAddr::local_from_id(2);
        assert_ne!(a, b);
        assert_eq!(a.octets()[0], 0x02);
    }

    #[test]
    fn ipv4net_contains() {
        let n: Ipv4Net = "192.168.1.0/24".parse().unwrap();
        assert!(n.contains(Ipv4Addr::new(192, 168, 1, 255)));
        assert!(!n.contains(Ipv4Addr::new(192, 168, 2, 0)));
        assert!(Ipv4Net::ANY.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn ipv4net_host_route() {
        let h = Ipv4Net::host(Ipv4Addr::new(10, 0, 0, 1));
        assert!(h.contains(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!h.contains(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn ipv4net_mask_edges() {
        assert_eq!(Ipv4Net::ANY.mask(), 0);
        assert_eq!(Ipv4Net::host(Ipv4Addr::UNSPECIFIED).mask(), u32::MAX);
        let n: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        assert_eq!(n.mask(), 0xff00_0000);
    }

    #[test]
    fn ipv4net_overlaps() {
        let a: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let c: Ipv4Net = "11.0.0.0/8".parse().unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(Ipv4Net::ANY.overlaps(&c));
    }

    #[test]
    fn ipv4net_parse_rejects_garbage() {
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Net>().is_err());
        assert!("hello".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn ipv4net_parse_bare_addr_is_host() {
        let n: Ipv4Net = "10.0.0.1".parse().unwrap();
        assert_eq!(n.len, 32);
    }
}
