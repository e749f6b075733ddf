//! `Snap` — the canonical binary state codec behind simulation
//! checkpoints.
//!
//! A checkpoint must satisfy two properties JSON cannot give us cheaply:
//!
//! 1. **Losslessness** — every `f64` is stored as its raw bit pattern
//!    ([`f64::to_bits`]), so restored state is *bit*-identical, including
//!    infinities and signed zeros that text formats mangle or reject.
//! 2. **Canonical form** — one state has exactly one encoding. Unordered
//!    collections serialize in sorted key order, so
//!    `serialize → restore → re-serialize` is byte-identical (the
//!    round-trip property the checkpoint tests pin down).
//!
//! The format is deliberately boring: fixed-width little-endian scalars,
//! `u64` length prefixes, `u8` enum tags. No varints, no compression —
//! checkpoints are transient artifacts read by the same build that wrote
//! them, guarded by the snapshot header's version field (owned by
//! `horse-core`).
//!
//! Types that already derive the vendored `serde` can get `Snap` for free
//! through [`snap_via_serde`]/[`unsnap_via_serde`], which encode the
//! serde [`Value`](serde::Value) tree in binary (floats as bit patterns,
//! so the losslessness guarantee holds there too). Runtime-only types
//! implement the trait by hand, usually via [`impl_snap_struct!`](crate::impl_snap_struct).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::net::Ipv4Addr;

/// Error produced when decoding a snapshot fails (truncated buffer, bad
/// tag, or a count that does not fit the platform).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset at which decoding failed.
    pub at: usize,
}

impl SnapError {
    /// Builds an error at byte offset `at` — for custom decoders layered
    /// over [`SnapReader`].
    pub fn new(msg: impl Into<String>, at: usize) -> Self {
        SnapError {
            msg: msg.into(),
            at,
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot decode error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for the canonical binary form.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw bit pattern (lossless).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length/count (`usize` as `u64`).
    pub fn len_prefix(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Writes raw bytes with a length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.len_prefix(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes a UTF-8 string with a length prefix.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Cursor-based decoder over an encoded buffer.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps an encoded buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed (decoders use this to
    /// reject trailing garbage).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::new(
                format!("need {n} bytes, {} remain", self.remaining()),
                self.pos,
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length/count, bounded by the bytes actually remaining so
    /// a corrupt count cannot trigger a huge allocation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let at = self.pos;
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::new(
                format!("count {n} exceeds remaining {} bytes", self.remaining()),
                at,
            ));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let at = self.pos;
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| SnapError::new(format!("invalid UTF-8: {e}"), at))
    }
}

/// Canonical binary state serialization. See the module docs for the
/// guarantees implementations must uphold (losslessness + one encoding
/// per state).
pub trait Snap: Sized {
    /// Appends the canonical encoding of `self`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes one value from the cursor.
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError>;
}

macro_rules! snap_scalar {
    ($ty:ty, $wm:ident, $rm:ident) => {
        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$wm(*self);
            }
            fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
                r.$rm()
            }
        }
    };
}

snap_scalar!(u8, u8, u8);
snap_scalar!(u16, u16, u16);
snap_scalar!(u32, u32, u32);
snap_scalar!(u64, u64, u64);
snap_scalar!(i64, i64, i64);
snap_scalar!(f64, f64, f64);

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::new(format!("bad bool byte {other}"), at)),
        }
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let at = r.position();
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("usize overflow: {v}"), at))
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        r.str()
    }
}

impl Snap for Ipv4Addr {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(u32::from(*self));
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Ipv4Addr::from(r.u32()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let at = r.position();
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            other => Err(SnapError::new(format!("bad Option tag {other}"), at)),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unsnap(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::new("array length mismatch", r.position()))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap, D: Snap> Snap for (A, B, C, D) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
        self.3.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?, D::unsnap(r)?))
    }
}

/// Unordered maps encode in ascending key order — the canonical form.
impl<K: Snap + Ord + Hash + Clone, V: Snap> Snap for HashMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.len_prefix(keys.len());
        for k in keys {
            k.snap(w);
            self[k].snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = HashMap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Unordered sets encode in ascending order — the canonical form.
impl<T: Snap + Ord + Hash + Clone> Snap for HashSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        w.len_prefix(items.len());
        for v in items {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = HashSet::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.insert(T::unsnap(r)?);
        }
        Ok(out)
    }
}

/// Ordered maps are already canonical — encode in iteration order, the
/// same bytes a `HashMap` with the same entries writes.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Ordered sets are already canonical — encode in iteration order.
impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::unsnap(r)?);
        }
        Ok(out)
    }
}

/// Deques encode front to back (the order iteration and pops observe).
impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = VecDeque::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

/// Implements [`Snap`] for a struct by encoding its named fields in the
/// listed order. Every field must itself implement `Snap`.
///
/// ```
/// use horse_types::impl_snap_struct;
/// use horse_types::snap::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, y: f64 }
/// impl_snap_struct!(P { x, y });
///
/// let mut w = SnapWriter::new();
/// P { x: 7, y: -0.0 }.snap(&mut w);
/// let bytes = w.into_bytes();
/// let p = P::unsnap(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!(p, P { x: 7, y: -0.0 });
/// assert!(p.y.is_sign_negative(), "lossless floats");
/// ```
#[macro_export]
macro_rules! impl_snap_struct {
    ($name:ty { $($field:ident),* $(,)? }) => {
        impl $crate::snap::Snap for $name {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::snap(&self.$field, w); )*
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self {
                    $( $field: $crate::snap::Snap::unsnap(r)?, )*
                })
            }
        }
    };
}

/// Implements [`Snap`] for a type that already implements the vendored
/// `serde` traits, by binary-encoding its [`Value`](serde::Value) tree
/// (see [`snap_via_serde`]).
#[macro_export]
macro_rules! impl_snap_via_serde {
    ($($name:ty),* $(,)?) => {
        $(
            impl $crate::snap::Snap for $name {
                fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                    $crate::snap::snap_via_serde(self, w);
                }
                fn unsnap(
                    r: &mut $crate::snap::SnapReader,
                ) -> Result<Self, $crate::snap::SnapError> {
                    $crate::snap::unsnap_via_serde(r)
                }
            }
        )*
    };
}

// ---------------------------------------------------------------------
// serde bridge: binary-encode the vendored serde Value tree. Floats are
// stored as bit patterns, so this path is as lossless as hand-written
// impls; derive output is deterministic (struct fields in declaration
// order), so the canonical-form guarantee holds as long as the
// serialized type does not itself iterate an unordered container (the
// workspace's derived types all use Vec/BTreeMap-like orderings).
// ---------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_UINT: u8 = 3;
const VAL_FLOAT: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_SEQ: u8 = 6;
const VAL_MAP: u8 = 7;

fn snap_value(v: &serde::Value, w: &mut SnapWriter) {
    match v {
        serde::Value::Null => w.u8(VAL_NULL),
        serde::Value::Bool(b) => {
            w.u8(VAL_BOOL);
            w.u8(*b as u8);
        }
        serde::Value::Number(serde::Number::Int(i)) => {
            w.u8(VAL_INT);
            w.i64(*i);
        }
        serde::Value::Number(serde::Number::UInt(u)) => {
            w.u8(VAL_UINT);
            w.u64(*u);
        }
        serde::Value::Number(serde::Number::Float(f)) => {
            w.u8(VAL_FLOAT);
            w.f64(*f);
        }
        serde::Value::Str(s) => {
            w.u8(VAL_STR);
            w.str(s);
        }
        serde::Value::Seq(items) => {
            w.u8(VAL_SEQ);
            w.len_prefix(items.len());
            for item in items {
                snap_value(item, w);
            }
        }
        serde::Value::Map(entries) => {
            w.u8(VAL_MAP);
            w.len_prefix(entries.len());
            for (k, val) in entries {
                w.str(k);
                snap_value(val, w);
            }
        }
    }
}

fn unsnap_value(r: &mut SnapReader) -> Result<serde::Value, SnapError> {
    let at = r.position();
    Ok(match r.u8()? {
        VAL_NULL => serde::Value::Null,
        VAL_BOOL => serde::Value::Bool(r.u8()? != 0),
        VAL_INT => serde::Value::Number(serde::Number::Int(r.i64()?)),
        VAL_UINT => serde::Value::Number(serde::Number::UInt(r.u64()?)),
        VAL_FLOAT => serde::Value::Number(serde::Number::Float(r.f64()?)),
        VAL_STR => serde::Value::Str(r.str()?),
        VAL_SEQ => {
            let n = r.len_prefix()?;
            let mut items = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                items.push(unsnap_value(r)?);
            }
            serde::Value::Seq(items)
        }
        VAL_MAP => {
            let n = r.len_prefix()?;
            let mut entries = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                let k = r.str()?;
                entries.push((k, unsnap_value(r)?));
            }
            serde::Value::Map(entries)
        }
        other => return Err(SnapError::new(format!("bad Value tag {other}"), at)),
    })
}

/// Encodes any `serde::Serialize` type through its `Value` tree.
pub fn snap_via_serde<T: serde::Serialize + ?Sized>(v: &T, w: &mut SnapWriter) {
    snap_value(&v.to_value(), w);
}

/// Decodes any `serde::Deserialize` type through its `Value` tree.
pub fn unsnap_via_serde<T: serde::Deserialize>(r: &mut SnapReader) -> Result<T, SnapError> {
    let at = r.position();
    let v = unsnap_value(r)?;
    T::from_value(&v).map_err(|e| SnapError::new(format!("serde decode: {e}"), at))
}

// ---------------------------------------------------------------------
// Snap for this crate's own primitives. All are pub-field newtypes, so
// the encodings are their raw scalar forms — Rate deliberately bypasses
// its clamping constructor to restore the exact stored bits.
// ---------------------------------------------------------------------

impl Snap for crate::units::SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::units::SimTime::from_nanos(r.u64()?))
    }
}

impl Snap for crate::units::SimDuration {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::units::SimDuration::from_nanos(r.u64()?))
    }
}

impl Snap for crate::units::Rate {
    fn snap(&self, w: &mut SnapWriter) {
        w.f64(self.0);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::units::Rate(r.f64()?))
    }
}

impl Snap for crate::units::ByteSize {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::units::ByteSize(r.u64()?))
    }
}

macro_rules! snap_id {
    ($($ty:ty: $inner:ident),* $(,)?) => {
        $(
            impl Snap for $ty {
                fn snap(&self, w: &mut SnapWriter) {
                    w.$inner(self.0);
                }
                fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
                    Ok(Self(r.$inner()?))
                }
            }
        )*
    };
}

snap_id!(
    crate::id::NodeId: u32,
    crate::id::LinkId: u32,
    crate::id::GroupId: u32,
    crate::id::MeterId: u32,
    crate::id::FlowId: u64,
    crate::id::PortNo: u16,
    crate::id::TableId: u8,
);

impl Snap for crate::addr::MacAddr {
    fn snap(&self, w: &mut SnapWriter) {
        for b in self.octets() {
            w.u8(b);
        }
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut o = [0u8; 6];
        for b in &mut o {
            *b = r.u8()?;
        }
        Ok(crate::addr::MacAddr(o))
    }
}

impl Snap for crate::addr::Ipv4Net {
    fn snap(&self, w: &mut SnapWriter) {
        self.addr.snap(w);
        w.u8(self.len);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let addr = Ipv4Addr::unsnap(r)?;
        let len = r.u8()?;
        Ok(crate::addr::Ipv4Net { addr, len })
    }
}

impl Snap for crate::flow::IpProtocol {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let at = r.position();
        match r.u8()? {
            1 => Ok(crate::flow::IpProtocol::Icmp),
            6 => Ok(crate::flow::IpProtocol::Tcp),
            17 => Ok(crate::flow::IpProtocol::Udp),
            other => Err(SnapError::new(format!("bad IpProtocol {other}"), at)),
        }
    }
}

impl_snap_struct!(crate::flow::FlowKey {
    eth_src,
    eth_dst,
    eth_type,
    vlan,
    ip_src,
    ip_dst,
    ip_proto,
    tp_src,
    tp_dst,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, FlowKey, MacAddr, Rate, SimTime};

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).unwrap();
        assert!(r.is_exhausted(), "decoder left {} bytes", r.remaining());
        assert_eq!(back, v);
        // canonical: re-encoding is byte-identical
        let mut w2 = SnapWriter::new();
        back.snap(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(String::from("héllo"));
        round_trip(Ipv4Addr::new(10, 1, 2, 3));
    }

    #[test]
    fn floats_are_lossless() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            f64::MAX,
        ] {
            let mut w = SnapWriter::new();
            v.snap(&mut w);
            let bytes = w.into_bytes();
            let back = f64::unsnap(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN keeps its exact payload too.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = SnapWriter::new();
        nan.snap(&mut w);
        let b = w.into_bytes();
        assert_eq!(
            f64::unsnap(&mut SnapReader::new(&b)).unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip((1u32, String::from("x"), 2.5f64));
        round_trip([1u8, 2, 3, 4, 5, 6]);
        let mut m = HashMap::new();
        m.insert(3u32, String::from("c"));
        m.insert(1, String::from("a"));
        m.insert(2, String::from("b"));
        round_trip(m);
        let mut s = HashSet::new();
        s.extend([9u64, 1, 5]);
        round_trip(s);
    }

    #[test]
    fn hashmap_encoding_is_canonical() {
        // Two maps with identical content but different insertion order
        // must encode identically.
        let mut a = HashMap::new();
        for k in 0..100u32 {
            a.insert(k, k as u64);
        }
        let mut b = HashMap::new();
        for k in (0..100u32).rev() {
            b.insert(k, k as u64);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.snap(&mut wa);
        b.snap(&mut wb);
        let bytes = wa.into_bytes();
        assert_eq!(bytes, wb.into_bytes());
        // An ordered map with the same entries writes the same bytes.
        let c: BTreeMap<u32, u64> = a.into_iter().collect();
        let mut wc = SnapWriter::new();
        c.snap(&mut wc);
        assert_eq!(bytes, wc.into_bytes());
        round_trip(c);
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(SimTime::from_nanos(123_456_789));
        round_trip(Rate(1.5e9));
        round_trip(Rate(f64::INFINITY)); // bypasses the clamping ctor
        round_trip(FlowId(42));
        round_trip(FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
        ));
    }

    #[test]
    fn serde_bridge_round_trips_bitwise() {
        // FlowKey also derives serde; the Value bridge must agree.
        let key = FlowKey::tcp(
            MacAddr::local_from_id(3),
            MacAddr::local_from_id(4),
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            4000,
            443,
        );
        let mut w = SnapWriter::new();
        snap_via_serde(&key, &mut w);
        let bytes = w.into_bytes();
        let back: FlowKey = unsnap_via_serde(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, key);

        // Floats inside serde values keep exact bits.
        let v = serde::Value::Number(serde::Number::Float(-0.0));
        let mut w = SnapWriter::new();
        snap_value(&v, &mut w);
        let b = w.into_bytes();
        match unsnap_value(&mut SnapReader::new(&b)).unwrap() {
            serde::Value::Number(serde::Number::Float(f)) => {
                assert_eq!(f.to_bits(), (-0.0f64).to_bits())
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::unsnap(&mut SnapReader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} decoded");
        }
        // A huge count prefix fails fast instead of allocating.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let b = w.into_bytes();
        assert!(Vec::<u8>::unsnap(&mut SnapReader::new(&b)).is_err());
    }

    #[test]
    fn bad_tags_are_rejected() {
        let b = [7u8];
        assert!(bool::unsnap(&mut SnapReader::new(&b)).is_err());
        assert!(Option::<u8>::unsnap(&mut SnapReader::new(&b)).is_err());
        let b = [99u8];
        assert!(unsnap_value(&mut SnapReader::new(&b)).is_err());
    }
}
