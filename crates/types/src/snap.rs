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
//! A type gets its encoding from `#[derive(Snap)]` (the derive lives in
//! the workspace's derive crate and is re-exported here, so `use
//! horse_types::Snap` brings in both the trait and the derive). Fields
//! encode in declaration order; an enum writes a `u8` tag — its
//! variant's position in declaration order — before the variant's
//! fields, and a bad tag is an error at the tag's offset. A
//! `#[serde(skip)]` field is not written and decodes as
//! `Default::default()`: the derive skips exactly what the spec-file
//! codec skips (host-side caches and counters). Generic types and enums
//! of more than 256 variants do not derive; the scalar and container
//! impls below are written by hand, as are the few decoders that check
//! more than shape (a value whose fields must agree with each other).
//!
//! ```
//! use horse_types::snap::{Snap, SnapReader, SnapWriter};
//!
//! #[derive(Debug, PartialEq, Snap)]
//! struct P {
//!     x: u32,
//!     y: f64,
//! }
//!
//! let mut w = SnapWriter::new();
//! P { x: 7, y: -0.0 }.snap(&mut w);
//! let bytes = w.into_bytes();
//! let p = P::unsnap(&mut SnapReader::new(&bytes)).unwrap();
//! assert_eq!(p, P { x: 7, y: -0.0 });
//! assert!(p.y.is_sign_negative(), "lossless floats");
//! ```
//!
//! A generic type is refused at compile time:
//!
//! ```compile_fail
//! #[derive(horse_types::Snap)]
//! struct Wrapper<T>(T);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::net::Ipv4Addr;

pub use serde_derive::Snap;

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

/// A box encodes as the value it holds.
impl<T: Snap> Snap for Box<T> {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap(self, w);
    }
    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        T::unsnap(r).map(Box::new)
    }
}

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
    }
}
