//! Simulation time, data-rate and size units.
//!
//! * [`SimTime`] — absolute simulated time, nanoseconds since simulation
//!   start (u64 ⇒ ~584 simulated years of range).
//! * [`SimDuration`] — a span of simulated time.
//! * [`Rate`] — bits per second as `f64` (fluid rates are continuous).
//! * [`ByteSize`] — byte counts (u64).
//!
//! All arithmetic saturates rather than wrapping so a mis-configured
//! scenario fails loudly in tests instead of silently warping time.

use crate::snap::Snap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Absolute simulated time in nanoseconds since simulation start.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default, Snap,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Builds a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Fractional seconds (lossy, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference between two times.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.9}s)", self.as_secs_f64())
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default, Snap,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from fractional seconds, saturating at the range
    /// limits and treating NaN/negative as zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Fractional seconds (lossy, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k.max(1))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

/// A data rate in bits per second.
///
/// Rates are continuous quantities in the fluid model, hence `f64`.
/// Negative and NaN rates are invalid; constructors clamp them to zero.
#[derive(Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default, Snap)]
pub struct Rate(pub f64);

impl Rate {
    /// Zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// Bits per second.
    pub fn bps(v: f64) -> Self {
        Rate(if v.is_finite() && v > 0.0 { v } else { 0.0 })
    }

    /// Kilobits per second (10^3).
    pub fn kbps(v: f64) -> Self {
        Rate::bps(v * 1e3)
    }

    /// Megabits per second (10^6).
    pub fn mbps(v: f64) -> Self {
        Rate::bps(v * 1e6)
    }

    /// Gigabits per second (10^9).
    pub fn gbps(v: f64) -> Self {
        Rate::bps(v * 1e9)
    }

    /// Raw bits per second.
    pub const fn as_bps(self) -> f64 {
        self.0
    }

    /// Rate in Mbit/s.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Rate in Gbit/s.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// True if the rate is (numerically) zero.
    pub fn is_zero(self) -> bool {
        self.0 <= f64::EPSILON
    }

    /// Time needed to transfer `bytes` at this rate; `None` if the rate is
    /// zero (the transfer never completes).
    pub fn time_to_send(self, bytes: ByteSize) -> Option<SimDuration> {
        if self.is_zero() {
            None
        } else {
            Some(SimDuration::from_secs_f64(bytes.as_bits() as f64 / self.0))
        }
    }

    /// Bytes transferred over `d` at this rate.
    pub fn bytes_over(self, d: SimDuration) -> f64 {
        self.0 * d.as_secs_f64() / 8.0
    }

    /// Component-wise minimum.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, r: Rate) -> Rate {
        Rate(self.0 + r.0)
    }
}

impl Sub for Rate {
    type Output = Rate;
    fn sub(self, r: Rate) -> Rate {
        Rate((self.0 - r.0).max(0.0))
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    fn mul(self, k: f64) -> Rate {
        Rate::bps(self.0 * k)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.1}bps", self.0)
        }
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rate({self})")
    }
}

/// A byte count.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default, Snap,
)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// From raw bytes.
    pub const fn bytes(v: u64) -> Self {
        ByteSize(v)
    }

    /// Kibibytes (2^10).
    pub const fn kib(v: u64) -> Self {
        ByteSize(v * 1024)
    }

    /// Mebibytes (2^20).
    pub const fn mib(v: u64) -> Self {
        ByteSize(v * 1024 * 1024)
    }

    /// Gibibytes (2^30).
    pub const fn gib(v: u64) -> Self {
        ByteSize(v * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Bit count (saturating).
    pub const fn as_bits(self) -> u64 {
        self.0.saturating_mul(8)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, b: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(b.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, b: ByteSize) {
        self.0 = self.0.saturating_add(b.0);
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 30 {
            write!(f, "{:.2}GiB", self.0 as f64 / (1u64 << 30) as f64)
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2}MiB", self.0 as f64 / (1u64 << 20) as f64)
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.2}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSize({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn time_arith() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!((t - SimTime::from_secs(1)).as_nanos(), 500_000_000);
        // saturating: earlier - later == 0
        assert_eq!((SimTime::ZERO - t).as_nanos(), 0);
    }

    #[test]
    fn duration_from_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(1e30).as_nanos(), u64::MAX);
    }

    #[test]
    fn duration_display_scales() {
        assert_eq!(SimDuration::from_nanos(10).to_string(), "10ns");
        assert_eq!(SimDuration::from_micros(10).to_string(), "10.000us");
        assert_eq!(SimDuration::from_millis(10).to_string(), "10.000ms");
        assert_eq!(SimDuration::from_secs(10).to_string(), "10.000s");
    }

    #[test]
    fn rate_constructors_clamp() {
        assert_eq!(Rate::bps(-5.0).as_bps(), 0.0);
        assert_eq!(Rate::bps(f64::NAN).as_bps(), 0.0);
        assert_eq!(Rate::mbps(1.0).as_bps(), 1e6);
        assert_eq!(Rate::gbps(2.0).as_mbps(), 2000.0);
    }

    #[test]
    fn rate_time_to_send() {
        let r = Rate::mbps(8.0); // 1 MB/s
        let d = r.time_to_send(ByteSize::bytes(1_000_000)).unwrap();
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!(Rate::ZERO.time_to_send(ByteSize::bytes(1)).is_none());
    }

    #[test]
    fn rate_bytes_over() {
        let r = Rate::mbps(8.0);
        let b = r.bytes_over(SimDuration::from_secs(2));
        assert!((b - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn rate_sub_clamps_at_zero() {
        assert_eq!((Rate::mbps(1.0) - Rate::mbps(2.0)).as_bps(), 0.0);
    }

    #[test]
    fn bytesize_units() {
        assert_eq!(ByteSize::kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::mib(1).as_bytes(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_bits(), (1u64 << 30) * 8);
    }

    #[test]
    fn bytesize_saturating() {
        assert_eq!(
            ByteSize::bytes(1).saturating_sub(ByteSize::bytes(5)),
            ByteSize::ZERO
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rate::gbps(1.5).to_string(), "1.500Gbps");
        assert_eq!(ByteSize::bytes(100).to_string(), "100B");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
    }
}
