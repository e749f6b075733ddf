//! Meters (rate limiting).
//!
//! One drop-band per meter, as the paper's rate-limiting policy needs
//! ("rate limiting: e2→e4: 500 Mbps"). The fluid plane reads
//! [`MeterEntry::rate`] as a hard cap on the aggregate rate of flows passing
//! through the meter; the packet plane uses the token bucket
//! ([`MeterEntry::try_consume`]) to decide per-packet drops.

use horse_types::id::MeterId;
use horse_types::{ByteSize, Rate, SimTime, Snap};
use serde::{Deserialize, Serialize};

/// A meter with a single drop band.
#[derive(Clone, Debug, Serialize, Deserialize, Snap)]
pub struct MeterEntry {
    /// Meter id (unique per switch).
    pub id: MeterId,
    /// Token fill rate — the configured rate limit.
    pub rate: Rate,
    /// Bucket depth; bursts up to this many bytes pass at line rate.
    pub burst: ByteSize,
    /// Current token level in bytes.
    tokens: f64,
    /// Last refill instant.
    last_refill: SimTime,
    /// Bytes admitted.
    pub passed_bytes: u64,
    /// Bytes dropped by the band.
    pub dropped_bytes: u64,
}

impl MeterEntry {
    /// Creates a meter with a full bucket.
    pub fn new(id: MeterId, rate: Rate, burst: ByteSize) -> Self {
        MeterEntry {
            id,
            rate,
            burst,
            tokens: burst.as_bytes() as f64,
            last_refill: SimTime::ZERO,
            passed_bytes: 0,
            dropped_bytes: 0,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let dt = now.saturating_since(self.last_refill).as_secs_f64();
            self.tokens =
                (self.tokens + self.rate.as_bps() * dt / 8.0).min(self.burst.as_bytes() as f64);
            self.last_refill = now;
        }
    }

    /// Packet-plane entry point: admit `bytes` at `now`? Drops (and counts)
    /// the packet when the bucket lacks tokens.
    pub fn try_consume(&mut self, bytes: u64, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            self.passed_bytes = self.passed_bytes.saturating_add(bytes);
            true
        } else {
            self.dropped_bytes = self.dropped_bytes.saturating_add(bytes);
            false
        }
    }

    /// Fluid-plane entry point: the rate cap this meter imposes.
    pub fn rate_cap(&self) -> Rate {
        self.rate
    }

    /// Current token level (bytes), after refilling to `now`.
    pub fn tokens_at(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> MeterEntry {
        // 8 Mbps => 1 MB/s fill, 10 kB bucket
        MeterEntry::new(MeterId(1), Rate::mbps(8.0), ByteSize::bytes(10_000))
    }

    #[test]
    fn burst_passes_then_drops() {
        let mut m = meter();
        let now = SimTime::ZERO;
        assert!(m.try_consume(6_000, now));
        assert!(!m.try_consume(6_000, now), "bucket exhausted");
        assert_eq!(m.passed_bytes, 6_000);
        assert_eq!(m.dropped_bytes, 6_000);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut m = meter();
        assert!(m.try_consume(10_000, SimTime::ZERO));
        assert!(!m.try_consume(1_000, SimTime::ZERO));
        // after 5 ms at 1 MB/s => 5000 bytes refilled
        let later = SimTime::from_millis(5);
        assert!(m.try_consume(4_000, later));
        assert!((m.tokens_at(later) - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut m = meter();
        let much_later = SimTime::from_secs(100);
        assert!(m.tokens_at(much_later) <= 10_000.0);
    }

    #[test]
    fn rate_cap_reflects_config() {
        assert_eq!(meter().rate_cap(), Rate::mbps(8.0));
    }
}
