//! Traffic sources for the packet plane.

use horse_types::{SimTime, Snap};

/// What kind of source drives a flow.
#[derive(Clone, Debug, Snap)]
pub enum SourceKind {
    /// Paced constant-bit-rate sender (UDP-like): one data packet every
    /// `mss × 8 / rate_bps` seconds until the byte budget is spent.
    Cbr {
        /// Offered rate in bps.
        rate_bps: f64,
    },
    /// Window-based TCP-Reno-style sender.
    Tcp(TcpState),
}

/// Sender-side TCP state (sequence numbers count MSS-sized segments).
#[derive(Clone, Debug, Snap)]
pub struct TcpState {
    /// Congestion window in segments (fractional growth in CA).
    pub cwnd: f64,
    /// Slow-start threshold in segments.
    pub ssthresh: f64,
    /// Next segment sequence number to send fresh.
    pub next_seq: u64,
    /// Highest cumulative ACK received (next expected by receiver).
    pub cum_ack: u64,
    /// Duplicate-ACK counter.
    pub dup_acks: u32,
    /// Smoothed RTT estimate (seconds).
    pub srtt: f64,
    /// Number of segments currently in flight.
    pub in_flight: u64,
    /// Send timestamps of unacked segments are approximated by the time
    /// of the oldest outstanding transmission (enough for a coarse RTO).
    pub oldest_tx: SimTime,
    /// Retransmission in progress for this seq (suppresses duplicates).
    pub retransmitting: Option<u64>,
    /// Consecutive RTO backoffs.
    pub backoff: u32,
    /// Receiver: highest in-order segment received (next expected).
    pub rcv_next: u64,
    /// Receiver: out-of-order segments buffered.
    pub rcv_ooo: std::collections::BTreeSet<u64>,
}

impl TcpState {
    /// Fresh connection state (IW = 10 segments, RFC 6928).
    pub fn new() -> Self {
        TcpState {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            next_seq: 0,
            cum_ack: 0,
            dup_acks: 0,
            srtt: 0.0,
            in_flight: 0,
            oldest_tx: SimTime::ZERO,
            retransmitting: None,
            backoff: 0,
            rcv_next: 0,
            rcv_ooo: std::collections::BTreeSet::new(),
        }
    }

    /// Window space available to send fresh segments.
    pub fn can_send(&self) -> bool {
        (self.in_flight as f64) < self.cwnd
    }

    /// Applies a cumulative ACK; returns `true` when new data was acked.
    pub fn on_ack(&mut self, ack: u64, now: SimTime, rtt_sample: Option<f64>) -> bool {
        if ack > self.cum_ack {
            let newly = ack - self.cum_ack;
            self.cum_ack = ack;
            self.in_flight = self.in_flight.saturating_sub(newly);
            self.dup_acks = 0;
            self.retransmitting = None;
            self.backoff = 0;
            self.oldest_tx = now;
            if let Some(rtt) = rtt_sample {
                self.srtt = if self.srtt == 0.0 {
                    rtt
                } else {
                    0.875 * self.srtt + 0.125 * rtt
                };
            }
            // growth: slow start below ssthresh, else 1/cwnd per ACK
            if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64;
            } else {
                self.cwnd += newly as f64 / self.cwnd;
            }
            true
        } else {
            self.dup_acks += 1;
            false
        }
    }

    /// Halves the window after a loss signal (fast retransmit).
    pub fn on_fast_retransmit(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.dup_acks = 0;
    }

    /// Collapses the window after an RTO.
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.backoff += 1;
        self.in_flight = 0; // everything is presumed lost; resend from cum_ack
        self.next_seq = self.cum_ack;
        self.dup_acks = 0;
        self.retransmitting = None;
    }

    /// Current retransmission timeout (seconds): `max(4×srtt, floor)`
    /// doubled per backoff, clamped to a ceiling.
    pub fn rto(&self, floor: f64) -> f64 {
        let base = if self.srtt > 0.0 {
            (4.0 * self.srtt).max(floor)
        } else {
            floor
        };
        (base * (1u64 << self.backoff.min(6)) as f64).min(4.0)
    }

    /// Receiver side: ingest segment `seq`, return the cumulative ACK to
    /// send back.
    pub fn receive(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.rcv_ooo.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            self.rcv_ooo.insert(seq);
        }
        self.rcv_next
    }
}

impl Default for TcpState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut t = TcpState::new();
        t.in_flight = 10;
        // 10 ACKs each acking 1 segment: cwnd 10 -> 20
        for a in 1..=10u64 {
            t.on_ack(a, SimTime::from_millis(a), Some(0.01));
        }
        assert!((t.cwnd - 20.0).abs() < 1e-9);
        assert_eq!(t.in_flight, 0);
    }

    #[test]
    fn congestion_avoidance_grows_slowly() {
        let mut t = TcpState::new();
        t.ssthresh = 10.0;
        t.cwnd = 10.0;
        t.in_flight = 10;
        for a in 1..=10u64 {
            t.on_ack(a, SimTime::from_millis(a), None);
        }
        // +1/cwnd per ack ≈ +1 per window
        assert!(t.cwnd > 10.9 && t.cwnd < 11.1, "cwnd {}", t.cwnd);
    }

    #[test]
    fn dup_acks_counted_and_fast_retransmit_halves() {
        let mut t = TcpState::new();
        t.cwnd = 16.0;
        t.in_flight = 16;
        t.on_ack(5, SimTime::from_millis(1), None);
        assert!(!t.on_ack(5, SimTime::from_millis(2), None));
        assert!(!t.on_ack(5, SimTime::from_millis(3), None));
        assert!(!t.on_ack(5, SimTime::from_millis(4), None));
        assert_eq!(t.dup_acks, 3);
        let before = t.cwnd;
        t.on_fast_retransmit();
        assert!((t.cwnd - before / 2.0).abs() < 1e-9, "cwnd {}", t.cwnd);
        assert_eq!(t.dup_acks, 0);
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut t = TcpState::new();
        t.cwnd = 32.0;
        t.in_flight = 20;
        t.next_seq = 40;
        t.cum_ack = 20;
        t.on_timeout();
        assert_eq!(t.cwnd, 1.0);
        assert_eq!(t.next_seq, 20, "resend from cum_ack");
        assert_eq!(t.in_flight, 0);
    }

    #[test]
    fn rto_backs_off_and_caps() {
        let mut t = TcpState::new();
        t.srtt = 0.05;
        let r0 = t.rto(0.01);
        t.backoff = 1;
        assert!((t.rto(0.01) - r0 * 2.0).abs() < 1e-9);
        t.backoff = 20;
        assert!(t.rto(0.01) <= 4.0);
    }

    #[test]
    fn receiver_reorders() {
        let mut t = TcpState::new();
        assert_eq!(t.receive(0), 1);
        assert_eq!(t.receive(2), 1, "gap at 1");
        assert_eq!(t.receive(3), 1);
        assert_eq!(t.receive(1), 4, "gap filled, cumulative jumps");
        assert!(t.rcv_ooo.is_empty());
    }

    #[test]
    fn srtt_ewma() {
        let mut t = TcpState::new();
        t.in_flight = 2;
        t.on_ack(1, SimTime::from_millis(1), Some(0.100));
        assert!((t.srtt - 0.1).abs() < 1e-12);
        t.on_ack(2, SimTime::from_millis(2), Some(0.200));
        assert!((t.srtt - (0.875 * 0.1 + 0.125 * 0.2)).abs() < 1e-12);
    }
}
