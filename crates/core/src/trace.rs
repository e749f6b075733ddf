//! Simulation-side tracing: the [`SimTracer`] configuration/state object
//! that plugs the `horse-trace` observability layer into [`Simulation`].
//!
//! Everything here is **off by default** — a simulation without a tracer
//! (or with a default [`SimTracer`]) takes one `Option` branch per epoch
//! and produces byte-identical results to an instrumented run. The three
//! facilities compose independently:
//!
//! * **metrics** — the tracer owns a [`MetricsRegistry`] for what only a
//!   registry records: the allocator's per-component flow and
//!   solver-round histograms. Every plain count
//!   (events, epochs, allocator runs, queue, OpenFlow, chaos, packet
//!   plane) is a snapshotted field of its subsystem, kept once; the
//!   simulation lists them by name when it builds
//!   [`SimResults::metrics`], tracer or not, and adds the registry's
//!   cells. A count is declared where its field lives (the simulation's
//!   end-of-run table, or a subsystem's own rows such as
//!   `FluidNet::counts`). Lab reports embed only the names their
//!   `REPORTED` list declares, so a new count moves no report until a
//!   one-line addition there. Every metric is a deterministic quantity.
//! * **spans** ([`SimTracer::with_spans`]) — wall-clock phase timing of
//!   the epoch loop and the allocator's discovery → build → solve →
//!   apply passes, collected into a [`SpanLog`] for Chrome-trace export.
//!   Wall clock never feeds any deterministic output.
//! * **journal** ([`SimTracer::with_journal`]) — a sim-time JSONL record
//!   of every applied [`SimEvent`] with a chained state digest; two
//!   journals of one scenario bisect a determinism failure to the first
//!   diverging event (`horse-trace diff`).
//!
//! [`Simulation`]: crate::sim::Simulation
//! [`SimEvent`]: crate::event::SimEvent
//! [`SimResults::metrics`]: crate::results::SimResults

use crate::event::SimEvent;
use horse_dataplane::ReallocTiming;
use horse_trace::journal::fold_digest;
use horse_trace::{JournalWriter, MetricsRegistry, SpanLog};
use horse_types::SimTime;
use std::io::Write;
use std::time::{Duration, Instant};

/// A stable fingerprint of an event: its snake_case kind (the journal
/// `kind` field) and a 64-bit identity value folded into the digest.
pub fn event_fingerprint(ev: &SimEvent) -> (&'static str, u64) {
    match ev {
        SimEvent::FlowArrival { spec, .. } => (
            "flow_arrival",
            ((spec.src.index() as u64) << 32) | spec.dst.index() as u64,
        ),
        SimEvent::AdmitRetry { id } => ("admit_retry", id.index() as u64),
        SimEvent::Completion { id } => ("completion", id.index() as u64),
        SimEvent::ToController { retry, .. } => (
            "to_controller",
            retry.map(|id| id.index() as u64 + 1).unwrap_or(0),
        ),
        SimEvent::ToSwitch { switch, .. } => ("to_switch", switch.index() as u64),
        SimEvent::ControllerTimer { token } => ("controller_timer", *token),
        SimEvent::CableDown(l) => ("cable_down", l.index() as u64),
        SimEvent::CableUp(l) => ("cable_up", l.index() as u64),
        SimEvent::SwitchDown(n) => ("switch_down", n.index() as u64),
        SimEvent::SwitchUp(n) => ("switch_up", n.index() as u64),
        SimEvent::GraySet {
            link,
            capacity_factor,
            loss_frac,
        } => (
            "gray_set",
            (link.index() as u64)
                ^ capacity_factor.to_bits().rotate_left(17)
                ^ loss_frac.to_bits().rotate_left(31),
        ),
        SimEvent::CtrlDown => ("ctrl_down", 0),
        SimEvent::CtrlUp => ("ctrl_up", 0),
        SimEvent::CtrlLatency { factor } => ("ctrl_latency", factor.to_bits()),
        SimEvent::StatsEpoch => ("stats_epoch", 0),
        SimEvent::ExpiryScan => ("expiry_scan", 0),
        SimEvent::Pkt(_) => ("pkt", 0),
    }
}

struct Progress {
    interval: Duration,
    last: Instant,
    last_events: u64,
}

/// Tracing configuration and state for one simulation run (see module
/// docs). Built with the `with_*` methods, handed to
/// [`Simulation::set_tracer`], recovered with
/// [`Simulation::take_tracer`] after the run.
///
/// [`Simulation::set_tracer`]: crate::sim::Simulation::set_tracer
/// [`Simulation::take_tracer`]: crate::sim::Simulation::take_tracer
pub struct SimTracer {
    registry: MetricsRegistry,
    spans: Option<SpanLog>,
    journal: Option<JournalWriter<Box<dyn Write + Send>>>,
    /// Running state digest the journal chains (folds event identities
    /// and every applied rate change).
    digest: u64,
    progress: Option<Progress>,
}

impl Default for SimTracer {
    fn default() -> Self {
        SimTracer::new()
    }
}

impl SimTracer {
    /// A tracer with an enabled (but empty) metrics registry and no
    /// spans, journal or progress reporting.
    pub fn new() -> Self {
        SimTracer {
            registry: MetricsRegistry::new(),
            spans: None,
            journal: None,
            digest: 0,
            progress: None,
        }
    }

    /// Enables wall-clock span collection (epoch + allocator phases).
    pub fn with_spans(mut self) -> Self {
        self.spans = Some(SpanLog::new());
        self
    }

    /// Enables the sim-time event journal, writing JSONL to `sink`.
    pub fn with_journal<W: Write + Send + 'static>(mut self, sink: W) -> Self {
        self.journal = Some(JournalWriter::new(Box::new(sink)));
        self
    }

    /// Enables the stderr progress heartbeat, printed at most once per
    /// `interval` of wall time (checked at epoch boundaries).
    pub fn with_progress(mut self, interval: Duration) -> Self {
        self.progress = Some(Progress {
            interval,
            last: Instant::now(),
            last_events: 0,
        });
        self
    }

    /// The tracer's metrics registry (always enabled).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// True when span collection is on.
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// True when the event journal is on.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The journal continuation point — `(running digest, entries
    /// written)` — captured into checkpoints; `None` when the journal
    /// is off.
    pub fn journal_cont(&self) -> Option<(u64, u64)> {
        self.journal.as_ref().map(|j| (self.digest, j.entries()))
    }

    /// Seeds the tracer so a resumed run writes a journal *suffix*: the
    /// digest chain continues from the checkpointed value and ordinals
    /// continue after the prefix's last line, making
    /// `prefix ++ suffix` byte-identical to the straight-through file.
    pub fn seed_journal_cont(&mut self, digest: u64, entries: u64) {
        self.digest = digest;
        if let Some(j) = self.journal.as_mut() {
            j.continue_after(entries);
        }
    }

    /// The collected spans, if span collection was enabled.
    pub fn spans(&self) -> Option<&SpanLog> {
        self.spans.as_ref()
    }

    /// Takes the span log out of the tracer (for Chrome-trace export).
    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }

    /// Flushes and drops the journal sink, returning how many entries
    /// were written.
    pub fn finish_journal(&mut self) -> u64 {
        match self.journal.take() {
            Some(w) => {
                let n = w.entries();
                let _ = w.finish();
                n
            }
            None => 0,
        }
    }

    /// Span-clock timestamp for a span about to start (`None` when spans
    /// are off) — pass back to [`SimTracer::push_epoch_span`] or
    /// [`SimTracer::push_dispatch_span`].
    pub(crate) fn span_start(&self) -> Option<u64> {
        self.spans.as_ref().map(|s| s.now_ns())
    }

    /// Records one controller callback with the messages it emitted.
    pub(crate) fn push_dispatch_span(&mut self, start_ns: u64, msgs: u64) {
        if let Some(s) = self.spans.as_mut() {
            let end = s.now_ns();
            s.push_args(
                "controller.dispatch",
                0,
                start_ns,
                end.saturating_sub(start_ns),
                &[("msgs", msgs)],
            );
        }
    }

    /// Records one epoch span with its batch size and sim-time.
    pub(crate) fn push_epoch_span(&mut self, start_ns: u64, batch: u64, at: SimTime) {
        if let Some(s) = self.spans.as_mut() {
            let end = s.now_ns();
            s.push_args(
                "epoch",
                0,
                start_ns,
                end.saturating_sub(start_ns),
                &[("events", batch), ("sim_ns", at.as_nanos())],
            );
        }
    }

    /// Records the allocator's phase spans from the engine's last
    /// timing capture (the phases just finished, so their offsets are
    /// reconstructed back from *now*).
    pub(crate) fn push_realloc_spans(&mut self, t: &ReallocTiming) {
        let Some(s) = self.spans.as_mut() else {
            return;
        };
        let end = s.now_ns();
        let total = t.discovery_ns + t.build_ns + t.solve_ns + t.apply_ns;
        let mut at = end.saturating_sub(total);
        for (name, dur) in [
            ("realloc.discovery", t.discovery_ns),
            ("realloc.build", t.build_ns),
            ("realloc.solve", t.solve_ns),
            ("realloc.apply", t.apply_ns),
        ] {
            s.push(name, 0, at, dur);
            at += dur;
        }
    }

    /// Journals one applied event: folds its fingerprint into the
    /// running digest and writes the JSONL line.
    pub(crate) fn journal_event(&mut self, t_ns: u64, kind: &'static str, identity: u64) {
        let Some(w) = self.journal.as_mut() else {
            return;
        };
        // The kind participates via its first 8 bytes — cheap, static,
        // and distinct across all SimEvent variants.
        let mut tag = [0u8; 8];
        for (i, b) in kind.as_bytes().iter().take(8).enumerate() {
            tag[i] = *b;
        }
        self.digest = fold_digest(self.digest, u64::from_le_bytes(tag));
        self.digest = fold_digest(self.digest, t_ns);
        self.digest = fold_digest(self.digest, identity);
        let _ = w.record(t_ns, kind, self.digest);
    }

    /// Folds one applied rate change (a state delta) into the digest;
    /// it surfaces in the next journaled event's `d` field.
    pub(crate) fn fold_rate_change(&mut self, id: u64, rate_bits: u64) {
        self.digest = fold_digest(self.digest, id);
        self.digest = fold_digest(self.digest, rate_bits);
    }

    /// Prints the progress heartbeat if the wall interval elapsed.
    pub(crate) fn maybe_progress(&mut self, now: SimTime, events: u64, epochs: u64) {
        let Some(p) = self.progress.as_mut() else {
            return;
        };
        let elapsed = p.last.elapsed();
        if elapsed < p.interval {
            return;
        }
        let rate = (events - p.last_events) as f64 / elapsed.as_secs_f64();
        eprintln!(
            "[horse] t={:.3}s  events={}  ({:.0} ev/s)  epochs={}",
            now.as_secs_f64(),
            events,
            rate,
            epochs,
        );
        p.last = Instant::now();
        p.last_events = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_trace::journal::{parse_journal, SharedBuf};
    use horse_types::LinkId;

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        let a = event_fingerprint(&SimEvent::CableDown(LinkId(3)));
        assert_eq!(a, ("cable_down", 3));
        let b = event_fingerprint(&SimEvent::CableUp(LinkId(3)));
        assert_eq!(b.0, "cable_up");
        assert_eq!(event_fingerprint(&SimEvent::StatsEpoch).0, "stats_epoch");
    }

    #[test]
    fn fault_fingerprints_are_distinct_in_their_first_8_bytes() {
        use horse_types::NodeId;
        // The journal digest folds only the first 8 bytes of the kind, so
        // every kind must stay unique under that truncation.
        let kinds = [
            event_fingerprint(&SimEvent::SwitchDown(NodeId(1))).0,
            event_fingerprint(&SimEvent::SwitchUp(NodeId(1))).0,
            event_fingerprint(&SimEvent::GraySet {
                link: LinkId(0),
                capacity_factor: 0.5,
                loss_frac: 0.0,
            })
            .0,
            event_fingerprint(&SimEvent::CtrlDown).0,
            event_fingerprint(&SimEvent::CtrlUp).0,
            event_fingerprint(&SimEvent::CtrlLatency { factor: 10.0 }).0,
            "cable_down",
            "cable_up",
            "controller_timer",
            "to_controller",
            "to_switch",
            "flow_arrival",
            "admit_retry",
            "completion",
            "stats_epoch",
            "expiry_scan",
            "pkt",
        ];
        let truncated: std::collections::HashSet<&[u8]> = kinds
            .iter()
            .map(|k| &k.as_bytes()[..k.len().min(8)])
            .collect();
        assert_eq!(truncated.len(), kinds.len(), "8-byte kind-tag collision");
        // Gray identity distinguishes set vs clear on the same cable.
        let set = event_fingerprint(&SimEvent::GraySet {
            link: LinkId(2),
            capacity_factor: 0.5,
            loss_frac: 0.1,
        });
        let clear = event_fingerprint(&SimEvent::GraySet {
            link: LinkId(2),
            capacity_factor: 1.0,
            loss_frac: 0.0,
        });
        assert_ne!(set.1, clear.1);
    }

    #[test]
    fn journal_lines_chain_digests() {
        let buf = SharedBuf::new();
        let mut t = SimTracer::new().with_journal(buf.clone());
        t.journal_event(1_000, "stats_epoch", 0);
        t.fold_rate_change(7, 0x3ff0);
        t.journal_event(2_000, "completion", 7);
        assert_eq!(t.finish_journal(), 2);
        let entries = parse_journal(&buf.contents()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].kind, "stats_epoch");
        assert_ne!(entries[0].digest, entries[1].digest);

        // Same inputs reproduce the same digests…
        let buf2 = SharedBuf::new();
        let mut t2 = SimTracer::new().with_journal(buf2.clone());
        t2.journal_event(1_000, "stats_epoch", 0);
        t2.fold_rate_change(7, 0x3ff0);
        t2.journal_event(2_000, "completion", 7);
        t2.finish_journal();
        assert_eq!(buf2.contents(), buf.contents());

        // …and a differing rate change shows up in the next entry.
        let buf3 = SharedBuf::new();
        let mut t3 = SimTracer::new().with_journal(buf3.clone());
        t3.journal_event(1_000, "stats_epoch", 0);
        t3.fold_rate_change(7, 0x3ff1);
        t3.journal_event(2_000, "completion", 7);
        t3.finish_journal();
        let e3 = parse_journal(&buf3.contents()).unwrap();
        assert_eq!(e3[0].digest, entries[0].digest);
        assert_ne!(e3[1].digest, entries[1].digest);
    }

    #[test]
    fn default_tracer_is_inert() {
        let mut t = SimTracer::default();
        assert!(!t.spans_enabled());
        assert!(!t.journal_enabled());
        t.journal_event(1, "pkt", 0); // no journal: a no-op
        assert_eq!(t.finish_journal(), 0);
        assert!(t.registry().is_enabled(), "metrics registry always on");
    }

    #[test]
    fn realloc_spans_reconstruct_phase_offsets() {
        let mut t = SimTracer::new().with_spans();
        let timing = ReallocTiming {
            discovery_ns: 100,
            build_ns: 50,
            solve_ns: 200,
            apply_ns: 25,
        };
        t.push_realloc_spans(&timing);
        let spans = t.spans().unwrap().spans();
        assert_eq!(spans.len(), 4, "one span per phase");
        let solve = spans.iter().find(|s| s.name == "realloc.solve").unwrap();
        let apply = spans.iter().find(|s| s.name == "realloc.apply").unwrap();
        assert_eq!(solve.start_ns + solve.dur_ns, apply.start_ns);
    }
}
