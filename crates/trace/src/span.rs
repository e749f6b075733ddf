//! Wall-clock phase spans and the Chrome-trace / Perfetto exporter.
//!
//! A [`SpanLog`] records `(name, tid, start, duration)` spans relative
//! to its creation instant. Spans are **wall clock** and therefore
//! nondeterministic by nature; the determinism contract of the
//! workspace is that they are exported to their own file
//! ([`chrome_trace`]) and never folded into metric reports.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span name (the Chrome-trace event name).
    pub name: &'static str,
    /// Thread lane the span renders on (the simulator records every
    /// span on lane 0).
    pub tid: u32,
    /// Start, nanoseconds since the log's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional `(key, value)` annotations (batch sizes, sim-times).
    pub args: Vec<(&'static str, u64)>,
}

/// An append-only span recorder with a fixed wall-clock origin.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    spans: Vec<SpanRec>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose time origin is *now*.
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The log's wall-clock origin (for converting foreign `Instant`s).
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` into origin-relative nanoseconds
    /// (saturating to 0 for instants before the origin).
    pub fn instant_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span.
    pub fn push(&mut self, name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) {
        self.spans.push(SpanRec {
            name,
            tid,
            start_ns,
            dur_ns,
            args: Vec::new(),
        });
    }

    /// Records a span with annotations.
    pub fn push_args(
        &mut self,
        name: &'static str,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        self.spans.push(SpanRec {
            name,
            tid,
            start_ns,
            dur_ns,
            args: args.to_vec(),
        });
    }

    /// The recorded spans, in append order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one or more span logs as a Chrome-trace JSON document
/// (`{"traceEvents": […]}`) loadable by `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev). Each `(pid, label, log)` tuple
/// becomes one process, named by a metadata event; timestamps and
/// durations are microseconds with sub-microsecond fractions.
///
/// Each log keeps its own wall-clock origin, so spans of different
/// processes are **not** mutually aligned unless the caller created the
/// logs from one origin.
pub fn chrome_trace(processes: &[(u32, &str, &SpanLog)]) -> String {
    let total: usize = processes.iter().map(|(_, _, l)| l.len()).sum();
    let mut out = String::with_capacity(64 + total * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (pid, label, log) in processes {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid}");
        out.push_str(",\"tid\":0,\"args\":{\"name\":\"");
        escape_json(label, &mut out);
        out.push_str("\"}}");
        for s in log.spans() {
            out.push_str(",{\"name\":\"");
            escape_json(s.name, &mut out);
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
            if !s.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in s.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(k, &mut out);
                    let _ = write!(out, "\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_relative_to_origin() {
        let mut log = SpanLog::new();
        log.push("epoch", 0, 100, 50);
        log.push_args("realloc.solve", 1, 150, 25, &[("components", 3)]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans()[1].args, vec![("components", 3)]);
        assert!(log.now_ns() < 60_000_000_000, "sane elapsed");
        assert_eq!(log.instant_ns(log.t0()), 0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let mut a = SpanLog::new();
        a.push_args("epoch", 0, 1_000, 2_500, &[("events", 4)]);
        a.push("realloc.discovery", 0, 1_100, 200);
        let mut b = SpanLog::new();
        b.push("realloc.solve", 2, 0, 999);
        let json = chrome_trace(&[(0, "run 0 \"x\"", &a), (1, "run 1", &b)]);
        let doc = serde_json::parse_value(&json).expect("chrome trace parses");
        let events = doc["traceEvents"].as_seq().expect("traceEvents array");
        // 2 metadata + 3 spans
        assert_eq!(events.len(), 5);
        assert_eq!(events[0]["ph"], "M");
        assert_eq!(events[1]["name"], "epoch");
        assert_eq!(events[1]["ph"], "X");
        assert_eq!(events[1]["args"]["events"], 4i64);
        // 1000 ns -> 1 µs
        assert!((events[1]["ts"].as_number().unwrap().as_f64() - 1.0).abs() < 1e-9);
        assert_eq!(events[4]["pid"], 1i64);
        assert_eq!(events[4]["tid"], 2i64);
    }

    #[test]
    fn empty_trace_still_parses() {
        let json = chrome_trace(&[]);
        let doc = serde_json::parse_value(&json).unwrap();
        assert_eq!(doc["traceEvents"].as_seq().unwrap().len(), 0);
    }
}
