//! Harness-side spans: recorded around the public calls into each layer
//! (never inside the program), held in memory, written out at exit.
//! A span's self time is its duration minus the part its children cover.

use horse::tracing::{chrome_trace, SpanLog};
use std::time::Instant;

struct Rec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

/// An in-memory span recorder with one wall-clock origin.
pub struct Spans {
    t0: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

/// Token returned by [`Spans::begin`]; pass it to [`Spans::end`].
pub struct Open(usize);

impl Spans {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.recs.len();
        self.recs.push(Rec {
            name,
            parent: self.open.last().copied(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let now = self.t0.elapsed().as_nanos() as u64;
        let rec = &mut self.recs[span.0];
        rec.dur_ns = now.saturating_sub(rec.start_ns);
        self.open.retain(|&i| i != span.0);
        rec.dur_ns as f64 / 1e9
    }

    /// Times one call as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let s = self.begin(name);
        let out = f();
        let secs = self.end(s);
        (out, secs)
    }

    /// `(name, total seconds, self seconds, calls)` per span name, in
    /// first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, f64, f64, u64)> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.dur_ns;
            }
        }
        let mut out: Vec<(&'static str, f64, f64, u64)> = Vec::new();
        for (i, r) in self.recs.iter().enumerate() {
            let total = r.dur_ns as f64 / 1e9;
            let own = r.dur_ns.saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, ..)| *n == r.name) {
                Some(row) => {
                    row.1 += total;
                    row.2 += own;
                    row.3 += 1;
                }
                None => out.push((r.name, total, own, 1)),
            }
        }
        out
    }

    /// Renders the harness spans, plus at most `sim_cap` of the program's
    /// own spans (`epoch`, `realloc.*`; a hybrid run records millions),
    /// as one Chrome-trace document on a common clock.
    pub fn chrome_trace(&self, label: &str, sim: &[SpanLog], sim_cap: usize) -> String {
        let mut log = SpanLog::new();
        for r in &self.recs {
            log.push(r.name, 0, r.start_ns, r.dur_ns);
        }
        let mut left = sim_cap;
        for s in sim {
            let offset = s.t0().saturating_duration_since(self.t0).as_nanos() as u64;
            for rec in s.spans().iter().take(left) {
                log.push(rec.name, 1 + rec.tid, offset + rec.start_ns, rec.dur_ns);
            }
            left = left.saturating_sub(s.len());
        }
        chrome_trace(&[(1, label, &log)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new();
        let outer = s.begin("outer");
        let inner = s.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.end(inner);
        s.end(outer);
        let sum = s.summary();
        let (_, outer_total, outer_self, _) = sum[0];
        let (_, inner_total, inner_self, calls) = sum[1];
        assert_eq!(calls, 1);
        assert_eq!(inner_total, inner_self, "a leaf's self time is its total");
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        assert!(inner_total >= 0.005);
        assert!(s.chrome_trace("t", &[], 0).contains("\"outer\""));
    }
}
