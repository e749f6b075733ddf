//! The metrics registry: named counters, gauges and histograms.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero allocation on the hot path.** Registering a metric
//!    allocates (name interning, one `Arc` per cell); incrementing one
//!    is a single `Option` branch plus a relaxed atomic op. A disabled
//!    registry hands out no-op handles whose updates are one branch.
//! 2. **Determinism-safe snapshots.** A [`MetricsSnapshot`] contains
//!    only what the instrumented code put in — if the instrumented
//!    quantities are deterministic (event counts, component sizes,
//!    queue compactions), the snapshot is bit-identical across runs,
//!    machines and thread counts, and may be embedded in reproducible
//!    reports. Wall-clock derived quantities belong in [`crate::span`],
//!    never here.
//! 3. **Shared handles.** Handles are cheap clones (an `Option<Arc>`);
//!    subsystems keep their own copies and the registry keeps the
//!    authoritative name → cell table for snapshotting.

use horse_types::Snap;
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Power-of-two histogram buckets: bucket `b` holds values whose bit
/// length is `b` (bucket 0 holds the value 0), so `u64::BITS + 1` covers
/// every input with no configuration.
const HIST_BUCKETS: usize = (u64::BITS + 1) as usize;

/// The statistics a histogram `name` expands to in a snapshot, each
/// under `name.<stat>`.
pub const HIST_STATS: [&str; 6] = ["count", "sum", "mean", "max", "p50", "p99"];

struct CounterCell(AtomicU64);

/// Gauge cells store `f64` bit patterns.
struct GaugeCell(AtomicU64);

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A monotonic counter handle. Cloning shares the underlying cell; a
/// handle from a disabled registry ignores updates.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// A no-op handle (what a disabled registry returns).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.0.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A gauge handle: a last-write-wins `f64`, with a monotone-max variant
/// for peak tracking.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// A no-op handle (what a disabled registry returns).
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the current value
    /// (peak-utilization style).
    #[inline]
    pub fn set_max(&self, v: f64) {
        let Some(c) = &self.0 else { return };
        let mut cur = c.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match c
                .0
                .compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.0.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A power-of-two histogram handle for `u64` observations (batch sizes,
/// component flow counts). Fixed bucket layout — observing never
/// allocates.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// A no-op handle (what a disabled registry returns).
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let Some(c) = &self.0 else { return };
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        c.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(n={})", self.count())
    }
}

// Name keys are owned so a checkpoint dump (deserialized `String`s) can
// seed cells; registration is cold-path, updates never touch the table.
#[derive(Default)]
struct Inner {
    counters: Mutex<Vec<(String, Arc<CounterCell>)>>,
    gauges: Mutex<Vec<(String, Arc<GaugeCell>)>>,
    hists: Mutex<Vec<(String, Arc<HistCell>)>>,
}

/// The registry subsystems register their metrics into.
///
/// Cloning shares the registry. The default value is **disabled**: every
/// handle it returns is a no-op, so instrumented code needs no `if`s of
/// its own.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A disabled registry: every handle is a no-op.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-attaches to) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let mut v = inner.counters.lock().expect("metrics lock");
        if let Some((_, cell)) = v.iter().find(|(n, _)| n == name) {
            return Counter(Some(cell.clone()));
        }
        let cell = Arc::new(CounterCell(AtomicU64::new(0)));
        v.push((name.to_string(), cell.clone()));
        Counter(Some(cell))
    }

    /// Registers (or re-attaches to) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::noop();
        };
        let mut v = inner.gauges.lock().expect("metrics lock");
        if let Some((_, cell)) = v.iter().find(|(n, _)| n == name) {
            return Gauge(Some(cell.clone()));
        }
        let cell = Arc::new(GaugeCell(AtomicU64::new(0.0f64.to_bits())));
        v.push((name.to_string(), cell.clone()));
        Gauge(Some(cell))
    }

    /// Registers (or re-attaches to) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let mut v = inner.hists.lock().expect("metrics lock");
        if let Some((_, cell)) = v.iter().find(|(n, _)| n == name) {
            return Histogram(Some(cell.clone()));
        }
        let cell = Arc::new(HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        v.push((name.to_string(), cell.clone()));
        Histogram(Some(cell))
    }

    /// Flattens every metric into a name-sorted snapshot. Histograms
    /// expand to [`HIST_STATS`] (quantiles are bucket upper bounds —
    /// deterministic, not exact).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, f64)> = Vec::new();
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        for (name, cell) in inner.counters.lock().expect("metrics lock").iter() {
            entries.push((name.to_string(), cell.0.load(Ordering::Relaxed) as f64));
        }
        for (name, cell) in inner.gauges.lock().expect("metrics lock").iter() {
            entries.push((
                name.to_string(),
                f64::from_bits(cell.0.load(Ordering::Relaxed)),
            ));
        }
        for (name, cell) in inner.hists.lock().expect("metrics lock").iter() {
            let count = cell.count.load(Ordering::Relaxed);
            let sum = cell.sum.load(Ordering::Relaxed);
            let mean = if count > 0 {
                sum as f64 / count as f64
            } else {
                0.0
            };
            let stats = [
                count as f64,
                sum as f64,
                mean,
                cell.max.load(Ordering::Relaxed) as f64,
                bucket_quantile(cell, count, 0.50),
                bucket_quantile(cell, count, 0.99),
            ];
            for (stat, v) in HIST_STATS.iter().zip(stats) {
                entries.push((format!("{name}.{stat}"), v));
            }
        }
        entries.into_iter().collect()
    }
}

/// A raw dump of one histogram cell (full bucket array, not the lossy
/// quantile view), for checkpoint continuation.
#[derive(Clone, Debug, Default, PartialEq, Snap)]
pub struct HistDump {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts (`u64::BITS + 1` power-of-two buckets).
    pub buckets: Vec<u64>,
}

/// A raw, name-sorted dump of every registry cell — unlike
/// [`MetricsSnapshot`] it is lossless (histogram buckets survive), so a
/// resumed simulation can seed a fresh registry and end the run with the
/// exact counters an uninterrupted run would report.
#[derive(Clone, Debug, Default, PartialEq, Snap)]
pub struct MetricsDump {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name, as `f64` bit patterns.
    pub gauges: Vec<(String, u64)>,
    /// Histogram cells by name.
    pub hists: Vec<(String, HistDump)>,
}

impl MetricsRegistry {
    /// Dumps every cell's raw state, sorted by name (canonical: two
    /// registries holding the same values dump byte-identically under
    /// [`horse_types::Snap`] regardless of registration order).
    pub fn dump(&self) -> MetricsDump {
        let mut d = MetricsDump::default();
        let Some(inner) = &self.inner else {
            return d;
        };
        for (name, cell) in inner.counters.lock().expect("metrics lock").iter() {
            d.counters
                .push((name.to_string(), cell.0.load(Ordering::Relaxed)));
        }
        for (name, cell) in inner.gauges.lock().expect("metrics lock").iter() {
            d.gauges
                .push((name.to_string(), cell.0.load(Ordering::Relaxed)));
        }
        for (name, cell) in inner.hists.lock().expect("metrics lock").iter() {
            d.hists.push((
                name.to_string(),
                HistDump {
                    count: cell.count.load(Ordering::Relaxed),
                    sum: cell.sum.load(Ordering::Relaxed),
                    max: cell.max.load(Ordering::Relaxed),
                    buckets: cell
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                },
            ));
        }
        d.counters.sort_by(|a, b| a.0.cmp(&b.0));
        d.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        d.hists.sort_by(|a, b| a.0.cmp(&b.0));
        d
    }

    /// Seeds this registry from a dump: every dumped cell is created (or
    /// re-attached) and overwritten with the dumped value, so subsequent
    /// updates accumulate on top of the checkpointed prefix. No-op on a
    /// disabled registry.
    pub fn seed(&self, dump: &MetricsDump) {
        let Some(inner) = &self.inner else { return };
        for (name, v) in &dump.counters {
            let cell = {
                let mut t = inner.counters.lock().expect("metrics lock");
                match t.iter().find(|(n, _)| n == name) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let c = Arc::new(CounterCell(AtomicU64::new(0)));
                        t.push((name.clone(), c.clone()));
                        c
                    }
                }
            };
            cell.0.store(*v, Ordering::Relaxed);
        }
        for (name, bits) in &dump.gauges {
            let cell = {
                let mut t = inner.gauges.lock().expect("metrics lock");
                match t.iter().find(|(n, _)| n == name) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let c = Arc::new(GaugeCell(AtomicU64::new(0.0f64.to_bits())));
                        t.push((name.clone(), c.clone()));
                        c
                    }
                }
            };
            cell.0.store(*bits, Ordering::Relaxed);
        }
        for (name, h) in &dump.hists {
            let cell = {
                let mut t = inner.hists.lock().expect("metrics lock");
                match t.iter().find(|(n, _)| n == name) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let c = Arc::new(HistCell {
                            count: AtomicU64::new(0),
                            sum: AtomicU64::new(0),
                            max: AtomicU64::new(0),
                            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                        });
                        t.push((name.clone(), c.clone()));
                        c
                    }
                }
            };
            cell.count.store(h.count, Ordering::Relaxed);
            cell.sum.store(h.sum, Ordering::Relaxed);
            cell.max.store(h.max, Ordering::Relaxed);
            for (slot, v) in cell.buckets.iter().zip(&h.buckets) {
                slot.store(*v, Ordering::Relaxed);
            }
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_enabled() {
            write!(f, "MetricsRegistry(enabled)")
        } else {
            write!(f, "MetricsRegistry(disabled)")
        }
    }
}

/// Upper bound of the bucket containing the `q`-quantile rank
/// (nearest-rank over bucket counts; bucket `b` covers values of bit
/// length `b`, so the bound is `2^b − 1`).
fn bucket_quantile(cell: &HistCell, count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((count as f64 - 1.0) * q).round() as u64;
    let mut seen = 0u64;
    for (b, bucket) in cell.buckets.iter().enumerate() {
        seen += bucket.load(Ordering::Relaxed);
        if seen > rank {
            return if b == 0 {
                0.0
            } else if b >= 64 {
                u64::MAX as f64
            } else {
                ((1u64 << b) - 1) as f64
            };
        }
    }
    cell.max.load(Ordering::Relaxed) as f64
}

/// A flattened, name-sorted view of a registry at one instant.
///
/// Serializes as a JSON map (`{"name": value, …}`), so it can ride
/// inside deterministic lab reports — provided the instrumented
/// quantities themselves are deterministic (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// The `(name, value)` entries, sorted by name.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Looks up one metric by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The count `name` (0 when the run did not record it).
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |v| v as u64)
    }

    /// The entries `names` lists, a histogram's [`HIST_STATS`] by the
    /// histogram's own name, in name order.
    pub fn select<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = &'a (String, f64)> {
        self.entries.iter().filter(|(k, _)| {
            names.contains(&k.as_str())
                || k.rsplit_once('.')
                    .is_some_and(|(hist, stat)| HIST_STATS.contains(&stat) && names.contains(&hist))
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(String, f64)> for MetricsSnapshot {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut snap = MetricsSnapshot::default();
        snap.extend(iter);
        snap
    }
}

impl Extend<(String, f64)> for MetricsSnapshot {
    /// Adds entries, keeping the snapshot sorted by name.
    fn extend<I: IntoIterator<Item = (String, f64)>>(&mut self, iter: I) {
        self.entries.extend(iter);
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(serde::Number::Float(*v))))
                .collect(),
        )
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("MetricsSnapshot expects a map"))?;
        let mut entries = Vec::with_capacity(map.len());
        for (k, v) in map {
            let n = v
                .as_number()
                .ok_or_else(|| serde::Error::custom(format!("metric `{k}` is not a number")))?;
            entries.push((k.clone(), n.as_f64()));
        }
        Ok(MetricsSnapshot { entries })
    }

    fn absent() -> Option<Self> {
        // Older reports carry no metrics map; treat absence as empty so
        // they still deserialize.
        Some(MetricsSnapshot::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sim.events");
        c.inc();
        c.add(9);
        let g = reg.gauge("links.peak_utilization");
        g.set(0.5);
        g.set_max(0.9);
        g.set_max(0.2); // lower: ignored
        assert_eq!(c.get(), 10);
        assert_eq!(g.get(), 0.9);
        let snap = reg.snapshot();
        assert_eq!(snap.get("sim.events"), Some(10.0));
        assert_eq!(snap.get("links.peak_utilization"), Some(0.9));
    }

    #[test]
    fn same_name_shares_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(reg.snapshot().get("x"), Some(2.0));
    }

    #[test]
    fn disabled_registry_is_noop() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().is_empty());
        // Default handles are no-ops too (what un-attached subsystems hold).
        Counter::default().inc();
        Gauge::default().set(1.0);
        Histogram::default().observe(1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("epoch.batch");
        for v in [0u64, 1, 1, 2, 3, 8, 1000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.get("epoch.batch.count"), Some(7.0));
        assert_eq!(snap.get("epoch.batch.sum"), Some(1015.0));
        assert_eq!(snap.get("epoch.batch.max"), Some(1000.0));
        // rank 3 of [0,1,1,2,3,8,1000] is 2 -> bucket b=2 -> bound 3
        assert_eq!(snap.get("epoch.batch.p50"), Some(3.0));
        // p99 rank is the largest sample's bucket (b=10 -> 1023)
        assert_eq!(snap.get("epoch.batch.p99"), Some(1023.0));
    }

    #[test]
    fn snapshot_is_sorted_and_serializes() {
        let reg = MetricsRegistry::new();
        reg.counter("zz").inc();
        reg.counter("aa").add(2);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let v = serde::to_value(&snap);
        let back = MetricsSnapshot::from_value(&v).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn select_keeps_listed_names_and_their_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("a.listed").inc();
        reg.counter("a.unlisted").inc();
        reg.counter("b.count").inc();
        reg.histogram("h").observe(3);
        let mut snap = reg.snapshot();
        snap.extend([("a.row".to_string(), 2.0)]);
        let names: Vec<&str> = (snap.select(&["a.listed", "a.row", "h"]))
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            ["a.listed", "a.row", "h.count", "h.max", "h.mean", "h.p50", "h.p99", "h.sum"]
        );
        assert_eq!(snap.count("a.row"), 2);
        assert_eq!(snap.count("absent"), 0);
    }

    #[test]
    fn gauge_set_max_races_keep_the_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("peak");
        std::thread::scope(|s| {
            for i in 0..4 {
                let g = g.clone();
                s.spawn(move || {
                    for k in 0..1000 {
                        g.set_max((i * 1000 + k) as f64);
                    }
                });
            }
        });
        assert_eq!(g.get(), 3999.0);
    }
}
