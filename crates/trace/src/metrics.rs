//! Run metrics as plain values: the power-of-two [`Hist`] and the
//! name-sorted [`MetricsSnapshot`] a run's counts are listed into.
//!
//! A count or histogram is a field of the subsystem whose state it
//! measures, snapshotted with that state, so a resumed run reports
//! exactly what an uninterrupted one does. Nothing here is shared or
//! atomic: observing is a few integer updates and never allocates. A
//! snapshot holds only deterministic quantities (event counts,
//! component sizes, solver rounds), so it is bit-identical across runs,
//! machines and thread counts and may be embedded in reproducible
//! reports. Wall-clock derived quantities belong in [`crate::span`],
//! never here.

use horse_types::Snap;
use serde::{Deserialize, Serialize, Value};

/// Power-of-two histogram buckets: bucket `b` holds values whose bit
/// length is `b` (bucket 0 holds the value 0), so `u64::BITS + 1` covers
/// every input with no configuration.
const HIST_BUCKETS: usize = (u64::BITS + 1) as usize;

/// The statistics a histogram `name` expands to in a snapshot, each
/// under `name.<stat>`.
pub const HIST_STATS: [&str; 6] = ["count", "sum", "mean", "max", "p50", "p99"];

/// A power-of-two histogram of `u64` observations (component sizes,
/// solver rounds): bucket `b` holds the values of bit length `b`. A
/// fixed layout, so observing never allocates.
#[derive(Clone, Debug, PartialEq, Snap)]
pub struct Hist {
    /// Observation count.
    pub count: u64,
    /// Sum of observations (wrapping).
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Observations per bucket, `u64::BITS + 1` of them.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
        self.buckets[(u64::BITS - v.leading_zeros()) as usize] += 1;
    }

    /// The [`HIST_STATS`] rows of this histogram under `name`
    /// (quantiles are bucket upper bounds: deterministic, not exact).
    pub fn rows(&self, name: &str) -> impl Iterator<Item = (String, f64)> {
        let mean = if self.count > 0 {
            self.sum as f64 / self.count as f64
        } else {
            0.0
        };
        let stats = [
            self.count as f64,
            self.sum as f64,
            mean,
            self.max as f64,
            self.quantile(0.50),
            self.quantile(0.99),
        ];
        let name = name.to_string();
        (HIST_STATS.iter().zip(stats)).map(move |(stat, v)| (format!("{name}.{stat}"), v))
    }

    /// Checks what a decoded histogram must hold: its buckets sum to its
    /// count, and its largest observation lies in its highest non-empty
    /// bucket.
    pub fn check(&self) -> Result<(), String> {
        let total = (self.buckets.iter()).try_fold(0u64, |acc, &b| acc.checked_add(b));
        if total != Some(self.count) {
            return Err(format!(
                "histogram buckets do not sum to its count {}",
                self.count
            ));
        }
        let top = self.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        if top != (u64::BITS - self.max.leading_zeros()) as usize {
            return Err(format!(
                "histogram max {} lies outside its highest bucket {top}",
                self.max
            ));
        }
        Ok(())
    }

    /// Upper bound of the bucket containing the `q`-quantile rank
    /// (nearest-rank over bucket counts; bucket `b` covers values of bit
    /// length `b`, so the bound is `2^b − 1`).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
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
        self.max as f64
    }
}

/// A flattened, name-sorted view of a run's metrics at one instant.
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
    use horse_types::snap::{SnapReader, SnapWriter};

    fn hist(values: &[u64]) -> Hist {
        let mut h = Hist::default();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let snap: MetricsSnapshot = hist(&[0, 1, 1, 2, 3, 8, 1000]).rows("batch").collect();
        assert_eq!(snap.get("batch.count"), Some(7.0));
        assert_eq!(snap.get("batch.sum"), Some(1015.0));
        assert_eq!(snap.get("batch.mean"), Some(1015.0 / 7.0));
        assert_eq!(snap.get("batch.max"), Some(1000.0));
        // rank 3 of [0,1,1,2,3,8,1000] is 2 -> bucket b=2 -> bound 3
        assert_eq!(snap.get("batch.p50"), Some(3.0));
        // p99 rank is the largest sample's bucket (b=10 -> 1023)
        assert_eq!(snap.get("batch.p99"), Some(1023.0));
        let empty: MetricsSnapshot = Hist::default().rows("e").collect();
        assert_eq!(empty.len(), HIST_STATS.len());
        assert!(empty.entries().iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn histogram_round_trips_and_refuses_inconsistent_buckets() {
        let h = hist(&[0, 5, 5, u64::MAX]);
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.into_bytes();
        let back = Hist::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.check(), Ok(()));
        assert_eq!(Hist::default().check(), Ok(()));
        let mut short = h.clone();
        short.buckets[3] -= 1;
        assert!(short.check().unwrap_err().contains("sum to its count"));
        let mut overflowing = h.clone();
        overflowing.buckets[0] = u64::MAX;
        assert!(overflowing.check().is_err());
        let mut stray_max = hist(&[1, 2]);
        stray_max.max = 9;
        assert!(stray_max.check().unwrap_err().contains("highest bucket"));
    }

    #[test]
    fn snapshot_is_sorted_and_serializes() {
        let snap: MetricsSnapshot = [("zz".to_string(), 1.0), ("aa".to_string(), 2.0)]
            .into_iter()
            .collect();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["aa", "zz"]);
        let v = serde::to_value(&snap);
        let back = MetricsSnapshot::from_value(&v).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn select_keeps_listed_names_and_their_histograms() {
        let rows = ["a.listed", "a.unlisted", "b.count"].map(|n| (n.to_string(), 1.0));
        let mut snap: MetricsSnapshot = rows.into_iter().chain(hist(&[3]).rows("h")).collect();
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
}
