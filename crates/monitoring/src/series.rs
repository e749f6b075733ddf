//! Time series with summary statistics.

use horse_types::{SimTime, Snap};
use serde::{Deserialize, Serialize};

/// An append-only `(time, value)` series.
#[derive(Clone, Debug, Default, Serialize, Deserialize, Snap)]
pub struct TimeSeries {
    /// Samples in append order (time must be non-decreasing).
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample; out-of-order times are clamped to the last time.
    pub fn push(&mut self, t: SimTime, v: f64) {
        let t = match self.points.last() {
            Some(&(last, _)) if t < last => last,
            _ => t,
        };
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Most recent value.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Arithmetic mean of the values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum value (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// Minimum value (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on sorted values.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut vals: Vec<f64> = self.points.iter().map(|&(_, v)| v).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in series"));
        let q = q.clamp(0.0, 1.0);
        let idx = ((vals.len() as f64 - 1.0) * q).round() as usize;
        vals[idx]
    }

    /// Time-weighted mean: each value weighted by the interval until the
    /// next sample (the final sample gets zero weight). Falls back to the
    /// plain mean when fewer than two samples exist.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.mean();
        }
        let mut acc = 0.0;
        let mut total = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].0.saturating_since(w[0].0).as_secs_f64();
            acc += w[0].1 * dt;
            total += dt;
        }
        if total > 0.0 {
            acc / total
        } else {
            self.mean()
        }
    }
}

/// Summary statistics over a plain slice of values (FCT distributions etc.).
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let q = |p: f64| sorted[(((n - 1) as f64) * p).round() as usize];
    Summary {
        count: n,
        mean,
        min: sorted[0],
        p50: q(0.5),
        p95: q(0.95),
        p99: q(0.99),
        p999: q(0.999),
        max: sorted[n - 1],
    }
}

/// Summary of a value distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile (the tail the chaos experiments watch).
    #[serde(default)]
    pub p999: f64,
    /// Maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_stats() {
        let mut s = TimeSeries::new();
        for (i, v) in [1.0, 3.0, 2.0].iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some(2.0));
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = TimeSeries::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn out_of_order_times_clamped() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(10), 1.0);
        s.push(SimTime::from_secs(5), 2.0);
        assert_eq!(s.points()[1].0, SimTime::from_secs(10));
    }

    #[test]
    fn quantiles() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 99.0);
        assert!((s.quantile(0.5) - 50.0).abs() <= 1.0);
    }

    #[test]
    fn quantile_single_sample_is_that_sample() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(0), 7.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 7.5);
        }
    }

    #[test]
    fn quantile_with_duplicate_values() {
        let mut s = TimeSeries::new();
        for (i, v) in [5.0, 5.0, 5.0, 5.0, 9.0].iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(s.quantile(0.0), 5.0);
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(1.0), 9.0);
    }

    #[test]
    fn quantile_out_of_range_q_is_clamped() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(1), 2.0);
        assert_eq!(s.quantile(-0.5), 1.0);
        assert_eq!(s.quantile(1.5), 2.0);
    }

    #[test]
    fn summarize_edge_shapes() {
        // Single sample: every statistic collapses to it.
        let one = summarize(&[3.0]);
        assert_eq!(one.count, 1);
        assert_eq!(
            (one.min, one.p50, one.p95, one.p99, one.p999, one.max),
            (3.0, 3.0, 3.0, 3.0, 3.0, 3.0)
        );
        // All-duplicate population.
        let dup = summarize(&[2.0; 10]);
        assert_eq!(dup.mean, 2.0);
        assert_eq!(dup.p99, 2.0);
        assert_eq!(dup.p999, 2.0);
        // Empty: everything zero.
        assert_eq!(summarize(&[]), Summary::default());
    }

    #[test]
    fn summarize_tail_quantiles_separate_with_enough_samples() {
        // 1000 samples 0..999: nearest-rank lands p99 on 989 and p999 on
        // 998 — distinct tail values once the population is big enough.
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let sm = summarize(&vals);
        assert_eq!(sm.p99, 989.0);
        assert_eq!(sm.p999, 998.0);
        assert_eq!(sm.max, 999.0);
        // With a tiny population the tail quantiles collapse onto the max
        // rather than extrapolating past it.
        let small = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(small.p999, 3.0);
        assert!(small.p999 <= small.max);
    }

    #[test]
    fn time_weighted_mean_weights_intervals() {
        let mut s = TimeSeries::new();
        // value 0 for 9 s, then value 10 for 1 s
        s.push(SimTime::from_secs(0), 0.0);
        s.push(SimTime::from_secs(9), 10.0);
        s.push(SimTime::from_secs(10), 0.0);
        assert!((s.time_weighted_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_slice() {
        let sm = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(sm.count, 4);
        assert_eq!(sm.min, 1.0);
        assert_eq!(sm.max, 4.0);
        assert!((sm.mean - 2.5).abs() < 1e-12);
        assert_eq!(summarize(&[]).count, 0);
    }
}
