//! Flow size distributions.
//!
//! Internet flow sizes are famously heavy-tailed: most flows are mice,
//! most bytes ride elephants. The bounded Pareto is the standard model;
//! log-normal is a common alternative; fixed sizes support controlled
//! accuracy experiments.

use horse_types::Snap;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Pareto};
use serde::{Deserialize, Serialize};

/// A flow-size distribution (bytes).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Snap)]
#[serde(tag = "dist", rename_all = "snake_case")]
pub enum FlowSizeDist {
    /// Bounded Pareto: heavy tail with shape `alpha`, clamped to
    /// `[min_bytes, max_bytes]`.
    Pareto {
        /// Tail index (1.0–1.5 is typical for flow sizes).
        alpha: f64,
        /// Scale / minimum size in bytes.
        min_bytes: u64,
        /// Upper clamp in bytes (keeps single samples from dominating).
        max_bytes: u64,
    },
    /// Log-normal in bytes.
    LogNormal {
        /// Mean of the underlying normal (of ln bytes).
        mu: f64,
        /// Std-dev of the underlying normal.
        sigma: f64,
    },
    /// Every flow has exactly this size.
    Fixed {
        /// The size in bytes.
        bytes: u64,
    },
}

impl FlowSizeDist {
    /// A typical IXP-ish mix: Pareto(α = 1.2) from 20 kB clamped at 2 GB.
    pub fn default_heavy_tail() -> Self {
        FlowSizeDist::Pareto {
            alpha: 1.2,
            min_bytes: 20_000,
            max_bytes: 2_000_000_000,
        }
    }

    /// Samples one flow size in bytes (≥ 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            FlowSizeDist::Pareto {
                alpha,
                min_bytes,
                max_bytes,
            } => {
                let p = Pareto::new(min_bytes.max(1) as f64, alpha.max(0.05))
                    .expect("valid pareto params");
                let v = p.sample(rng);
                (v as u64).clamp(min_bytes.max(1), max_bytes.max(min_bytes.max(1)))
            }
            FlowSizeDist::LogNormal { mu, sigma } => {
                let d = LogNormal::new(mu, sigma.max(1e-9)).expect("valid lognormal params");
                (d.sample(rng) as u64).max(1)
            }
            FlowSizeDist::Fixed { bytes } => bytes.max(1),
        }
    }

    /// Analytic mean size in bytes (used to convert traffic-matrix rates
    /// into flow arrival rates). For the bounded Pareto the unbounded mean
    /// is used when `alpha > 1` (the clamp's effect is small for realistic
    /// bounds); for `alpha ≤ 1` the bound dominates and we integrate the
    /// truncated tail.
    pub fn mean_bytes(&self) -> f64 {
        match *self {
            FlowSizeDist::Pareto {
                alpha,
                min_bytes,
                max_bytes,
            } => {
                let xm = min_bytes.max(1) as f64;
                let xb = max_bytes.max(min_bytes.max(1)) as f64;
                if alpha > 1.0 {
                    (alpha * xm / (alpha - 1.0)).min(xb)
                } else {
                    // E[X∧xb] for Pareto with alpha ≤ 1 (finite by clamp):
                    // xm * (1 + ln(xb/xm)) for alpha == 1; use numeric-ish
                    // bound otherwise.
                    xm * (1.0 + (xb / xm).ln())
                }
            }
            FlowSizeDist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            FlowSizeDist::Fixed { bytes } => bytes.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_respects_bounds() {
        let d = FlowSizeDist::Pareto {
            alpha: 1.2,
            min_bytes: 1000,
            max_bytes: 1_000_000,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let s = d.sample(&mut rng);
            assert!((1000..=1_000_000).contains(&s));
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = FlowSizeDist::default_heavy_tail();
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[samples.len() / 2] as f64;
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // For the bounded Pareto(α=1.2, 20 kB, 2 GB) the analytic ratio is
        // E[X]/median = 108 kB / 35.6 kB ≈ 3.03 — a 3.0 threshold sits on
        // the boundary and flips on sampling noise (heavy-tailed sample
        // means are biased low at any finite n). 2.5 still certifies
        // elephant-dominated mass without encoding a coin flip.
        assert!(
            mean > median * 2.5,
            "mean {mean} should dwarf median {median}"
        );
    }

    #[test]
    fn sampled_mean_tracks_analytic_mean() {
        let d = FlowSizeDist::Pareto {
            alpha: 1.5,
            min_bytes: 10_000,
            max_bytes: u64::MAX / 2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let analytic = d.mean_bytes();
        assert!(
            (mean - analytic).abs() / analytic < 0.1,
            "sampled {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn fixed_is_deterministic() {
        let d = FlowSizeDist::Fixed { bytes: 1234 };
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(d.sample(&mut rng), 1234);
        assert_eq!(d.mean_bytes(), 1234.0);
    }

    #[test]
    fn lognormal_mean() {
        let d = FlowSizeDist::LogNormal {
            mu: 10.0,
            sigma: 1.0,
        };
        let expected = (10.0f64 + 0.5).exp();
        assert!((d.mean_bytes() - expected).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(d.sample(&mut rng) >= 1);
    }

    #[test]
    fn serde_roundtrip() {
        let d = FlowSizeDist::default_heavy_tail();
        let js = serde_json::to_string(&d).unwrap();
        assert_eq!(serde_json::from_str::<FlowSizeDist>(&js).unwrap(), d);
    }
}
