//! Traffic matrices.
//!
//! `rate(i, j)` is the offered load (bps) from member `i` to member `j`.
//! The gravity model with Zipf-distributed member weights reproduces the
//! strong skew measured at real IXPs (a few members originate most bytes).
//!
//! A matrix is kept as the shape it was built from — uniform, hotspot or
//! gravity — not as `n²` rates: it holds O(n) numbers, and `rate(i, j)`
//! evaluates the float expression a dense constructor would have stored
//! in that cell, so every rate, [`TrafficMatrix::total`] and
//! [`TrafficMatrix::pairs`] is bit-identical to the dense form.

use horse_types::Snap;
use serde::{Deserialize, Serialize};

/// A traffic matrix over `n` members, kept as its shape (module docs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub struct TrafficMatrix {
    shape: Shape,
}

/// The generating parameters of a matrix. Off-diagonal cells read as
/// documented per variant, each clamped with `.max(0.0)`; the diagonal is
/// zero.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Snap)]
#[serde(tag = "model", rename_all = "snake_case")]
enum Shape {
    /// Every cell is `per` (a zero matrix is `per = 0`).
    Uniform { n: usize, per: f64 },
    /// Every cell is `per`, plus `per_src` into column `hot`.
    Hotspot {
        n: usize,
        per: f64,
        hot: usize,
        per_src: f64,
    },
    /// Cell `(i, j)` is `total · weights[i] · weights[j] / mass`; `n` is
    /// the number of weights.
    Gravity {
        weights: Vec<f64>,
        total: f64,
        mass: f64,
    },
}

impl TrafficMatrix {
    /// A zero matrix.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix {
            shape: Shape::Uniform { n, per: 0.0 },
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.shape {
            Shape::Uniform { n, .. } | Shape::Hotspot { n, .. } => *n,
            Shape::Gravity { weights, .. } => weights.len(),
        }
    }

    /// True when the matrix is empty (no members).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rate from `i` to `j` (bps); both must be below [`Self::len`].
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        let n = self.len();
        assert!(
            i < n && j < n,
            "pair ({i}, {j}) outside a {n}-member matrix"
        );
        self.cell(i, j)
    }

    /// [`Self::rate`] without the bounds check.
    fn cell(&self, i: usize, j: usize) -> f64 {
        self.cell_in_row(i, self.row_factor(i), j)
    }

    /// The part of row `i`'s cells that depends on the row alone: a
    /// gravity cell is `((total · w[i]) · w[j]) / mass`, so its first
    /// product is the same across the row (0 for the other shapes).
    fn row_factor(&self, i: usize) -> f64 {
        match &self.shape {
            Shape::Gravity { weights, total, .. } => total * weights[i],
            Shape::Uniform { .. } | Shape::Hotspot { .. } => 0.0,
        }
    }

    /// Cell `(i, j)` given row `i`'s [`Self::row_factor`].
    fn cell_in_row(&self, i: usize, factor: f64, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        match &self.shape {
            Shape::Uniform { per, .. } => per.max(0.0),
            Shape::Hotspot {
                per, hot, per_src, ..
            } => {
                if j == *hot {
                    (per.max(0.0) + per_src).max(0.0)
                } else {
                    per.max(0.0)
                }
            }
            Shape::Gravity { weights, mass, .. } => (factor * weights[j] / mass).max(0.0),
        }
    }

    /// Total offered load (bps): bit for bit the row-major sum of all
    /// `n²` cells. Only the non-zero pairs are added, after the zero cell
    /// `(0, 0)`: a zero term changes no bit of a non-negative partial sum.
    pub fn total(&self) -> f64 {
        if self.is_empty() {
            // no cell at all: the empty sum, whose sign `Sum` decides
            return std::iter::empty::<f64>().sum();
        }
        let mut sum = 0.0;
        self.scan_pairs(0, |_, _, r| {
            sum += r;
            false
        });
        sum
    }

    /// Uniform matrix: every ordered pair carries `total / (n(n-1))`.
    pub fn uniform(n: usize, total_bps: f64) -> Self {
        if n < 2 {
            return TrafficMatrix::zeros(n);
        }
        TrafficMatrix {
            shape: Shape::Uniform {
                n,
                per: total_bps / (n * (n - 1)) as f64,
            },
        }
    }

    /// Gravity model: `rate(i→j) ∝ w[i]·w[j]`, scaled to `total_bps`.
    pub fn gravity(weights: &[f64], total_bps: f64) -> Self {
        let n = weights.len();
        let mut mass = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    mass += weights[i] * weights[j];
                }
            }
        }
        if mass <= 0.0 {
            return TrafficMatrix::zeros(n);
        }
        TrafficMatrix {
            shape: Shape::Gravity {
                weights: weights.to_vec(),
                total: total_bps,
                mass,
            },
        }
    }

    /// Zipf weights `1/rank^alpha` for `n` members (rank 1 = heaviest).
    pub fn zipf_weights(n: usize, alpha: f64) -> Vec<f64> {
        (1..=n).map(|r| 1.0 / (r as f64).powf(alpha)).collect()
    }

    /// Hotspot matrix: `frac` of the total converges on member `hot`
    /// (spread over sources), the rest is uniform.
    pub fn hotspot(n: usize, total_bps: f64, hot: usize, frac: f64) -> Self {
        let frac = frac.clamp(0.0, 1.0);
        if n < 2 || hot >= n {
            return TrafficMatrix::uniform(n, total_bps * (1.0 - frac));
        }
        TrafficMatrix {
            shape: Shape::Hotspot {
                n,
                per: total_bps * (1.0 - frac) / (n * (n - 1)) as f64,
                hot,
                per_src: total_bps * frac / (n - 1) as f64,
            },
        }
    }

    /// Ordered pairs with non-zero rate, as `(i, j, bps)`, row-major.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.len();
        (0..n)
            .flat_map(move |i| (0..n).map(move |j| (i, j, self.cell(i, j))))
            .filter(|&(_, _, r)| r > 0.0)
    }

    /// Calls `stop(i, j, bps)` for each non-zero pair from row-major cell
    /// `start` (`i·n + j`) on, in [`Self::pairs`] order, until it returns
    /// true.
    pub(crate) fn scan_pairs(&self, start: usize, mut stop: impl FnMut(usize, usize, f64) -> bool) {
        let n = self.len();
        let (row, col) = (start / n.max(1), start % n.max(1));
        for i in row..n {
            let factor = self.row_factor(i);
            for j in if i == row { col } else { 0 }..n {
                let r = self.cell_in_row(i, factor, j);
                if r > 0.0 && stop(i, j, r) {
                    return;
                }
            }
        }
    }
}

/// A declarative traffic-matrix shape: how an aggregate offered load is
/// spread over member pairs. Scenario families pick a default per
/// topology (gravity for meshy fabrics, hotspot for chains, degree-
/// weighted gravity for WANs) and lab specs can override it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "model", rename_all = "snake_case")]
pub enum TrafficPattern {
    /// Gravity model over skewed member weights: rank-Zipf
    /// (`1/rank^alpha`) by default, or — when the caller supplies
    /// structural weights such as PoP degrees — those weights raised to
    /// `alpha`.
    Gravity {
        /// Skew exponent (0 = uniform weights, 1 = classic Zipf).
        alpha: f64,
    },
    /// `frac` of the total converges on the first member, the rest is
    /// uniform — the incast/hot-object shape.
    Hotspot {
        /// Fraction of the total load converging on the hot member
        /// (clamped to `[0, 1]`).
        frac: f64,
    },
    /// Every ordered pair carries the same rate.
    Uniform,
}

impl TrafficPattern {
    /// The pattern's matrix over `n` members totalling `total_bps`.
    /// `weights`, when given, supplies structural member weights (e.g.
    /// attachment-PoP degrees for a WAN) used by the gravity model in
    /// place of rank-Zipf; other patterns ignore it.
    pub fn matrix(&self, n: usize, total_bps: f64, weights: Option<&[f64]>) -> TrafficMatrix {
        match *self {
            TrafficPattern::Gravity { alpha } => {
                let w: Vec<f64> = match weights {
                    Some(ws) if ws.len() == n => {
                        ws.iter().map(|x| x.max(1e-12).powf(alpha)).collect()
                    }
                    _ => TrafficMatrix::zipf_weights(n, alpha),
                };
                TrafficMatrix::gravity(&w, total_bps)
            }
            TrafficPattern::Hotspot { frac } => TrafficMatrix::hotspot(n, total_bps, 0, frac),
            TrafficPattern::Uniform => TrafficMatrix::uniform(n, total_bps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sums_to_total() {
        let m = TrafficMatrix::uniform(10, 1e9);
        assert!((m.total() - 1e9).abs() < 1.0);
        assert_eq!(m.rate(3, 3), 0.0, "diagonal stays zero");
    }

    #[test]
    fn gravity_preserves_total_and_skew() {
        let w = TrafficMatrix::zipf_weights(10, 1.0);
        let m = TrafficMatrix::gravity(&w, 1e9);
        assert!((m.total() - 1e9).abs() < 1.0);
        // heaviest pair (0 <-> 1) outweighs the lightest (8 <-> 9)
        assert!(m.rate(0, 1) > m.rate(8, 9) * 10.0);
    }

    #[test]
    fn zipf_weights_decrease() {
        let w = TrafficMatrix::zipf_weights(5, 1.2);
        for i in 1..w.len() {
            assert!(w[i] < w[i - 1]);
        }
    }

    #[test]
    fn hotspot_concentrates() {
        let m = TrafficMatrix::hotspot(10, 1e9, 0, 0.5);
        assert!((m.total() - 1e9).abs() < 1.0);
        let into_hot: f64 = (0..10).map(|i| m.rate(i, 0)).sum();
        assert!(into_hot >= 0.5e9);
    }

    #[test]
    fn pairs_skip_the_diagonal_and_zero_rows() {
        let m = TrafficMatrix::uniform(3, 600.0);
        assert_eq!(m.pairs().count(), 6);
        assert!((m.total() - 600.0).abs() < 1e-9);
        let g = TrafficMatrix::gravity(&[1.0, 0.0, 2.0], 1e9);
        let got: Vec<_> = g.pairs().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(got, [(0, 2), (2, 0)]);
        assert_eq!(g.rate(1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside a 3-member matrix")]
    fn rate_outside_the_matrix_panics() {
        TrafficMatrix::uniform(3, 1.0).rate(0, 3);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(TrafficMatrix::uniform(0, 1e9).total(), 0.0);
        assert_eq!(TrafficMatrix::uniform(1, 1e9).total(), 0.0);
        assert_eq!(TrafficMatrix::gravity(&[], 1e9).total(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = TrafficMatrix::uniform(4, 1e8);
        let js = serde_json::to_string(&m).unwrap();
        let back: TrafficMatrix = serde_json::from_str(&js).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn pattern_materializes_each_shape() {
        let g = TrafficPattern::Gravity { alpha: 1.0 }.matrix(6, 1e9, None);
        assert!((g.total() - 1e9).abs() < 1.0);
        assert!(g.rate(0, 1) > g.rate(4, 5), "gravity skews toward rank 1");
        let h = TrafficPattern::Hotspot { frac: 0.7 }.matrix(6, 1e9, None);
        let into_hot: f64 = (0..6).map(|i| h.rate(i, 0)).sum();
        assert!(into_hot >= 0.7e9);
        let u = TrafficPattern::Uniform.matrix(6, 1e9, None);
        assert!((u.rate(0, 1) - u.rate(4, 5)).abs() < 1e-6);
    }

    #[test]
    fn gravity_uses_structural_weights_when_given() {
        // member 2 has the dominant weight (a high-degree WAN PoP)
        let w = [1.0, 1.0, 8.0, 1.0];
        let m = TrafficPattern::Gravity { alpha: 1.0 }.matrix(4, 1e9, Some(&w));
        assert!(m.rate(0, 2) > m.rate(0, 1) * 4.0);
        // mismatched weight length falls back to rank-Zipf
        let fallback = TrafficPattern::Gravity { alpha: 1.0 }.matrix(4, 1e9, Some(&[1.0]));
        assert!(fallback.rate(0, 1) > fallback.rate(2, 3));
    }

    #[test]
    fn pattern_serde_roundtrip() {
        for p in [
            TrafficPattern::Gravity { alpha: 0.8 },
            TrafficPattern::Hotspot { frac: 0.5 },
            TrafficPattern::Uniform,
        ] {
            let js = serde_json::to_string(&p).unwrap();
            let back: TrafficPattern = serde_json::from_str(&js).unwrap();
            assert_eq!(p, back);
        }
        let from_toml: TrafficPattern = toml::from_str("model = \"uniform\"").unwrap();
        assert_eq!(from_toml, TrafficPattern::Uniform);
    }
}
