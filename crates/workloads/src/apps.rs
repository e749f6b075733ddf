//! Application mixes.

use horse_types::{AppClass, Snap};
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// A categorical distribution over application classes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub struct AppMix {
    /// `(class, weight)` pairs; weights need not be normalized.
    pub weights: Vec<(AppClass, f64)>,
}

impl AppMix {
    /// Web-dominated mix approximating published IXP traffic breakdowns
    /// (HTTPS+HTTP ≈ 70 %, video ≈ 15 %, the rest small).
    pub fn default_ixp() -> Self {
        AppMix {
            weights: vec![
                (AppClass::Https, 0.45),
                (AppClass::Http, 0.25),
                (AppClass::Video, 0.15),
                (AppClass::Dns, 0.03),
                (AppClass::Mail, 0.02),
                (AppClass::Ntp, 0.01),
                (AppClass::Other, 0.09),
            ],
        }
    }

    /// A single-class mix (controlled experiments).
    pub fn only(app: AppClass) -> Self {
        AppMix {
            weights: vec![(app, 1.0)],
        }
    }

    /// Samples one application class.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> AppClass {
        let total: f64 = self.weights.iter().map(|(_, w)| w.max(0.0)).sum();
        if total <= 0.0 {
            return AppClass::Other;
        }
        let mut point = rng.random::<f64>() * total;
        for (app, w) in &self.weights {
            let w = w.max(0.0);
            if point < w {
                return *app;
            }
            point -= w;
        }
        self.weights
            .last()
            .map(|(a, _)| *a)
            .unwrap_or(AppClass::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_follows_weights() {
        let mix = AppMix::default_ixp();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(mix.sample(&mut rng)).or_insert(0usize) += 1;
        }
        assert!(counts[&AppClass::Https] > counts[&AppClass::Dns] * 5);
        // every weighted class appears
        assert_eq!(counts.len(), AppClass::ALL.len());
    }

    #[test]
    fn only_always_returns_the_class() {
        let mix = AppMix::only(AppClass::Http);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), AppClass::Http);
        }
    }

    #[test]
    fn empty_or_zero_weights_fall_back() {
        let mix = AppMix { weights: vec![] };
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(mix.sample(&mut rng), AppClass::Other);
        let zero = AppMix {
            weights: vec![(AppClass::Http, 0.0)],
        };
        assert_eq!(zero.sample(&mut rng), AppClass::Other);
    }
}
