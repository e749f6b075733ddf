//! Diurnal load modulation.
//!
//! Public IXP statistics (e.g. AMS-IX/DE-CIX traffic pages) show a smooth
//! daily swing with an evening peak and an early-morning trough at roughly
//! 1/2 to 1/3 of the peak. [`DiurnalProfile`] models that as a raised
//! cosine: multiplier 1.0 at `peak_hour`, `trough_frac` at the antipode.

use horse_types::Snap;
use serde::{Deserialize, Serialize};

/// A raised-cosine daily profile.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub struct DiurnalProfile {
    /// Hour of day (0–24) where load peaks.
    pub peak_hour: f64,
    /// Trough load as a fraction of peak (0–1).
    pub trough_frac: f64,
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        // Evening peak at 21:00, trough at 1/3 of peak — the published IXP
        // shape.
        DiurnalProfile {
            peak_hour: 21.0,
            trough_frac: 1.0 / 3.0,
        }
    }
}

impl DiurnalProfile {
    /// The load multiplier at `t_secs` seconds since simulated midnight,
    /// in `[trough_frac, 1.0]`.
    pub fn multiplier(&self, t_secs: f64) -> f64 {
        let hours = (t_secs / 3600.0).rem_euclid(24.0);
        let phase = (hours - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        let trough = self.trough_frac.clamp(0.0, 1.0);
        // cos(0) = 1 at the peak
        let unit = (phase.cos() + 1.0) / 2.0; // [0, 1]
        trough + (1.0 - trough) * unit
    }

    /// The largest multiplier the profile can produce (used for Poisson
    /// thinning).
    pub fn max_multiplier(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_and_trough() {
        let p = DiurnalProfile::default();
        let at = |h: f64| p.multiplier(h * 3600.0);
        assert!((at(21.0) - 1.0).abs() < 1e-9, "peak at 21:00");
        assert!((at(9.0) - 1.0 / 3.0).abs() < 1e-9, "trough 12h later");
    }

    #[test]
    fn multiplier_bounded_all_day() {
        let p = DiurnalProfile::default();
        for m in 0..(24 * 60) {
            let v = p.multiplier(m as f64 * 60.0);
            assert!((p.trough_frac - 1e-12..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn wraps_past_midnight() {
        let p = DiurnalProfile::default();
        let a = p.multiplier(1.0 * 3600.0);
        let b = p.multiplier(25.0 * 3600.0);
        assert!((a - b).abs() < 1e-9, "period is 24h");
    }

    #[test]
    fn flat_profile_when_trough_is_one() {
        let p = DiurnalProfile {
            peak_hour: 0.0,
            trough_frac: 1.0,
        };
        for h in 0..24 {
            assert!((p.multiplier(h as f64 * 3600.0) - 1.0).abs() < 1e-12);
        }
    }
}
