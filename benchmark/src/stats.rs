//! Estimators and verdicts: median, quartiles, interquartile range
//! against a bound, and the four-way comparison `compare` prints.

use crate::spec::Better;

/// Summary of one metric's repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Median (the reported value).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Sample count.
    pub n: usize,
}

impl Estimate {
    /// Summarises samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Estimate> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&s)?;
        Some(Estimate {
            median: median_sorted(&s),
            q1,
            q3,
            min: s[0],
            n: s.len(),
        })
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// True when the spread is wider than `bound`: the metric cannot
    /// resolve a change of that size.
    pub fn unresolved(&self, bound: f64) -> bool {
        self.spread() > bound
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (!s.is_empty()).then(|| median_sorted(&s))
}

/// First and third quartile of *sorted* samples, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver applies to this benchmark's output. One sample is its
/// own quartiles.
fn quartiles(s: &[f64]) -> Option<(f64, f64)> {
    let m = s.len();
    match m {
        0 => return None,
        1 => return Some((s[0], s[0])),
        _ => {}
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The outcome of comparing a metric across two result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than either side's spread.
    Better,
    /// Within the bound either way.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed relative change of `b` against base `a`, positive = worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let delta = (b - a) / a.abs();
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Compares `b` against baseline `a` under `bound`.
pub fn verdict(a: &Estimate, b: &Estimate, better: Better, bound: f64) -> Verdict {
    if a.unresolved(bound) || b.unresolved(bound) {
        return Verdict::Unresolved;
    }
    let w = worsening(a.median, b.median, better);
    if w > bound {
        Verdict::Worse
    } else if -w > a.spread().max(b.spread()) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let e = Estimate::of(&s).unwrap();
        assert_eq!((e.q1, e.median, e.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let e = Estimate::of(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert_eq!((e.q1, e.median, e.q3, e.min, e.n), (1.5, 4.0, 12.0, 1.0, 5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let e = Estimate::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((e.q1, e.q3), (1.0, 3.0));
        // two samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let e = Estimate::of(&[1.0, 2.0]).unwrap();
        assert_eq!((e.q1, e.q3), (0.75, 2.25));
    }

    #[test]
    fn iqr_against_bound_decides_resolution() {
        let tight = Estimate::of(&[1.00, 1.01, 1.02, 1.01, 1.00]).unwrap();
        assert!(tight.spread() < 0.03);
        assert!(!tight.unresolved(0.10));
        let wide = Estimate::of(&[1.0, 1.3, 0.8, 1.4, 1.0]).unwrap();
        assert!(wide.unresolved(0.10));
        assert!(!wide.unresolved(0.60));
    }

    #[test]
    fn verdicts_cover_all_four_cases() {
        let base = Estimate::of(&[1.00, 1.01, 1.02, 1.01, 1.00]).unwrap();
        let same = Estimate::of(&[1.03, 1.02, 1.04, 1.03, 1.02]).unwrap();
        let worse = Estimate::of(&[1.20, 1.21, 1.22, 1.21, 1.20]).unwrap();
        let better = Estimate::of(&[0.80, 0.81, 0.82, 0.81, 0.80]).unwrap();
        let noisy = Estimate::of(&[1.0, 1.3, 0.8, 1.4, 1.0]).unwrap();
        assert_eq!(verdict(&base, &same, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &worse, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(
            verdict(&base, &better, Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // direction flips for higher-is-better metrics
        assert_eq!(
            verdict(&base, &worse, Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &better, Better::Higher, 0.10),
            Verdict::Worse
        );
    }
}
