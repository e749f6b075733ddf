//! The flow arrival generator.
//!
//! Converts a traffic matrix into a stream of flow arrivals: a
//! non-homogeneous Poisson process (rate ∝ matrix total × diurnal
//! multiplier, realised by thinning) whose per-arrival member pair is
//! drawn from the matrix weights, with heavy-tailed sizes and an
//! application mix. Deterministic for a given seed — the reproduction's
//! substitute for "replaying real IXP data over time": feeding a recorded
//! trace through the same [`Arrival`] interface is a drop-in change.

use crate::apps::AppMix;
use crate::diurnal::DiurnalProfile;
use crate::sizes::FlowSizeDist;
use crate::tm::TrafficMatrix;
use horse_types::{AppClass, Rate, SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

/// How the generated flow offers traffic (mirrors the data plane's demand
/// models without depending on the dataplane crate).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DemandKind {
    /// TCP-style greedy transfer of the sampled size.
    Greedy,
    /// UDP-style constant bit rate (bps) for the sampled size.
    Cbr(f64),
}

/// One generated flow arrival.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival time.
    pub at: SimTime,
    /// Source member index (into the member list the caller owns).
    pub src: usize,
    /// Destination member index.
    pub dst: usize,
    /// Application class (drives ports / transport).
    pub app: AppClass,
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Demand model.
    pub demand: DemandKind,
    /// Ephemeral source port (unique-ish per pair over time).
    pub src_port: u16,
}

/// Generator parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub struct WorkloadParams {
    /// Offered-load matrix (bps at peak).
    pub matrix: TrafficMatrix,
    /// Flow sizes.
    pub sizes: FlowSizeDist,
    /// Application mix.
    pub apps: AppMix,
    /// Optional diurnal modulation (None = flat).
    pub diurnal: Option<DiurnalProfile>,
    /// CBR rate used for UDP-class flows.
    pub udp_rate: Rate,
    /// RNG seed (same seed ⇒ identical arrival stream).
    pub seed: u64,
}

impl WorkloadParams {
    /// A small flat workload for tests/examples.
    pub fn flat(matrix: TrafficMatrix, seed: u64) -> Self {
        WorkloadParams {
            matrix,
            sizes: FlowSizeDist::default_heavy_tail(),
            apps: AppMix::default_ixp(),
            diurnal: None,
            udp_rate: Rate::mbps(4.0),
            seed,
        }
    }
}

/// The deterministic arrival stream (see module docs).
///
/// Keeps only what drawing an arrival reads: the matrix survives as
/// `pair_cum` (16 B per non-zero pair), so a caller that keeps the params
/// holds the matrix once.
pub struct FlowGenerator {
    sizes: FlowSizeDist,
    apps: AppMix,
    diurnal: Option<DiurnalProfile>,
    udp_rate: Rate,
    /// Cumulative pair weights for categorical sampling: `(src, dst,
    /// running sum)` over the non-zero entries in row-major order.
    pair_cum: Vec<(u32, u32, f64)>,
    /// Peak aggregate flow arrival rate (flows/sec).
    lambda_peak: f64,
    rng: StdRng,
    clock_secs: f64,
    next_port: u16,
    /// Arrivals emitted so far.
    pub emitted: u64,
}

impl FlowGenerator {
    /// Builds the generator. The peak aggregate arrival rate is
    /// `matrix.total() / mean_flow_size_bits` — the rate at which flows
    /// must arrive for the offered load to match the matrix.
    pub fn new(params: WorkloadParams) -> Self {
        let member = |i: usize| u32::try_from(i).expect("member index fits u32");
        let mut acc = 0.0;
        let pair_cum = params
            .matrix
            .pairs()
            .map(|(i, j, r)| {
                acc += r;
                (member(i), member(j), acc)
            })
            .collect();
        let mean_bits = params.sizes.mean_bytes() * 8.0;
        let lambda_peak = if mean_bits > 0.0 {
            params.matrix.total() / mean_bits
        } else {
            0.0
        };
        let rng = StdRng::seed_from_u64(params.seed);
        FlowGenerator {
            sizes: params.sizes,
            apps: params.apps,
            diurnal: params.diurnal,
            udp_rate: params.udp_rate,
            pair_cum,
            lambda_peak,
            rng,
            clock_secs: 0.0,
            next_port: 10_000,
            emitted: 0,
        }
    }

    /// Peak aggregate arrival rate in flows/sec.
    pub fn lambda_peak(&self) -> f64 {
        self.lambda_peak
    }

    /// Draws the next arrival strictly after the previous one; `None` when
    /// the matrix is empty (no traffic).
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.lambda_peak <= 0.0 || self.pair_cum.is_empty() {
            return None;
        }
        let exp = Exp::new(self.lambda_peak).expect("positive rate");
        // Thinning for the diurnal profile: candidate points at the peak
        // rate, accepted with probability multiplier(t)/max_multiplier.
        loop {
            self.clock_secs += exp.sample(&mut self.rng);
            let accept = match &self.diurnal {
                None => true,
                Some(d) => {
                    let p = d.multiplier(self.clock_secs) / d.max_multiplier();
                    self.rng.random::<f64>() < p
                }
            };
            if !accept {
                continue;
            }
            // pair by cumulative weight
            let total = self.pair_cum.last().expect("non-empty").2;
            let point = self.rng.random::<f64>() * total;
            let idx = self
                .pair_cum
                .partition_point(|&(_, _, c)| c < point)
                .min(self.pair_cum.len() - 1);
            let (src, dst, _) = self.pair_cum[idx];
            let app = self.apps.sample(&mut self.rng);
            let size_bytes = self.sizes.sample(&mut self.rng);
            let demand = match app.transport() {
                horse_types::IpProtocol::Udp => DemandKind::Cbr(self.udp_rate.as_bps()),
                _ => DemandKind::Greedy,
            };
            self.next_port = if self.next_port >= 60_000 {
                10_000
            } else {
                self.next_port + 1
            };
            self.emitted += 1;
            return Some(Arrival {
                at: SimTime::ZERO + SimDuration::from_secs_f64(self.clock_secs),
                src: src as usize,
                dst: dst as usize,
                app,
                size_bytes,
                demand,
                src_port: self.next_port,
            });
        }
    }

    /// Serializes the generator's mutable cursor for a checkpoint. The
    /// derived tables (`pair_cum`, `lambda_peak`) are rebuilt from the
    /// params, so only the RNG state and counters need to travel.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        for word in self.rng.state() {
            word.snap(w);
        }
        self.clock_secs.snap(w);
        self.next_port.snap(w);
        self.emitted.snap(w);
    }

    /// Restores state written by [`FlowGenerator::snapshot_state`] into a
    /// generator freshly built from the same params.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = Snap::unsnap(r)?;
        }
        self.rng = StdRng::from_state(s);
        self.clock_secs = Snap::unsnap(r)?;
        self.next_port = Snap::unsnap(r)?;
        self.emitted = Snap::unsnap(r)?;
        Ok(())
    }

    /// Collects arrivals until `horizon` (convenience for batch setups).
    pub fn arrivals_until(&mut self, horizon: SimTime) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(a) = self.next_arrival() {
            if a.at > horizon {
                break;
            }
            out.push(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> FlowGenerator {
        let m = TrafficMatrix::gravity(&TrafficMatrix::zipf_weights(8, 1.0), 1e9);
        FlowGenerator::new(WorkloadParams::flat(m, seed))
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = gen(42);
        let mut b = gen(42);
        for _ in 0..200 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
        let mut c = gen(43);
        let first_a = gen(42).next_arrival();
        assert_ne!(first_a, c.next_arrival(), "different seed differs");
    }

    #[test]
    fn arrival_times_strictly_increase() {
        let mut g = gen(1);
        let mut last = SimTime::ZERO;
        for _ in 0..500 {
            let a = g.next_arrival().unwrap();
            assert!(a.at > last);
            last = a.at;
        }
    }

    #[test]
    fn no_self_pairs_and_valid_indices() {
        let mut g = gen(2);
        for _ in 0..500 {
            let a = g.next_arrival().unwrap();
            assert_ne!(a.src, a.dst);
            assert!(a.src < 8 && a.dst < 8);
        }
    }

    #[test]
    fn offered_load_matches_matrix() {
        // sum(size)/T should approximate matrix total (1 Gbps here)
        let mut g = gen(3);
        let horizon = SimTime::from_secs(200);
        let arrivals = g.arrivals_until(horizon);
        let bytes: f64 = arrivals.iter().map(|a| a.size_bytes as f64).sum();
        let offered_bps = bytes * 8.0 / 200.0;
        assert!(
            (offered_bps - 1e9).abs() / 1e9 < 0.25,
            "offered {offered_bps:.3e} vs 1e9 (heavy tail ⇒ loose tolerance)"
        );
    }

    #[test]
    fn gravity_skew_shows_up_in_arrivals() {
        let mut g = gen(4);
        let mut counts = vec![0usize; 8];
        for _ in 0..5000 {
            let a = g.next_arrival().unwrap();
            counts[a.src] += 1;
        }
        assert!(
            counts[0] > counts[7] * 2,
            "member 0 (heaviest) should dominate member 7: {counts:?}"
        );
    }

    #[test]
    fn diurnal_modulates_arrival_density() {
        let m = TrafficMatrix::uniform(4, 1e8);
        let mut p = WorkloadParams::flat(m, 5);
        p.diurnal = Some(DiurnalProfile {
            peak_hour: 0.0,
            trough_frac: 0.2,
        });
        let mut g = FlowGenerator::new(p);
        // count arrivals in hour 0 (peak) vs hour 12 (trough)
        let mut peak = 0usize;
        let mut trough = 0usize;
        while let Some(a) = g.next_arrival() {
            let h = (a.at.as_secs_f64() / 3600.0) % 24.0;
            if h < 1.0 {
                peak += 1;
            } else if (12.0..13.0).contains(&h) {
                trough += 1;
            }
            if a.at > SimTime::from_secs(24 * 3600) {
                break;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn udp_apps_get_cbr() {
        let m = TrafficMatrix::uniform(4, 1e8);
        let mut p = WorkloadParams::flat(m, 6);
        p.apps = AppMix::only(AppClass::Dns);
        let mut g = FlowGenerator::new(p);
        let a = g.next_arrival().unwrap();
        assert!(matches!(a.demand, DemandKind::Cbr(_)));
        let mut p2 = WorkloadParams::flat(TrafficMatrix::uniform(4, 1e8), 6);
        p2.apps = AppMix::only(AppClass::Https);
        let mut g2 = FlowGenerator::new(p2);
        assert_eq!(g2.next_arrival().unwrap().demand, DemandKind::Greedy);
    }

    #[test]
    fn empty_matrix_yields_nothing() {
        let g = FlowGenerator::new(WorkloadParams::flat(TrafficMatrix::zeros(4), 7));
        let mut g = g;
        assert!(g.next_arrival().is_none());
    }

    /// The first arrivals of a seeded gravity matrix with empty rows and
    /// columns, as `(src, dst, at ns, size)`: pair sampling skips the
    /// zero entries, and how the generator stores the matrix moves none.
    #[test]
    fn arrival_stream_is_pinned() {
        const GOLDEN: [(usize, usize, u64, u64); 16] = [
            (5, 0, 1885980, 43208),
            (3, 5, 2178121, 20349),
            (2, 0, 3671612, 29148),
            (2, 0, 4021482, 86321),
            (3, 2, 4099247, 32683),
            (2, 5, 4169957, 72654),
            (5, 0, 6069246, 27605),
            (0, 3, 6098667, 24056),
            (3, 5, 6948846, 103600),
            (5, 0, 7050493, 36584),
            (0, 5, 7213067, 24442),
            (3, 5, 7605072, 20313),
            (3, 0, 9059987, 32835),
            (3, 2, 10126078, 39952),
            (3, 0, 10685992, 22840),
            (5, 3, 13829063, 71561),
        ];
        let m = TrafficMatrix::gravity(&[4.0, 0.0, 1.0, 3.0, 0.0, 2.0], 1e9);
        let mut g = FlowGenerator::new(WorkloadParams::flat(m, 11));
        let got: Vec<_> = (0..GOLDEN.len())
            .map(|_| {
                let a = g.next_arrival().expect("non-empty matrix");
                (a.src, a.dst, a.at.as_nanos(), a.size_bytes)
            })
            .collect();
        assert_eq!(got, GOLDEN);
    }

    #[test]
    fn ports_cycle_in_ephemeral_range() {
        let mut g = gen(8);
        for _ in 0..1000 {
            let a = g.next_arrival().unwrap();
            assert!((10_000..=60_000).contains(&a.src_port));
        }
    }
}
