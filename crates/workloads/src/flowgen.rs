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
use std::cmp::Ordering;

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

/// Non-zero pairs per block of [`FlowGenerator`]'s sampling table. A
/// draw sums half a block on average (about 4 ns a pair on a 2-vCPU
/// Xeon VM: 390 ns an arrival at 128, 700–790 ns at 256), and the table
/// costs 16 B a block (512 KiB at 2,048 members, 8 MiB at 8,192).
const BLOCK: usize = 128;

/// The deterministic arrival stream (see module docs).
///
/// Keeps the matrix (O(members), see [`TrafficMatrix`]) and a block table
/// over its non-zero pairs in row-major order: one entry per run of
/// `BLOCK` pairs, so a draw finds its pair exactly where a search over
/// every pair's running sum would, from `pairs / BLOCK` entries.
pub struct FlowGenerator {
    sizes: FlowSizeDist,
    apps: AppMix,
    diurnal: Option<DiurnalProfile>,
    udp_rate: Rate,
    matrix: TrafficMatrix,
    /// Per block: the row-major cell index (`i·n + j`) of its first pair,
    /// and the running sum of the pair rates through its last pair,
    /// accumulated pair by pair from the first.
    blocks: Vec<(usize, f64)>,
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
        let matrix = params.matrix;
        let n = matrix.len();
        let mut blocks = Vec::new();
        let (mut pairs, mut acc) = (0, 0.0);
        matrix.scan_pairs(0, |i, j, r| {
            acc += r;
            if pairs % BLOCK == 0 {
                blocks.push((i * n + j, acc));
            } else if let Some(last) = blocks.last_mut() {
                last.1 = acc;
            }
            pairs += 1;
            false
        });
        let mean_bits = params.sizes.mean_bytes() * 8.0;
        let lambda_peak = if mean_bits > 0.0 {
            matrix.total() / mean_bits
        } else {
            0.0
        };
        let rng = StdRng::seed_from_u64(params.seed);
        FlowGenerator {
            sizes: params.sizes,
            apps: params.apps,
            diurnal: params.diurnal,
            udp_rate: params.udp_rate,
            matrix,
            blocks,
            lambda_peak,
            rng,
            clock_secs: 0.0,
            next_port: 10_000,
            emitted: 0,
        }
    }

    /// The pair whose running sum first reaches `point` (`!(sum <
    /// point)`), or the last pair when none does: the pair a binary
    /// search over every pair's running sum picks. The search runs over
    /// the block ends, then the one block that holds the pair is summed
    /// again from the previous block's end, addition by addition.
    fn pair_at(&self, point: f64) -> (usize, usize) {
        let b = self
            .blocks
            .partition_point(|&(_, end)| end < point)
            .min(self.blocks.len() - 1);
        let (start, _) = self.blocks[b];
        let mut acc = if b == 0 { 0.0 } else { self.blocks[b - 1].1 };
        let (mut last, mut left) = ((0, 0), BLOCK);
        self.matrix.scan_pairs(start, |i, j, r| {
            acc += r;
            last = (i, j);
            left -= 1;
            acc.partial_cmp(&point) != Some(Ordering::Less) || left == 0
        });
        last
    }

    /// Peak aggregate arrival rate in flows/sec.
    pub fn lambda_peak(&self) -> f64 {
        self.lambda_peak
    }

    /// Draws the next arrival strictly after the previous one; `None` when
    /// the matrix is empty (no traffic).
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.lambda_peak <= 0.0 || self.blocks.is_empty() {
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
            let total = self.blocks.last().expect("non-empty").1;
            let point = self.rng.random::<f64>() * total;
            let (src, dst) = self.pair_at(point);
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
                src,
                dst,
                app,
                size_bytes,
                demand,
                src_port: self.next_port,
            });
        }
    }

    /// Serializes the generator's mutable cursor for a checkpoint. The
    /// derived tables (`blocks`, `lambda_peak`) are rebuilt from the
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

    /// The dense forms the shapes and the block table replaced: the
    /// matrix constructors as they filled `n²` cells, and the sampler
    /// that kept `(src, dst, running sum)` per non-zero pair.
    mod dense {
        fn set(rates: &mut [f64], n: usize, i: usize, j: usize, bps: f64) {
            if i != j {
                rates[i * n + j] = bps.max(0.0);
            }
        }

        pub fn uniform(n: usize, total_bps: f64) -> Vec<f64> {
            let mut m = vec![0.0; n * n];
            if n < 2 {
                return m;
            }
            let per = total_bps / (n * (n - 1)) as f64;
            for i in 0..n {
                for j in 0..n {
                    set(&mut m, n, i, j, per);
                }
            }
            m
        }

        pub fn gravity(weights: &[f64], total_bps: f64) -> Vec<f64> {
            let n = weights.len();
            let mut m = vec![0.0; n * n];
            let mut mass = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        mass += weights[i] * weights[j];
                    }
                }
            }
            if mass <= 0.0 {
                return m;
            }
            for i in 0..n {
                for j in 0..n {
                    set(&mut m, n, i, j, total_bps * weights[i] * weights[j] / mass);
                }
            }
            m
        }

        pub fn hotspot(n: usize, total_bps: f64, hot: usize, frac: f64) -> Vec<f64> {
            let frac = frac.clamp(0.0, 1.0);
            let mut m = uniform(n, total_bps * (1.0 - frac));
            if n < 2 || hot >= n {
                return m;
            }
            let per_src = total_bps * frac / (n - 1) as f64;
            for i in 0..n {
                let into_hot = m[i * n + hot] + per_src;
                set(&mut m, n, i, hot, into_hot);
            }
            m
        }

        pub fn pairs(rates: &[f64], n: usize) -> Vec<(usize, usize, f64)> {
            rates
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r > 0.0)
                .map(|(k, &r)| (k / n, k % n, r))
                .collect()
        }

        pub struct Sampler(pub Vec<(usize, usize, f64)>);

        impl Sampler {
            pub fn new(rates: &[f64], n: usize) -> Self {
                let mut acc = 0.0;
                Sampler(
                    pairs(rates, n)
                        .into_iter()
                        .map(|(i, j, r)| {
                            acc += r;
                            (i, j, acc)
                        })
                        .collect(),
                )
            }

            pub fn pick(&self, point: f64) -> (usize, usize) {
                let idx = self
                    .0
                    .partition_point(|&(_, _, c)| c < point)
                    .min(self.0.len() - 1);
                (self.0[idx].0, self.0[idx].1)
            }
        }
    }

    /// Every shape the constructors build over `n` members, beside its
    /// dense reference: uniform, hotspot with the hot member first, last
    /// and out of range, and gravity whose zero weights leave the first
    /// row and column and every fifth from the fourth empty.
    fn shapes(n: usize) -> Vec<(&'static str, TrafficMatrix, Vec<f64>)> {
        let last = n.saturating_sub(1);
        let weights: Vec<f64> = (0..n)
            .map(|i| {
                if i == 0 || i % 5 == 3 {
                    0.0
                } else {
                    1.0 / (i as f64).powf(0.9)
                }
            })
            .collect();
        vec![
            (
                "uniform",
                TrafficMatrix::uniform(n, 1e9),
                dense::uniform(n, 1e9),
            ),
            (
                "hotspot first",
                TrafficMatrix::hotspot(n, 1e9, 0, 0.3),
                dense::hotspot(n, 1e9, 0, 0.3),
            ),
            (
                "hotspot last",
                TrafficMatrix::hotspot(n, 1e9, last, 0.7),
                dense::hotspot(n, 1e9, last, 0.7),
            ),
            (
                "hotspot out of range",
                TrafficMatrix::hotspot(n, 1e9, n, 0.5),
                dense::hotspot(n, 1e9, n, 0.5),
            ),
            (
                "gravity with zero weights",
                TrafficMatrix::gravity(&weights, 3e9),
                dense::gravity(&weights, 3e9),
            ),
        ]
    }

    /// Bit-compares every cell, `total` and `pairs` with the dense
    /// reference, and the generator's pair choice with the dense
    /// sampler's at `draws` random points and at the forced ones: 0,
    /// every block end, `total`, past `total`, NaN, and about 20,000
    /// pairs' running sums, each with its neighbouring floats.
    fn assert_matches_dense(n: usize, draws: usize) {
        for (name, m, rates) in shapes(n) {
            let what = format!("{name}, n = {n}");
            assert_eq!(m.len(), n, "{what}");
            for i in 0..n {
                for j in 0..n {
                    let (got, want) = (m.rate(i, j), rates[i * n + j]);
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: rate({i}, {j})");
                }
            }
            let dense_total: f64 = rates.iter().sum();
            assert_eq!(m.total().to_bits(), dense_total.to_bits(), "{what}: total");
            let bits = |p: &[(usize, usize, f64)]| -> Vec<_> {
                p.iter().map(|&(i, j, r)| (i, j, r.to_bits())).collect()
            };
            let got: Vec<_> = m.pairs().collect();
            assert!(
                bits(&got) == bits(&dense::pairs(&rates, n)),
                "{what}: pairs"
            );

            let reference = dense::Sampler::new(&rates, n);
            let mut g = FlowGenerator::new(WorkloadParams::flat(m, 1));
            let Some(&(_, _, total)) = reference.0.last() else {
                assert!(g.blocks.is_empty(), "{what}: no pairs, no blocks");
                assert_eq!(g.next_arrival(), None, "{what}");
                continue;
            };
            let table_total = g.blocks.last().expect("pairs make blocks").1;
            assert_eq!(
                table_total.to_bits(),
                total.to_bits(),
                "{what}: table total"
            );
            let forced = [0.0, total, total.next_up(), f64::NAN];
            let ends = g.blocks.iter().map(|&(_, end)| end);
            // A pair's own running sum picks it and one ulp more the
            // next, so an off-by-one-ulp sum shows at these points.
            let stride = (reference.0.len() / 20_000).max(1);
            let sums = reference
                .0
                .iter()
                .step_by(stride)
                .flat_map(|&(_, _, c)| [c.next_down(), c, c.next_up()]);
            for point in forced.into_iter().chain(ends).chain(sums) {
                assert_eq!(
                    g.pair_at(point),
                    reference.pick(point),
                    "{what}: point {point}"
                );
            }
            let mut rng = StdRng::seed_from_u64(n as u64);
            for draw in 0..draws {
                let point = rng.random::<f64>() * total;
                assert_eq!(
                    g.pair_at(point),
                    reference.pick(point),
                    "{what}: draw {draw} at {point}"
                );
            }
        }
    }

    /// n = 257 puts 256 pairs in a row, so every other block ends on a
    /// row end; n = 1,024 spans 8,184 blocks.
    #[test]
    fn block_table_matches_the_dense_sampler() {
        for n in [0, 1, 2, 3, 257, 1024] {
            assert_matches_dense(n, 100_000);
        }
    }

    /// About four million pairs per shape. Too slow for the debug suite;
    /// CI runs it in release with `--ignored`.
    #[test]
    #[ignore = "n = 2,048; run in release with --ignored"]
    fn block_table_matches_the_dense_sampler_at_2048_members() {
        assert_matches_dense(2048, 100_000);
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
