//! Max-min fair rate allocation by progressive filling.
//!
//! Every active flow crosses a set of directed links; every link has a
//! capacity. Progressive filling raises all unfrozen flows' rates at the
//! same speed; a flow freezes when (a) a link it crosses saturates, or
//! (b) it reaches its own demand. The result is the classic max-min fair
//! allocation with demand caps (Bertsekas & Gallager, *Data Networks*,
//! §6.5.2) — the equilibrium a network of long-lived TCP flows with equal
//! RTTs approximates, which is exactly the fluid abstraction fs-sdn-style
//! simulators use.
//!
//! ## Implementation
//!
//! [`max_min_allocate_csr`] is the reference progressive filler restricted
//! to what is still alive. It keeps a compacted list of *live* links (still
//! crossed by an unfrozen variable) and a list of unfrozen variables with
//! a finite demand (the only ones a demand can bound or freeze). Each
//! freezing round then makes two passes over the live links:
//!
//! 1. The increment δ is the least of the live links' `avail / crossing`
//!    and the listed variables' `demand − fill`. Every live link pays δ
//!    once per crossing member, and the links left at `avail <= EPS` are
//!    collected. Demand-limited variables freeze, then every unfrozen
//!    variable on a collected link.
//! 2. Dead links drop out of the live list while the pass computes the
//!    next round's link bound.
//!
//! All unfrozen variables share one increment history, so their rate is a
//! single scalar `fill`, bit-for-bit the reference's per-flow
//! accumulation; every link performs the reference's exact
//! repeated-subtraction sequence; and the freeze predicates are the
//! reference's. The solver is therefore **bit-identical** to the naive
//! filler (kept under `#[cfg(test)]` as an oracle and enforced by property
//! tests), which is what keeps the lab's deterministic reports
//! byte-stable.
//!
//! **Cost model.** Setup is O(adjacency edges); each round is
//! O(live links + listed variables) plus the repeated subtractions
//! (Σ crossing over live links), which any bit-exact design pays. So a
//! solve costs O(rounds × live links) on top of that. Rounds are few on
//! every scenario the repo ships: no solve in the benchmark workloads,
//! the `examples/sweeps` campaigns or the million-flow bench runs more
//! than 10 (the engine records each solve's count in the `alloc.rounds`
//! histogram). The adversarial shape is n variables, each behind its own
//! access link of distinct capacity, all sharing one trunk: it takes n
//! rounds. There a min-heap of link saturation levels (O(log links) per
//! freeze) overtakes the scan from about 64 rounds; at 1,000 rounds the
//! scan is ≈4× slower per solve.
//!
//! Two engine modes:
//!
//! * [`AllocMode::Full`] — recompute every flow on every change.
//! * [`AllocMode::Incremental`] — used by the engine to restrict
//!   recomputation to the connected component of flows sharing links with
//!   the flows that changed (ablation experiment A1 quantifies the gain).
//!
//! ## Macro-flows (weighted variables)
//!
//! [`max_min_allocate_csr_weighted`] lets one allocation variable stand
//! for `w` identical member flows (same link set, same demand): crossing
//! degrees count the members, so every per-round float operation —
//! including the per-link repeated subtraction — is the exact sequence
//! the expanded, per-member problem performs. The solved rate of a weighted
//! variable is therefore the **per-member** rate, bit-identical to what
//! each member would have received solved individually. This is the
//! fluid-model scaling trick: a million flows sharing one path class cost
//! one variable, not a million.

/// Allocation strategy selector (consumed by the engine; the allocator
/// itself always solves the subproblem it is given).
///
/// ```
/// use horse_dataplane::AllocMode;
///
/// // Round-trips through serde using snake_case names (this is what the
/// // lab's TOML sweep axes parse).
/// let m: AllocMode = serde_json::from_str("\"incremental\"").unwrap();
/// assert_eq!(m, AllocMode::Incremental);
/// assert_ne!(AllocMode::Full, AllocMode::Incremental);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AllocMode {
    /// Recompute all flows on every change.
    Full,
    /// Recompute only the affected connected component.
    Incremental,
}

/// Tolerance: residuals below a millibit per second count as zero.
const EPS: f64 = 1e-3;

/// Reusable working memory for [`max_min_allocate_csr`]. All buffers grow
/// to the high-water problem size and are then reused: steady-state calls
/// perform **zero heap allocations**.
#[derive(Default)]
pub struct MaxMinScratch {
    /// Per link: available capacity.
    avail: Vec<f64>,
    /// Per link: member count of the unfrozen variables crossing it.
    crossing: Vec<u32>,
    /// Per variable: frozen at its final rate.
    frozen: Vec<bool>,
    /// Links still crossed by an unfrozen variable, ascending.
    live: Vec<u32>,
    /// Unfrozen variables with a finite demand: the only ones a demand
    /// can bound or freeze.
    capped: Vec<u32>,
    /// Links that saturated in the current round.
    saturated: Vec<u32>,
    /// Reverse adjacency, CSR: link → variables crossing it.
    rev_off: Vec<u32>,
    rev_flows: Vec<u32>,
}

impl MaxMinScratch {
    /// Fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves max-min fairness with demands over a CSR flow→link adjacency,
/// writing one rate per flow into `rates` (length `demands.len()`; every
/// entry is overwritten). Returns the number of freezing rounds run.
///
/// * `demands[f]` — upper bound on flow `f`'s rate (bps); use
///   `f64::INFINITY` for greedy flows.
/// * `offsets`/`links` — CSR adjacency: flow `f` crosses link indices
///   `links[offsets[f]..offsets[f + 1]]` (indices into `capacity`). Flows
///   with an empty range are granted exactly their demand (they cross no
///   shared resource); infinite-demand flows with no links get 0.
/// * `capacity[l]` — link capacity in bps.
///
/// Rates never exceed demands, never exceed any crossed link's capacity,
/// and the sum over each link never exceeds its capacity (up to
/// floating-point tolerance). The result is bit-identical to the
/// progressive-filling reference oracle.
pub fn max_min_allocate_csr(
    demands: &[f64],
    offsets: &[u32],
    links: &[u32],
    capacity: &[f64],
    rates: &mut [f64],
    s: &mut MaxMinScratch,
) -> u32 {
    max_min_allocate_csr_weighted(demands, &[], offsets, links, capacity, rates, s)
}

/// Weighted (macro-flow) variant of [`max_min_allocate_csr`]: variable
/// `f` stands for `weights[f]` identical member flows, and `rates[f]` is
/// the **per-member** rate. An empty `weights` slice means all-ones (the
/// unweighted problem, taking exactly the unweighted code path). Returns
/// the number of freezing rounds run.
///
/// The contract is exact, not approximate: expanding every variable into
/// `weights[f]` copies and solving the expanded problem with
/// [`max_min_allocate_csr`] yields `rates[f]` for each copy, **bit for
/// bit**. This holds because equal-demand, equal-link-set members freeze
/// in the same round at the same fill level, and crossing degrees sum
/// member counts, so every link performs the same repeated-subtraction
/// sequence either way.
pub fn max_min_allocate_csr_weighted(
    demands: &[f64],
    weights: &[u32],
    offsets: &[u32],
    links: &[u32],
    capacity: &[f64],
    rates: &mut [f64],
    s: &mut MaxMinScratch,
) -> u32 {
    let nf = demands.len();
    let nl = capacity.len();
    assert_eq!(
        offsets.len(),
        nf + 1,
        "CSR offsets must have nf + 1 entries"
    );
    assert_eq!(rates.len(), nf, "one rate slot per variable");
    debug_assert!(
        weights.is_empty() || weights.len() == nf,
        "weights must be empty or one per variable"
    );
    rates.fill(0.0);
    if nf == 0 {
        return 0;
    }
    let flow_links = |f: usize| &links[offsets[f] as usize..offsets[f + 1] as usize];
    // Member count of variable `f` (1 everywhere in the unweighted case).
    let wt = |f: usize| -> u32 {
        if weights.is_empty() {
            1
        } else {
            weights[f]
        }
    };

    // Reset scratch to the problem size.
    s.avail.clear();
    s.avail.extend_from_slice(capacity);
    s.crossing.clear();
    s.crossing.resize(nl, 0);
    s.frozen.clear();
    s.frozen.resize(nf, false);
    s.capped.clear();
    s.rev_off.clear();
    s.rev_off.resize(nl + 1, 0);

    // Zero-link flows are granted their demand and take no further part;
    // everyone else counts toward its links' crossing degrees (members)
    // and reverse-adjacency sizes (edges).
    let mut unfrozen = 0usize;
    for f in 0..nf {
        let fl = flow_links(f);
        if fl.is_empty() {
            rates[f] = if demands[f].is_finite() {
                demands[f].max(0.0)
            } else {
                0.0
            };
            s.frozen[f] = true;
        } else {
            for &l in fl {
                s.crossing[l as usize] += wt(f);
                s.rev_off[l as usize] += 1;
            }
            // `<` also leaves out NaN: like +∞, the reference's `min` and
            // freeze predicate never act on it.
            if demands[f] < f64::INFINITY {
                s.capped.push(f as u32);
            }
            unfrozen += 1;
        }
    }
    if unfrozen == 0 {
        return 0;
    }

    // Reverse CSR by counting sort: the prefix sum turns each link's edge
    // count into the end of its range, and filling every range backwards
    // walks each end down to the range's start.
    let mut end = 0u32;
    for l in 0..nl {
        end += s.rev_off[l];
        s.rev_off[l] = end;
    }
    s.rev_off[nl] = end;
    s.rev_flows.clear();
    s.rev_flows.resize(end as usize, 0);
    for f in (0..nf).rev() {
        for &l in flow_links(f) {
            let slot = &mut s.rev_off[l as usize];
            *slot -= 1;
            s.rev_flows[*slot as usize] = f as u32;
        }
    }

    // The link-side bound on the next increment, over live links only.
    s.live.clear();
    let mut link_bound = f64::INFINITY;
    for l in 0..nl {
        if s.crossing[l] > 0 {
            s.live.push(l as u32);
            link_bound = link_bound.min(s.avail[l] / s.crossing[l] as f64);
        }
    }

    // `fill` is the shared rate of every unfrozen flow: all of them apply
    // the identical `+= delta` sequence, so one scalar carries them all,
    // bit-for-bit equal to the reference's per-flow accumulation.
    let mut fill = 0.0f64;
    let mut rounds = 0u32;

    while unfrozen > 0 {
        // Variables frozen on a saturated link last round leave the demand
        // list here: their demand must no longer bound the increment.
        let mut delta = link_bound;
        let frozen = &s.frozen;
        s.capped.retain(|&f| {
            let keep = !frozen[f as usize];
            if keep {
                delta = delta.min(demands[f as usize] - fill);
            }
            keep
        });
        if !delta.is_finite() {
            // All remaining flows are greedy over links nothing constrains
            // (cannot happen with positive capacities; guard anyway).
            break;
        }
        let delta = delta.max(0.0);
        fill += delta;
        rounds += 1;

        // Pass 1: every live link pays `delta` once per crossing member,
        // in the reference's repeated-subtraction order.
        s.saturated.clear();
        for &l in &s.live {
            let l = l as usize;
            let mut a = s.avail[l];
            for _ in 0..s.crossing[l] {
                a -= delta;
            }
            s.avail[l] = a;
            if a <= EPS {
                s.saturated.push(l as u32);
            }
        }

        // Freeze demand-limited flows (the reference's predicate:
        // `rate >= demand - EPS`), then every unfrozen flow crossing a
        // link that saturated.
        let unfrozen_before = unfrozen;
        let MaxMinScratch {
            crossing,
            frozen,
            capped,
            saturated,
            rev_off,
            rev_flows,
            ..
        } = &mut *s;
        let mut freeze = |f: usize, frozen: &mut [bool]| {
            frozen[f] = true;
            rates[f] = fill;
            unfrozen -= 1;
            for &l in flow_links(f) {
                crossing[l as usize] -= wt(f);
            }
        };
        capped.retain(|&f| {
            let limited = fill >= demands[f as usize] - EPS;
            if limited {
                freeze(f as usize, frozen);
            }
            !limited
        });
        for &l in saturated.iter() {
            let l = l as usize;
            for &f in &rev_flows[rev_off[l] as usize..rev_off[l + 1] as usize] {
                if !frozen[f as usize] {
                    freeze(f as usize, frozen);
                }
            }
        }
        if unfrozen == unfrozen_before {
            // Numerical stall: freeze everything at current rates.
            break;
        }

        // Pass 2: drop dead links while computing the next link bound.
        link_bound = f64::INFINITY;
        let (avail, crossing) = (&s.avail, &s.crossing);
        s.live.retain(|&l| {
            let c = crossing[l as usize];
            if c > 0 {
                link_bound = link_bound.min(avail[l as usize] / c as f64);
            }
            c > 0
        });
    }

    // Break paths leave surviving flows at the shared fill level (exactly
    // what the reference's accumulated per-flow rates hold there).
    if unfrozen > 0 {
        for (rate, frozen) in rates.iter_mut().zip(s.frozen.iter()) {
            if !frozen {
                *rate = fill;
            }
        }
    }
    rounds
}

/// Convenience wrapper over [`max_min_allocate_csr`] for callers holding a
/// per-flow `Vec` adjacency: builds the CSR view and fresh scratch per
/// call. The engine's hot path uses the CSR entry point with reused
/// scratch instead.
pub fn max_min_allocate(demands: &[f64], flow_links: &[Vec<usize>], capacity: &[f64]) -> Vec<f64> {
    assert_eq!(demands.len(), flow_links.len());
    let mut offsets = Vec::with_capacity(demands.len() + 1);
    let mut links = Vec::new();
    offsets.push(0u32);
    for fl in flow_links {
        links.extend(fl.iter().map(|&l| l as u32));
        offsets.push(links.len() as u32);
    }
    let mut rates = vec![0.0; demands.len()];
    let mut scratch = MaxMinScratch::new();
    max_min_allocate_csr(
        demands,
        &offsets,
        &links,
        capacity,
        &mut rates,
        &mut scratch,
    );
    rates
}

/// The naive progressive filler the solver must match bit-for-bit:
/// every freezing round rescans all links and flows. Kept as the test
/// oracle; see the module docs for the equivalence argument.
#[cfg(test)]
pub(crate) fn max_min_allocate_reference(
    demands: &[f64],
    flow_links: &[Vec<usize>],
    capacity: &[f64],
) -> Vec<f64> {
    assert_eq!(demands.len(), flow_links.len());
    let nf = demands.len();
    let nl = capacity.len();
    let mut rate = vec![0.0f64; nf];
    if nf == 0 {
        return rate;
    }

    let mut avail: Vec<f64> = capacity.to_vec();
    let mut crossing: Vec<u32> = vec![0; nl];
    let mut frozen = vec![false; nf];

    for (f, links) in flow_links.iter().enumerate() {
        if links.is_empty() {
            rate[f] = if demands[f].is_finite() {
                demands[f].max(0.0)
            } else {
                0.0
            };
            frozen[f] = true;
        } else {
            for &l in links {
                crossing[l] += 1;
            }
        }
    }

    let mut unfrozen: usize = frozen.iter().filter(|&&z| !z).count();

    while unfrozen > 0 {
        let mut delta = f64::INFINITY;
        for l in 0..nl {
            if crossing[l] > 0 {
                delta = delta.min(avail[l] / crossing[l] as f64);
            }
        }
        for f in 0..nf {
            if !frozen[f] {
                delta = delta.min(demands[f] - rate[f]);
            }
        }
        if !delta.is_finite() {
            break;
        }
        let delta = delta.max(0.0);

        for f in 0..nf {
            if !frozen[f] {
                rate[f] += delta;
                for &l in &flow_links[f] {
                    avail[l] -= delta;
                }
            }
        }

        let mut froze_any = false;
        for f in 0..nf {
            if !frozen[f] && rate[f] >= demands[f] - EPS {
                frozen[f] = true;
                unfrozen -= 1;
                froze_any = true;
                for &l in &flow_links[f] {
                    crossing[l] -= 1;
                }
            }
        }
        for l in 0..nl {
            if crossing[l] > 0 && avail[l] <= EPS {
                for f in 0..nf {
                    if !frozen[f] && flow_links[f].contains(&l) {
                        frozen[f] = true;
                        unfrozen -= 1;
                        froze_any = true;
                        for &l2 in &flow_links[f] {
                            crossing[l2] -= 1;
                        }
                    }
                }
            }
        }
        if !froze_any {
            break;
        }
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: f64 = 1e9;
    const INF: f64 = f64::INFINITY;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn single_flow_gets_link_capacity() {
        let r = max_min_allocate(&[INF], &[vec![0]], &[G]);
        assert_close(r[0], G);
    }

    #[test]
    fn demand_limited_flow_stops_at_demand() {
        let r = max_min_allocate(&[0.2 * G], &[vec![0]], &[G]);
        assert_close(r[0], 0.2 * G);
    }

    #[test]
    fn equal_split_on_shared_bottleneck() {
        let r = max_min_allocate(&[INF, INF, INF], &[vec![0], vec![0], vec![0]], &[G]);
        for x in &r {
            assert_close(*x, G / 3.0);
        }
    }

    #[test]
    fn cbr_leftover_goes_to_greedy() {
        // One CBR flow at 200 Mbps + one greedy flow on a 1G link:
        // greedy gets 800 Mbps.
        let r = max_min_allocate(&[0.2 * G, INF], &[vec![0], vec![0]], &[G]);
        assert_close(r[0], 0.2 * G);
        assert_close(r[1], 0.8 * G);
    }

    #[test]
    fn classic_two_bottleneck_maxmin() {
        // Textbook example: links A (cap 1) and B (cap 2, in units of G).
        // f0 crosses A and B, f1 crosses A, f2 crosses B.
        // Max-min: f0 = f1 = 0.5 (A saturates), f2 = 1.5 (B's leftovers).
        let r = max_min_allocate(
            &[INF, INF, INF],
            &[vec![0, 1], vec![0], vec![1]],
            &[G, 2.0 * G],
        );
        assert_close(r[0], 0.5 * G);
        assert_close(r[1], 0.5 * G);
        assert_close(r[2], 1.5 * G);
    }

    #[test]
    fn long_flow_across_many_links() {
        // f0 crosses 3 links shared each with one local greedy flow:
        // everyone converges to cap/2 on the tightest sharing.
        let r = max_min_allocate(
            &[INF, INF, INF, INF],
            &[vec![0, 1, 2], vec![0], vec![1], vec![2]],
            &[G, G, G],
        );
        assert_close(r[0], 0.5 * G);
        for rate in r.iter().take(4).skip(1) {
            assert_close(*rate, 0.5 * G);
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(max_min_allocate(&[], &[], &[]).is_empty());
        assert!(max_min_allocate(&[], &[], &[G]).is_empty());
    }

    #[test]
    fn flow_with_no_links_gets_demand() {
        let r = max_min_allocate(&[0.5 * G, INF], &[vec![], vec![]], &[]);
        assert_close(r[0], 0.5 * G);
        assert_close(r[1], 0.0);
    }

    #[test]
    fn zero_capacity_link_gives_zero() {
        let r = max_min_allocate(&[INF, INF], &[vec![0], vec![0]], &[0.0]);
        assert_close(r[0], 0.0);
        assert_close(r[1], 0.0);
    }

    #[test]
    fn zero_demand_flow_stays_zero_but_releases_capacity() {
        let r = max_min_allocate(&[0.0, INF], &[vec![0], vec![0]], &[G]);
        assert_close(r[0], 0.0);
        assert_close(r[1], G);
    }

    #[test]
    fn scratch_reuse_across_different_problem_sizes() {
        let mut scratch = MaxMinScratch::new();
        let mut rates = [0.0; 8];
        // Large problem first, then a smaller one: buffers must resize
        // down logically without carrying stale state over.
        let offs: Vec<u32> = (0..=8u32).collect();
        let links: Vec<u32> = (0..8u32).map(|f| f % 4).collect();
        let demands = [INF; 8];
        max_min_allocate_csr(&demands, &offs, &links, &[G; 4], &mut rates, &mut scratch);
        for &r in &rates {
            assert_close(r, G / 2.0);
        }
        max_min_allocate_csr(&[INF], &[0, 1], &[0], &[G], &mut rates[..1], &mut scratch);
        assert_close(rates[0], G);
    }

    #[test]
    fn no_link_oversubscribed_and_demands_respected() {
        // Deterministic pseudo-random instance, invariants checked.
        let nl = 12;
        let nf = 40;
        let mut caps = vec![0.0; nl];
        let mut x = 0x12345678u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for c in caps.iter_mut() {
            *c = (1 + rnd() % 10) as f64 * 1e8;
        }
        let mut demands = vec![0.0; nf];
        let mut fl: Vec<Vec<usize>> = Vec::new();
        for d in demands.iter_mut() {
            *d = if rnd() % 3 == 0 {
                INF
            } else {
                (1 + rnd() % 20) as f64 * 5e7
            };
            let deg = 1 + (rnd() % 4) as usize;
            let mut links: Vec<usize> = (0..deg).map(|_| (rnd() % nl as u64) as usize).collect();
            links.sort_unstable();
            links.dedup();
            fl.push(links);
        }
        let r = max_min_allocate(&demands, &fl, &caps);
        // demands respected
        for f in 0..nf {
            assert!(r[f] <= demands[f] + 1.0, "flow {f} exceeds demand");
            assert!(r[f] >= 0.0);
        }
        // links not oversubscribed
        let mut used = vec![0.0; nl];
        for f in 0..nf {
            for &l in &fl[f] {
                used[l] += r[f];
            }
        }
        for l in 0..nl {
            assert!(
                used[l] <= caps[l] * (1.0 + 1e-9) + 1.0,
                "link {l} oversubscribed: {} > {}",
                used[l],
                caps[l]
            );
        }
        // work conservation: every greedy flow crosses at least one
        // saturated link or is itself rate > 0 bounded by bottleneck
        for f in 0..nf {
            if demands[f].is_infinite() && !fl[f].is_empty() {
                let bottlenecked = fl[f]
                    .iter()
                    .any(|&l| used[l] >= caps[l] * (1.0 - 1e-6) - 1.0);
                assert!(
                    bottlenecked,
                    "greedy flow {f} is not bottlenecked anywhere (rate {})",
                    r[f]
                );
            }
        }
    }

    #[test]
    fn incremental_matches_full_on_component() {
        // The incremental invariant: solving only the affected component
        // (with full link capacities, since untouched flows are *outside*
        // the component by construction) equals the full solution.
        let demands = [INF, INF, 3e8, INF];
        let fl = vec![vec![0], vec![0, 1], vec![1], vec![2]];
        let caps = [G, G, G];
        let full = max_min_allocate(&demands, &fl, &caps);

        // Component of flow 0 = {0, 1, 2}; flow 3 is independent.
        let comp = [0usize, 1, 2];
        let sub_demands: Vec<f64> = comp.iter().map(|&f| demands[f]).collect();
        let sub_links: Vec<Vec<usize>> = comp.iter().map(|&f| fl[f].clone()).collect();
        let sub = max_min_allocate(&sub_demands, &sub_links, &caps);
        for (i, &f) in comp.iter().enumerate() {
            assert_close(sub[i], full[f]);
        }
    }

    /// One allocation problem: demands, weights, routes, capacities.
    pub(super) type Problem = (Vec<f64>, Vec<u32>, Vec<Vec<usize>>, Vec<f64>);

    /// xorshift64 stream for the randomised tests (`x` must be non-zero).
    pub(super) fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Random problems for the bitwise tests, in one of two shapes:
    ///
    /// * a dense grid of up to `max_nf` variables over up to `max_nl`
    ///   links, with zero capacities, zero and infinite demands, linkless
    ///   variables, and routes that may list a link twice (the reverse
    ///   adjacency then holds the variable twice);
    /// * one time in four, a staircase of 64–95 variables, each behind
    ///   its own access link of distinct capacity and all sharing a trunk
    ///   of zero, total-access or twice-total-access capacity. Unless the
    ///   trunk is zero, most solves run ≥ 64 rounds (one per saturation
    ///   level). A third of the demands equal some access link's
    ///   saturation level, so a demand freeze and a saturation land in
    ///   the same round.
    ///
    /// Weights are drawn from `1..=max_weight`, so weighted variables sit
    /// on the links that saturate.
    pub(super) fn random_problem(
        rnd: &mut impl FnMut() -> u64,
        max_nf: u64,
        max_nl: u64,
        max_weight: u64,
    ) -> Problem {
        let weight = |rnd: &mut dyn FnMut() -> u64| 1 + (rnd() % max_weight) as u32;
        if rnd().is_multiple_of(4) {
            let n = 64 + (rnd() % 32) as usize;
            // Distinct access capacities in shuffled order, then the trunk.
            let mut caps: Vec<f64> = (0..n)
                .map(|k| (k + 1) as f64 * 1e7 + (rnd() % 1000) as f64 * 1e3)
                .collect();
            for k in (1..n).rev() {
                caps.swap(k, (rnd() % (k as u64 + 1)) as usize);
            }
            let weights: Vec<u32> = (0..n).map(|_| weight(rnd)).collect();
            let total: f64 = caps.iter().sum();
            caps.push((rnd() % 3) as f64 * total);
            let demands = (0..n)
                .map(|_| match rnd() % 3 {
                    0 => INF,
                    1 => {
                        let j = (rnd() % n as u64) as usize;
                        caps[j] / weights[j] as f64
                    }
                    _ => (rnd() % 1000) as f64 * 1e6,
                })
                .collect();
            let fl = (0..n)
                .map(|k| match rnd() % 8 {
                    0 => vec![k, k, n],
                    1 => vec![k],
                    _ => vec![k, n],
                })
                .collect();
            return (demands, weights, fl, caps);
        }
        let nf = 1 + (rnd() % max_nf) as usize;
        let nl = 1 + (rnd() % max_nl) as usize;
        let caps = (0..nl)
            .map(|_| match rnd() % 8 {
                0 => 0.0,
                1 => (1 + rnd() % 9) as f64 * 1e9,
                _ => (1 + rnd() % 100) as f64 * 1e7,
            })
            .collect();
        let demands = (0..nf)
            .map(|_| match rnd() % 5 {
                0 | 1 => INF,
                2 => 0.0,
                _ => (rnd() % 300) as f64 * 7e5,
            })
            .collect();
        let weights = (0..nf).map(|_| weight(rnd)).collect();
        let fl = (0..nf)
            .map(|_| {
                let deg = (rnd() % 5) as usize; // may be 0
                let mut v: Vec<usize> = (0..deg).map(|_| (rnd() % nl as u64) as usize).collect();
                v.sort_unstable();
                if !rnd().is_multiple_of(4) {
                    v.dedup();
                }
                v
            })
            .collect();
        (demands, weights, fl, caps)
    }

    /// Asserts the solver reproduces the reference oracle bit for bit.
    pub(super) fn assert_matches_reference(demands: &[f64], fl: &[Vec<usize>], caps: &[f64]) {
        let want = max_min_allocate_reference(demands, fl, caps);
        let got = max_min_allocate(demands, fl, caps);
        assert_eq!(want.len(), got.len());
        for f in 0..want.len() {
            assert_eq!(
                want[f].to_bits(),
                got[f].to_bits(),
                "flow {f}: reference {} vs solver {}",
                want[f],
                got[f]
            );
        }
    }

    /// Asserts a weighted solve equals its expanded unweighted solve bit
    /// for bit.
    pub(super) fn assert_weighted_matches_expanded(
        demands: &[f64],
        weights: &[u32],
        fl: &[Vec<usize>],
        caps: &[f64],
    ) {
        let want = solve_expanded(demands, weights, fl, caps);
        let (got, _) = solve_weighted(demands, weights, fl, caps);
        for f in 0..want.len() {
            assert_eq!(
                want[f].to_bits(),
                got[f].to_bits(),
                "variable {f}: expanded {} vs weighted {}",
                want[f],
                got[f]
            );
        }
    }

    /// Heavy randomised sweep of both bitwise properties (40k problems of
    /// the shapes the proptests sample). Ignored by default; CI runs it
    /// in release with `cargo test --release -p horse-dataplane --lib --
    /// --ignored`.
    #[test]
    #[ignore]
    fn stress_solver_matches_reference_bitwise() {
        let mut rnd = xorshift(0x9e3779b97f4a7c15);
        for _ in 0..40_000u32 {
            let (demands, weights, fl, caps) = random_problem(&mut rnd, 48, 14, 6);
            assert_matches_reference(&demands, &fl, &caps);
            assert_weighted_matches_expanded(&demands, &weights, &fl, &caps);
        }
    }

    #[test]
    fn solver_matches_reference_bitwise_on_fixed_cases() {
        type Case = (Vec<f64>, Vec<Vec<usize>>, Vec<f64>);
        let cases: Vec<Case> = vec![
            (vec![INF], vec![vec![0]], vec![G]),
            (
                vec![INF, INF, INF],
                vec![vec![0], vec![0], vec![0]],
                vec![G],
            ),
            (
                vec![INF, INF, INF],
                vec![vec![0, 1], vec![0], vec![1]],
                vec![G, 2.0 * G],
            ),
            (vec![0.2 * G, INF], vec![vec![0], vec![0]], vec![G]),
            (vec![0.0, INF], vec![vec![0], vec![0]], vec![G]),
            (vec![INF, INF], vec![vec![0], vec![0]], vec![0.0]),
            (vec![0.5 * G, INF], vec![vec![], vec![]], vec![]),
            // Seven equal greedy flows over one link: the split is not a
            // dyadic rational, so the repeated-subtraction residual path
            // is exercised.
            (vec![INF; 7], (0..7).map(|_| vec![0]).collect(), vec![G]),
            // Link 0 freezes f0 at 0.2G, below its 0.5G demand. Catches a
            // solver that keeps saturation-frozen variables in its demand
            // list: f0's stale `demand − fill` would cap the next
            // increment at 0.3G, below link 1's 1.6G bound.
            (
                vec![0.5 * G, INF],
                vec![vec![0, 1], vec![1]],
                vec![0.2 * G, 2.0 * G],
            ),
            // f0 lists link 0 twice: it pays each increment twice there,
            // and the reverse adjacency holds it twice.
            (vec![INF, INF], vec![vec![0, 0], vec![0]], vec![G]),
        ];
        for (demands, fl, caps) in cases {
            assert_matches_reference(&demands, &fl, &caps);
        }
    }

    /// Solves a weighted problem through the macro-flow entry point,
    /// returning the rates and the number of rounds.
    pub(super) fn solve_weighted(
        demands: &[f64],
        weights: &[u32],
        fl: &[Vec<usize>],
        caps: &[f64],
    ) -> (Vec<f64>, u32) {
        let mut offsets = vec![0u32];
        let mut links = Vec::new();
        for l in fl {
            links.extend(l.iter().map(|&x| x as u32));
            offsets.push(links.len() as u32);
        }
        let mut rates = vec![0.0; demands.len()];
        let mut s = MaxMinScratch::new();
        let rounds = max_min_allocate_csr_weighted(
            demands, weights, &offsets, &links, caps, &mut rates, &mut s,
        );
        (rates, rounds)
    }

    /// Expands every weighted variable into `weights[f]` member copies,
    /// solves the expanded problem unweighted, asserts all members of a
    /// variable received the same bits, and returns the per-variable
    /// member rate — the oracle the weighted solver must match bit-wise.
    pub(super) fn solve_expanded(
        demands: &[f64],
        weights: &[u32],
        fl: &[Vec<usize>],
        caps: &[f64],
    ) -> Vec<f64> {
        let mut xd = Vec::new();
        let mut xfl = Vec::new();
        let mut owner = Vec::new();
        for f in 0..demands.len() {
            for _ in 0..weights[f] {
                xd.push(demands[f]);
                xfl.push(fl[f].clone());
                owner.push(f);
            }
        }
        let expanded = max_min_allocate(&xd, &xfl, caps);
        let mut out = vec![f64::NAN; demands.len()];
        for (m, &f) in owner.iter().enumerate() {
            if out[f].is_nan() {
                out[f] = expanded[m];
            } else {
                assert_eq!(
                    out[f].to_bits(),
                    expanded[m].to_bits(),
                    "members of variable {f} disagree"
                );
            }
        }
        out
    }

    #[test]
    fn weighted_matches_expanded_bitwise_on_fixed_cases() {
        let cases: Vec<Problem> = vec![
            // A million greedy members on one link: one variable, and the
            // per-member rate is cap / 1e6 exactly as solved individually.
            (vec![INF], vec![1_000_000], vec![vec![0]], vec![G]),
            // Two classes sharing a bottleneck, one demand-capped.
            (vec![INF, 2e6], vec![3, 4], vec![vec![0], vec![0]], vec![G]),
            // Textbook two-bottleneck shape with weights.
            (
                vec![INF, INF, INF],
                vec![2, 5, 1],
                vec![vec![0, 1], vec![0], vec![1]],
                vec![G, 2.0 * G],
            ),
            // Zero-link class (granted demand per member) + weighted
            // greedy sharing, with a zero-capacity link in the mix.
            (
                vec![5e6, INF, INF],
                vec![7, 2, 3],
                vec![vec![], vec![0], vec![0, 1]],
                vec![G, 0.0],
            ),
        ];
        for (demands, weights, fl, caps) in cases {
            assert_weighted_matches_expanded(&demands, &weights, &fl, &caps);
        }
    }

    #[test]
    fn all_ones_weights_match_the_unweighted_path_bitwise() {
        let demands = [INF, 3e8, INF, 0.0];
        let fl = vec![vec![0, 1], vec![0], vec![1], vec![0]];
        let caps = [G, 2.0 * G];
        let unweighted = max_min_allocate(&demands, &fl, &caps);
        let (weighted, _) = solve_weighted(&demands, &[1, 1, 1, 1], &fl, &caps);
        for f in 0..demands.len() {
            assert_eq!(unweighted[f].to_bits(), weighted[f].to_bits());
        }
    }

    #[test]
    fn rounds_count_distinct_freezing_levels() {
        let rounds = |demands: &[f64], fl: &[Vec<usize>], caps: &[f64]| {
            solve_weighted(demands, &vec![1; demands.len()], fl, caps).1
        };
        assert_eq!(rounds(&[], &[], &[G]), 0);
        assert_eq!(rounds(&[0.5 * G], &[vec![]], &[]), 0);
        // One shared bottleneck freezes everyone at once.
        assert_eq!(rounds(&[INF; 3], &[vec![0], vec![0], vec![0]], &[G]), 1);
        // Textbook shape: link 0 saturates, then link 1.
        assert_eq!(
            rounds(&[INF; 3], &[vec![0, 1], vec![0], vec![1]], &[G, 2.0 * G]),
            2
        );
        // A demand freeze is a round of its own.
        assert_eq!(rounds(&[0.2 * G, INF], &[vec![0], vec![0]], &[G]), 2);
        // n access links of distinct capacity behind one roomy trunk: one
        // round per access link.
        let n = 100;
        let caps: Vec<f64> = (0..n)
            .map(|k| (k + 1) as f64 * 1e7)
            .chain([G * n as f64])
            .collect();
        let fl: Vec<Vec<usize>> = (0..n).map(|k| vec![k, n]).collect();
        assert_eq!(rounds(&vec![INF; n], &fl, &caps), n as u32);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn allocation_invariants(
            nf in 1usize..20,
            nl in 1usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut rnd = tests::xorshift(seed | 1);
            let caps: Vec<f64> = (0..nl).map(|_| (1 + rnd() % 100) as f64 * 1e7).collect();
            let demands: Vec<f64> = (0..nf)
                .map(|_| if rnd().is_multiple_of(4) { f64::INFINITY } else { (rnd() % 200) as f64 * 1e6 })
                .collect();
            let fl: Vec<Vec<usize>> = (0..nf).map(|_| {
                let deg = (rnd() % 4) as usize; // may be 0
                let mut v: Vec<usize> = (0..deg).map(|_| (rnd() % nl as u64) as usize).collect();
                v.sort_unstable(); v.dedup(); v
            }).collect();
            let r = max_min_allocate(&demands, &fl, &caps);

            // 1. rates within [0, demand]
            for f in 0..nf {
                prop_assert!(r[f] >= 0.0);
                prop_assert!(r[f] <= demands[f] + 1.0);
            }
            // 2. no link oversubscribed
            let mut used = vec![0.0; nl];
            for f in 0..nf {
                for &l in &fl[f] { used[l] += r[f]; }
            }
            for l in 0..nl {
                prop_assert!(used[l] <= caps[l] + 1.0, "link {} over: {} > {}", l, used[l], caps[l]);
            }
            // 3. max-min property (no pareto-improvable flow): every
            //    unsatisfied flow crosses a saturated link
            for f in 0..nf {
                if !fl[f].is_empty() && r[f] + 1.0 < demands[f] {
                    let sat = fl[f].iter().any(|&l| used[l] >= caps[l] - 1.0);
                    prop_assert!(sat, "flow {} unsatisfied but unbottlenecked", f);
                }
            }
        }

        /// The solver must be **bit-identical** to the progressive-filling
        /// oracle on randomised problems: dense grids with degenerate
        /// shapes (zero capacities, zero demands, linkless flows, a link
        /// listed twice) and ≥ 64-level staircases where demand freezes
        /// share rounds with saturations.
        #[test]
        fn solver_matches_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rnd = tests::xorshift(seed | 1);
            let (demands, _, fl, caps) = tests::random_problem(&mut rnd, 40, 12, 1);
            tests::assert_matches_reference(&demands, &fl, &caps);
        }

        /// Macro-flow equivalence: a weighted variable must receive the
        /// exact bits each of its expanded members would get from the
        /// unweighted solver, on the same problem shapes, with weights up
        /// to 6 on the links that saturate.
        #[test]
        fn weighted_matches_expanded_bitwise(seed in 0u64..u64::MAX) {
            let mut rnd = tests::xorshift(seed | 1);
            let (demands, weights, fl, caps) = tests::random_problem(&mut rnd, 12, 8, 6);
            tests::assert_weighted_matches_expanded(&demands, &weights, &fl, &caps);
        }
    }
}
