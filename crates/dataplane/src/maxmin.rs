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
//! The naive progressive filler rescans every link and every flow on every
//! freezing round — O(rounds × (links + flows)) — which dominates the
//! simulator's innermost loop at scale. [`max_min_allocate_csr`] instead
//! keeps per-link `(avail, crossing)` state behind an indexed lazy min-heap
//! keyed by the fill level at which each link saturates, so each round pops
//! the next bottleneck in O(log links), and a demand-sorted cursor replaces
//! the per-round flow scan.
//!
//! Because all unfrozen flows share the identical increment history, their
//! rates equal a single scalar fill level bit-for-bit; and per-link
//! available capacity is materialised lazily by replaying the round-delta
//! log with the *same repeated-subtraction sequence* the naive filler
//! performs. The heap allocator is therefore **bit-identical** to the
//! reference implementation (kept under `#[cfg(test)]` as an oracle and
//! enforced by an exhaustive property test), which is what keeps the lab's
//! deterministic reports byte-stable across the rewrite.
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
//! including the repeated-subtraction replay — is the exact sequence the
//! expanded, per-member problem performs. The solved rate of a weighted
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

/// A lazily-validated heap entry: `key` is the fill level at which `link`
/// is predicted to saturate; the entry is live iff `stamp` still matches
/// the link's current stamp (stale entries are skipped on pop).
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    key: f64,
    link: u32,
    stamp: u32,
}

impl HeapEntry {
    /// Deterministic ordering: by key, ties broken by link index.
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        self.key < other.key || (self.key == other.key && self.link < other.link)
    }
}

/// Reusable working memory for [`max_min_allocate_csr`]. All buffers grow
/// to the high-water problem size and are then reused: steady-state calls
/// perform **zero heap allocations**.
#[derive(Default)]
pub struct MaxMinScratch {
    /// Per link: available capacity, exact as of `mark[l]` applied rounds.
    avail: Vec<f64>,
    /// Per link: number of unfrozen flows crossing it.
    crossing: Vec<u32>,
    /// Per link: how many rounds of the delta log are applied to `avail`.
    mark: Vec<u32>,
    /// Per link: stamp of the live heap entry (bumped to invalidate).
    stamp: Vec<u32>,
    /// Per flow: frozen at its final rate.
    frozen: Vec<bool>,
    /// Per round: the uniform increment applied that round.
    deltas: Vec<f64>,
    /// Lazy min-heap of predicted link saturation levels.
    heap: Vec<HeapEntry>,
    /// Flow indices sorted by (demand, index); `cursor` walks it.
    order: Vec<u32>,
    /// Reverse adjacency, CSR: link → flows crossing it.
    rev_off: Vec<u32>,
    rev_flows: Vec<u32>,
    /// Candidates popped but not frozen this round, re-pushed afterwards.
    pending: Vec<(u32, f64)>,
}

impl MaxMinScratch {
    /// Fresh scratch (buffers allocate lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn heap_push(&mut self, e: HeapEntry) {
        self.heap.push(e);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.heap[i].before(&self.heap[p]) {
                self.heap.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn heap_pop(&mut self) -> Option<HeapEntry> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let n = self.heap.len();
        let mut i = 0usize;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < n && self.heap[l].before(&self.heap[m]) {
                m = l;
            }
            if r < n && self.heap[r].before(&self.heap[m]) {
                m = r;
            }
            if m == i {
                break;
            }
            self.heap.swap(i, m);
            i = m;
        }
        top
    }

    /// Replays the delta log onto `avail[l]` up to `upto` rounds, with the
    /// exact repeated-subtraction sequence the reference filler performs
    /// (`crossing[l]` is constant over the window by construction: any
    /// crossing change forces a materialisation first).
    #[inline]
    fn materialize(&mut self, l: usize, upto: usize) {
        let c = self.crossing[l];
        let from = self.mark[l] as usize;
        if from >= upto {
            return;
        }
        let mut a = self.avail[l];
        for &d in &self.deltas[from..upto] {
            for _ in 0..c {
                a -= d;
            }
        }
        self.avail[l] = a;
        self.mark[l] = upto as u32;
    }
}

/// Width of the band around a candidate key within which entries must be
/// materialised for exact comparison. Lazy keys drift from the true
/// saturation level only by accumulated rounding (ulps per round), so a
/// generous relative band is sound: too wide merely costs extra exact
/// evaluations, never a wrong result.
#[inline]
fn guard(x: f64) -> f64 {
    1e-6 * x.abs() + EPS
}

/// Solves max-min fairness with demands over a CSR flow→link adjacency,
/// writing one rate per flow into `rates` (length `demands.len()`; every
/// entry is overwritten).
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
) {
    max_min_allocate_csr_weighted(demands, &[], offsets, links, capacity, rates, s);
}

/// Weighted (macro-flow) variant of [`max_min_allocate_csr`]: variable
/// `f` stands for `weights[f]` identical member flows, and `rates[f]` is
/// the **per-member** rate. An empty `weights` slice means all-ones (the
/// unweighted problem, taking exactly the unweighted code path).
///
/// The contract is exact, not approximate: expanding every variable into
/// `weights[f]` copies and solving the expanded problem with
/// [`max_min_allocate_csr`] yields `rates[f]` for each copy, **bit for
/// bit**. This holds because equal-demand, equal-link-set members freeze
/// in the same round at the same fill level, crossing degrees sum member
/// counts, and the lazy materialisation replays the same
/// repeated-subtraction sequence either way (intermediate heap entries
/// the expanded run publishes between member freezes are superseded by
/// stamp bumps before they are ever consulted).
pub fn max_min_allocate_csr_weighted(
    demands: &[f64],
    weights: &[u32],
    offsets: &[u32],
    links: &[u32],
    capacity: &[f64],
    rates: &mut [f64],
    s: &mut MaxMinScratch,
) {
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
        return;
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
    s.mark.clear();
    s.mark.resize(nl, 0);
    s.stamp.clear();
    s.stamp.resize(nl, 0);
    s.frozen.clear();
    s.frozen.resize(nf, false);
    s.deltas.clear();
    s.heap.clear();
    s.order.clear();
    s.pending.clear();

    // Zero-link flows are granted their demand and take no further part;
    // everyone else counts toward its links' crossing degrees.
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
            }
            s.order.push(f as u32);
            unfrozen += 1;
        }
    }
    if unfrozen == 0 {
        return;
    }

    // Reverse CSR (link → variables) by counting sort over per-variable
    // degrees (one entry per adjacency edge — `crossing` sums *member*
    // counts, which is not the edge count once weights enter).
    s.rev_off.clear();
    s.rev_off.resize(nl + 1, 0);
    for f in 0..nf {
        for &l in flow_links(f) {
            s.rev_off[l as usize + 1] += 1;
        }
    }
    for l in 0..nl {
        s.rev_off[l + 1] += s.rev_off[l];
    }
    s.rev_flows.clear();
    s.rev_flows.resize(s.rev_off[nl] as usize, 0);
    {
        // Temporarily reuse `mark` as the fill cursor (reset afterwards).
        for l in 0..nl {
            s.mark[l] = s.rev_off[l];
        }
        for f in 0..nf {
            for &l in flow_links(f) {
                let slot = s.mark[l as usize];
                s.rev_flows[slot as usize] = f as u32;
                s.mark[l as usize] = slot + 1;
            }
        }
        for m in s.mark.iter_mut() {
            *m = 0;
        }
    }

    // Demand cursor: flows in (demand, index) order; infinite demands sort
    // last and never demand-freeze.
    s.order.sort_unstable_by(|&a, &b| {
        match demands[a as usize].partial_cmp(&demands[b as usize]) {
            Some(o) => o.then(a.cmp(&b)),
            None => a.cmp(&b),
        }
    });
    let mut cursor = 0usize;

    // Seed the heap: predicted saturation level of every crossed link.
    for l in 0..nl {
        if s.crossing[l] > 0 {
            let key = s.avail[l] / s.crossing[l] as f64;
            s.heap_push(HeapEntry {
                key,
                link: l as u32,
                stamp: s.stamp[l],
            });
        }
    }

    // `fill` is the shared rate of every unfrozen flow: all of them apply
    // the identical `+= delta` sequence, so one scalar carries them all,
    // bit-for-bit equal to the reference's per-flow accumulation.
    let mut fill = 0.0f64;

    while unfrozen > 0 {
        let round = s.deltas.len();

        // Demand-side increment bound: fl(d − fill) is monotone in d, so
        // the cursor's head realises the minimum over all unfrozen flows.
        while cursor < s.order.len() && s.frozen[s.order[cursor] as usize] {
            cursor += 1;
        }
        let delta_flow = if cursor < s.order.len() {
            demands[s.order[cursor] as usize] - fill
        } else {
            f64::INFINITY
        };

        // Link-side increment bound: pop heap candidates, materialising
        // each for an exact `avail / crossing`, until the next key lies
        // provably above the best exact candidate.
        let mut best: Option<(f64, u32)> = None;
        s.pending.clear();
        while let Some(&top) = s.heap.first() {
            if top.stamp != s.stamp[top.link as usize] {
                s.heap_pop(); // superseded entry
                continue;
            }
            if let Some((bd, _)) = best {
                if top.key > fill + bd + guard(fill + bd) {
                    break;
                }
            }
            let e = s.heap_pop().expect("peeked entry exists");
            let l = e.link as usize;
            s.materialize(l, round);
            let d = s.avail[l] / s.crossing[l] as f64;
            match best {
                None => best = Some((d, e.link)),
                Some((bd, bl)) => {
                    if d < bd {
                        s.pending.push((bl, bd));
                        best = Some((d, e.link));
                    } else {
                        s.pending.push((e.link, d));
                    }
                }
            }
        }
        // Re-publish every materialised candidate at its exact level (the
        // winner included: if it saturates this round the sweep below will
        // collect it; if the increment came from a demand instead, the
        // entry must stay live).
        if let Some((bd, bl)) = best {
            let key = fill + bd;
            let stamp = s.stamp[bl as usize];
            s.heap_push(HeapEntry {
                key,
                link: bl,
                stamp,
            });
        }
        while let Some((l, d)) = s.pending.pop() {
            let key = fill + d;
            let stamp = s.stamp[l as usize];
            s.heap_push(HeapEntry {
                key,
                link: l,
                stamp,
            });
        }

        let mut delta = delta_flow;
        if let Some((bd, _)) = best {
            delta = delta.min(bd);
        }
        if !delta.is_finite() {
            // All remaining flows are greedy over links nothing constrains
            // (cannot happen with positive capacities; guard anyway).
            break;
        }
        let delta = delta.max(0.0);
        s.deltas.push(delta);
        fill += delta;
        let applied = s.deltas.len();

        let mut froze_any = false;

        // Freeze demand-limited flows (same predicate as the reference:
        // `rate >= demand - EPS`, and fl(d − EPS) is monotone in d so the
        // cursor enumerates exactly the reference's freeze set).
        while cursor < s.order.len() {
            let f = s.order[cursor] as usize;
            if s.frozen[f] {
                cursor += 1;
                continue;
            }
            if fill >= demands[f] - EPS {
                s.frozen[f] = true;
                rates[f] = fill;
                unfrozen -= 1;
                froze_any = true;
                cursor += 1;
                for &l in flow_links(f) {
                    let l = l as usize;
                    s.materialize(l, applied);
                    s.crossing[l] -= wt(f);
                    s.stamp[l] = s.stamp[l].wrapping_add(1);
                    if s.crossing[l] > 0 {
                        let key = fill + s.avail[l] / s.crossing[l] as f64;
                        s.heap_push(HeapEntry {
                            key,
                            link: l as u32,
                            stamp: s.stamp[l],
                        });
                    }
                }
            } else {
                break;
            }
        }

        // Freeze flows on saturated links: sweep every entry whose level
        // could mean `avail <= EPS`, verify exactly, and freeze the link's
        // remaining flows. Refreshed entries pushed mid-sweep (crossing
        // changes) are themselves swept; non-saturated candidates are
        // parked in `pending` so the sweep terminates, then re-published.
        s.pending.clear();
        let bound = fill + EPS + guard(fill);
        while let Some(&top) = s.heap.first() {
            if top.stamp != s.stamp[top.link as usize] {
                s.heap_pop();
                continue;
            }
            if top.key > bound {
                break;
            }
            let e = s.heap_pop().expect("peeked entry exists");
            let l = e.link as usize;
            s.materialize(l, applied);
            if s.crossing[l] > 0 && s.avail[l] <= EPS {
                // Saturated: freeze every unfrozen flow crossing it.
                let (start, end) = (s.rev_off[l] as usize, s.rev_off[l + 1] as usize);
                for fi in start..end {
                    let f = s.rev_flows[fi] as usize;
                    if s.frozen[f] {
                        continue;
                    }
                    s.frozen[f] = true;
                    rates[f] = fill;
                    unfrozen -= 1;
                    froze_any = true;
                    for &l2 in flow_links(f) {
                        let l2 = l2 as usize;
                        s.materialize(l2, applied);
                        s.crossing[l2] -= wt(f);
                        s.stamp[l2] = s.stamp[l2].wrapping_add(1);
                        if s.crossing[l2] > 0 {
                            let key = fill + s.avail[l2] / s.crossing[l2] as f64;
                            s.heap_push(HeapEntry {
                                key,
                                link: l2 as u32,
                                stamp: s.stamp[l2],
                            });
                        }
                    }
                }
            } else if s.crossing[l] > 0 {
                s.pending
                    .push((l as u32, s.avail[l] / s.crossing[l] as f64));
            }
        }
        while let Some((l, d)) = s.pending.pop() {
            let key = fill + d;
            let stamp = s.stamp[l as usize];
            s.heap_push(HeapEntry {
                key,
                link: l,
                stamp,
            });
        }

        if !froze_any {
            // Numerical stall: freeze everything at current rates.
            break;
        }
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

/// Computes the set of flows whose rates may change when `seeds` change:
/// the connected component of the "flows share a link" graph containing
/// the seeds. `flow_links` spans **all** active flows; `links_of_flows`
/// maps a link index to the flows crossing it.
pub fn affected_component(
    seeds: &[usize],
    flow_links: &[Vec<usize>],
    flows_on_link: &dyn Fn(usize) -> Vec<usize>,
) -> Vec<usize> {
    let mut visited = vec![false; flow_links.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &s in seeds {
        if s < visited.len() && !visited[s] {
            visited[s] = true;
            stack.push(s);
        }
    }
    let mut out = Vec::new();
    while let Some(f) = stack.pop() {
        out.push(f);
        for &l in &flow_links[f] {
            for f2 in flows_on_link(l) {
                if f2 < visited.len() && !visited[f2] {
                    visited[f2] = true;
                    stack.push(f2);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The naive progressive filler the heap allocator must match bit-for-bit:
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
    fn affected_component_finds_sharers() {
        // f0 and f1 share link 0; f2 rides link 1 alone; f3 shares link 2
        // with f1 (transitively affected through f1).
        let fl = vec![vec![0], vec![0, 2], vec![1], vec![2]];
        let flows_on_link = |l: usize| -> Vec<usize> {
            fl.iter()
                .enumerate()
                .filter(|(_, ls)| ls.contains(&l))
                .map(|(i, _)| i)
                .collect()
        };
        let comp = affected_component(&[0], &fl, &flows_on_link);
        assert_eq!(comp, vec![0, 1, 3]);
        let comp2 = affected_component(&[2], &fl, &flows_on_link);
        assert_eq!(comp2, vec![2]);
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

    /// Heavy randomized sweep of the bit-equivalence property (~40k grids,
    /// a superset of what the proptest samples). Ignored by default; run
    /// with `cargo test -p horse-dataplane -- --ignored stress`.
    #[test]
    #[ignore]
    fn stress_heap_matches_reference_bitwise() {
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..40_000u32 {
            let nf = 1 + (rnd() % 48) as usize;
            let nl = 1 + (rnd() % 14) as usize;
            let caps: Vec<f64> = (0..nl)
                .map(|_| match rnd() % 8 {
                    0 => 0.0,
                    1 => (1 + rnd() % 9) as f64 * 1e9,
                    _ => (1 + rnd() % 100) as f64 * 1e7,
                })
                .collect();
            let demands: Vec<f64> = (0..nf)
                .map(|_| match rnd() % 5 {
                    0 | 1 => INF,
                    2 => 0.0,
                    _ => (rnd() % 300) as f64 * 7e5,
                })
                .collect();
            let fl: Vec<Vec<usize>> = (0..nf)
                .map(|_| {
                    let deg = (rnd() % 5) as usize;
                    let mut v: Vec<usize> =
                        (0..deg).map(|_| (rnd() % nl as u64) as usize).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let want = max_min_allocate_reference(&demands, &fl, &caps);
            let got = max_min_allocate(&demands, &fl, &caps);
            for f in 0..nf {
                assert_eq!(
                    want[f].to_bits(),
                    got[f].to_bits(),
                    "case {case} flow {f}: reference {} vs heap {}",
                    want[f],
                    got[f]
                );
            }
        }
    }

    #[test]
    fn heap_matches_reference_bitwise_on_fixed_cases() {
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
        ];
        for (demands, fl, caps) in cases {
            let want = max_min_allocate_reference(&demands, &fl, &caps);
            let got = max_min_allocate(&demands, &fl, &caps);
            assert_eq!(want.len(), got.len());
            for f in 0..want.len() {
                assert_eq!(
                    want[f].to_bits(),
                    got[f].to_bits(),
                    "flow {f}: reference {} vs heap {}",
                    want[f],
                    got[f]
                );
            }
        }
    }

    /// Solves a weighted problem through the macro-flow entry point.
    pub(super) fn solve_weighted(
        demands: &[f64],
        weights: &[u32],
        fl: &[Vec<usize>],
        caps: &[f64],
    ) -> Vec<f64> {
        let mut offsets = vec![0u32];
        let mut links = Vec::new();
        for l in fl {
            links.extend(l.iter().map(|&x| x as u32));
            offsets.push(links.len() as u32);
        }
        let mut rates = vec![0.0; demands.len()];
        let mut s = MaxMinScratch::new();
        max_min_allocate_csr_weighted(demands, weights, &offsets, &links, caps, &mut rates, &mut s);
        rates
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
        type Case = (Vec<f64>, Vec<u32>, Vec<Vec<usize>>, Vec<f64>);
        let cases: Vec<Case> = vec![
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
            let want = solve_expanded(&demands, &weights, &fl, &caps);
            let got = solve_weighted(&demands, &weights, &fl, &caps);
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
    }

    #[test]
    fn all_ones_weights_match_the_unweighted_path_bitwise() {
        let demands = [INF, 3e8, INF, 0.0];
        let fl = vec![vec![0, 1], vec![0], vec![1], vec![0]];
        let caps = [G, 2.0 * G];
        let unweighted = max_min_allocate(&demands, &fl, &caps);
        let weighted = solve_weighted(&demands, &[1, 1, 1, 1], &fl, &caps);
        for f in 0..demands.len() {
            assert_eq!(unweighted[f].to_bits(), weighted[f].to_bits());
        }
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
            let mut x = seed | 1;
            let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
            let caps: Vec<f64> = (0..nl).map(|_| (1 + rnd() % 100) as f64 * 1e7).collect();
            let demands: Vec<f64> = (0..nf)
                .map(|_| if rnd() % 4 == 0 { f64::INFINITY } else { (rnd() % 200) as f64 * 1e6 })
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

        /// The tentpole equivalence property: the heap allocator must be
        /// **bit-identical** to the progressive-filling oracle on
        /// randomised demand/link grids — including degenerate shapes
        /// (zero capacities, zero demands, linkless flows, dense sharing).
        #[test]
        fn heap_matches_reference_bitwise(
            nf in 1usize..40,
            nl in 1usize..12,
            seed in 0u64..u64::MAX,
        ) {
            let mut x = seed | 1;
            let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
            let caps: Vec<f64> = (0..nl).map(|_| match rnd() % 8 {
                0 => 0.0,
                1 => (1 + rnd() % 9) as f64 * 1e9,
                _ => (1 + rnd() % 100) as f64 * 1e7,
            }).collect();
            let demands: Vec<f64> = (0..nf)
                .map(|_| match rnd() % 5 {
                    0 | 1 => f64::INFINITY,
                    2 => 0.0,
                    _ => (rnd() % 300) as f64 * 7e5,
                })
                .collect();
            let fl: Vec<Vec<usize>> = (0..nf).map(|_| {
                let deg = (rnd() % 5) as usize; // may be 0
                let mut v: Vec<usize> = (0..deg).map(|_| (rnd() % nl as u64) as usize).collect();
                v.sort_unstable(); v.dedup(); v
            }).collect();

            let want = max_min_allocate_reference(&demands, &fl, &caps);
            let got = max_min_allocate(&demands, &fl, &caps);
            prop_assert_eq!(want.len(), got.len());
            for f in 0..nf {
                prop_assert!(
                    want[f].to_bits() == got[f].to_bits(),
                    "flow {}: reference {} ({:x}) vs heap {} ({:x})",
                    f, want[f], want[f].to_bits(), got[f], got[f].to_bits()
                );
            }
        }

        /// Macro-flow equivalence: a weighted variable must receive the
        /// exact bits each of its expanded members would get from the
        /// unweighted solver — on random grids including zero capacities,
        /// zero demands, linkless classes and dense sharing.
        #[test]
        fn weighted_matches_expanded_bitwise(
            nf in 1usize..12,
            nl in 1usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut x = seed | 1;
            let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
            let caps: Vec<f64> = (0..nl).map(|_| match rnd() % 8 {
                0 => 0.0,
                1 => (1 + rnd() % 9) as f64 * 1e9,
                _ => (1 + rnd() % 100) as f64 * 1e7,
            }).collect();
            let demands: Vec<f64> = (0..nf)
                .map(|_| match rnd() % 5 {
                    0 | 1 => f64::INFINITY,
                    2 => 0.0,
                    _ => (rnd() % 300) as f64 * 7e5,
                })
                .collect();
            let weights: Vec<u32> = (0..nf).map(|_| 1 + (rnd() % 6) as u32).collect();
            let fl: Vec<Vec<usize>> = (0..nf).map(|_| {
                let deg = (rnd() % 5) as usize; // may be 0
                let mut v: Vec<usize> = (0..deg).map(|_| (rnd() % nl as u64) as usize).collect();
                v.sort_unstable(); v.dedup(); v
            }).collect();

            let want = tests::solve_expanded(&demands, &weights, &fl, &caps);
            let got = tests::solve_weighted(&demands, &weights, &fl, &caps);
            for f in 0..nf {
                prop_assert!(
                    want[f].to_bits() == got[f].to_bits(),
                    "variable {}: expanded {} ({:x}) vs weighted {} ({:x})",
                    f, want[f], want[f].to_bits(), got[f], got[f].to_bits()
                );
            }
        }
    }
}
