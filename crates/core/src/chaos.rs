//! Seed-deterministic chaos schedules.
//!
//! A [`ChaosSpec`] declares *how much* trouble a run should see — link
//! flap processes, switch crashes, controller outage / latency-spike
//! windows, gray failures — and [`expand`] turns it into a concrete,
//! fully deterministic list of fault events against one topology. The
//! expansion consumes a private counter-based RNG seeded only by
//! [`ChaosSpec::seed`], so the same spec over the same topology always
//! produces the same schedule: chaos runs stay inside the simulator's
//! determinism contract (bit-identical results, byte-identical journals
//! and reports, at any lab-runner thread count).
//!
//! Fault targets are drawn from topology structure, never from traffic:
//!
//! * **flaps / gray failures** pick switch-to-switch cables (one
//!   representative per direction pair), so hosts are degraded but never
//!   surgically disconnected;
//! * **switch crashes** prefer transit switches (no attached hosts —
//!   cores and aggregations), falling back to any switch only when the
//!   topology has no pure transit layer;
//! * **controller faults** need no target — they degrade the control
//!   channel itself.
//!
//! All counts default to zero (= that fault kind is off); rate/duration
//! parameters left at zero take the documented per-kind default, so a
//! spec can say just `link_flaps = 4`.

use crate::event::SimEvent;
use horse_topology::Topology;
use horse_types::{LinkId, NodeId, SimDuration, SimTime, Snap};
use serde::{Deserialize, Serialize};

/// Declarative chaos intensity for one run. Every field is
/// serde-defaultable: an all-zero spec injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize, Snap)]
pub struct ChaosSpec {
    /// Seed of the chaos schedule (independent of the workload seed so
    /// the same fault pattern can be replayed against different traffic).
    #[serde(default)]
    pub seed: u64,
    /// No fault fires before this time (lets the fabric warm up);
    /// default 0.
    #[serde(default)]
    pub start_secs: f64,
    /// Number of distinct switch-to-switch cables running an up/down
    /// flap process.
    #[serde(default)]
    pub link_flaps: u32,
    /// Mean flap (down) events per second per flapping cable
    /// (exponential holding times); default 1.0 when flaps are on.
    #[serde(default)]
    pub flap_rate_per_sec: f64,
    /// Mean downtime of one flap in seconds; default 0.05.
    #[serde(default)]
    pub flap_downtime_secs: f64,
    /// Number of switches that crash once (tables wiped, ports down,
    /// incident cables cut) and later rejoin empty.
    #[serde(default)]
    pub switch_crashes: u32,
    /// Seconds a crashed switch stays down before rejoining; default 0.5.
    #[serde(default)]
    pub crash_downtime_secs: f64,
    /// Number of controller outage windows (switch→controller messages
    /// buffer and replay in order on recovery).
    #[serde(default)]
    pub ctrl_outages: u32,
    /// Length of one controller outage in seconds; default 0.5.
    #[serde(default)]
    pub ctrl_outage_secs: f64,
    /// Number of control-channel latency-spike windows.
    #[serde(default)]
    pub ctrl_latency_spikes: u32,
    /// Latency multiplier during a spike window; default 10.0.
    #[serde(default)]
    pub ctrl_latency_factor: f64,
    /// Length of one latency spike in seconds; default 0.5.
    #[serde(default)]
    pub ctrl_spike_secs: f64,
    /// Number of distinct cables suffering a gray failure window (up,
    /// but degraded).
    #[serde(default)]
    pub gray_links: u32,
    /// Fraction of nominal capacity a gray cable retains; default 0.5.
    #[serde(default)]
    pub gray_capacity_factor: f64,
    /// Fraction of traffic a gray cable drops on top of the capacity
    /// squeeze (fluid model: a further effective-capacity reduction);
    /// default 0.
    #[serde(default)]
    pub gray_loss_frac: f64,
    /// Length of one gray window in seconds; default 1.0.
    #[serde(default)]
    pub gray_duration_secs: f64,
}

impl ChaosSpec {
    /// True when at least one fault kind is requested.
    pub fn is_active(&self) -> bool {
        self.link_flaps > 0
            || self.switch_crashes > 0
            || self.ctrl_outages > 0
            || self.ctrl_latency_spikes > 0
            || self.gray_links > 0
    }
}

/// Errors raised while validating or expanding a [`ChaosSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A numeric field is outside its valid range.
    BadField {
        /// The offending spec field.
        field: &'static str,
        /// Why its value is rejected.
        why: String,
    },
    /// The topology offers fewer fault targets than the spec asks for.
    NotEnoughTargets {
        /// What was being picked.
        what: &'static str,
        /// How many the spec requested.
        wanted: u32,
        /// How many the topology offers.
        available: usize,
    },
    /// The schedule would exceed [`MAX_FAULT_EVENTS`].
    TooManyEvents,
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::BadField { field, why } => {
                write!(f, "chaos spec field `{field}`: {why}")
            }
            ChaosError::NotEnoughTargets {
                what,
                wanted,
                available,
            } => write!(
                f,
                "chaos spec asks for {wanted} {what}, but the topology offers only {available}"
            ),
            ChaosError::TooManyEvents => write!(
                f,
                "chaos spec schedules more than {MAX_FAULT_EVENTS} fault events"
            ),
        }
    }
}

impl std::error::Error for ChaosError {}

/// SplitMix64 — tiny, seed-deterministic, and good enough for fault
/// scheduling (no external RNG dependency; the sequence is part of the
/// reproducibility contract, so it must never change).
struct ChaosRng(u64);

impl ChaosRng {
    fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given mean (inverse-CDF; `1 - u` keeps the
    /// argument of `ln` strictly positive).
    fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Picks `k` distinct indices out of `0..n` (partial Fisher–Yates).
    fn pick(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + (self.next_u64() as usize) % (n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

fn positive(field: &'static str, value: f64, default: f64) -> Result<f64, ChaosError> {
    if value == 0.0 {
        return Ok(default);
    }
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(ChaosError::BadField {
            field,
            why: format!("must be a positive number (or 0 for the default {default}), got {value}"),
        })
    }
}

/// The cables eligible for flaps and gray failures: switch-to-switch
/// links, one representative per direction pair, ascending by link id.
pub fn eligible_cables(topo: &Topology) -> Vec<LinkId> {
    let is_switch = |n: NodeId| {
        topo.node(n)
            .map(|node| node.kind.is_switch())
            .unwrap_or(false)
    };
    let mut cables: Vec<LinkId> = topo
        .links()
        .filter(|(id, l)| {
            if !(is_switch(l.src) && is_switch(l.dst)) {
                return false;
            }
            // keep the lower-id direction as the cable representative
            match topo.reverse_of(*id) {
                Some(rid) => id.index() < rid.index(),
                None => true,
            }
        })
        .map(|(id, _)| id)
        .collect();
    cables.sort();
    cables
}

/// The switches eligible for crashes: transit switches (no attached
/// hosts) when the topology has any, otherwise every switch. Ascending
/// by node id.
pub fn eligible_switches(topo: &Topology) -> Vec<NodeId> {
    let mut transit: Vec<NodeId> = Vec::new();
    let mut all: Vec<NodeId> = Vec::new();
    for (id, node) in topo.nodes() {
        if !node.kind.is_switch() {
            continue;
        }
        all.push(id);
        let has_host = topo.out_links(id).any(|(_, l)| {
            topo.node(l.dst)
                .map(|n| !n.kind.is_switch())
                .unwrap_or(false)
        });
        if !has_host {
            transit.push(id);
        }
    }
    let mut out = if transit.is_empty() { all } else { transit };
    out.sort();
    out
}

/// The most fault events one schedule may hold. It is far above any
/// shipped scenario; a count or rate from a mistyped spec or a corrupt
/// snapshot hits it and fails instead of exhausting memory.
pub const MAX_FAULT_EVENTS: usize = 1 << 20;

/// Appends one fault and the event that undoes it.
fn push_pair(
    schedule: &mut Vec<(SimTime, SimEvent)>,
    fault: (SimTime, SimEvent),
    undo: (SimTime, SimEvent),
) -> Result<(), ChaosError> {
    if schedule.len() + 2 > MAX_FAULT_EVENTS {
        return Err(ChaosError::TooManyEvents);
    }
    schedule.push(fault);
    schedule.push(undo);
    Ok(())
}

/// Expands a chaos spec against a topology into a time-ordered fault
/// schedule. Events past the horizon are still emitted (the event loop
/// never pops them), so every down has its matching up and a truncated
/// horizon cannot shift earlier draws.
pub fn expand(
    spec: &ChaosSpec,
    topo: &Topology,
    horizon: SimTime,
) -> Result<Vec<(SimTime, SimEvent)>, ChaosError> {
    if !spec.is_active() {
        return Ok(Vec::new());
    }
    let h = horizon.as_secs_f64();
    if !(spec.start_secs.is_finite() && spec.start_secs >= 0.0) {
        return Err(ChaosError::BadField {
            field: "start_secs",
            why: format!("must be non-negative, got {}", spec.start_secs),
        });
    }
    if spec.start_secs >= h {
        return Err(ChaosError::BadField {
            field: "start_secs",
            why: format!(
                "must fall before the horizon ({h} s), got {}",
                spec.start_secs
            ),
        });
    }
    let start = spec.start_secs;
    let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs);
    // A window start uniform in [start, horizon): faults always land
    // inside the simulated interval.
    let window = |rng: &mut ChaosRng| start + rng.next_f64() * (h - start);

    let mut rng = ChaosRng::new(spec.seed);
    let mut schedule: Vec<(SimTime, SimEvent)> = Vec::new();

    // --- link flaps ---
    if spec.link_flaps > 0 {
        let rate = positive("flap_rate_per_sec", spec.flap_rate_per_sec, 1.0)?;
        let downtime = positive("flap_downtime_secs", spec.flap_downtime_secs, 0.05)?;
        let cables = eligible_cables(topo);
        if (spec.link_flaps as usize) > cables.len() {
            return Err(ChaosError::NotEnoughTargets {
                what: "flapping cables (switch-to-switch links)",
                wanted: spec.link_flaps,
                available: cables.len(),
            });
        }
        let picks = rng.pick(cables.len(), spec.link_flaps as usize);
        for i in picks {
            let cable = cables[i];
            let mut t = start;
            loop {
                t += rng.next_exp(1.0 / rate); // uptime until the next flap
                if t >= h {
                    break;
                }
                let down = (at(t), SimEvent::CableDown(cable));
                t += rng.next_exp(downtime);
                push_pair(&mut schedule, down, (at(t), SimEvent::CableUp(cable)))?;
            }
        }
    }

    // --- switch crashes ---
    if spec.switch_crashes > 0 {
        let downtime = positive("crash_downtime_secs", spec.crash_downtime_secs, 0.5)?;
        let switches = eligible_switches(topo);
        if (spec.switch_crashes as usize) > switches.len() {
            return Err(ChaosError::NotEnoughTargets {
                what: "crashable switches",
                wanted: spec.switch_crashes,
                available: switches.len(),
            });
        }
        let picks = rng.pick(switches.len(), spec.switch_crashes as usize);
        for i in picks {
            let sw = switches[i];
            let t = window(&mut rng);
            push_pair(
                &mut schedule,
                (at(t), SimEvent::SwitchDown(sw)),
                (at(t + downtime), SimEvent::SwitchUp(sw)),
            )?;
        }
    }

    // --- gray failures ---
    if spec.gray_links > 0 {
        let capacity_factor = positive("gray_capacity_factor", spec.gray_capacity_factor, 0.5)?;
        if capacity_factor > 1.0 {
            return Err(ChaosError::BadField {
                field: "gray_capacity_factor",
                why: format!("must be within (0, 1], got {capacity_factor}"),
            });
        }
        if !(0.0..1.0).contains(&spec.gray_loss_frac) {
            return Err(ChaosError::BadField {
                field: "gray_loss_frac",
                why: format!("must be within [0, 1), got {}", spec.gray_loss_frac),
            });
        }
        let duration = positive("gray_duration_secs", spec.gray_duration_secs, 1.0)?;
        let cables = eligible_cables(topo);
        if (spec.gray_links as usize) > cables.len() {
            return Err(ChaosError::NotEnoughTargets {
                what: "gray cables (switch-to-switch links)",
                wanted: spec.gray_links,
                available: cables.len(),
            });
        }
        let picks = rng.pick(cables.len(), spec.gray_links as usize);
        for i in picks {
            let cable = cables[i];
            let t = window(&mut rng);
            push_pair(
                &mut schedule,
                (
                    at(t),
                    SimEvent::GraySet {
                        link: cable,
                        capacity_factor,
                        loss_frac: spec.gray_loss_frac,
                    },
                ),
                (
                    at(t + duration),
                    SimEvent::GraySet {
                        link: cable,
                        capacity_factor: 1.0,
                        loss_frac: 0.0,
                    },
                ),
            )?;
        }
    }

    // --- controller outages ---
    if spec.ctrl_outages > 0 {
        let outage = positive("ctrl_outage_secs", spec.ctrl_outage_secs, 0.5)?;
        for _ in 0..spec.ctrl_outages {
            let t = window(&mut rng);
            push_pair(
                &mut schedule,
                (at(t), SimEvent::CtrlDown),
                (at(t + outage), SimEvent::CtrlUp),
            )?;
        }
    }

    // --- controller latency spikes ---
    if spec.ctrl_latency_spikes > 0 {
        let factor = positive("ctrl_latency_factor", spec.ctrl_latency_factor, 10.0)?;
        if factor < 1.0 {
            return Err(ChaosError::BadField {
                field: "ctrl_latency_factor",
                why: format!("must be at least 1.0, got {factor}"),
            });
        }
        let spike = positive("ctrl_spike_secs", spec.ctrl_spike_secs, 0.5)?;
        for _ in 0..spec.ctrl_latency_spikes {
            let t = window(&mut rng);
            push_pair(
                &mut schedule,
                (at(t), SimEvent::CtrlLatency { factor }),
                (at(t + spike), SimEvent::CtrlLatency { factor: 1.0 }),
            )?;
        }
    }

    // Stable by generation order at equal times, so intra-instant FIFO
    // scheduling is reproducible.
    schedule.sort_by_key(|(t, _)| *t);
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_topology::generators::{generate, GeneratorParams, TopologyKind};

    fn fat_tree() -> Topology {
        generate(&GeneratorParams {
            kind: TopologyKind::FatTree,
            fat_tree_k: 4,
            ..Default::default()
        })
        .expect("fat-tree generates")
        .topology
    }

    fn fingerprint(sched: &[(SimTime, SimEvent)]) -> Vec<(u64, &'static str, u64)> {
        sched
            .iter()
            .map(|(t, e)| {
                let (k, id) = crate::trace::event_fingerprint(e);
                (t.as_nanos(), k, id)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let topo = fat_tree();
        let spec = ChaosSpec {
            seed: 7,
            link_flaps: 4,
            switch_crashes: 2,
            gray_links: 2,
            ctrl_outages: 1,
            ctrl_latency_spikes: 1,
            ..Default::default()
        };
        let a = expand(&spec, &topo, SimTime::from_secs(5)).unwrap();
        let b = expand(&spec, &topo, SimTime::from_secs(5)).unwrap();
        assert!(!a.is_empty());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = expand(&ChaosSpec { seed: 8, ..spec }, &topo, SimTime::from_secs(5)).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c), "seed changes schedule");
    }

    #[test]
    fn schedule_is_time_ordered_and_balanced() {
        let topo = fat_tree();
        let spec = ChaosSpec {
            seed: 3,
            link_flaps: 6,
            flap_rate_per_sec: 4.0,
            switch_crashes: 1,
            ..Default::default()
        };
        let sched = expand(&spec, &topo, SimTime::from_secs(4)).unwrap();
        assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
        let downs = sched
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::CableDown(_)))
            .count();
        let ups = sched
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::CableUp(_)))
            .count();
        assert_eq!(downs, ups, "every flap down has its up");
        assert!(sched
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::SwitchDown(_))));
        assert!(sched
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::SwitchUp(_))));
    }

    #[test]
    fn flap_targets_are_switch_cables_only() {
        let topo = fat_tree();
        let cables = eligible_cables(&topo);
        assert!(!cables.is_empty());
        for c in &cables {
            let l = topo.link(*c).unwrap();
            assert!(topo.node(l.src).unwrap().kind.is_switch());
            assert!(topo.node(l.dst).unwrap().kind.is_switch());
        }
        // one representative per direction pair
        for c in &cables {
            if let Some(r) = topo.reverse_of(*c) {
                assert!(!cables.contains(&r), "both directions picked");
            }
        }
    }

    #[test]
    fn crash_targets_prefer_transit_switches() {
        let topo = fat_tree();
        let switches = eligible_switches(&topo);
        assert!(!switches.is_empty());
        for sw in &switches {
            let has_host = topo.out_links(*sw).any(|(_, l)| {
                topo.node(l.dst)
                    .map(|n| !n.kind.is_switch())
                    .unwrap_or(false)
            });
            assert!(!has_host, "fat-tree has transit (core/agg) switches");
        }
    }

    #[test]
    fn oversubscribed_spec_is_rejected() {
        let topo = fat_tree();
        let spec = ChaosSpec {
            link_flaps: 10_000,
            ..Default::default()
        };
        let err = expand(&spec, &topo, SimTime::from_secs(5)).unwrap_err();
        assert!(matches!(err, ChaosError::NotEnoughTargets { .. }));
        assert!(err.to_string().contains("10000"), "{err}");
    }

    #[test]
    fn bad_fields_are_rejected() {
        let topo = fat_tree();
        for (spec, field) in [
            (
                ChaosSpec {
                    gray_links: 1,
                    gray_loss_frac: 1.5,
                    ..Default::default()
                },
                "gray_loss_frac",
            ),
            (
                ChaosSpec {
                    gray_links: 1,
                    gray_capacity_factor: 2.0,
                    ..Default::default()
                },
                "gray_capacity_factor",
            ),
            (
                ChaosSpec {
                    ctrl_latency_spikes: 1,
                    ctrl_latency_factor: 0.5,
                    ..Default::default()
                },
                "ctrl_latency_factor",
            ),
            (
                ChaosSpec {
                    link_flaps: 1,
                    flap_rate_per_sec: -2.0,
                    ..Default::default()
                },
                "flap_rate_per_sec",
            ),
            (
                ChaosSpec {
                    link_flaps: 1,
                    start_secs: 99.0,
                    ..Default::default()
                },
                "start_secs",
            ),
        ] {
            let err = expand(&spec, &topo, SimTime::from_secs(5)).unwrap_err();
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn runaway_schedules_are_refused() {
        let topo = fat_tree();
        for spec in [
            ChaosSpec {
                ctrl_outages: u32::MAX,
                ..Default::default()
            },
            ChaosSpec {
                link_flaps: 1,
                flap_rate_per_sec: 1e300,
                flap_downtime_secs: 1e-300,
                ..Default::default()
            },
        ] {
            let err = expand(&spec, &topo, SimTime::from_secs(5)).unwrap_err();
            assert_eq!(err, ChaosError::TooManyEvents, "{spec:?}");
        }
    }

    #[test]
    fn inactive_spec_expands_to_nothing() {
        let topo = fat_tree();
        let sched = expand(&ChaosSpec::default(), &topo, SimTime::from_secs(5)).unwrap();
        assert!(sched.is_empty());
        assert!(!ChaosSpec::default().is_active());
    }
}
