//! Group table.
//!
//! Three group types cover the paper's policy needs:
//!
//! * **Select** — load balancing: one bucket is chosen per flow by a
//!   deterministic weighted hash of the flow key, so a flow never splits
//!   across paths (packet reordering is invisible at flow granularity, but
//!   determinism matters for reproducibility).
//! * **All** — replication (flood-style policies).
//! * **Fast-failover** — the first bucket whose watch port is up; used for
//!   resilient source routing.

use crate::actions::Action;
use crate::list::SmallList;
use horse_types::id::GroupId;
use horse_types::{FlowKey, PortNo, Snap};
use serde::{Deserialize, Serialize};

/// Group semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Snap)]
pub enum GroupType {
    /// Execute every bucket (replication).
    All,
    /// Execute one bucket chosen by weighted flow hash (load balancing).
    Select,
    /// Execute the first live bucket (failover).
    FastFailover,
}

/// One bucket of a group.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Snap)]
pub struct Bucket {
    /// Relative selection weight (Select groups; 0 = never chosen).
    pub weight: u32,
    /// Liveness port (FastFailover groups; `PortNo::NONE` = always live).
    pub watch_port: PortNo,
    /// Actions executed when the bucket runs.
    pub actions: SmallList<Action>,
}

impl Bucket {
    /// An equal-weight bucket forwarding out of one port.
    pub fn output(port: PortNo) -> Self {
        Bucket {
            weight: 1,
            watch_port: port,
            actions: Action::Output(port).into(),
        }
    }

    /// A weighted bucket forwarding out of one port.
    pub fn weighted_output(port: PortNo, weight: u32) -> Self {
        Bucket {
            weight,
            watch_port: port,
            actions: Action::Output(port).into(),
        }
    }
}

/// A group-table entry.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Snap)]
pub struct GroupEntry {
    /// Group id (unique per switch).
    pub id: GroupId,
    /// Semantics.
    pub group_type: GroupType,
    /// Buckets, in configuration order.
    pub buckets: Vec<Bucket>,
}

impl GroupEntry {
    /// A select group spreading flows over `ports` with equal weight (ECMP).
    pub fn ecmp(id: GroupId, ports: &[PortNo]) -> Self {
        GroupEntry {
            id,
            group_type: GroupType::Select,
            buckets: ports.iter().map(|&p| Bucket::output(p)).collect(),
        }
    }

    /// Resolves the buckets to execute for `key`, given a per-switch
    /// hash seed and a port-liveness oracle. Returns indices into
    /// `buckets`.
    ///
    /// * `All` → every bucket with a live (or unwatched) port.
    /// * `Select` → one bucket by weighted deterministic hash **among live
    ///   buckets** (OpenFlow allows liveness-aware selection; taking it
    ///   makes select groups degrade gracefully during failures). The
    ///   flow-key hash is mixed with `seed` — switches pass their own id
    ///   — so consecutive ECMP tiers make *independent* choices: with an
    ///   unseeded hash every switch picks the same bucket index and a
    ///   fat-tree's aggregation tier polarizes onto one core per slot
    ///   (the classic CEF-polarization failure).
    /// * `FastFailover` → the first live bucket.
    pub fn resolve<F>(&self, key: &FlowKey, seed: u64, port_up: F) -> Vec<usize>
    where
        F: Fn(PortNo) -> bool,
    {
        let live = |b: &Bucket| b.watch_port == PortNo::NONE || port_up(b.watch_port);
        match self.group_type {
            GroupType::All => self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| live(b))
                .map(|(i, _)| i)
                .collect(),
            GroupType::FastFailover => self
                .buckets
                .iter()
                .enumerate()
                .find(|(_, b)| live(b))
                .map(|(i, _)| vec![i])
                .unwrap_or_default(),
            GroupType::Select => {
                let candidates: Vec<(usize, &Bucket)> = self
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| live(b) && b.weight > 0)
                    .collect();
                let total: u64 = candidates.iter().map(|(_, b)| b.weight as u64).sum();
                if total == 0 {
                    return vec![];
                }
                // SplitMix64 finalizer over (key hash ⊕ seed): small
                // consecutive seeds (node ids) must decorrelate fully.
                let mut h = key.stable_hash() ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                h ^= h >> 31;
                let mut point = h % total;
                for (i, b) in candidates {
                    if point < b.weight as u64 {
                        return vec![i];
                    }
                    point -= b.weight as u64;
                }
                unreachable!("weighted point always lands in a bucket")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_types::MacAddr;
    use std::net::Ipv4Addr;

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(
            MacAddr::local_from_id(1),
            MacAddr::local_from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            80,
        )
    }

    fn ecmp3() -> GroupEntry {
        GroupEntry::ecmp(GroupId(1), &[PortNo(1), PortNo(2), PortNo(3)])
    }

    #[test]
    fn select_is_deterministic_per_flow() {
        let g = ecmp3();
        let up = |_: PortNo| true;
        for sport in [1000u16, 2000, 3000, 4000] {
            let a = g.resolve(&key(sport), 7, up);
            let b = g.resolve(&key(sport), 7, up);
            assert_eq!(a, b);
            assert_eq!(a.len(), 1);
        }
    }

    #[test]
    fn select_spreads_across_buckets() {
        let g = ecmp3();
        let up = |_: PortNo| true;
        let mut seen = std::collections::HashSet::new();
        for sport in 0..200u16 {
            seen.insert(g.resolve(&key(sport), 7, up)[0]);
        }
        assert_eq!(seen.len(), 3, "200 flows should hit all 3 buckets");
    }

    #[test]
    fn select_seeds_decorrelate_tiers() {
        // The anti-polarization property: the same flow population
        // resolved under two different switch seeds must not land on
        // the same bucket sequence (else a downstream ECMP tier only
        // ever sees one of its uplinks per upstream choice).
        let g = ecmp3();
        let up = |_: PortNo| true;
        let differs = (0..300u16)
            .filter(|&s| g.resolve(&key(s), 1, up) != g.resolve(&key(s), 2, up))
            .count();
        assert!(
            differs > 100,
            "seeds 1 and 2 agree on {}/300 flows — tiers polarized",
            300 - differs
        );
    }

    #[test]
    fn select_skips_dead_buckets() {
        let g = ecmp3();
        let up = |p: PortNo| p != PortNo(2);
        for sport in 0..100u16 {
            let r = g.resolve(&key(sport), 7, up);
            assert_eq!(r.len(), 1);
            assert_ne!(r[0], 1, "bucket 1 (port 2) is dead");
        }
    }

    #[test]
    fn select_respects_weights() {
        let g = GroupEntry {
            id: GroupId(1),
            group_type: GroupType::Select,
            buckets: vec![
                Bucket::weighted_output(PortNo(1), 9),
                Bucket::weighted_output(PortNo(2), 1),
            ],
        };
        let up = |_: PortNo| true;
        let mut counts = [0usize; 2];
        for sport in 0..1000u16 {
            counts[g.resolve(&key(sport), 7, up)[0]] += 1;
        }
        assert!(
            counts[0] > counts[1] * 4,
            "9:1 weights should strongly favour bucket 0, got {counts:?}"
        );
    }

    #[test]
    fn select_zero_weight_never_chosen() {
        let g = GroupEntry {
            id: GroupId(1),
            group_type: GroupType::Select,
            buckets: vec![
                Bucket::weighted_output(PortNo(1), 0),
                Bucket::weighted_output(PortNo(2), 1),
            ],
        };
        let up = |_: PortNo| true;
        for sport in 0..50u16 {
            assert_eq!(g.resolve(&key(sport), 7, up), vec![1]);
        }
    }

    #[test]
    fn all_returns_every_live_bucket() {
        let g = GroupEntry {
            id: GroupId(2),
            group_type: GroupType::All,
            buckets: vec![Bucket::output(PortNo(1)), Bucket::output(PortNo(2))],
        };
        assert_eq!(g.resolve(&key(1), 7, |_| true), vec![0, 1]);
        assert_eq!(g.resolve(&key(1), 7, |p| p == PortNo(2)), vec![1]);
    }

    #[test]
    fn fast_failover_takes_first_live() {
        let g = GroupEntry {
            id: GroupId(3),
            group_type: GroupType::FastFailover,
            buckets: vec![Bucket::output(PortNo(1)), Bucket::output(PortNo(2))],
        };
        assert_eq!(g.resolve(&key(1), 7, |_| true), vec![0]);
        assert_eq!(g.resolve(&key(1), 7, |p| p != PortNo(1)), vec![1]);
        assert!(g.resolve(&key(1), 7, |_| false).is_empty());
    }

    #[test]
    fn unwatched_bucket_is_always_live() {
        let g = GroupEntry {
            id: GroupId(4),
            group_type: GroupType::FastFailover,
            buckets: vec![Bucket {
                weight: 1,
                watch_port: PortNo::NONE,
                actions: Action::Drop.into(),
            }],
        };
        assert_eq!(g.resolve(&key(1), 7, |_| false), vec![0]);
    }
}
