//! Epoch-driven statistics collection.
//!
//! The core simulator schedules a stats-export event every epoch; the
//! collector snapshots link utilizations, aggregate throughput and flow
//! counts, maintains per-link series, and raises threshold alarms —
//! "these measurements enable the creation of policies based on the
//! current status of the network" (paper, §2).

use crate::series::TimeSeries;
use horse_types::{LinkId, SimTime, Snap};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One epoch's aggregate snapshot.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize, Snap)]
pub struct EpochReport {
    /// Epoch end time.
    pub time: SimTime,
    /// Sum of link rates (bps) over all directed links — fabric load.
    pub aggregate_rate_bps: f64,
    /// Highest single-link utilization observed this epoch.
    pub max_utilization: f64,
    /// Mean utilization over links carrying traffic.
    pub mean_busy_utilization: f64,
    /// Active flows at snapshot time.
    pub active_flows: usize,
    /// Flows completed since simulation start.
    pub completed_flows: usize,
}

/// A raised congestion alarm.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Snap)]
pub struct ThresholdAlarm {
    /// The link whose utilization crossed the threshold.
    pub link: LinkId,
    /// When.
    pub time: SimTime,
    /// Observed utilization.
    pub utilization: f64,
}

/// Collects link and aggregate statistics across epochs.
#[derive(Clone, Debug)]
pub struct StatsCollector {
    /// Utilization series per monitored link.
    link_series: HashMap<LinkId, TimeSeries>,
    /// Aggregate fabric rate (bps) over time.
    pub aggregate: TimeSeries,
    /// Active flow count over time.
    pub active_flows: TimeSeries,
    /// Epoch reports in order.
    pub epochs: Vec<EpochReport>,
    /// Alarm threshold (utilization in `[0, 1]`); `None` disables alarms.
    pub alarm_threshold: Option<f64>,
    /// Alarms raised.
    pub alarms: Vec<ThresholdAlarm>,
    /// Links currently above threshold. Alarms are edge-triggered: a link
    /// fires once when it crosses the threshold upward and re-arms only
    /// after an epoch back below it, so a sustained hot link produces one
    /// alarm per excursion instead of one per epoch.
    latched: HashSet<LinkId>,
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsCollector {
    /// A collector with alarms disabled.
    pub fn new() -> Self {
        StatsCollector {
            link_series: HashMap::new(),
            aggregate: TimeSeries::new(),
            active_flows: TimeSeries::new(),
            epochs: Vec::new(),
            alarm_threshold: None,
            alarms: Vec::new(),
            latched: HashSet::new(),
        }
    }

    /// Enables congestion alarms above `threshold` utilization.
    pub fn with_alarm_threshold(mut self, threshold: f64) -> Self {
        self.alarm_threshold = Some(threshold);
        self
    }

    /// Records one epoch snapshot. `link_view` yields
    /// `(link, utilization, rate_bps)` for every directed link.
    pub fn record_epoch<I>(
        &mut self,
        time: SimTime,
        link_view: I,
        active_flows: usize,
        completed_flows: usize,
    ) -> EpochReport
    where
        I: IntoIterator<Item = (LinkId, f64, f64)>,
    {
        let mut aggregate = 0.0;
        let mut max_util: f64 = 0.0;
        let mut busy_sum = 0.0;
        let mut busy_count = 0usize;
        for (link, util, rate) in link_view {
            aggregate += rate;
            max_util = max_util.max(util);
            if rate > 0.0 {
                busy_sum += util;
                busy_count += 1;
            }
            self.link_series.entry(link).or_default().push(time, util);
            if let Some(th) = self.alarm_threshold {
                if util >= th {
                    if self.latched.insert(link) {
                        self.alarms.push(ThresholdAlarm {
                            link,
                            time,
                            utilization: util,
                        });
                    }
                } else {
                    self.latched.remove(&link);
                }
            }
        }
        let report = EpochReport {
            time,
            aggregate_rate_bps: aggregate,
            max_utilization: max_util,
            mean_busy_utilization: if busy_count > 0 {
                busy_sum / busy_count as f64
            } else {
                0.0
            },
            active_flows,
            completed_flows,
        };
        self.aggregate.push(time, aggregate);
        self.active_flows.push(time, active_flows as f64);
        self.epochs.push(report);
        report
    }

    /// Serializes the collector's accumulated state for a checkpoint.
    /// `alarm_threshold` is configuration and travels with the scenario,
    /// not the snapshot.
    pub fn snapshot_state(&self, w: &mut horse_types::SnapWriter) {
        use horse_types::Snap;
        self.link_series.snap(w);
        self.aggregate.snap(w);
        self.active_flows.snap(w);
        self.epochs.snap(w);
        self.alarms.snap(w);
        self.latched.snap(w);
    }

    /// Restores state written by [`StatsCollector::snapshot_state`].
    pub fn restore_state(
        &mut self,
        r: &mut horse_types::SnapReader,
    ) -> Result<(), horse_types::SnapError> {
        use horse_types::Snap;
        self.link_series = Snap::unsnap(r)?;
        self.aggregate = Snap::unsnap(r)?;
        self.active_flows = Snap::unsnap(r)?;
        self.epochs = Snap::unsnap(r)?;
        self.alarms = Snap::unsnap(r)?;
        self.latched = Snap::unsnap(r)?;
        Ok(())
    }

    /// The utilization series of one link (if ever sampled).
    pub fn link_series(&self, link: LinkId) -> Option<&TimeSeries> {
        self.link_series.get(&link)
    }

    /// Links sampled so far, sorted.
    pub fn monitored_links(&self) -> Vec<LinkId> {
        let mut v: Vec<LinkId> = self.link_series.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(u1: f64, u2: f64) -> Vec<(LinkId, f64, f64)> {
        vec![(LinkId(0), u1, u1 * 1e9), (LinkId(1), u2, u2 * 1e9)]
    }

    #[test]
    fn epoch_aggregates() {
        let mut c = StatsCollector::new();
        let r = c.record_epoch(SimTime::from_secs(1), view(0.5, 0.0), 3, 7);
        assert!((r.aggregate_rate_bps - 0.5e9).abs() < 1.0);
        assert_eq!(r.max_utilization, 0.5);
        assert_eq!(r.mean_busy_utilization, 0.5, "idle links excluded");
        assert_eq!(r.active_flows, 3);
        assert_eq!(r.completed_flows, 7);
        assert_eq!(c.epochs.len(), 1);
    }

    #[test]
    fn series_accumulate_per_link() {
        let mut c = StatsCollector::new();
        c.record_epoch(SimTime::from_secs(1), view(0.1, 0.2), 0, 0);
        c.record_epoch(SimTime::from_secs(2), view(0.3, 0.4), 0, 0);
        let s0 = c.link_series(LinkId(0)).unwrap();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0.last(), Some(0.3));
        assert_eq!(c.monitored_links(), vec![LinkId(0), LinkId(1)]);
    }

    #[test]
    fn alarms_fire_at_threshold() {
        let mut c = StatsCollector::new().with_alarm_threshold(0.9);
        c.record_epoch(SimTime::from_secs(1), view(0.95, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(2), view(0.5, 0.5), 0, 0);
        assert_eq!(c.alarms.len(), 1);
        assert_eq!(c.alarms[0].link, LinkId(0));
        assert_eq!(c.alarms[0].time, SimTime::from_secs(1));
    }

    #[test]
    fn sustained_excursion_fires_once() {
        let mut c = StatsCollector::new().with_alarm_threshold(0.9);
        c.record_epoch(SimTime::from_secs(1), view(0.95, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(2), view(0.97, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(3), view(0.99, 0.5), 0, 0);
        assert_eq!(c.alarms.len(), 1, "latched while continuously hot");
        assert_eq!(c.alarms[0].time, SimTime::from_secs(1));
    }

    #[test]
    fn alarm_rearms_after_dropping_below_threshold() {
        let mut c = StatsCollector::new().with_alarm_threshold(0.9);
        c.record_epoch(SimTime::from_secs(1), view(0.95, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(2), view(0.95, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(3), view(0.5, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(4), view(0.95, 0.5), 0, 0);
        assert_eq!(c.alarms.len(), 2, "one alarm per excursion");
        assert_eq!(c.alarms[0].time, SimTime::from_secs(1));
        assert_eq!(c.alarms[1].time, SimTime::from_secs(4));
        assert!(c.alarms.iter().all(|a| a.link == LinkId(0)));
    }

    #[test]
    fn links_latch_independently() {
        let mut c = StatsCollector::new().with_alarm_threshold(0.9);
        c.record_epoch(SimTime::from_secs(1), view(0.95, 0.95), 0, 0);
        c.record_epoch(SimTime::from_secs(2), view(0.95, 0.5), 0, 0);
        c.record_epoch(SimTime::from_secs(3), view(0.95, 0.95), 0, 0);
        assert_eq!(c.alarms.len(), 3, "link 1 re-fires; link 0 stays latched");
        let link1: Vec<_> = c.alarms.iter().filter(|a| a.link == LinkId(1)).collect();
        assert_eq!(link1.len(), 2);
    }

    #[test]
    fn no_threshold_no_alarms() {
        let mut c = StatsCollector::new();
        c.record_epoch(SimTime::from_secs(1), view(1.0, 1.0), 0, 0);
        assert!(c.alarms.is_empty());
    }
}
