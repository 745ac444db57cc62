//! Episode metrics: delay, runtime, regret.

use lexcache_runner::mini_json::{write_object, ToJson};

/// Measurements of one simulated time slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotMetrics {
    /// 1-based slot index.
    pub slot: usize,
    /// Average per-request delay achieved this slot, in ms (objective
    /// (3) evaluated on the realized delays).
    pub avg_delay_ms: f64,
    /// Wall-clock time of the policy's `decide` call, in microseconds —
    /// the paper's "running time" series (Figs. 3(b)–7(b)).
    pub decide_us: f64,
    /// The clairvoyant LP optimum of the same slot (same realized
    /// delays, true demands), in ms — `None` unless regret tracking is
    /// enabled.
    pub optimal_avg_delay_ms: Option<f64>,
    /// Requests that had to fall back to the remote data centre.
    pub remote_count: usize,
    /// Requests whose assignment targeted a station that failed this
    /// slot and were re-routed to another alive station by the repair
    /// pass (0 when fault injection is disabled).
    pub rerouted_count: usize,
    /// Requests pushed to the remote data centre by the repair pass
    /// because no alive station had spare capacity (a subset of
    /// `remote_count`; 0 when fault injection is disabled).
    pub dropped_count: usize,
    /// Stations that received a preemption notice this slot and began
    /// draining (0 when preemption is disabled).
    pub drained_count: usize,
    /// Warm cache entries migrated off draining stations this slot by
    /// the drain pass (0 when preemption is disabled).
    pub migrated_entries: usize,
    /// Requests moved off stations one slot from their scheduled kill by
    /// the pre-emptive repair pass (0 when preemption is disabled).
    pub proactive_reroutes: usize,
    /// Measured median per-request sojourn time (departure − arrival,
    /// ms) of the jobs the open-loop queue core completed this slot —
    /// simulated time, not wall clock, so it survives zeroed-timing
    /// comparisons. 0 when the queue core is disabled or no job
    /// completed this slot.
    pub p50_sojourn_ms: f64,
    /// Measured 99th-percentile sojourn time of this slot's completed
    /// jobs, ms (0 when the queue core is disabled — see
    /// [`SlotMetrics::p50_sojourn_ms`]).
    pub p99_sojourn_ms: f64,
    /// Arrivals the queue core rejected at a full station waiting room
    /// this slot (0 when the queue core is disabled or waiting rooms
    /// are unbounded).
    pub queue_dropped_count: usize,
    /// Jobs the queue core completed this slot — the goodput series the
    /// resilience sweep plots against ρ (0 when the queue core is
    /// disabled).
    pub queue_completed_count: usize,
    /// Jobs reaped at their deadline this slot (departed early, not
    /// completions; 0 when resilience deadlines are disabled).
    pub deadline_missed: usize,
    /// Deadline misses that re-enqueued a deterministic retry this
    /// slot.
    pub retries_attempted: usize,
    /// Retried jobs (attempt > 0) that completed this slot.
    pub retries_succeeded: usize,
    /// Arrivals shed by a circuit breaker or the admission gate this
    /// slot (distinct from `queue_dropped_count`, which is waiting-room
    /// overflow).
    pub shed_count: usize,
    /// Stations whose circuit breaker was Open while this slot's
    /// arrivals were gated.
    pub breaker_open_slots: usize,
}

/// All 19 fields, in declaration order: the per-slot record of
/// `results/<bin>.json` and of journal payloads.
impl ToJson for SlotMetrics {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("slot", &self.slot),
                ("avg_delay_ms", &self.avg_delay_ms),
                ("decide_us", &self.decide_us),
                ("optimal_avg_delay_ms", &self.optimal_avg_delay_ms),
                ("remote_count", &self.remote_count),
                ("rerouted_count", &self.rerouted_count),
                ("dropped_count", &self.dropped_count),
                ("drained_count", &self.drained_count),
                ("migrated_entries", &self.migrated_entries),
                ("proactive_reroutes", &self.proactive_reroutes),
                ("p50_sojourn_ms", &self.p50_sojourn_ms),
                ("p99_sojourn_ms", &self.p99_sojourn_ms),
                ("queue_dropped_count", &self.queue_dropped_count),
                ("queue_completed_count", &self.queue_completed_count),
                ("deadline_missed", &self.deadline_missed),
                ("retries_attempted", &self.retries_attempted),
                ("retries_succeeded", &self.retries_succeeded),
                ("shed_count", &self.shed_count),
                ("breaker_open_slots", &self.breaker_open_slots),
            ],
        );
    }
}

/// Nearest-rank percentile over `values`: sort with `total_cmp`, take
/// element `ceil(q·n)` clamped into `[1, n]`; 0 for empty input and
/// `q` clamped to `[0, 1]`. The single implementation behind every
/// percentile statistic in a report.
fn nearest_rank(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    values[rank - 1]
}

/// The result of running one policy for a horizon of slots.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// Policy name.
    pub policy: String,
    /// Topology name.
    pub topology: String,
    /// Per-slot measurements.
    pub slots: Vec<SlotMetrics>,
}

impl ToJson for EpisodeReport {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("policy", &self.policy),
                ("topology", &self.topology),
                ("slots", &self.slots),
            ],
        );
    }
}

impl EpisodeReport {
    /// A copy with every wall-clock field (`decide_us`) zeroed.
    ///
    /// Everything else in a report is a deterministic function of the
    /// seed; `decide_us` is the one measured quantity. Golden-trace
    /// tests comparing serial vs parallel runs byte-for-byte strip it
    /// first so the comparison covers exactly the deterministic state.
    pub fn with_zeroed_timings(&self) -> EpisodeReport {
        let mut out = self.clone();
        for slot in &mut out.slots {
            slot.decide_us = 0.0;
        }
        out
    }

    /// Mean of `field` over all slots — the shared summation helper
    /// behind every per-slot mean; 0 for an empty report.
    fn mean_of(&self, field: impl Fn(&SlotMetrics) -> f64) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.slots.iter().map(field).sum::<f64>() / self.slots.len() as f64
    }

    /// Mean achieved average delay over all slots, ms.
    pub fn mean_avg_delay_ms(&self) -> f64 {
        self.mean_of(|s| s.avg_delay_ms)
    }

    /// Nearest-rank percentile of the per-slot achieved average delay,
    /// ms. `q` is clamped to `[0, 1]`; returns 0 for an empty report.
    pub fn delay_ms_percentile(&self, q: f64) -> f64 {
        nearest_rank(self.delay_series(), q)
    }

    /// Median per-slot achieved average delay, ms.
    pub fn p50_avg_delay_ms(&self) -> f64 {
        self.delay_ms_percentile(0.50)
    }

    /// 99th-percentile per-slot achieved average delay, ms — the burst
    /// slots the mean smooths away.
    pub fn p99_avg_delay_ms(&self) -> f64 {
        self.delay_ms_percentile(0.99)
    }

    /// Total decision runtime over the horizon, µs — the single
    /// summation behind every decide-time statistic.
    fn total_decide_us(&self) -> f64 {
        self.slots.iter().map(|s| s.decide_us).sum()
    }

    /// Total decision runtime over the horizon, ms.
    pub fn total_decide_ms(&self) -> f64 {
        self.total_decide_us() / 1_000.0
    }

    /// Mean per-slot decision runtime, µs.
    pub fn mean_decide_us(&self) -> f64 {
        self.mean_of(|s| s.decide_us)
    }

    /// Nearest-rank percentile of the per-slot decision runtime, µs.
    /// `q` is clamped to `[0, 1]`; returns 0 for an empty report.
    pub fn decide_us_percentile(&self, q: f64) -> f64 {
        nearest_rank(self.slots.iter().map(|s| s.decide_us).collect(), q)
    }

    /// 99th-percentile per-slot decision runtime, µs — the LP-solve
    /// tail that per-slot means hide.
    pub fn p99_decide_us(&self) -> f64 {
        self.decide_us_percentile(0.99)
    }

    /// Cumulative regret against the clairvoyant optimum, if tracked:
    /// `Σ_t (achieved_t − optimal_t)`.
    pub fn cumulative_regret_ms(&self) -> Option<f64> {
        let mut total = 0.0;
        for s in &self.slots {
            total += s.avg_delay_ms - s.optimal_avg_delay_ms?;
        }
        Some(total)
    }

    /// The running cumulative-regret curve, if tracked.
    pub fn regret_curve(&self) -> Option<Vec<f64>> {
        let mut acc = 0.0;
        let mut curve = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            acc += s.avg_delay_ms - s.optimal_avg_delay_ms?;
            curve.push(acc);
        }
        Some(curve)
    }

    /// The per-slot achieved delay series (Fig. 3(a)-style).
    pub fn delay_series(&self) -> Vec<f64> {
        self.slots.iter().map(|s| s.avg_delay_ms).collect()
    }

    /// Total requests that fell back to the remote data centre.
    pub fn total_remote(&self) -> usize {
        self.slots.iter().map(|s| s.remote_count).sum()
    }

    /// Total requests re-routed to another alive station by the
    /// fault-repair pass.
    pub fn total_rerouted(&self) -> usize {
        self.slots.iter().map(|s| s.rerouted_count).sum()
    }

    /// Total requests the fault-repair pass pushed to the remote data
    /// centre for lack of alive edge capacity.
    pub fn total_dropped(&self) -> usize {
        self.slots.iter().map(|s| s.dropped_count).sum()
    }

    /// Total preemption notices received (stations that began draining).
    pub fn total_drained(&self) -> usize {
        self.slots.iter().map(|s| s.drained_count).sum()
    }

    /// Total warm cache entries migrated off draining stations.
    pub fn total_migrated(&self) -> usize {
        self.slots.iter().map(|s| s.migrated_entries).sum()
    }

    /// Total requests evacuated pre-emptively from doomed stations.
    pub fn total_proactive_reroutes(&self) -> usize {
        self.slots.iter().map(|s| s.proactive_reroutes).sum()
    }

    /// Mean of the per-slot median sojourn time, ms (0 everywhere when
    /// the queue core is disabled).
    pub fn mean_p50_sojourn_ms(&self) -> f64 {
        self.mean_of(|s| s.p50_sojourn_ms)
    }

    /// Mean of the per-slot 99th-percentile sojourn time, ms — the
    /// queueing-tail counterpart of [`Self::mean_avg_delay_ms`]'s
    /// linear proxy; their divergence as offered load approaches 1 is
    /// exactly what the slot-synchronous path cannot express.
    pub fn mean_p99_sojourn_ms(&self) -> f64 {
        self.mean_of(|s| s.p99_sojourn_ms)
    }

    /// Worst per-slot p99 sojourn over the horizon, ms — under open-
    /// loop overload (ρ > 1) the backlog compounds, so the last slots
    /// dominate; the max exposes the collapse the mean dilutes.
    pub fn max_p99_sojourn_ms(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| s.p99_sojourn_ms)
            .fold(0.0, f64::max)
    }

    /// Total arrivals dropped at full station waiting rooms.
    pub fn total_queue_dropped(&self) -> usize {
        self.slots.iter().map(|s| s.queue_dropped_count).sum()
    }

    /// Total jobs the queue core completed — the episode's goodput.
    pub fn total_queue_completed(&self) -> usize {
        self.slots.iter().map(|s| s.queue_completed_count).sum()
    }

    /// Total jobs reaped at their deadline.
    pub fn total_deadline_missed(&self) -> usize {
        self.slots.iter().map(|s| s.deadline_missed).sum()
    }

    /// Total deadline misses that re-enqueued a retry.
    pub fn total_retries_attempted(&self) -> usize {
        self.slots.iter().map(|s| s.retries_attempted).sum()
    }

    /// Total retried jobs that completed.
    pub fn total_retries_succeeded(&self) -> usize {
        self.slots.iter().map(|s| s.retries_succeeded).sum()
    }

    /// Total arrivals shed by breakers or the admission gate.
    pub fn total_shed(&self) -> usize {
        self.slots.iter().map(|s| s.shed_count).sum()
    }

    /// Total station-slots spent with an Open circuit breaker.
    pub fn total_breaker_open_slots(&self) -> usize {
        self.slots.iter().map(|s| s.breaker_open_slots).sum()
    }

    /// Deadline misses as a fraction of deadline-resolved jobs
    /// (misses / (misses + completions)); 0 when nothing resolved.
    pub fn deadline_miss_rate(&self) -> f64 {
        let missed = self.total_deadline_missed();
        let resolved = missed + self.total_queue_completed();
        if resolved == 0 {
            0.0
        } else {
            missed as f64 / resolved as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(i: usize, delay: f64, opt: Option<f64>) -> SlotMetrics {
        SlotMetrics {
            slot: i,
            avg_delay_ms: delay,
            decide_us: 100.0,
            optimal_avg_delay_ms: opt,
            remote_count: i % 2,
            rerouted_count: i,
            dropped_count: i % 3,
            drained_count: i % 2,
            migrated_entries: 2 * i,
            proactive_reroutes: i % 4,
            p50_sojourn_ms: delay / 2.0,
            p99_sojourn_ms: delay * 3.0,
            queue_dropped_count: i % 5,
            queue_completed_count: 3 * i,
            deadline_missed: i % 2,
            retries_attempted: i % 3,
            retries_succeeded: i % 3,
            shed_count: i % 4,
            breaker_open_slots: i % 2,
        }
    }

    #[test]
    fn zeroed_timings_strip_only_the_wall_clock() {
        let r = EpisodeReport {
            policy: "test".into(),
            topology: "t".into(),
            slots: vec![slot(1, 10.0, Some(8.0)), slot(2, 20.0, None)],
        };
        let z = r.with_zeroed_timings();
        assert_eq!(z.total_decide_ms(), 0.0);
        assert_eq!(z.mean_avg_delay_ms(), r.mean_avg_delay_ms());
        assert_eq!(z.slots[0].optimal_avg_delay_ms, Some(8.0));
        assert_eq!(z.total_remote(), r.total_remote());
        assert_eq!(
            z.mean_p99_sojourn_ms(),
            r.mean_p99_sojourn_ms(),
            "sojourns are simulated time, not wall clock — zeroing must keep them"
        );
        assert_eq!(r.total_decide_ms(), 0.2, "the original is untouched");
    }

    #[test]
    fn means_and_totals() {
        let r = EpisodeReport {
            policy: "test".into(),
            topology: "t".into(),
            slots: vec![slot(1, 10.0, None), slot(2, 20.0, None)],
        };
        assert_eq!(r.mean_avg_delay_ms(), 15.0);
        assert_eq!(r.mean_decide_us(), 100.0);
        assert_eq!(r.total_decide_ms(), 0.2);
        assert_eq!(r.delay_series(), vec![10.0, 20.0]);
        assert_eq!(r.total_remote(), 1);
        assert_eq!(r.total_rerouted(), 3);
        assert_eq!(r.total_dropped(), 3);
        assert_eq!(r.total_drained(), 1);
        assert_eq!(r.total_migrated(), 6);
        assert_eq!(r.total_proactive_reroutes(), 3);
        assert_eq!(r.total_queue_dropped(), 3);
        assert_eq!(r.mean_p50_sojourn_ms(), 7.5);
        assert_eq!(r.mean_p99_sojourn_ms(), 45.0);
        assert_eq!(r.max_p99_sojourn_ms(), 60.0);
        assert_eq!(r.total_queue_completed(), 9);
        assert_eq!(r.total_deadline_missed(), 1);
        assert_eq!(r.total_retries_attempted(), 3);
        assert_eq!(r.total_retries_succeeded(), 3);
        assert_eq!(r.total_shed(), 3);
        assert_eq!(r.total_breaker_open_slots(), 1);
        assert_eq!(r.deadline_miss_rate(), 0.1, "1 miss / (1 + 9 completions)");
    }

    #[test]
    fn deadline_miss_rate_guards_the_empty_denominator() {
        let r = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots: vec![],
        };
        assert_eq!(r.deadline_miss_rate(), 0.0);
    }

    #[test]
    fn delay_percentiles_use_the_same_nearest_rank_rule() {
        let slots: Vec<SlotMetrics> = (1..=100).map(|i| slot(i, i as f64, None)).collect();
        let r = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots,
        };
        assert_eq!(r.p50_avg_delay_ms(), 50.0);
        assert_eq!(r.p99_avg_delay_ms(), 99.0);
        assert_eq!(r.delay_ms_percentile(0.0), 1.0);
        assert_eq!(r.delay_ms_percentile(1.0), 100.0);
        assert_eq!(r.delay_ms_percentile(7.0), 100.0, "q clamps");
    }

    #[test]
    fn queue_summaries_are_zero_without_the_queue_core() {
        let mut s = slot(1, 10.0, None);
        s.p50_sojourn_ms = 0.0;
        s.p99_sojourn_ms = 0.0;
        s.queue_dropped_count = 0;
        let r = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots: vec![s],
        };
        assert_eq!(r.mean_p50_sojourn_ms(), 0.0);
        assert_eq!(r.mean_p99_sojourn_ms(), 0.0);
        assert_eq!(r.max_p99_sojourn_ms(), 0.0);
        assert_eq!(r.total_queue_dropped(), 0);
    }

    #[test]
    fn decide_percentiles_use_nearest_rank() {
        let mut slots: Vec<SlotMetrics> = (1..=100)
            .map(|i| SlotMetrics {
                slot: i,
                avg_delay_ms: 1.0,
                decide_us: i as f64,
                optimal_avg_delay_ms: None,
                remote_count: 0,
                rerouted_count: 0,
                dropped_count: 0,
                drained_count: 0,
                migrated_entries: 0,
                proactive_reroutes: 0,
                p50_sojourn_ms: 0.0,
                p99_sojourn_ms: 0.0,
                queue_dropped_count: 0,
                queue_completed_count: 0,
                deadline_missed: 0,
                retries_attempted: 0,
                retries_succeeded: 0,
                shed_count: 0,
                breaker_open_slots: 0,
            })
            .collect();
        // Shuffle-ish ordering: percentiles must sort, not trust input.
        slots.reverse();
        let r = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots,
        };
        assert_eq!(r.p99_decide_us(), 99.0);
        assert_eq!(r.decide_us_percentile(0.5), 50.0);
        assert_eq!(r.decide_us_percentile(0.0), 1.0);
        assert_eq!(r.decide_us_percentile(1.0), 100.0);
        assert_eq!(r.decide_us_percentile(2.0), 100.0, "q clamps");
        assert_eq!(r.total_decide_ms(), r.mean_decide_us() * 100.0 / 1_000.0);
    }

    #[test]
    fn empty_percentile_is_zero() {
        let r = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots: vec![],
        };
        assert_eq!(r.p99_decide_us(), 0.0);
    }

    #[test]
    fn regret_requires_tracking() {
        let untracked = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots: vec![slot(1, 10.0, None)],
        };
        assert_eq!(untracked.cumulative_regret_ms(), None);
        let tracked = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots: vec![slot(1, 10.0, Some(8.0)), slot(2, 9.0, Some(8.5))],
        };
        assert_eq!(tracked.cumulative_regret_ms(), Some(2.5));
        assert_eq!(tracked.regret_curve(), Some(vec![2.0, 2.5]));
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = EpisodeReport {
            policy: "p".into(),
            topology: "t".into(),
            slots: vec![],
        };
        assert_eq!(r.mean_avg_delay_ms(), 0.0);
        assert_eq!(r.mean_decide_us(), 0.0);
        assert_eq!(r.cumulative_regret_ms(), Some(0.0));
    }
}
