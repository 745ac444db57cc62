//! The open-loop queue simulator driven slot-by-slot by an episode.
//!
//! Lifecycle per slot: [`QueueSim::set_draining`] (optional — the
//! breaker/drain interlock), [`QueueSim::begin_slot`] (apply the
//! slot's effective per-station rates from the faults layer), any
//! number of [`QueueSim::submit`] calls (one per edge-assigned
//! request, with a deterministic arrival offset inside the slot), then
//! [`QueueSim::run_slot`], which drains the event queue up to the slot
//! boundary and returns the slot's [`SlotQueueStats`]. Backlog carries
//! across slots — the queue is open-loop, so offered load above
//! capacity grows the backlog without bound (queueing collapse) unless
//! the resilience layer ([`ResilConfig`](crate::ResilConfig)) reaps
//! deadline misses, sheds at breakers/admission, and retries with
//! deterministic backoff.
//!
//! Memory is O(backlog): a job's slot is released the moment the job
//! leaves the system (completed, dropped, shed or reaped) and refilled
//! by the next submission or retry. No event outlives its job: a
//! deadline is planned only while its job is its station's oldest
//! resident, and every change to a station re-plans its one pending
//! event.

use crate::event::{EventQueue, QueueEvent};
use crate::job::{Job, JobSlab};
use crate::station::Station;
use crate::stats::{nearest_rank_ms, SlotQueueStats};
use crate::QueueConfig;
use lexcache_obs as obs;
use lexcache_obs::names;
use lexcache_resilience::{retry, Admission, BreakerState, CircuitBreaker, SlotSample};

/// Deterministic event-driven network of station queues.
#[derive(Debug)]
pub struct QueueSim {
    cfg: QueueConfig,
    stations: Vec<Station>,
    jobs: JobSlab,
    events: EventQueue,
    /// Episode seed; the retry side-stream hashes from
    /// `seed ^ resil.retry_seed_salt`, never an RNG.
    seed: u64,
    /// Slot currently being filled; 0 before the first `begin_slot`.
    slot: usize,
    /// Jobs resident across all stations.
    in_flight: usize,
    completed_total: u64,
    dropped_total: u64,
    deadline_missed_total: u64,
    retries_attempted_total: u64,
    retries_succeeded_total: u64,
    shed_total: u64,
    breaker_open_slot_total: u64,
    /// `Some` only when any resilience mechanism is enabled — a
    /// disabled config constructs nothing and changes nothing.
    resil: Option<ResilRuntime>,
    /// Scratch for completion collection (kept to avoid re-allocating
    /// on every departure event).
    done_scratch: Vec<usize>,
}

/// Live state of the resilience layer: per-station breakers, the
/// admission gate, the drain interlock flags, and the per-slot
/// per-station evidence tallies the breakers consume.
#[derive(Debug)]
struct ResilRuntime {
    breakers: Vec<CircuitBreaker>,
    admission: Option<Admission>,
    draining: Vec<bool>,
    st_arrivals: Vec<u64>,
    st_failures: Vec<u64>,
    st_sojourns: Vec<Vec<f64>>,
    /// Stations Open while this slot's arrivals were gated.
    open_this_slot: usize,
}

impl ResilRuntime {
    fn new(n_stations: usize, cfg: &crate::ResilConfig) -> Self {
        let breakers = if cfg.breakers_enabled() {
            let params = cfg.breaker_params();
            (0..n_stations)
                .map(|_| CircuitBreaker::new(params))
                .collect()
        } else {
            Vec::new()
        };
        ResilRuntime {
            breakers,
            admission: cfg
                .admission_enabled()
                .then(|| Admission::new(n_stations, cfg.admission_params())),
            draining: vec![false; n_stations],
            st_arrivals: vec![0; n_stations],
            st_failures: vec![0; n_stations],
            st_sojourns: vec![Vec::new(); n_stations],
            open_this_slot: 0,
        }
    }

    fn begin_slot(&mut self) {
        if let Some(a) = self.admission.as_mut() {
            a.begin_slot();
        }
        for (i, b) in self.breakers.iter_mut().enumerate() {
            b.begin_slot(self.draining[i]);
        }
        self.open_this_slot = self.breakers.iter().filter(|b| b.is_open()).count();
        for v in &mut self.st_arrivals {
            *v = 0;
        }
        for v in &mut self.st_failures {
            *v = 0;
        }
        for v in &mut self.st_sojourns {
            v.clear();
        }
    }

    /// Feeds the slot's evidence to every breaker and emits a trace
    /// mark per lifecycle transition.
    fn end_slot(&mut self) {
        fn phase(s: BreakerState) -> u8 {
            match s {
                BreakerState::Closed => 0,
                BreakerState::Open(_) => 1,
                BreakerState::HalfOpen => 2,
            }
        }
        for (i, b) in self.breakers.iter_mut().enumerate() {
            let sample = SlotSample {
                arrivals: self.st_arrivals[i],
                failures: self.st_failures[i],
                p99_ms: nearest_rank_ms(&self.st_sojourns[i], 0.99),
            };
            let before = phase(b.state());
            b.end_slot(sample, self.draining[i]);
            let after = phase(b.state());
            if before != after {
                match b.state() {
                    BreakerState::Open(_) => obs::mark(names::RESIL_EV_BREAKER_OPEN),
                    BreakerState::HalfOpen => obs::mark(names::RESIL_EV_BREAKER_PROBE),
                    BreakerState::Closed => obs::mark(names::RESIL_EV_BREAKER_CLOSE),
                }
            }
        }
    }
}

impl QueueSim {
    /// A fresh simulator with `n_stations` empty queues and seed 0
    /// (sufficient when the resilience layer is disabled — nothing
    /// else consumes the seed).
    pub fn new(n_stations: usize, cfg: QueueConfig) -> Self {
        Self::new_seeded(n_stations, cfg, 0)
    }

    /// A fresh simulator whose retry side-stream hashes from
    /// `seed ^ cfg.resil.retry_seed_salt`.
    pub fn new_seeded(n_stations: usize, cfg: QueueConfig, seed: u64) -> Self {
        assert!(n_stations > 0, "need at least one station");
        QueueSim {
            cfg,
            stations: (0..n_stations)
                .map(|_| Station::new(cfg.discipline, cfg.queue_capacity))
                .collect(),
            jobs: JobSlab::default(),
            events: EventQueue::new(n_stations),
            seed,
            slot: 0,
            in_flight: 0,
            completed_total: 0,
            dropped_total: 0,
            deadline_missed_total: 0,
            retries_attempted_total: 0,
            retries_succeeded_total: 0,
            shed_total: 0,
            breaker_open_slot_total: 0,
            resil: cfg
                .resil
                .is_enabled()
                .then(|| ResilRuntime::new(n_stations, &cfg.resil)),
            done_scratch: Vec::new(),
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Jobs completed since construction.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Arrivals dropped since construction.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Jobs reaped at their deadline since construction.
    pub fn deadline_missed_total(&self) -> u64 {
        self.deadline_missed_total
    }

    /// Retries re-enqueued since construction.
    pub fn retries_attempted_total(&self) -> u64 {
        self.retries_attempted_total
    }

    /// Retried jobs that completed since construction.
    pub fn retries_succeeded_total(&self) -> u64 {
        self.retries_succeeded_total
    }

    /// Arrivals shed by breakers or admission since construction.
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// Station-slots spent with an Open breaker since construction.
    pub fn breaker_open_slot_total(&self) -> u64 {
        self.breaker_open_slot_total
    }

    /// The soft LP column down-weight of every station's breaker
    /// (Closed 1.0, HalfOpen 1.5, Open 2.0 — the `Draining(k)` shape).
    /// All-ones when breakers are disabled, so callers can thread the
    /// weights unconditionally.
    pub fn breaker_weights(&self) -> Vec<f64> {
        match &self.resil {
            Some(rt) if !rt.breakers.is_empty() => rt.breakers.iter().map(|b| b.weight()).collect(),
            _ => vec![1.0; self.stations.len()],
        }
    }

    /// Updates the drain interlock: a station flagged here is never
    /// probed by a HalfOpen breaker (it demotes back to Open instead).
    /// Call before [`QueueSim::begin_slot`]; flags persist until the
    /// next call. A no-op when the resilience layer is disabled.
    pub fn set_draining(&mut self, draining: &[bool]) {
        if let Some(rt) = self.resil.as_mut() {
            assert_eq!(
                draining.len(),
                rt.draining.len(),
                "one drain flag per station"
            );
            rt.draining.copy_from_slice(draining);
        }
    }

    /// Opens slot `slot` (1-based, strictly sequential) and applies
    /// the slot's effective per-station service rates — the product of
    /// liveness, brown-out capacity factor and drain down-weight the
    /// episode computes from its fault state. A rate of 0 freezes the
    /// station: resident jobs wait, nothing drains, nothing departs.
    pub fn begin_slot(&mut self, slot: usize, rates: &[f64]) {
        assert_eq!(
            slot,
            self.slot + 1,
            "slots must advance one at a time (got {slot} after {})",
            self.slot
        );
        assert_eq!(rates.len(), self.stations.len(), "one rate per station");
        self.slot = slot;
        let now_ms = (slot - 1) as f64 * self.cfg.slot_ms;
        for (i, station) in self.stations.iter_mut().enumerate() {
            station.set_rate(now_ms, rates[i], &mut self.jobs);
        }
        for i in 0..self.stations.len() {
            self.schedule(i);
        }
        if let Some(rt) = self.resil.as_mut() {
            rt.begin_slot();
        }
    }

    /// Registers one request arriving `offset_ms` into the current
    /// slot at `station`, owing `service_ms` work-ms at unit rate.
    pub fn submit(&mut self, request: usize, station: usize, offset_ms: f64, service_ms: f64) {
        self.submit_prio(request, station, offset_ms, service_ms, false);
    }

    /// [`QueueSim::submit`] with an explicit priority class:
    /// high-priority jobs are shed last by the admission gate. When
    /// deadlines are enabled the job's absolute deadline is stamped
    /// here (`arrival + deadline_ms`).
    pub fn submit_prio(
        &mut self,
        request: usize,
        station: usize,
        offset_ms: f64,
        service_ms: f64,
        high_priority: bool,
    ) {
        assert!(self.slot > 0, "submit before begin_slot");
        assert!(
            station < self.stations.len(),
            "station {station} out of range"
        );
        assert!(
            offset_ms >= 0.0 && offset_ms <= self.cfg.slot_ms,
            "arrival offset {offset_ms} outside slot of {} ms",
            self.cfg.slot_ms
        );
        assert!(
            service_ms.is_finite() && service_ms >= 0.0,
            "service time must be finite and >= 0, got {service_ms}"
        );
        let arrival_ms = (self.slot - 1) as f64 * self.cfg.slot_ms + offset_ms;
        let mut j = Job::new(request, self.slot, station, arrival_ms, service_ms);
        j.high_priority = high_priority;
        if self.cfg.resil.deadlines_enabled() {
            j.deadline_ms = arrival_ms + self.cfg.resil.deadline_ms;
        }
        let job = self.jobs.insert(j);
        self.events.push_arrival(arrival_ms, job);
    }

    /// Drains events up to the current slot's boundary and returns the
    /// slot's measurements. Sojourns are recorded into the
    /// [`names::QUEUE_SOJOURN_MS`] obs histogram as they complete.
    pub fn run_slot(&mut self) -> SlotQueueStats {
        assert!(self.slot > 0, "run_slot before begin_slot");
        let end_ms = self.slot as f64 * self.cfg.slot_ms;
        self.events
            .push(end_ms, QueueEvent::SlotBoundary { slot: self.slot });
        let mut stats = SlotQueueStats::default();
        // The boundary event pushed above bounds this loop, so the queue
        // cannot run dry first; if it somehow did, ending the slot is the
        // only sane recovery.
        while let Some((t, ev)) = self.events.pop() {
            match ev {
                QueueEvent::JobArrival { job } => {
                    let station = self.jobs[job].station;
                    if let Some(rt) = self.resil.as_mut() {
                        if !rt.breakers.is_empty() {
                            rt.st_arrivals[station] += 1;
                        }
                        let backlog = self.stations[station].backlog();
                        let high = self.jobs[job].high_priority;
                        // Breaker first (the outer protective layer),
                        // then the admission gate.
                        let breaker_ok = rt.breakers.get_mut(station).is_none_or(|b| b.admit());
                        let admitted = breaker_ok
                            && rt
                                .admission
                                .as_mut()
                                .is_none_or(|a| a.admit(station, backlog, high));
                        if !admitted {
                            stats.shed += 1;
                            stats.shed_requests.push(self.jobs[job].request);
                            self.shed_total += 1;
                            obs::mark(names::RESIL_EV_SHED);
                            self.jobs.release(job);
                            continue;
                        }
                    }
                    if self.stations[station].try_enqueue(t, job, &mut self.jobs) {
                        self.in_flight += 1;
                        if self.jobs[job].has_deadline() {
                            self.jobs[job].deadline_seq = self.events.draw_seq();
                        }
                        self.schedule(station);
                    } else {
                        stats.dropped += 1;
                        stats.dropped_requests.push(self.jobs[job].request);
                        self.dropped_total += 1;
                        if let Some(rt) = self.resil.as_mut() {
                            if !rt.breakers.is_empty() {
                                rt.st_failures[station] += 1;
                            }
                        }
                        obs::mark(names::QUEUE_EV_DROP);
                        self.jobs.release(job);
                    }
                }
                QueueEvent::JobDeparture {
                    station,
                    job,
                    version,
                } => {
                    assert_eq!(
                        version,
                        self.stations[station].version(),
                        "a popped departure must carry its station's current version"
                    );
                    self.stations[station].advance(t, &mut self.jobs);
                    // The event *is* the completion contract: the
                    // predicted job finishes exactly now. Zeroing it
                    // absorbs the one-ulp dust of rate arithmetic.
                    self.jobs[job].remaining_ms = 0.0;
                    self.done_scratch.clear();
                    let mut done = std::mem::take(&mut self.done_scratch);
                    self.stations[station].take_completed(&self.jobs, &mut done);
                    for &idx in &done {
                        let sojourn = t - self.jobs[idx].arrival_ms;
                        obs::observe(names::QUEUE_SOJOURN_MS, sojourn);
                        stats.sojourns_ms.push(sojourn);
                        self.in_flight -= 1;
                        self.completed_total += 1;
                        if self.jobs[idx].attempt > 0 {
                            stats.retries_succeeded += 1;
                            self.retries_succeeded_total += 1;
                            obs::mark(names::RESIL_EV_RETRY_OK);
                        }
                        if let Some(rt) = self.resil.as_mut() {
                            if !rt.breakers.is_empty() {
                                rt.st_sojourns[station].push(sojourn);
                            }
                        }
                        self.jobs.release(idx);
                    }
                    self.done_scratch = done;
                    self.schedule(station);
                }
                QueueEvent::JobTimeout { station } => {
                    let job = self.stations[station].reap_oldest(t, &mut self.jobs);
                    self.in_flight -= 1;
                    stats.deadline_missed += 1;
                    self.deadline_missed_total += 1;
                    obs::mark(names::RESIL_EV_DEADLINE_MISS);
                    if let Some(rt) = self.resil.as_mut() {
                        if !rt.breakers.is_empty() {
                            rt.st_failures[station] += 1;
                        }
                    }
                    let failed = self.jobs[job];
                    self.jobs.release(job);
                    let rcfg = self.cfg.resil;
                    if failed.attempt < rcfg.max_retries {
                        stats.retries_attempted += 1;
                        self.retries_attempted_total += 1;
                        obs::mark(names::RESIL_EV_RETRY);
                        // The retry side-stream is a stateless hash of
                        // (seed ⊕ salt, slot, request, attempt) — the
                        // original slot, so every attempt of a request
                        // shares one hash lineage.
                        let rseed = self.seed ^ rcfg.retry_seed_salt;
                        let backoff = retry::backoff_ms(
                            rcfg.backoff_base_ms,
                            rcfg.backoff_jitter_ms,
                            rseed,
                            failed.slot,
                            failed.request,
                            failed.attempt,
                        );
                        let target = retry::failover_station(
                            rseed,
                            failed.slot,
                            failed.request,
                            failed.attempt,
                            station,
                            self.stations.len(),
                        );
                        let when = t + backoff;
                        let mut r =
                            Job::new(failed.request, failed.slot, target, when, failed.service_ms);
                        r.attempt = failed.attempt + 1;
                        r.high_priority = failed.high_priority;
                        r.deadline_ms = when + rcfg.deadline_ms;
                        let retry = self.jobs.insert(r);
                        // Backoff puts retries out of arrival order, so
                        // they go in the general heap.
                        self.events
                            .push(when, QueueEvent::JobArrival { job: retry });
                    }
                    self.schedule(station);
                }
                QueueEvent::SlotBoundary { .. } => break,
            }
        }
        stats.backlog = self.in_flight;
        if let Some(rt) = self.resil.as_mut() {
            stats.breaker_open = rt.open_this_slot;
            self.breaker_open_slot_total += rt.open_this_slot as u64;
            rt.end_slot();
            obs::counter(names::RESIL_DEADLINE_MISSED, stats.deadline_missed as u64);
            obs::counter(names::RESIL_RETRIES, stats.retries_attempted as u64);
            obs::counter(names::RESIL_RETRIES_OK, stats.retries_succeeded as u64);
            obs::counter(names::RESIL_SHED, stats.shed as u64);
            obs::gauge(
                names::RESIL_BREAKER_OPEN_STATIONS,
                stats.breaker_open as f64,
            );
        }
        obs::counter(names::QUEUE_COMPLETED, stats.completed() as u64);
        obs::counter(names::QUEUE_DROPPED, stats.dropped as u64);
        obs::gauge(names::QUEUE_BACKLOG, stats.backlog as f64);
        stats
    }

    /// Re-plans `station`'s pending event: the earlier of its next
    /// departure under its current schedule version (none when idle or
    /// frozen) and its oldest resident's deadline. Every version bump
    /// is followed by this call before the next pop.
    fn schedule(&mut self, station: usize) {
        let st = &self.stations[station];
        let departure = st
            .next_completion(&self.jobs)
            .map(|(t, job)| (t, job, st.version()));
        let deadline = st
            .oldest()
            .map(|j| &self.jobs[j])
            .filter(|j| j.has_deadline())
            .map(|j| (j.deadline_ms, j.deadline_seq));
        self.events.plan(station, departure, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discipline, ResilConfig};

    fn sojourn_bits(stats: &[SlotQueueStats]) -> Vec<Vec<u64>> {
        stats
            .iter()
            .map(|s| s.sojourns_ms.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn fifo_m_d_1_style_slot_completes_in_order() {
        let cfg = QueueConfig::open_loop(0.5).with_slot_ms(100.0);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 0.0, 10.0);
        qs.submit(1, 0, 5.0, 10.0);
        let stats = qs.run_slot();
        // Job 0 occupies [0, 10); job 1 arrives at 5, waits 5, serves
        // [10, 20): sojourns 10 and 15.
        assert_eq!(stats.sojourns_ms, vec![10.0, 15.0]);
        assert_eq!(stats.backlog, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn processor_sharing_stretches_concurrent_jobs() {
        let cfg = QueueConfig::open_loop(0.5)
            .with_discipline(Discipline::ProcessorSharing)
            .with_slot_ms(100.0);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 0.0, 10.0);
        qs.submit(1, 0, 5.0, 10.0);
        let stats = qs.run_slot();
        // Alone on [0,5): job 0 drains 5. Shared on [5,15): each gets
        // rate 1/2, job 0 finishes at 15. Job 1 then has 5 left alone,
        // finishing at 20. Sojourns: 15 and 15.
        assert_eq!(stats.sojourns_ms, vec![15.0, 15.0]);
    }

    #[test]
    fn zero_service_time_departs_at_arrival() {
        let cfg = QueueConfig::equivalence();
        let mut qs = QueueSim::new(2, cfg);
        qs.begin_slot(1, &[1.0, 1.0]);
        qs.submit(0, 0, 12.5, 0.0);
        qs.submit(1, 1, 80.0, 0.0);
        let stats = qs.run_slot();
        assert_eq!(stats.sojourns_ms, vec![0.0, 0.0]);
        assert_eq!(stats.backlog, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn backlog_carries_across_slots_and_sojourns_span_them() {
        let cfg = QueueConfig::open_loop(1.1).with_slot_ms(100.0);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 90.0, 50.0); // can only drain 10 work-ms this slot
        let s1 = qs.run_slot();
        assert_eq!(s1.completed(), 0);
        assert_eq!(s1.backlog, 1);
        qs.begin_slot(2, &[1.0]);
        let s2 = qs.run_slot();
        // Finishes at 90 + 50 = 140 → sojourn 50, counted in slot 2.
        assert_eq!(s2.sojourns_ms, vec![50.0]);
        assert_eq!(s2.backlog, 0);
    }

    #[test]
    fn zero_rate_outage_freezes_then_resumes() {
        let cfg = QueueConfig::open_loop(0.8).with_slot_ms(100.0);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[0.0]); // station down all slot
        qs.submit(0, 0, 10.0, 20.0);
        let s1 = qs.run_slot();
        assert_eq!(s1.completed(), 0);
        assert_eq!(s1.backlog, 1);
        qs.begin_slot(2, &[1.0]); // station returns
        let s2 = qs.run_slot();
        // Frozen on [10, 100), serves [100, 120): sojourn 110.
        assert_eq!(s2.sojourns_ms, vec![110.0]);
    }

    #[test]
    fn brown_out_halves_the_drain_rate() {
        let cfg = QueueConfig::open_loop(0.8).with_slot_ms(100.0);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[0.5]);
        qs.submit(0, 0, 0.0, 20.0);
        let stats = qs.run_slot();
        assert_eq!(stats.sojourns_ms, vec![40.0]);
    }

    #[test]
    fn finite_waiting_room_drops_the_overflow() {
        let cfg = QueueConfig::open_loop(1.1).with_queue_capacity(2);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 0.0, 1000.0);
        qs.submit(1, 0, 1.0, 1000.0);
        qs.submit(2, 0, 2.0, 1000.0);
        let stats = qs.run_slot();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.backlog, 2);
        assert_eq!(qs.dropped_total(), 1);
        assert_eq!(
            stats.dropped_requests,
            vec![2],
            "the drop records which request paid for it"
        );
    }

    #[test]
    fn same_inputs_are_bit_identical() {
        let run = || {
            let cfg = QueueConfig::open_loop(0.95)
                .with_discipline(Discipline::ProcessorSharing)
                .with_slot_ms(100.0);
            let mut qs = QueueSim::new(3, cfg);
            let mut all = Vec::new();
            for slot in 1..=4usize {
                let rates = [1.0, if slot == 2 { 0.0 } else { 1.0 }, 0.4];
                qs.begin_slot(slot, &rates);
                for r in 0..9 {
                    let st = r % 3;
                    let off = (r as f64 * 9.7) % 100.0;
                    qs.submit(r, st, off, 7.0 + r as f64);
                }
                all.push(qs.run_slot());
            }
            all
        };
        let (a, b) = (run(), run());
        assert_eq!(sojourn_bits(&a), sojourn_bits(&b));
        assert_eq!(
            a.iter().map(|s| (s.dropped, s.backlog)).collect::<Vec<_>>(),
            b.iter().map(|s| (s.dropped, s.backlog)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn departure_exactly_on_the_boundary_lands_in_the_next_slot() {
        // The boundary marker is pushed before any departure scheduled
        // during the drain, so an exactly-on-boundary completion ties
        // on tick, loses on seq, and is (deterministically) accounted
        // to the following slot with its sojourn intact.
        let cfg = QueueConfig::open_loop(0.8).with_slot_ms(100.0);
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 50.0, 50.0); // completes exactly at t = 100
        let s1 = qs.run_slot();
        assert_eq!(s1.completed(), 0);
        assert_eq!(s1.backlog, 1);
        qs.begin_slot(2, &[1.0]);
        let s2 = qs.run_slot();
        assert_eq!(s2.sojourns_ms, vec![50.0]);
        assert_eq!(s2.backlog, 0);
    }

    #[test]
    #[should_panic(expected = "one at a time")]
    fn slots_must_be_sequential() {
        let mut qs = QueueSim::new(1, QueueConfig::equivalence());
        qs.begin_slot(2, &[1.0]);
    }

    // ---- resilience layer ----

    fn deadline_cfg(deadline_ms: f64, retries: u32) -> QueueConfig {
        QueueConfig::open_loop(1.0)
            .with_slot_ms(100.0)
            .with_resilience(
                ResilConfig::disabled()
                    .with_deadline_ms(deadline_ms)
                    .with_retries(retries)
                    .with_backoff(10.0, 0.0),
            )
    }

    #[test]
    fn an_expired_job_is_a_miss_not_a_completion() {
        let mut qs = QueueSim::new(1, deadline_cfg(30.0, 0));
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 0.0, 20.0); // served [0, 20): beats its deadline
        qs.submit(1, 0, 0.0, 20.0); // would serve [20, 40): reaped at 30
        let stats = qs.run_slot();
        assert_eq!(stats.sojourns_ms, vec![20.0]);
        assert_eq!(stats.deadline_missed, 1);
        assert_eq!(stats.backlog, 0, "the reaped job left the station");
        assert_eq!(qs.deadline_missed_total(), 1);
        assert_eq!(qs.completed_total(), 1);
    }

    #[test]
    fn a_completed_job_ignores_its_stale_timeout() {
        let mut qs = QueueSim::new(1, deadline_cfg(50.0, 0));
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 0.0, 10.0); // completes at 10, deadline 50
        let stats = qs.run_slot();
        assert_eq!(stats.sojourns_ms, vec![10.0]);
        assert_eq!(stats.deadline_missed, 0, "the timeout found nobody home");
        assert_eq!(stats.backlog, 0);
    }

    #[test]
    fn a_stale_timeout_spares_the_next_occupant_of_its_slot() {
        let mut qs = QueueSim::new(1, deadline_cfg(50.0, 0));
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 90.0, 5.0); // A: completes at 95, deadline 140
        let s1 = qs.run_slot();
        assert_eq!(s1.sojourns_ms, vec![5.0]);
        qs.begin_slot(2, &[1.0]);
        qs.submit(1, 0, 0.0, 45.0); // B: A's slot, resident over [100, 145)
        assert_eq!(qs.jobs.len(), 1, "B must reuse A's slot");
        let s2 = qs.run_slot();
        assert_eq!(s2.deadline_missed, 0, "A's timeout at 140 must not reap B");
        assert_eq!(
            s2.sojourns_ms,
            vec![45.0],
            "B completes with its own sojourn"
        );
        assert_eq!(qs.completed_total(), 2);
    }

    #[test]
    fn the_job_slab_is_bounded_by_the_backlog_not_the_horizon() {
        const ROOM: usize = 4;
        const PER_SLOT: usize = 4;
        // Four 30 ms jobs per 100 ms slot at one station (ρ = 1.2),
        // room 4, 100 ms deadlines and two retries: drops, misses and
        // retries all recur for the whole run.
        let run = |slots: usize| {
            let cfg = QueueConfig::open_loop(1.2)
                .with_slot_ms(100.0)
                .with_queue_capacity(ROOM)
                .with_resilience(
                    ResilConfig::disabled()
                        .with_deadline_ms(100.0)
                        .with_retries(2)
                        .with_backoff(10.0, 0.0),
                );
            let mut qs = QueueSim::new(1, cfg);
            for slot in 1..=slots {
                qs.begin_slot(slot, &[1.0]);
                for r in 0..PER_SLOT {
                    qs.submit(r, 0, 25.0 * r as f64, 30.0);
                }
                qs.run_slot();
            }
            assert!(qs.dropped_total() > 0 && qs.retries_attempted_total() > 0);
            assert!(qs.deadline_missed_total() > 0 && qs.completed_total() > 0);
            qs.jobs.len()
        };
        let short = run(1_000);
        assert_eq!(
            short,
            run(10_000),
            "the slab must not grow with the horizon"
        );
        // Live jobs: at most ROOM resident, PER_SLOT pending arrivals and
        // one pending retry per job reaped from the room.
        assert!(short <= 2 * ROOM + PER_SLOT, "slab of {short} slots");
    }

    #[test]
    fn timeout_tying_a_departure_tick_resolves_to_the_miss() {
        // Deadline exactly equal to the predicted completion time: the
        // timeout was pushed at arrival processing, the departure right
        // after it (same handler, later seq), so at the tick tie the
        // timeout pops first, reaps the job, and the station's re-plan
        // clears its departure. Deterministically a miss — pinned here
        // so the (tick, seq) contract never drifts.
        let mut qs = QueueSim::new(1, deadline_cfg(10.0, 0));
        qs.begin_slot(1, &[1.0]);
        qs.submit(0, 0, 0.0, 10.0); // completion and deadline both at 10
        let stats = qs.run_slot();
        assert_eq!(stats.deadline_missed, 1);
        assert_eq!(stats.completed(), 0, "the tie must not double-count");
        assert_eq!(stats.backlog, 0);
        assert_eq!(qs.completed_total(), 0);
    }

    #[test]
    fn a_retry_does_not_cancel_or_double_count_the_original() {
        // Station 0 runs two jobs; job 1 misses and retries onto the
        // failover station. The original job 0's scheduled departure
        // must survive the reap (same station, version re-planned) and
        // the retried job's own departure must count exactly once.
        let cfg = QueueConfig::open_loop(1.0)
            .with_slot_ms(200.0)
            .with_resilience(
                ResilConfig::disabled()
                    .with_deadline_ms(40.0)
                    .with_retries(1)
                    .with_backoff(10.0, 0.0),
            );
        let mut qs = QueueSim::new(2, cfg);
        qs.begin_slot(1, &[1.0, 1.0]);
        qs.submit(0, 0, 0.0, 30.0); // serves [0, 30): completes
        qs.submit(1, 0, 0.0, 30.0); // would serve [30, 60): reaped at 40
        let stats = qs.run_slot();
        // Original completes at 30; the reaped job retries at 50 on
        // station 1 (the only failover) and serves [50, 80): sojourn
        // 30 against its retry arrival.
        assert_eq!(stats.sojourns_ms, vec![30.0, 30.0]);
        assert_eq!(stats.deadline_missed, 1);
        assert_eq!(stats.retries_attempted, 1);
        assert_eq!(stats.retries_succeeded, 1);
        assert_eq!(qs.completed_total(), 2, "each job completed exactly once");
        assert_eq!(qs.retries_succeeded_total(), 1);
        assert_eq!(stats.backlog, 0);
    }

    #[test]
    fn retry_budget_is_bounded() {
        // One station, rate 0: every attempt freezes and misses. With
        // a budget of 2 the request is tried 3 times total, then gone.
        let cfg = QueueConfig::open_loop(1.0)
            .with_slot_ms(1000.0)
            .with_resilience(
                ResilConfig::disabled()
                    .with_deadline_ms(10.0)
                    .with_retries(2)
                    .with_backoff(5.0, 0.0),
            );
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[0.0]);
        qs.submit(0, 0, 0.0, 50.0);
        let stats = qs.run_slot();
        assert_eq!(stats.deadline_missed, 3, "original + 2 retries all missed");
        assert_eq!(stats.retries_attempted, 2);
        assert_eq!(stats.retries_succeeded, 0);
        assert_eq!(stats.backlog, 0, "the budget exhausted, nothing lingers");
    }

    #[test]
    fn resilience_on_runs_are_bit_identical() {
        let run = |seed: u64| {
            let mut qs = QueueSim::new_seeded(3, deadline_cfg(15.0, 2), seed);
            let mut out = Vec::new();
            for slot in 1..=3usize {
                qs.begin_slot(slot, &[1.0, 0.2, 0.2]);
                for r in 0..6 {
                    qs.submit(r, r % 3, (r as f64 * 13.0) % 100.0, 12.0);
                }
                let s = qs.run_slot();
                out.push((
                    s.sojourns_ms
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    s.deadline_missed,
                    s.retries_attempted,
                ));
            }
            (out, qs.retries_attempted_total())
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a, b, "same seed, same bytes");
        assert!(a.1 > 0, "the slow stations must have forced retries");
    }

    #[test]
    fn admission_backlog_threshold_sheds_low_priority_first() {
        let cfg = QueueConfig::open_loop(1.0)
            .with_slot_ms(100.0)
            .with_resilience(ResilConfig::disabled().with_admission(2, 0));
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[1.0]);
        // Backlog builds: 0, 1 admitted; by the third arrival backlog
        // is 2 (= thr) so low-priority sheds, high-priority still rides
        // until backlog reaches 4 (= 2·thr).
        qs.submit(0, 0, 0.0, 1000.0);
        qs.submit(1, 0, 1.0, 1000.0);
        qs.submit(2, 0, 2.0, 1000.0); // shed (low, backlog 2)
        qs.submit_prio(3, 0, 3.0, 1000.0, true); // admitted (high)
        qs.submit_prio(4, 0, 4.0, 1000.0, true); // admitted (high, backlog 3)
        qs.submit_prio(5, 0, 5.0, 1000.0, true); // shed (backlog 4 = 2·thr)
        let stats = qs.run_slot();
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.shed_requests, vec![2, 5]);
        assert_eq!(stats.backlog, 4);
        assert_eq!(qs.shed_total(), 2);
    }

    #[test]
    fn breaker_trips_sheds_and_recovers_with_probes() {
        // Saturate a 1-capacity station so every later arrival drops:
        // a 100% failure rate trips the window-2 breaker, which then
        // sheds, probes, and closes once the backlog clears.
        let cfg = QueueConfig::open_loop(1.0)
            .with_slot_ms(100.0)
            .with_queue_capacity(1)
            .with_resilience(ResilConfig::disabled().with_breaker(2, 0.5, 0.0, 1, 1));
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[0.0]);
        qs.submit(0, 0, 0.0, 10.0);
        qs.submit(1, 0, 1.0, 10.0); // drop (room full)
        let s1 = qs.run_slot();
        assert_eq!((s1.dropped, s1.shed, s1.breaker_open), (1, 0, 0));
        qs.begin_slot(2, &[0.0]);
        qs.submit(2, 0, 1.0, 10.0); // drop → window full, trips
        let s2 = qs.run_slot();
        assert_eq!(s2.dropped, 1);
        qs.begin_slot(3, &[1.0]);
        qs.submit(3, 0, 1.0, 10.0); // shed: breaker Open
        let s3 = qs.run_slot();
        assert_eq!((s3.dropped, s3.shed, s3.breaker_open), (0, 1, 1));
        assert_eq!(qs.breaker_open_slot_total(), 1);
        // Open(1) elapsed → HalfOpen: one probe admitted, drains fine.
        qs.begin_slot(4, &[1.0]);
        qs.submit(4, 0, 0.0, 10.0); // the probe
        qs.submit(5, 0, 1.0, 10.0); // beyond the probe budget: shed
        let s4 = qs.run_slot();
        assert_eq!((s4.completed(), s4.shed, s4.breaker_open), (1, 1, 0));
        // Clean probe slot → Closed again.
        qs.begin_slot(5, &[1.0]);
        qs.submit(6, 0, 0.0, 10.0);
        let s5 = qs.run_slot();
        assert_eq!((s5.completed(), s5.shed), (1, 0));
        assert_eq!(qs.breaker_weights(), vec![1.0]);
    }

    #[test]
    fn draining_station_holds_its_breaker_open() {
        let cfg = QueueConfig::open_loop(1.0)
            .with_slot_ms(100.0)
            .with_queue_capacity(1)
            .with_resilience(ResilConfig::disabled().with_breaker(1, 0.5, 0.0, 1, 1));
        let mut qs = QueueSim::new(1, cfg);
        qs.begin_slot(1, &[0.0]);
        qs.submit(0, 0, 0.0, 10.0);
        qs.submit(1, 0, 1.0, 10.0); // drop → trips immediately (window 1)
        qs.run_slot();
        // The station is draining: Open(1) must hold Open instead of
        // probing, for as long as the drain lasts.
        qs.set_draining(&[true]);
        qs.begin_slot(2, &[1.0]);
        qs.submit(2, 0, 1.0, 10.0);
        let s2 = qs.run_slot();
        assert_eq!((s2.shed, s2.breaker_open), (1, 1));
        qs.begin_slot(3, &[1.0]);
        qs.submit(3, 0, 1.0, 10.0);
        let s3 = qs.run_slot();
        assert_eq!(
            (s3.shed, s3.breaker_open),
            (1, 1),
            "no probe admitted while the drain notice stands"
        );
        // Drain over. The breaker is still Open when slot 4 begins
        // (the Open → HalfOpen step happens at a slot *end* with the
        // drain flag clear), so one more arrival sheds; slot 5 finally
        // admits the probe and closes.
        qs.set_draining(&[false]);
        qs.begin_slot(4, &[1.0]);
        qs.submit(4, 0, 1.0, 10.0);
        let s4 = qs.run_slot();
        assert_eq!((s4.shed, s4.breaker_open), (1, 1));
        qs.begin_slot(5, &[1.0]);
        qs.submit(5, 0, 0.0, 10.0);
        let s5 = qs.run_slot();
        assert_eq!((s5.completed(), s5.shed, s5.breaker_open), (1, 0, 0));
    }

    #[test]
    fn disabled_resilience_constructs_no_runtime_and_changes_nothing() {
        let plain = QueueConfig::open_loop(0.95).with_slot_ms(100.0);
        let resil_off = plain.with_resilience(ResilConfig::disabled());
        let run = |cfg: QueueConfig| {
            let mut qs = QueueSim::new(2, cfg);
            let mut all = Vec::new();
            for slot in 1..=3usize {
                qs.begin_slot(slot, &[1.0, 0.5]);
                for r in 0..6 {
                    qs.submit(r, r % 2, (r as f64 * 17.0) % 100.0, 9.0 + r as f64);
                }
                all.push(qs.run_slot());
            }
            all
        };
        let (a, b) = (run(plain), run(resil_off));
        assert_eq!(sojourn_bits(&a), sojourn_bits(&b));
        assert_eq!(a, b, "ResilConfig::disabled() must be invisible");
    }
}
