//! Per-station servers: FIFO or egalitarian processor sharing.
//!
//! A station drains *work* (ms at unit rate) at its current effective
//! `rate` (work-ms per elapsed ms). The simulator never steps time on
//! a fixed grid: between events each station's state is advanced
//! lazily by exactly the elapsed interval, and the next completion is
//! *predicted* in closed form and planned as a [`JobDeparture`]
//! event. Any change that invalidates the prediction (an arrival
//! joining a PS server, a capacity change at a slot boundary, a job
//! leaving) bumps the station's `version`, and the simulator then
//! re-plans the station's one pending event; the event carries the
//! version it was scheduled under, which a popped departure must still
//! match. Residents are kept in join order, so the oldest one holds
//! the station's earliest deadline and is the one a deadline reaps.
//!
//! [`JobDeparture`]: crate::event::QueueEvent::JobDeparture

use crate::job::Job;
use crate::Discipline;
use std::collections::VecDeque;

/// Residual work at or below this is treated as complete. Predicted
/// departure times are exact by construction (the departure handler
/// zeroes the target job), so this only mops up floating-point dust
/// on processor-sharing ties.
pub(crate) const COMPLETION_EPS_MS: f64 = 1e-9;

/// One station's server and waiting room.
#[derive(Debug)]
pub(crate) struct Station {
    discipline: Discipline,
    /// Effective service rate in work-ms per ms; 0 freezes the queue
    /// (outage / preempted station): jobs wait but nothing drains.
    rate: f64,
    /// Max jobs resident (waiting + in service); arrivals beyond this
    /// are dropped by the caller.
    queue_cap: usize,
    /// Schedule version; a popped departure event must carry it.
    version: u64,
    /// Simulation time state was last advanced to.
    last_update_ms: f64,
    /// Resident jobs in arrival order. FIFO serves the front;
    /// processor sharing serves all of them at `rate / len`.
    jobs: VecDeque<usize>,
}

impl Station {
    pub(crate) fn new(discipline: Discipline, queue_cap: usize) -> Self {
        Station {
            discipline,
            rate: 0.0,
            queue_cap,
            version: 0,
            last_update_ms: 0.0,
            jobs: VecDeque::new(),
        }
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn backlog(&self) -> usize {
        self.jobs.len()
    }

    /// Drains work owed for the interval since the last advance.
    pub(crate) fn advance(&mut self, now_ms: f64, arena: &mut [Job]) {
        let dt = now_ms - self.last_update_ms;
        debug_assert!(
            dt >= 0.0,
            "time ran backwards: {now_ms} < {}",
            self.last_update_ms
        );
        self.last_update_ms = now_ms;
        if dt <= 0.0 || self.rate <= 0.0 || self.jobs.is_empty() {
            return;
        }
        match self.discipline {
            Discipline::Fifo => {
                let head = self.jobs[0];
                let j = &mut arena[head];
                j.remaining_ms = (j.remaining_ms - dt * self.rate).max(0.0);
            }
            Discipline::ProcessorSharing => {
                let share = self.rate / self.jobs.len() as f64;
                for &idx in &self.jobs {
                    let j = &mut arena[idx];
                    j.remaining_ms = (j.remaining_ms - dt * share).max(0.0);
                }
            }
        }
    }

    /// Updates the effective rate at `now_ms`, draining the elapsed
    /// interval at the *old* rate first. Invalidates the schedule.
    pub(crate) fn set_rate(&mut self, now_ms: f64, rate: f64, arena: &mut [Job]) {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "station rate must be finite and >= 0"
        );
        self.advance(now_ms, arena);
        self.rate = rate;
        self.version += 1;
    }

    /// Admits `job` at `now_ms` unless the waiting room is full.
    /// Returns false (caller drops the job) when at capacity.
    pub(crate) fn try_enqueue(&mut self, now_ms: f64, job: usize, arena: &mut [Job]) -> bool {
        if self.jobs.len() >= self.queue_cap {
            return false;
        }
        self.advance(now_ms, arena);
        self.jobs.push_back(job);
        self.version += 1;
        true
    }

    /// The resident that joined first, if any.
    pub(crate) fn oldest(&self) -> Option<usize> {
        self.jobs.front().copied()
    }

    /// Evicts the oldest resident at `now_ms` (a deadline reap): drains
    /// the elapsed interval first, then unlinks the job and invalidates
    /// the schedule. Returns the job's arena index.
    pub(crate) fn reap_oldest(&mut self, now_ms: f64, arena: &mut [Job]) -> usize {
        self.advance(now_ms, arena);
        let Some(job) = self.jobs.pop_front() else {
            panic!("a deadline reap needs a resident job");
        };
        self.version += 1;
        job
    }

    /// Removes every resident job whose work is exhausted, appending
    /// their arena indices to `done` in arrival order.
    pub(crate) fn take_completed(&mut self, arena: &[Job], done: &mut Vec<usize>) {
        let before = self.jobs.len();
        self.jobs.retain(|&idx| {
            if arena[idx].remaining_ms <= COMPLETION_EPS_MS {
                done.push(idx);
                false
            } else {
                true
            }
        });
        if self.jobs.len() != before {
            self.version += 1;
        }
    }

    /// Predicts the next completion as `(time_ms, job)` under the
    /// current schedule, or `None` when idle or frozen (rate 0).
    /// Processor-sharing ties resolve to the earliest-arrived job via
    /// the (remaining-bits, queue-order) scan — total, `partial_cmp`-
    /// free, exact (remaining work is always non-negative).
    pub(crate) fn next_completion(&self, arena: &[Job]) -> Option<(f64, usize)> {
        if self.rate <= 0.0 || self.jobs.is_empty() {
            return None;
        }
        match self.discipline {
            Discipline::Fifo => {
                let head = self.jobs[0];
                Some((
                    self.last_update_ms + arena[head].remaining_ms / self.rate,
                    head,
                ))
            }
            Discipline::ProcessorSharing => {
                let mut best: Option<(u64, usize)> = None;
                for &idx in &self.jobs {
                    let bits = arena[idx].remaining_ms.to_bits();
                    if best.is_none_or(|(b, _)| bits < b) {
                        best = Some((bits, idx));
                    }
                }
                let (bits, job) = best?;
                let horizon = f64::from_bits(bits) * self.jobs.len() as f64 / self.rate;
                Some((self.last_update_ms + horizon, job))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(services: &[f64]) -> Vec<Job> {
        services
            .iter()
            .enumerate()
            .map(|(i, &s)| Job::new(i, 1, 0, 0.0, s))
            .collect()
    }

    #[test]
    fn fifo_serves_head_of_line_only() {
        let mut jobs = arena(&[10.0, 10.0]);
        let mut st = Station::new(Discipline::Fifo, usize::MAX);
        st.set_rate(0.0, 1.0, &mut jobs);
        assert!(st.try_enqueue(0.0, 0, &mut jobs));
        assert!(st.try_enqueue(0.0, 1, &mut jobs));
        let (t, job) = st.next_completion(&jobs).unwrap();
        assert_eq!((t, job), (10.0, 0));
        st.advance(10.0, &mut jobs);
        assert_eq!(jobs[0].remaining_ms, 0.0);
        assert_eq!(jobs[1].remaining_ms, 10.0, "FIFO must not drain the waiter");
    }

    #[test]
    fn processor_sharing_splits_the_rate() {
        let mut jobs = arena(&[10.0, 10.0]);
        let mut st = Station::new(Discipline::ProcessorSharing, usize::MAX);
        st.set_rate(0.0, 1.0, &mut jobs);
        st.try_enqueue(0.0, 0, &mut jobs);
        st.try_enqueue(0.0, 1, &mut jobs);
        // Two jobs share rate 1.0: each finishes its 10 work-ms at t=20.
        let (t, job) = st.next_completion(&jobs).unwrap();
        assert_eq!((t, job), (20.0, 0), "tie resolves to earliest arrival");
        st.advance(20.0, &mut jobs);
        let mut done = Vec::new();
        st.take_completed(&jobs, &mut done);
        assert_eq!(done, vec![0, 1]);
        assert_eq!(st.backlog(), 0);
    }

    #[test]
    fn zero_rate_freezes_the_queue() {
        let mut jobs = arena(&[5.0]);
        let mut st = Station::new(Discipline::Fifo, usize::MAX);
        st.try_enqueue(0.0, 0, &mut jobs);
        assert!(st.next_completion(&jobs).is_none());
        st.advance(100.0, &mut jobs);
        assert_eq!(jobs[0].remaining_ms, 5.0);
    }

    #[test]
    fn capacity_limit_rejects_arrivals() {
        let mut jobs = arena(&[1.0, 1.0, 1.0]);
        let mut st = Station::new(Discipline::Fifo, 2);
        st.set_rate(0.0, 1.0, &mut jobs);
        assert!(st.try_enqueue(0.0, 0, &mut jobs));
        assert!(st.try_enqueue(0.0, 1, &mut jobs));
        assert!(
            !st.try_enqueue(0.0, 2, &mut jobs),
            "third job exceeds cap 2"
        );
    }

    #[test]
    fn a_reap_drains_first_then_passes_service_on() {
        let mut jobs = arena(&[10.0, 10.0, 10.0]);
        let mut st = Station::new(Discipline::Fifo, usize::MAX);
        st.set_rate(0.0, 1.0, &mut jobs);
        for j in 0..3 {
            st.try_enqueue(0.0, j, &mut jobs);
        }
        assert_eq!(st.oldest(), Some(0));
        let v = st.version();
        assert_eq!(st.reap_oldest(5.0, &mut jobs), 0, "the head is reaped");
        assert!(st.version() > v, "a reap invalidates the schedule");
        assert_eq!(st.backlog(), 2);
        // The interval was drained at the head before unlinking.
        assert_eq!(jobs[0].remaining_ms, 5.0);
        assert_eq!(jobs[1].remaining_ms, 10.0, "the waiter got no service");
        assert_eq!(st.oldest(), Some(1));
        let (t, next) = st.next_completion(&jobs).unwrap();
        assert_eq!((t, next), (15.0, 1), "service passes to the next waiter");
    }

    #[test]
    fn version_bumps_on_every_schedule_change() {
        let mut jobs = arena(&[1.0]);
        let mut st = Station::new(Discipline::Fifo, usize::MAX);
        let v0 = st.version();
        st.set_rate(0.0, 1.0, &mut jobs);
        let v1 = st.version();
        assert!(v1 > v0);
        st.try_enqueue(0.0, 0, &mut jobs);
        assert!(st.version() > v1);
    }
}
