//! Job records in recycled slots.

/// One request's journey through a station queue. Jobs live in the
/// recycled slots of a [`JobSlab`] owned by [`QueueSim`](crate::QueueSim);
/// events reference them by slot index so the heap stays `Copy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    /// Index of the request within its slot (attribution only).
    pub request: usize,
    /// Slot the request was issued in (1-based). Retries keep the
    /// original slot — it is a coordinate of the retry hash stream.
    pub slot: usize,
    /// Station the request was assigned to.
    pub station: usize,
    /// Absolute arrival time in ms.
    pub arrival_ms: f64,
    /// Total service requirement in work-ms at unit rate.
    pub service_ms: f64,
    /// Work still owed, drained as simulation time passes.
    pub remaining_ms: f64,
    /// Absolute deadline in ms; `f64::INFINITY` when the job has none.
    /// A job still resident at its deadline departs early as a miss.
    pub deadline_ms: f64,
    /// Sequence number of the deadline event, drawn as the job joins
    /// its station; it orders the deadline against events at the same
    /// tick every time the station is re-planned.
    pub deadline_seq: u64,
    /// 0 for the original submission, `k` for its `k`-th retry.
    pub attempt: u32,
    /// High-priority jobs shed last under admission control.
    pub high_priority: bool,
}

impl Job {
    /// A fresh, un-served job with no deadline, attempt 0, low
    /// priority.
    pub fn new(
        request: usize,
        slot: usize,
        station: usize,
        arrival_ms: f64,
        service_ms: f64,
    ) -> Self {
        Job {
            request,
            slot,
            station,
            arrival_ms,
            service_ms,
            remaining_ms: service_ms,
            deadline_ms: f64::INFINITY,
            deadline_seq: 0,
            attempt: 0,
            high_priority: false,
        }
    }

    /// True when the job carries a (finite) deadline.
    pub fn has_deadline(&self) -> bool {
        self.deadline_ms.is_finite()
    }
}

/// Job storage whose size tracks the live jobs (resident plus pending
/// arrivals and retries), not every job ever submitted: released slots
/// go on a LIFO free list and are refilled before the slab grows. No
/// event outlives its job, so a refilled slot needs no guard against
/// events meant for its last occupant.
#[derive(Debug, Default)]
pub(crate) struct JobSlab {
    jobs: Vec<Job>,
    free: Vec<usize>,
}

impl JobSlab {
    /// Stores `job` in the most recently freed slot, or a new one, and
    /// returns the slot index.
    pub(crate) fn insert(&mut self, job: Job) -> usize {
        if let Some(index) = self.free.pop() {
            self.jobs[index] = job;
            return index;
        }
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Frees slot `index` for reuse.
    pub(crate) fn release(&mut self, index: usize) {
        self.free.push(index);
    }
}

/// Every slot's record, live or free, indexed by slot — the arena view
/// stations work on. Its length is the high-water mark of live jobs.
impl std::ops::Deref for JobSlab {
    type Target = [Job];

    fn deref(&self) -> &[Job] {
        &self.jobs
    }
}

impl std::ops::DerefMut for JobSlab {
    fn deref_mut(&mut self) -> &mut [Job] {
        &mut self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(request: usize) -> Job {
        Job::new(request, 1, 0, 0.0, 1.0)
    }

    #[test]
    fn released_slots_are_reused_last_in_first_out() {
        let mut slab = JobSlab::default();
        let a = slab.insert(job(0));
        let b = slab.insert(job(1));
        slab.release(a);
        slab.release(b);
        assert_eq!(slab.insert(job(2)), b);
        assert_eq!(slab.insert(job(3)), a);
        assert_eq!(slab.len(), 2, "no growth while freed slots remain");
        assert_eq!(slab[a].request, 3);
    }
}
