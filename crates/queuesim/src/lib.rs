//! `lexcache-queue` — a deterministic, event-driven, open-loop traffic
//! core beneath the slot-synchronous caching simulation.
//!
//! The paper scores policies with a *linear delay proxy*: per slot,
//! demand × believed unit delay, no queueing, no overload. Real MEC
//! traffic is an open-loop arrival process — requests arrive inside
//! the slot, occupy server capacity for a service time, queue behind
//! each other, and depart whenever they finish (possibly slots later).
//! This crate supplies that missing layer:
//!
//! * an event queue of job arrival, job departure, deadline timeout
//!   and slot boundary events under a total `(tick, seq)` order — time
//!   is keyed by the `f64` bit pattern (exact for the non-negative
//!   finite domain), ties resolve by insertion sequence, and not a
//!   single comparison goes through `partial_cmp` (lexlint LX01). It
//!   holds only live events: first-attempt arrivals in a time-ordered
//!   FIFO, one pending event per station in a min-tree over stations,
//!   and retries and slot boundaries in a small heap;
//! * per-station servers ([FIFO] or egalitarian [processor sharing])
//!   whose effective rate is set each slot from the episode's fault
//!   state, so brown-outs, outages and drain notices shrink live
//!   capacity mid-episode;
//! * deadlines that live in their job. A station keeps its residents
//!   in join order and every deadline is the join time plus one fixed
//!   budget, so only the oldest resident can expire next: a station's
//!   pending event is the earlier of its next departure and that
//!   resident's deadline, and a timeout reaps the station's front;
//! * jobs in recycled slots: a slot is freed the moment its job leaves
//!   the system, so memory tracks the backlog rather than the horizon,
//!   and no event outlives its job;
//! * per-request *sojourn times* (departure − arrival) recorded into
//!   the `lexcache-obs` log-scale histograms and summarized per slot
//!   as nearest-rank p50/p90/p99.
//!
//! Caching decisions still fire on slot boundaries through the
//! existing `Policy` trait — the queue core only *measures*. Its
//! exact-equivalence mode ([`QueueConfig::equivalence`]: zero service
//! time, infinite waiting rooms) reproduces the slot-synchronous
//! delay path bit for bit, which the episode golden tests pin down.
//!
//! [FIFO]: Discipline::Fifo
//! [processor sharing]: Discipline::ProcessorSharing

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod job;
mod resil;
mod sim;
mod station;
mod stats;

pub use resil::{ResilConfig, DEFAULT_RETRY_SALT};
pub use sim::QueueSim;
pub use stats::{nearest_rank_ms, SlotQueueStats};

/// Queueing discipline of every station server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First-in-first-out: one job in service, the rest wait in line.
    Fifo,
    /// Egalitarian processor sharing: all resident jobs drain
    /// simultaneously at `rate / n` (the classic fluid model of a
    /// time-sliced server).
    ProcessorSharing,
}

/// Default salt mixed into the episode seed for the arrival-offset
/// stream, so the queue layer never touches the episode's own RNG
/// (which is what makes the equivalence golden test meaningful).
pub const DEFAULT_ARRIVAL_SALT: u64 = 0xA2C2_8E4B_F3D1_9E37;

/// Configuration of the open-loop queue layer.
///
/// `offered_load` is the target aggregate utilization ρ: each slot the
/// episode scales per-request service requirements so that total
/// offered work equals ρ × (nominal station count × slot length).
/// Per-*station* load then depends entirely on where the policy routes
/// requests — policies that concentrate demand buy themselves heavier
/// tails — and faults push effective load above ρ by shrinking live
/// capacity while offered work stays put. ρ = 0 is the exact-
/// equivalence mode: zero service time, every sojourn is 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Server discipline at every station.
    pub discipline: Discipline,
    /// Slot length in simulated ms (the sojourn unit).
    pub slot_ms: f64,
    /// Target aggregate utilization ρ (0 = equivalence mode).
    pub offered_load: f64,
    /// Max jobs resident per station (waiting + in service);
    /// `usize::MAX` means an infinite waiting room.
    pub queue_capacity: usize,
    /// Salt XOR-mixed into the episode seed for arrival offsets.
    pub arrival_seed_salt: u64,
    /// Resilience layer (deadlines, retries, breakers, admission).
    /// Defaults to [`ResilConfig::disabled`], which constructs no
    /// runtime at all.
    pub resil: ResilConfig,
}

impl QueueConfig {
    /// An open-loop FIFO queue at offered load `rho` with infinite
    /// waiting rooms and 100 ms slots.
    pub fn open_loop(rho: f64) -> Self {
        assert!(
            rho.is_finite() && rho >= 0.0,
            "offered load must be finite and >= 0, got {rho}"
        );
        QueueConfig {
            discipline: Discipline::Fifo,
            slot_ms: 100.0,
            offered_load: rho,
            queue_capacity: usize::MAX,
            arrival_seed_salt: DEFAULT_ARRIVAL_SALT,
            resil: ResilConfig::disabled(),
        }
    }

    /// The exact-equivalence mode: zero service time and infinite
    /// capacity, which must reproduce the slot-synchronous delay path
    /// bit for bit (all sojourns 0, nothing dropped, no backlog).
    pub fn equivalence() -> Self {
        Self::open_loop(0.0)
    }

    /// True when this config is in the zero-service equivalence mode.
    pub fn is_equivalence(&self) -> bool {
        // Exact-zero bit check (`0.0f64.to_bits() == 0`): equivalence
        // mode must be bit-identical to no queue at all, so no
        // tolerance applies.
        self.offered_load.to_bits() == 0
    }

    /// Overrides the queueing discipline.
    pub fn with_discipline(mut self, discipline: Discipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Overrides the slot length (must be positive and finite).
    pub fn with_slot_ms(mut self, slot_ms: f64) -> Self {
        assert!(
            slot_ms.is_finite() && slot_ms > 0.0,
            "slot length must be positive and finite, got {slot_ms}"
        );
        self.slot_ms = slot_ms;
        self
    }

    /// Caps each station's waiting room (must be at least 1); arrivals
    /// beyond the cap are dropped and counted.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        self.queue_capacity = cap;
        self
    }

    /// Overrides the arrival-offset seed salt.
    pub fn with_arrival_salt(mut self, salt: u64) -> Self {
        self.arrival_seed_salt = salt;
        self
    }

    /// Installs a resilience layer (deadlines, deterministic retries,
    /// circuit breakers, admission control). Passing
    /// [`ResilConfig::disabled`] is exactly equivalent to never calling
    /// this — the simulator constructs no resilience runtime.
    pub fn with_resilience(mut self, resil: ResilConfig) -> Self {
        self.resil = resil;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_mode_is_zero_load_infinite_capacity() {
        let cfg = QueueConfig::equivalence();
        assert!(cfg.is_equivalence());
        assert_eq!(cfg.offered_load, 0.0);
        assert_eq!(cfg.queue_capacity, usize::MAX);
    }

    #[test]
    fn builders_compose() {
        let cfg = QueueConfig::open_loop(0.95)
            .with_discipline(Discipline::ProcessorSharing)
            .with_slot_ms(50.0)
            .with_queue_capacity(16)
            .with_arrival_salt(7)
            .with_resilience(ResilConfig::slo(250.0));
        assert!(!cfg.is_equivalence());
        assert_eq!(cfg.discipline, Discipline::ProcessorSharing);
        assert_eq!(cfg.slot_ms, 50.0);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.arrival_seed_salt, 7);
        assert!(cfg.resil.is_enabled());
        assert_eq!(cfg.resil.deadline_ms, 250.0);
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn negative_load_is_rejected() {
        QueueConfig::open_loop(-0.1);
    }
}
