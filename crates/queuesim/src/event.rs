//! Discrete-event queue with a total `(tick, seq)` order that holds only
//! live events.
//!
//! The simulator's only source of ordering is this queue, so its order
//! must be *total* and *deterministic*: two events never compare equal
//! unless they are the same event, and no comparison goes through
//! `partial_cmp` (lexlint LX01). Event times are non-negative finite
//! `f64` milliseconds; for that domain the IEEE-754 bit pattern,
//! reinterpreted as `u64`, orders exactly like the number itself, so
//! the key is the pair (time bits, insertion sequence) compared with
//! plain integer `Ord`. Ties in time resolve in insertion order, which
//! is itself deterministic because the whole simulation is
//! single-threaded per episode.
//!
//! Events live in three streams, each already in key order, and a pop
//! takes the least head among them:
//!
//! * first-attempt arrivals go in a FIFO. A slot's arrivals come
//!   sorted, so appending keeps the FIFO sorted; an arrival earlier
//!   than its tail goes to the heap;
//! * each station holds at most one pending event, in a min-tree over
//!   stations: the earlier of its next departure and its oldest
//!   resident's deadline. A re-plan overwrites it and a station with
//!   neither clears it, so no superseded event is ever stored or
//!   popped;
//! * a small binary heap takes retries (backoff puts them out of
//!   order), slot boundaries and the out-of-order arrivals.
//!
//! One sequence counter numbers every event. A deadline is numbered
//! when its job joins its station ([`EventQueue::draw_seq`]) and keeps
//! that number through every re-plan, so the pop order is exactly that
//! of a single `(tick, seq)` heap of every departure and deadline that
//! skips those a later plan of their station superseded.

use std::collections::{BinaryHeap, VecDeque};

/// One scheduled simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueEvent {
    /// A job reaches its station's queue. Its slot stays occupied
    /// until this event pops.
    JobArrival {
        /// Slot index of the arriving job.
        job: usize,
    },
    /// The predicted next completion at a station. Carries the station
    /// schedule `version` at scheduling time. Every change that
    /// re-plans the schedule (an arrival, a capacity change, a job
    /// leaving) bumps the version and then re-plans the station's
    /// pending event, so a popped departure always carries the current
    /// version; that also proves the job's slot has not been recycled.
    JobDeparture {
        /// Station index.
        station: usize,
        /// Slot index of the job predicted to finish.
        job: usize,
        /// Station schedule version captured when this was scheduled.
        version: u64,
    },
    /// The deadline of a station's oldest resident expires: that job
    /// departs early as a deadline miss (and may retry). Residents join
    /// in time order and every deadline is the join time plus one fixed
    /// budget, so no other resident can expire first. Only planned when
    /// the resilience layer's deadlines are enabled, so a
    /// resilience-off run's event sequence is untouched.
    JobTimeout {
        /// Station index.
        station: usize,
    },
    /// End-of-slot marker; bounds one [`run_slot`] drain.
    ///
    /// [`run_slot`]: crate::QueueSim::run_slot
    SlotBoundary {
        /// 1-based index of the slot ending at this tick.
        slot: usize,
    },
}

/// Converts a non-negative finite time in ms to its ordering tick.
///
/// For non-negative finite doubles the unsigned bit order coincides
/// with numeric order, so this is an exact, total, `partial_cmp`-free
/// ordering key (no quantization, no NaN hazard).
fn time_to_tick(time_ms: f64) -> u64 {
    assert!(
        time_ms.is_finite() && time_ms >= 0.0,
        "event times must be non-negative finite ms, got {time_ms}"
    );
    time_ms.to_bits()
}

/// The total order of events: time tick first, then insertion
/// sequence. Field order makes the derived `Ord` lexicographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    tick: u64,
    seq: u64,
}

impl Key {
    /// Greater than every real key (a real tick is the bit pattern of
    /// a finite time, below `u64::MAX`): marks an empty stream.
    const NONE: Key = Key {
        tick: u64::MAX,
        seq: u64::MAX,
    };

    fn time_ms(self) -> f64 {
        f64::from_bits(self.tick)
    }
}

/// Heap entry. Ordering is *reversed* on the key so the std max-heap
/// pops the earliest event first; the payload never participates in
/// comparisons.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: Key,
    event: QueueEvent,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// Each station's pending event, with a tournament tree over the
/// stations that names the one due first.
#[derive(Debug)]
struct StationTree {
    /// Key of each station's pending event ([`Key::NONE`] when it has
    /// none), padded with empty leaves to `leaves` entries.
    keys: Vec<Key>,
    events: Vec<Option<QueueEvent>>,
    /// Power of two ≥ the station count.
    leaves: usize,
    /// `winner[k]` for node `k` in `1..leaves` is the station with the
    /// least key under `k` (ties, only between empty leaves, go left);
    /// `winner[leaves + i] = i` are the leaves.
    winner: Vec<usize>,
}

impl StationTree {
    fn new(n_stations: usize) -> Self {
        let leaves = n_stations.max(1).next_power_of_two();
        let mut winner = vec![0; 2 * leaves];
        for (i, w) in winner[leaves..].iter_mut().enumerate() {
            *w = i;
        }
        for k in (1..leaves).rev() {
            winner[k] = winner[2 * k];
        }
        StationTree {
            keys: vec![Key::NONE; leaves],
            events: vec![None; leaves],
            leaves,
            winner,
        }
    }

    /// The station due first and its key ([`Key::NONE`] if none).
    fn min(&self) -> (usize, Key) {
        let station = self.winner[1];
        (station, self.keys[station])
    }

    /// Replaces `station`'s pending event (`None` clears it).
    fn set(&mut self, station: usize, next: Option<(Key, QueueEvent)>) {
        self.keys[station] = next.map_or(Key::NONE, |(key, _)| key);
        self.events[station] = next.map(|(_, event)| event);
        let mut k = (self.leaves + station) / 2;
        while k >= 1 {
            let (l, r) = (self.winner[2 * k], self.winner[2 * k + 1]);
            self.winner[k] = if self.keys[l] <= self.keys[r] { l } else { r };
            k /= 2;
        }
    }
}

/// Min-ordered event queue over [`QueueEvent`]s that stores no
/// superseded station event.
#[derive(Debug)]
pub(crate) struct EventQueue {
    arrivals: VecDeque<(Key, usize)>,
    stations: StationTree,
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue for `n_stations` stations.
    pub(crate) fn new(n_stations: usize) -> Self {
        EventQueue {
            arrivals: VecDeque::new(),
            stations: StationTree::new(n_stations),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Draws the next insertion sequence number. The simulator numbers
    /// a deadline with it as its job joins a station, and
    /// [`EventQueue::plan`] orders the deadline by that number.
    pub(crate) fn draw_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    fn next_key(&mut self, time_ms: f64) -> Key {
        Key {
            tick: time_to_tick(time_ms),
            seq: self.draw_seq(),
        }
    }

    /// Schedules `event` at `time_ms` (non-negative finite) in the
    /// general heap: for retries, slot boundaries and anything else
    /// without a stream of its own.
    pub(crate) fn push(&mut self, time_ms: f64, event: QueueEvent) {
        let key = self.next_key(time_ms);
        self.heap.push(Entry { key, event });
    }

    /// Schedules a first-attempt arrival of the job in slot `job` at
    /// `time_ms`.
    pub(crate) fn push_arrival(&mut self, time_ms: f64, job: usize) {
        let key = self.next_key(time_ms);
        if self.arrivals.back().is_some_and(|&(tail, _)| key < tail) {
            let event = QueueEvent::JobArrival { job };
            self.heap.push(Entry { key, event });
        } else {
            self.arrivals.push_back((key, job));
        }
    }

    /// Replaces `station`'s pending event with the earlier of its next
    /// `departure` — `(time_ms, job, version)`, numbered now — and its
    /// oldest resident's `deadline` — `(time_ms, seq)`, numbered by
    /// [`EventQueue::draw_seq`] when that job joined. With neither, the
    /// station has no pending event.
    pub(crate) fn plan(
        &mut self,
        station: usize,
        departure: Option<(f64, usize, u64)>,
        deadline: Option<(f64, u64)>,
    ) {
        let departure = departure.map(|(time_ms, job, version)| {
            let event = QueueEvent::JobDeparture {
                station,
                job,
                version,
            };
            (self.next_key(time_ms), event)
        });
        let deadline = deadline.map(|(time_ms, seq)| {
            let tick = time_to_tick(time_ms);
            (Key { tick, seq }, QueueEvent::JobTimeout { station })
        });
        let next = departure.into_iter().chain(deadline).min_by_key(|e| e.0);
        self.stations.set(station, next);
    }

    /// Pops the earliest event, ties broken by insertion order.
    pub(crate) fn pop(&mut self) -> Option<(f64, QueueEvent)> {
        let arrival = self.arrivals.front().map_or(Key::NONE, |e| e.0);
        let (station, planned) = self.stations.min();
        let general = self.heap.peek().map_or(Key::NONE, |e| e.key);
        let key = arrival.min(planned).min(general);
        // Keys are unique (one `seq` per event), so the least one names
        // its stream.
        let event = if key == Key::NONE {
            return None;
        } else if key == arrival {
            let (_, job) = self.arrivals.pop_front()?;
            QueueEvent::JobArrival { job }
        } else if key == planned {
            let event = self.stations.events[station]?;
            self.stations.set(station, None);
            event
        } else {
            self.heap.pop()?.event
        };
        Some((key.time_ms(), event))
    }

    /// Number of pending events.
    #[cfg(test)]
    fn len(&self) -> usize {
        let planned = self.stations.keys.iter().filter(|&&k| k != Key::NONE);
        self.arrivals.len() + planned.count() + self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn drain(q: &mut EventQueue) -> Vec<(f64, QueueEvent)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn ticks_order_like_the_times_they_encode() {
        let times = [0.0, 1e-12, 0.5, 1.0, 1.5, 99.999, 100.0, 1e9];
        for w in times.windows(2) {
            assert!(time_to_tick(w[0]) < time_to_tick(w[1]));
        }
    }

    #[test]
    fn pops_in_time_order_with_insertion_tiebreak() {
        let mut q = EventQueue::new(1);
        q.push_arrival(2.0, 0);
        q.push_arrival(1.0, 1);
        q.push_arrival(1.0, 2);
        q.push(0.5, QueueEvent::SlotBoundary { slot: 1 });
        assert_eq!(
            drain(&mut q),
            vec![
                (0.5, QueueEvent::SlotBoundary { slot: 1 }),
                (1.0, QueueEvent::JobArrival { job: 1 }),
                (1.0, QueueEvent::JobArrival { job: 2 }),
                (2.0, QueueEvent::JobArrival { job: 0 }),
            ]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_station_event_is_replaced_or_cleared_never_stacked() {
        let mut q = EventQueue::new(3);
        let deadline = q.draw_seq();
        // The second plan of station 1 supersedes the first.
        q.plan(1, Some((5.0, 7, 1)), None);
        q.plan(1, Some((3.0, 8, 2)), None);
        // The deadline was numbered first, so it wins the tie at 4.0,
        // and popping it consumes the station's plan.
        q.plan(2, Some((4.0, 9, 1)), Some((4.0, deadline)));
        q.plan(0, Some((1.0, 6, 1)), None);
        q.plan(0, None, None);
        assert_eq!(q.len(), 2);
        assert_eq!(
            drain(&mut q),
            vec![
                (
                    3.0,
                    QueueEvent::JobDeparture {
                        station: 1,
                        job: 8,
                        version: 2
                    }
                ),
                (4.0, QueueEvent::JobTimeout { station: 2 }),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "non-negative finite")]
    fn rejects_nan_times() {
        time_to_tick(f64::NAN);
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new(2);
        assert_eq!(q.len(), 0);
        q.push(0.0, QueueEvent::SlotBoundary { slot: 1 });
        q.push_arrival(1.0, 0);
        let deadline = q.draw_seq();
        q.plan(1, Some((2.0, 0, 1)), Some((3.0, deadline)));
        assert_eq!(q.len(), 3, "one pending event per station");
        q.pop();
        assert_eq!(q.len(), 2);
    }

    /// The single `(tick, seq)` heap the streams replace: every event
    /// goes in, and a pop skips each station event that a later plan of
    /// its station superseded.
    #[derive(Default)]
    struct Reference {
        /// Key, the station stamp of a station event (0 otherwise) and
        /// the event's index in `events`.
        heap: BinaryHeap<Reverse<(Key, u64, usize)>>,
        events: Vec<QueueEvent>,
        seq: u64,
        /// Per station, the stamp of its newest plan.
        latest: Vec<u64>,
        stamps: u64,
    }

    impl Reference {
        fn draw_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }

        fn insert(&mut self, key: Key, stamp: u64, event: QueueEvent) {
            self.heap.push(Reverse((key, stamp, self.events.len())));
            self.events.push(event);
        }

        fn push(&mut self, time_ms: f64, event: QueueEvent) {
            let tick = time_to_tick(time_ms);
            let seq = self.draw_seq();
            self.insert(Key { tick, seq }, 0, event);
        }

        /// A new stamp for `station`, superseding its older events.
        fn stamp(&mut self, station: usize) -> u64 {
            self.stamps += 1;
            self.latest[station] = self.stamps;
            self.stamps
        }

        /// Plans `station` like [`EventQueue::plan`]; returns the stamp,
        /// which the departure carries as its version.
        fn plan(
            &mut self,
            station: usize,
            departure: Option<(f64, usize)>,
            deadline: Option<(f64, u64)>,
        ) -> u64 {
            let stamp = self.stamp(station);
            if let Some((t, job)) = departure {
                let event = QueueEvent::JobDeparture {
                    station,
                    job,
                    version: stamp,
                };
                let tick = time_to_tick(t);
                let seq = self.draw_seq();
                self.insert(Key { tick, seq }, stamp, event);
            }
            if let Some((t, seq)) = deadline {
                let key = Key {
                    tick: time_to_tick(t),
                    seq,
                };
                self.insert(key, stamp, QueueEvent::JobTimeout { station });
            }
            stamp
        }

        fn pop(&mut self) -> Option<(f64, QueueEvent)> {
            while let Some(Reverse((key, stamp, i))) = self.heap.pop() {
                let event = self.events[i];
                if let QueueEvent::JobDeparture { station, .. }
                | QueueEvent::JobTimeout { station } = event
                {
                    if stamp != self.latest[station] {
                        continue;
                    }
                    self.stamp(station); // popped: nothing pending
                }
                return Some((key.time_ms(), event));
            }
            None
        }
    }

    /// One step of the differential test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Arrival(f64),
        Retry(f64),
        Boundary(f64),
        /// Numbers a deadline at the given time for the station.
        Deadline(usize, f64),
        /// Plans the station with an optional departure time and an
        /// optional index into its numbered deadlines.
        Plan(usize, Option<f64>, Option<usize>),
        Pop,
    }

    #[test]
    fn streams_pop_like_one_heap_that_skips_superseded_station_events() {
        const STATIONS: usize = 5;
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(1);
            lexcache_resilience::splitmix64(state)
        };
        for case in 0..400 {
            // A coarse time grid makes equal ticks common; a rising
            // floor keeps most arrivals in order, and the rest land
            // below their FIFO's tail.
            let spread = 1 + next() % 8;
            let mut floor = 0u64;
            let mut ops = Vec::new();
            let mut q = EventQueue::new(STATIONS);
            let mut reference = Reference {
                latest: vec![0; STATIONS],
                ..Reference::default()
            };
            // Per station, the deadlines numbered so far; a plan may
            // carry any of them, again and again.
            let mut deadlines = vec![Vec::new(); STATIONS];
            for _ in 0..(next() % 120) {
                if next() % 4 == 0 {
                    floor += next() % 3;
                }
                let out_of_order = next() % 6 == 0;
                let base = if out_of_order { 0 } else { floor };
                let time = (base + next() % spread) as f64 * 0.5;
                let station = (next() % STATIONS as u64) as usize;
                let op = match next() % 10 {
                    0 | 1 => Op::Arrival(time),
                    2 => Op::Retry(time),
                    3 => Op::Boundary(time),
                    4 => Op::Deadline(station, time),
                    5..=7 => {
                        let departure = (next() % 4 != 0).then_some(time);
                        let n = deadlines[station].len() as u64;
                        let deadline = (n > 0 && next() % 3 != 0).then(|| (next() % n) as usize);
                        Op::Plan(station, departure, deadline)
                    }
                    _ => Op::Pop,
                };
                ops.push(op);
                let (got, want) = match op {
                    Op::Arrival(t) => {
                        let job = ops.len();
                        q.push_arrival(t, job);
                        reference.push(t, QueueEvent::JobArrival { job });
                        continue;
                    }
                    Op::Retry(t) => {
                        let event = QueueEvent::JobArrival { job: ops.len() };
                        q.push(t, event);
                        reference.push(t, event);
                        continue;
                    }
                    Op::Boundary(t) => {
                        let event = QueueEvent::SlotBoundary { slot: ops.len() };
                        q.push(t, event);
                        reference.push(t, event);
                        continue;
                    }
                    Op::Deadline(station, t) => {
                        let seq = q.draw_seq();
                        assert_eq!(seq, reference.draw_seq(), "case {case}: one counter");
                        deadlines[station].push((t, seq));
                        continue;
                    }
                    Op::Plan(station, departure, deadline) => {
                        let job = ops.len();
                        let deadline = deadline.map(|i| deadlines[station][i]);
                        let version =
                            reference.plan(station, departure.map(|t| (t, job)), deadline);
                        q.plan(station, departure.map(|t| (t, job, version)), deadline);
                        continue;
                    }
                    Op::Pop => (q.pop(), reference.pop()),
                };
                assert_eq!(got, want, "case {case}, step {}: {ops:?}", ops.len());
            }
            let (got, want) = (drain(&mut q), std::iter::from_fn(|| reference.pop()));
            let want: Vec<_> = want.collect();
            assert_eq!(got, want, "case {case}, final drain: {ops:?}");
        }
    }
}
