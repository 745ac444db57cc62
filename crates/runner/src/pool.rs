//! The scoped thread pool: a closeable chunked work queue behind one
//! `Mutex`/`Condvar`, drained by plain `std::thread::scope` workers.
//!
//! The pool is deliberately minimal: it executes a *fixed* set of
//! index-addressed jobs and returns their results in index order. All
//! determinism-sensitive policy (seed derivation, reduction order)
//! lives in the caller; the pool only promises that every index runs
//! exactly once and that the output `Vec` is canonical.

use crate::clock::Stopwatch;
use crate::outcome::{panic_message, CellEvent, CellOutcome, RunPolicy};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Worker count of the machine (≥ 1): `std::thread::available_parallelism`
/// with a serial fallback when the platform cannot report it.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Range<usize>>,
    closed: bool,
}

/// A multi-producer multi-consumer queue of index ranges ("chunks")
/// with close semantics: [`JobQueue::pop`] blocks on the condvar while
/// the queue is open and empty, and returns `None` once it is closed
/// and drained. Poisoning is recovered (the queue state is a plain
/// `VecDeque`, always valid), matching the workspace-wide
/// `lock().unwrap_or_else(PoisonError::into_inner)` idiom.
#[derive(Debug, Default)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl JobQueue {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues one chunk of job indices. Empty ranges are ignored.
    pub fn push(&self, jobs: Range<usize>) {
        if jobs.is_empty() {
            return;
        }
        self.lock().jobs.push_back(jobs);
        self.ready.notify_one();
    }

    /// Closes the queue: pending chunks still drain, then every blocked
    /// and future [`JobQueue::pop`] returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Dequeues the next chunk, blocking while the queue is open and
    /// empty. Returns `None` once closed and drained.
    pub fn pop(&self) -> Option<Range<usize>> {
        let mut st = self.lock();
        loop {
            if let Some(chunk) = st.jobs.pop_front() {
                return Some(chunk);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Number of chunks currently queued.
    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Whether no chunk is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Chunk width used to split `n` jobs across `workers`: roughly four
/// chunks per worker so stragglers rebalance, never below one. The
/// split affects scheduling only — results are reduced in canonical
/// order either way.
pub fn chunk_size(n: usize, workers: usize) -> usize {
    (n / workers.max(1).saturating_mul(4)).max(1)
}

/// Runs `f` over every index in `0..n` on up to `threads` workers and
/// returns the results **in index order** regardless of completion
/// order. `threads <= 1` (or `n <= 1`) short-circuits to a plain
/// serial in-order loop on the calling thread — the exact pre-pool
/// code path.
///
/// A panic inside `f` propagates to the caller once the scope joins
/// (std re-raises the first worker payload), so failures are never
/// swallowed into partial results.
///
/// # Panics
///
/// Panics if a worker failed to deliver a result (only possible if `f`
/// panicked, which re-raises first).
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }

    let queue = JobQueue::new();
    let chunk = chunk_size(n, workers);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        queue.push(start..end);
        start = end;
    }
    queue.close();

    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(range) = queue.pop() {
                    // Buffer the chunk locally so the results lock is
                    // taken once per chunk, not once per cell.
                    let mut local: Vec<(usize, T)> = Vec::with_capacity(range.len());
                    for i in range {
                        local.push((i, f(i)));
                    }
                    collected
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .append(&mut local);
                }
            });
        }
    });

    let mut out = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    out.sort_by_key(|&(i, _)| i);
    assert_eq!(out.len(), n, "pool delivered a wrong result count");
    out.into_iter().map(|(_, v)| v).collect()
}

/// In-flight cell registry shared between workers and the watchdog:
/// which cells are currently executing and since when.
#[derive(Debug, Default)]
struct Inflight {
    cells: Mutex<BTreeMap<usize, Stopwatch>>,
}

impl Inflight {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<usize, Stopwatch>> {
        self.cells.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn enter(&self, cell: usize) {
        self.lock().insert(cell, Stopwatch::start());
    }

    fn exit(&self, cell: usize) {
        self.lock().remove(&cell);
    }

    /// Cells running longer than `budget`, with their elapsed ms.
    fn overdue(&self, budget: Duration) -> Vec<(usize, u64)> {
        self.lock()
            .iter()
            .filter_map(|(&cell, started)| {
                let elapsed = started.elapsed();
                (elapsed > budget).then_some((cell, elapsed.as_millis() as u64))
            })
            .collect()
    }
}

/// Runs one cell to its final outcome: `catch_unwind` around every
/// attempt, up to `policy.max_retries` re-runs of the *same index* (so
/// the caller's positional seed is unchanged), the last attempt's
/// wall-clock time checked against the watchdog budget.
fn run_cell_robust<T, F, E>(
    cell: usize,
    f: &F,
    policy: &RunPolicy,
    events: &E,
    inflight: Option<&Inflight>,
) -> CellOutcome<T>
where
    F: Fn(usize) -> T + Sync,
    E: Fn(CellEvent<'_, T>) + Sync,
{
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if let Some(inf) = inflight {
            inf.enter(cell);
        }
        let started = Stopwatch::start();
        let run = catch_unwind(AssertUnwindSafe(|| f(cell)));
        let elapsed_ms = started.elapsed_ms();
        if let Some(inf) = inflight {
            inf.exit(cell);
        }
        match run {
            Ok(value) => {
                let outcome = match policy.cell_budget_ms {
                    Some(budget_ms) if elapsed_ms > budget_ms => CellOutcome::TimedOut {
                        value,
                        elapsed_ms,
                        budget_ms,
                    },
                    _ => CellOutcome::Ok(value),
                };
                events(CellEvent::Finished {
                    cell,
                    outcome: &outcome,
                });
                return outcome;
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let will_retry = attempt <= policy.max_retries;
                events(CellEvent::PanicCaught {
                    cell,
                    attempt,
                    message: &message,
                    will_retry,
                });
                if !will_retry {
                    let outcome = CellOutcome::Panicked {
                        message,
                        attempts: attempt,
                    };
                    events(CellEvent::Finished {
                        cell,
                        outcome: &outcome,
                    });
                    return outcome;
                }
            }
        }
    }
}

/// Watchdog loop: wakes every `poll` tick (or as soon as the sweep
/// finishes) and fires `warn(cell, elapsed_ms)` once per cell found
/// over budget. Purely observational — it never interrupts a worker,
/// so it can never perturb a result.
fn watchdog_loop(
    budget: Duration,
    inflight: &Inflight,
    done: &(Mutex<bool>, Condvar),
    warn: impl Fn(usize, u64),
) {
    let poll = Duration::from_millis((budget.as_millis() as u64 / 4).clamp(10, 1000));
    let mut warned = BTreeSet::new();
    let mut finished = done.0.lock().unwrap_or_else(|p| p.into_inner());
    while !*finished {
        let (next, _) = done
            .1
            .wait_timeout(finished, poll)
            .unwrap_or_else(|p| p.into_inner());
        finished = next;
        if *finished {
            return;
        }
        for (cell, elapsed_ms) in inflight.overdue(budget) {
            if warned.insert(cell) {
                warn(cell, elapsed_ms);
            }
        }
    }
}

/// Fault-tolerant variant of [`map_indexed`]: runs `f` over `0..n` on
/// up to `threads` workers and returns one [`CellOutcome`] per index,
/// **in index order**. Unlike `map_indexed`, a panicking cell never
/// tears the pool down:
///
/// * each attempt runs under `catch_unwind`; a panicked cell is
///   re-executed up to `policy.max_retries` times with the same index
///   (same positional seed), then quarantined as
///   [`CellOutcome::Panicked`] while every other cell still completes;
/// * with `policy.cell_budget_ms` set, a monotonic-clock watchdog
///   thread flags cells exceeding the budget ([`CellEvent::LongRunning`]
///   while running, [`CellOutcome::TimedOut`] once finished) without
///   ever interrupting them;
/// * `events` observes the lifecycle ([`CellEvent`]) from whichever
///   thread saw it — the `Finished` event is the safe journaling point
///   for checkpoint/resume.
///
/// The determinism contract of [`map_indexed`] carries over: outcomes
/// are reduced in canonical index order and `threads = 1` without a
/// watchdog is a plain serial loop on the calling thread.
///
/// # Panics
///
/// Panics only if the pool infrastructure itself fails (a worker
/// panicking *outside* `catch_unwind`, which would be a bug here, is
/// re-raised).
pub fn run_robust<T, F, E>(
    n: usize,
    threads: usize,
    policy: RunPolicy,
    f: F,
    events: E,
) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    E: Fn(CellEvent<'_, T>) + Sync,
{
    let mut outcomes = Vec::with_capacity(n);
    run_robust_each(n, threads, policy, f, events, |_, outcome| {
        outcomes.push(outcome)
    });
    outcomes
}

/// [`run_robust`], handing each outcome to `each` instead of collecting
/// them: `each(i, outcome)` runs on the calling thread once per index,
/// in index order — as each cell finishes on the serial path, once the
/// pool drains otherwise — so a caller that folds the outcomes keeps
/// none it does not need.
///
/// # Panics
///
/// As [`run_robust`].
pub fn run_robust_each<T, F, E, S>(
    n: usize,
    threads: usize,
    policy: RunPolicy,
    f: F,
    events: E,
    mut each: S,
) where
    T: Send,
    F: Fn(usize) -> T + Sync,
    E: Fn(CellEvent<'_, T>) + Sync,
    S: FnMut(usize, CellOutcome<T>),
{
    if n == 0 {
        return;
    }
    let workers = threads.min(n).max(1);
    if workers == 1 && policy.cell_budget_ms.is_none() {
        // Serial fast path: no threads, no watchdog, no locks.
        for i in 0..n {
            each(i, run_cell_robust(i, &f, &policy, &events, None));
        }
        return;
    }

    let queue = JobQueue::new();
    let chunk = chunk_size(n, workers);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        queue.push(start..end);
        start = end;
    }
    queue.close();

    let inflight = Inflight::default();
    let done = (Mutex::new(false), Condvar::new());
    let collected: Mutex<Vec<(usize, CellOutcome<T>)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                while let Some(range) = queue.pop() {
                    let mut local = Vec::with_capacity(range.len());
                    for i in range {
                        local.push((i, run_cell_robust(i, &f, &policy, &events, Some(&inflight))));
                    }
                    collected
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .append(&mut local);
                }
            }));
        }
        let watchdog = policy.cell_budget_ms.map(|budget_ms| {
            let (inflight, done, events) = (&inflight, &done, &events);
            scope.spawn(move || {
                watchdog_loop(
                    Duration::from_millis(budget_ms),
                    inflight,
                    done,
                    |cell, elapsed_ms| {
                        events(CellEvent::LongRunning {
                            cell,
                            elapsed_ms,
                            budget_ms,
                        })
                    },
                )
            })
        });
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        // Wake the watchdog whatever happened to the workers, or it
        // would keep the scope alive for one more poll tick.
        *done.0.lock().unwrap_or_else(|p| p.into_inner()) = true;
        done.1.notify_all();
        if let Some(w) = watchdog {
            if let Err(payload) = w.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    });

    let mut out = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    out.sort_by_key(|&(i, _)| i);
    assert_eq!(out.len(), n, "robust pool delivered a wrong outcome count");
    for (i, outcome) in out {
        each(i, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_drains_in_fifo_order_then_closes() {
        let q = JobQueue::new();
        q.push(0..2);
        q.push(2..5);
        q.push(5..5); // empty: ignored
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(0..2));
        assert_eq!(q.pop(), Some(2..5));
        assert!(q.is_empty());
        q.close();
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed queue stays closed");
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = std::sync::Arc::new(JobQueue::new());
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(3..4);
        assert_eq!(handle.join().expect("no panic"), Some(3..4));

        let q3 = q.clone();
        let handle = std::thread::spawn(move || q3.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(handle.join().expect("no panic"), None);
    }

    #[test]
    fn chunking_covers_every_index_once() {
        for (n, workers) in [(1, 8), (7, 2), (100, 16), (64, 64), (5, 1)] {
            let c = chunk_size(n, workers);
            assert!(c >= 1);
            let mut seen = vec![0u32; n];
            let mut start = 0;
            while start < n {
                let end = (start + c).min(n);
                for s in &mut seen[start..end] {
                    *s += 1;
                }
                start = end;
            }
            assert!(seen.iter().all(|&s| s == 1), "n={n} workers={workers}");
        }
    }

    #[test]
    fn map_indexed_returns_canonical_order() {
        let out = map_indexed(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // A cell function whose result depends only on the index.
        let cell = |i: usize| {
            let mut acc = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
            for _ in 0..50 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let serial = map_indexed(37, 1, cell);
        for threads in [2, 3, 8] {
            assert_eq!(map_indexed(37, threads, cell), serial, "threads={threads}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let n = 200;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        map_indexed(n, 6, |i| counters[i].fetch_add(1, Ordering::SeqCst));
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(16, 4, |i| {
                if i == 9 {
                    panic!("cell 9 exploded");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must not be swallowed");
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn map_indexed_with_more_threads_than_cells() {
        // Worker count clamps to the cell count; canonical order holds.
        let out = map_indexed(3, 64, |i| i + 10);
        assert_eq!(out, vec![10, 11, 12]);
    }

    fn no_events(_: CellEvent<'_, u64>) {}

    #[test]
    fn robust_matches_plain_pool_on_clean_cells() {
        let cell = |i: usize| {
            let mut acc = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
            for _ in 0..50 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let plain = map_indexed(23, 1, cell);
        for threads in [1, 2, 7] {
            let robust: Vec<u64> = run_robust(23, threads, RunPolicy::default(), cell, no_events)
                .into_iter()
                .map(|o| o.into_value().expect("clean cells"))
                .collect();
            assert_eq!(robust, plain, "threads={threads}");
        }
    }

    #[test]
    fn robust_zero_cells_and_more_threads_than_cells() {
        assert!(run_robust(0, 8, RunPolicy::default(), |i| i, |_| ()).is_empty());
        let out = run_robust(2, 32, RunPolicy::default(), |i| i * 3, |_| ());
        assert_eq!(
            out.into_iter()
                .filter_map(CellOutcome::into_value)
                .sum::<usize>(),
            3
        );
    }

    #[test]
    fn panicking_cell_is_retried_then_quarantined_without_deadlock() {
        let n = 12;
        let attempts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let seeds_seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let policy = RunPolicy::default().with_retries(2);
        let panic_events: Mutex<Vec<(usize, u32, bool)>> = Mutex::new(Vec::new());
        let outcomes = run_robust(
            n,
            4,
            policy,
            |i| {
                let attempt = attempts[i].fetch_add(1, Ordering::SeqCst);
                // Every attempt sees the same positional identity.
                seeds_seen
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((i, 1000 + i));
                if i == 5 {
                    panic!("cell 5 always fails");
                }
                if i == 7 && attempt == 0 {
                    panic!("cell 7 fails once");
                }
                i as u64
            },
            |ev| {
                if let CellEvent::PanicCaught {
                    cell,
                    attempt,
                    will_retry,
                    ..
                } = ev
                {
                    panic_events
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push((cell, attempt, will_retry));
                }
            },
        );

        // The flaky cell recovered with its positional seed intact; the
        // broken one was quarantined after max_retries + 1 attempts.
        assert_eq!(outcomes.len(), n, "every cell reports an outcome");
        match &outcomes[5] {
            CellOutcome::Panicked { message, attempts } => {
                assert_eq!(*attempts, 3);
                assert!(message.contains("cell 5"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(outcomes[7].value(), Some(&7));
        assert_eq!(attempts[5].load(Ordering::SeqCst), 3);
        assert_eq!(attempts[7].load(Ordering::SeqCst), 2);
        for (i, o) in outcomes.iter().enumerate() {
            if i != 5 {
                assert_eq!(o.value(), Some(&(i as u64)), "cell {i} still completed");
            }
        }
        let seeds = seeds_seen.into_inner().unwrap_or_else(|p| p.into_inner());
        assert!(
            seeds.iter().filter(|&&(i, s)| i == 5 && s == 1005).count() == 3,
            "retries keep the same positional seed"
        );
        let events = panic_events.into_inner().unwrap_or_else(|p| p.into_inner());
        let cell5: Vec<_> = events.iter().filter(|e| e.0 == 5).collect();
        assert_eq!(
            cell5.iter().map(|e| e.2).collect::<Vec<_>>(),
            vec![true, true, false],
            "two retries announced, then quarantine"
        );
    }

    #[test]
    fn quarantine_on_first_panic_with_zero_retries() {
        let outcomes = run_robust(
            4,
            1,
            RunPolicy::default().with_retries(0),
            |i| {
                if i == 1 {
                    panic!("no second chances");
                }
                i
            },
            |_| (),
        );
        assert!(matches!(
            outcomes[1],
            CellOutcome::Panicked { attempts: 1, .. }
        ));
        assert_eq!(outcomes[3].value(), Some(&3));
    }

    #[test]
    fn watchdog_flags_slow_cells_without_changing_values() {
        let warnings: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let outcomes = run_robust(
            4,
            2,
            RunPolicy::default().with_budget_ms(20),
            |i| {
                if i == 2 {
                    std::thread::sleep(std::time::Duration::from_millis(120));
                }
                i * 2
            },
            |ev| {
                if let CellEvent::LongRunning { cell, .. } = ev {
                    warnings
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(cell);
                }
            },
        );
        match &outcomes[2] {
            CellOutcome::TimedOut {
                value,
                elapsed_ms,
                budget_ms,
            } => {
                assert_eq!(*value, 4, "the value is still produced");
                assert_eq!(*budget_ms, 20);
                assert!(*elapsed_ms > 20);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(outcomes[0].value(), Some(&0));
        let warned = warnings.into_inner().unwrap_or_else(|p| p.into_inner());
        assert_eq!(warned, vec![2], "watchdog warned exactly once");
    }

    #[test]
    fn watchdog_runs_even_with_one_thread() {
        // threads = 1 + budget still goes through the pooled path so
        // the supervisor exists; results stay serial-ordered.
        let outcomes = run_robust(
            3,
            1,
            RunPolicy::default().with_budget_ms(5000),
            |i| i + 1,
            no_events_usize,
        );
        let values: Vec<usize> = outcomes
            .into_iter()
            .filter_map(CellOutcome::into_value)
            .collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    fn no_events_usize(_: CellEvent<'_, usize>) {}

    #[test]
    fn finished_events_cover_every_cell_exactly_once() {
        let finished: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        run_robust(
            10,
            3,
            RunPolicy::default(),
            |i| i,
            |ev| {
                if let CellEvent::Finished { cell, .. } = ev {
                    finished
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(cell);
                }
            },
        );
        let mut seen = finished.into_inner().unwrap_or_else(|p| p.into_inner());
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
