//! A seeded pin of the queue core as a whole: 600 random `QueueSim`
//! configurations run for 6 slots each, and every slot's
//! [`SlotQueueStats`] is folded into one splitmix64 hash.
//!
//! The grid is chosen so that event order matters. Arrival offsets,
//! service work and deadlines are whole milliseconds and rates are
//! 0, 1/4, 1/2 or 1, so deadlines tie departure, arrival and
//! slot-boundary ticks, and only the `(tick, seq)` tie-break decides
//! which event pops first. Cases mix 1–6 stations, FIFO and processor
//! sharing, frozen and browned-out stations, finite and infinite waiting
//! rooms, retries with and without jitter, admission gates, circuit
//! breakers and drain flags. A change to the queue core that reorders
//! any event changes the hash.

use lexcache_queue::{Discipline, QueueConfig, QueueSim, ResilConfig, SlotQueueStats};
use lexcache_resilience::splitmix64;

const CASES: usize = 600;
const SLOTS: usize = 6;

/// The hash of every slot's stats over all cases.
const PINNED: u64 = 0x0e02_6120_7dec_2a15;

/// Folds `v` into `hash`.
fn fold(hash: &mut u64, v: u64) {
    *hash = splitmix64(*hash ^ v);
}

/// Folds every measured field of one slot into `hash`.
fn fold_stats(hash: &mut u64, s: &SlotQueueStats) {
    fold(hash, s.sojourns_ms.len() as u64);
    for v in &s.sojourns_ms {
        fold(hash, v.to_bits());
    }
    for list in [&s.dropped_requests, &s.shed_requests] {
        fold(hash, list.len() as u64);
        for &r in list {
            fold(hash, r as u64);
        }
    }
    for n in [
        s.deadline_missed,
        s.retries_attempted,
        s.retries_succeeded,
        s.backlog,
        s.breaker_open,
    ] {
        fold(hash, n as u64);
    }
}

#[test]
fn seeded_queue_runs_fold_to_the_pinned_hash() {
    let mut state = 0x0051_7e5e_ed00_u64;
    let mut next = move || {
        state = state.wrapping_add(1);
        splitmix64(state)
    };
    let mut hash = 0u64;
    let (mut misses, mut retries, mut drops, mut sheds) = (0, 0, 0, 0);
    for _ in 0..CASES {
        let n = 1 + (next() % 6) as usize;
        let discipline = if next() % 2 == 0 {
            Discipline::Fifo
        } else {
            Discipline::ProcessorSharing
        };
        let mut cfg = QueueConfig::open_loop(1.0).with_discipline(discipline);
        if next() % 2 == 0 {
            cfg = cfg.with_queue_capacity(1 + (next() % 6) as usize);
        }
        let mut resil = ResilConfig::disabled();
        if next() % 4 != 0 {
            let jitter = if next() % 2 == 0 {
                0.0
            } else {
                (1 + next() % 8) as f64
            };
            resil = resil
                .with_deadline_ms((10 + next() % 90) as f64)
                .with_retries((next() % 3) as u32)
                .with_backoff((1 + next() % 10) as f64, jitter);
        }
        if next() % 3 == 0 {
            resil = resil.with_admission(1 + (next() % 4) as usize, (next() % 3) as u32);
        }
        if next() % 3 == 0 {
            resil = resil.with_breaker(
                1 + (next() % 3) as usize,
                [0.25, 0.5, 1.0][(next() % 3) as usize],
                (20 + next() % 100) as f64,
                1 + (next() % 2) as u32,
                1 + (next() % 2) as u32,
            );
        }
        let mut qs = QueueSim::new_seeded(n, cfg.with_resilience(resil), next());
        for slot in 1..=SLOTS {
            if next() % 4 == 0 {
                let draining: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
                qs.set_draining(&draining);
            }
            let rates: Vec<f64> = (0..n)
                .map(|_| [0.0, 0.25, 0.5, 1.0, 1.0, 1.0][(next() % 6) as usize])
                .collect();
            qs.begin_slot(slot, &rates);
            for request in 0..(next() % 24) as usize {
                let station = (next() % n as u64) as usize;
                let offset_ms = (next() % 101) as f64;
                let service_ms = (next() % 40) as f64;
                qs.submit_prio(request, station, offset_ms, service_ms, next() % 4 == 0);
            }
            let stats = qs.run_slot();
            misses += stats.deadline_missed;
            retries += stats.retries_attempted;
            drops += stats.dropped;
            sheds += stats.shed;
            fold_stats(&mut hash, &stats);
        }
    }
    assert!(
        misses > 0 && retries > 0 && drops > 0 && sheds > 0,
        "the grid must miss, retry, drop and shed: {misses} misses, {retries} retries, \
         {drops} drops, {sheds} sheds"
    );
    assert_eq!(
        hash, PINNED,
        "queue behaviour changed: {misses} misses, {retries} retries, {drops} drops, {sheds} sheds"
    );
}
