//! Cross-slot cache state: which service instances are live where.
//!
//! The paper's per-slot ILP (3) charges the instantiation delay
//! `d_ins(i,k)` for every instance used in the slot, as if caches were
//! rebuilt from scratch each slot. Real deployments keep instances warm:
//! an instance instantiated in slot `t` serves slot `t+1` for free until
//! it is evicted. This module models that, and
//! [`crate::EpisodeConfig::amortize_instantiation`] switches the
//! simulator's scoring between the two accounting modes (compared by the
//! `ablation_cache` bench).

use lexcache_obs as obs;
use mec_net::delay::InstantiationDelays;
use mec_net::BsId;
use std::collections::{btree_map::Entry, BTreeMap};

/// Live service instances across slots, with idle-eviction and an
/// optional per-station instance limit (LRU within the station).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState {
    n_services: usize,
    n_stations: usize,
    /// `(service, station) → slot of last use`. A `BTreeMap` so that
    /// iteration (eviction scans, serialization) follows the fixed
    /// `(service, station)` order rather than hasher state — the cache
    /// is on the per-slot decision path (lexlint LX03).
    last_used: BTreeMap<(usize, usize), usize>,
    /// Evict instances idle for more than this many slots (`None` =
    /// never).
    idle_ttl: Option<usize>,
    /// At most this many live instances per station (`None` =
    /// unbounded).
    per_station_limit: Option<usize>,
}

impl CacheState {
    /// An empty cache with no eviction.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_services: usize, n_stations: usize) -> Self {
        assert!(n_services > 0, "need at least one service");
        assert!(n_stations > 0, "need at least one station");
        CacheState {
            n_services,
            n_stations,
            last_used: BTreeMap::new(),
            idle_ttl: None,
            per_station_limit: None,
        }
    }

    /// Evicts instances idle for more than `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn with_idle_ttl(mut self, slots: usize) -> Self {
        assert!(slots > 0, "TTL must be positive");
        self.idle_ttl = Some(slots);
        self
    }

    /// Caps live instances per station, evicting least-recently-used
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    pub fn with_per_station_limit(mut self, limit: usize) -> Self {
        assert!(limit > 0, "limit must be positive");
        self.per_station_limit = Some(limit);
        self
    }

    /// Whether service `k` currently has a live instance at `bs`.
    pub fn is_cached(&self, service: usize, bs: BsId) -> bool {
        self.last_used.contains_key(&(service, bs.index()))
    }

    /// Number of live instances.
    pub fn live_count(&self) -> usize {
        self.last_used.len()
    }

    /// Live instances at one station.
    pub fn live_at(&self, bs: BsId) -> usize {
        self.last_used
            .keys()
            .filter(|&&(_, i)| i == bs.index())
            .count()
    }

    /// Applies one slot's usage: instances in `used` that are not live
    /// pay their instantiation delay; all used instances are touched;
    /// idle/over-limit instances are evicted afterwards. Returns the
    /// total instantiation delay incurred this slot, in ms.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `inst` has mismatched
    /// dimensions.
    pub fn apply(
        &mut self,
        slot: usize,
        used: &[(usize, usize)],
        inst: &InstantiationDelays,
    ) -> f64 {
        assert_eq!(inst.n_services(), self.n_services, "service count");
        assert!(
            inst.n_stations() >= self.n_stations,
            "instantiation table too small"
        );
        let mut cost = 0.0;
        for &(k, i) in used {
            assert!(k < self.n_services, "service out of range");
            assert!(i < self.n_stations, "station out of range");
            if self.last_used.insert((k, i), slot).is_none() {
                cost += inst.get(BsId(i), k);
                obs::counter("cache/insert", 1);
            } else {
                obs::counter("cache/hit", 1);
            }
        }
        // Idle eviction.
        if let Some(ttl) = self.idle_ttl {
            let before = self.last_used.len();
            self.last_used
                .retain(|_, &mut last| slot.saturating_sub(last) <= ttl);
            obs::counter("cache/evict_ttl", (before - self.last_used.len()) as u64);
        }
        // Per-station LRU cap. Instances used *this* slot are never
        // evicted (limit permitting the used set is assumed).
        if let Some(limit) = self.per_station_limit {
            for station in 0..self.n_stations {
                let mut here: Vec<((usize, usize), usize)> = self
                    .last_used
                    .iter()
                    .filter(|&(&(_, i), _)| i == station)
                    .map(|(&key, &last)| (key, last))
                    .collect();
                if here.len() > limit {
                    // Oldest first; ties broken by service id for
                    // determinism.
                    here.sort_by_key(|&((k, _), last)| (last, k));
                    for &(key, _) in here.iter().take(here.len() - limit) {
                        self.last_used.remove(&key);
                        obs::counter("cache/evict_lru", 1);
                    }
                }
            }
        }
        cost
    }

    /// Evicts every live instance at `bs` — a station outage loses its
    /// warm cloudlet state, so instances there must pay instantiation
    /// again after the station recovers. Returns the number of instances
    /// lost and counts them as `cache/lost_on_failure`.
    pub fn evict_station(&mut self, bs: BsId) -> usize {
        let before = self.last_used.len();
        self.last_used.retain(|&(_, i), _| i != bs.index());
        let lost = before - self.last_used.len();
        obs::counter("cache/lost_on_failure", lost as u64);
        lost
    }

    /// Migrates up to `budget` warm instances from a draining station to
    /// a failover target, most-recently-used first (ties broken by
    /// service id for determinism). Instances whose service is already
    /// warm at `to` are dropped from `from` without consuming budget —
    /// the drain consolidates them, nothing is lost. Entries beyond the
    /// budget stay behind and die with the station. Last-use slots move
    /// with the instance; a later [`apply`](CacheState::apply) enforces
    /// any per-station limit at the target as usual. Returns the number
    /// of instances migrated and counts them as `cache/drained`.
    ///
    /// # Panics
    ///
    /// Panics if either station is out of range or `from == to`.
    pub fn drain_to(&mut self, from: BsId, to: BsId, budget: usize) -> usize {
        assert!(from.index() < self.n_stations, "station out of range");
        assert!(to.index() < self.n_stations, "station out of range");
        assert_ne!(from, to, "cannot drain a station onto itself");
        if budget == 0 {
            return 0;
        }
        let mut here: Vec<((usize, usize), usize)> = self
            .last_used
            .iter()
            .filter(|&(&(_, i), _)| i == from.index())
            .map(|(&key, &last)| (key, last))
            .collect();
        here.sort_by_key(|&((k, _), last)| (std::cmp::Reverse(last), k));
        let mut moved = 0;
        for ((k, _), last) in here {
            if moved == budget {
                break;
            }
            self.last_used.remove(&(k, from.index()));
            if let Entry::Vacant(slot) = self.last_used.entry((k, to.index())) {
                slot.insert(last);
                moved += 1;
                obs::counter("cache/drained", 1);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> InstantiationDelays {
        InstantiationDelays::constant(4, 3, 10.0)
    }

    #[test]
    fn first_use_pays_reuse_is_free() {
        let mut cache = CacheState::new(3, 4);
        let cost1 = cache.apply(1, &[(0, 2), (1, 2)], &inst());
        assert_eq!(cost1, 20.0);
        let cost2 = cache.apply(2, &[(0, 2), (1, 2)], &inst());
        assert_eq!(cost2, 0.0, "warm instances are free");
        assert!(cache.is_cached(0, BsId(2)));
        assert_eq!(cache.live_count(), 2);
        assert_eq!(cache.live_at(BsId(2)), 2);
        assert_eq!(cache.live_at(BsId(0)), 0);
    }

    #[test]
    fn idle_ttl_evicts_and_forces_reinstantiation() {
        let mut cache = CacheState::new(3, 4).with_idle_ttl(2);
        let _ = cache.apply(1, &[(0, 0)], &inst());
        // Used at slot 1; still live at slot 3 (idle 2), gone at 4.
        let _ = cache.apply(3, &[(1, 1)], &inst());
        assert!(cache.is_cached(0, BsId(0)));
        let _ = cache.apply(4, &[(1, 1)], &inst());
        assert!(!cache.is_cached(0, BsId(0)), "TTL exceeded");
        let cost = cache.apply(5, &[(0, 0)], &inst());
        assert_eq!(cost, 10.0, "evicted instance pays again");
    }

    #[test]
    fn per_station_limit_evicts_lru() {
        let mut cache = CacheState::new(3, 2).with_per_station_limit(2);
        let _ = cache.apply(1, &[(0, 0)], &inst());
        let _ = cache.apply(2, &[(1, 0)], &inst());
        let _ = cache.apply(3, &[(2, 0)], &inst());
        assert_eq!(cache.live_at(BsId(0)), 2);
        assert!(!cache.is_cached(0, BsId(0)), "oldest evicted");
        assert!(cache.is_cached(1, BsId(0)));
        assert!(cache.is_cached(2, BsId(0)));
    }

    #[test]
    fn limits_are_per_station() {
        let mut cache = CacheState::new(3, 2).with_per_station_limit(1);
        let _ = cache.apply(1, &[(0, 0), (1, 1)], &inst());
        assert_eq!(cache.live_count(), 2, "one per station is fine");
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let mut cache = CacheState::new(3, 2).with_per_station_limit(2);
        let _ = cache.apply(1, &[(0, 0)], &inst());
        let _ = cache.apply(2, &[(1, 0)], &inst());
        let _ = cache.apply(3, &[(0, 0)], &inst()); // refresh service 0
        let _ = cache.apply(4, &[(2, 0)], &inst());
        assert!(cache.is_cached(0, BsId(0)), "recently touched survives");
        assert!(!cache.is_cached(1, BsId(0)), "stale one evicted");
    }

    #[test]
    fn station_eviction_loses_warm_instances() {
        let mut cache = CacheState::new(3, 4);
        let _ = cache.apply(1, &[(0, 2), (1, 2), (0, 3)], &inst());
        assert_eq!(cache.live_count(), 3);
        let lost = cache.evict_station(BsId(2));
        assert_eq!(lost, 2);
        assert!(!cache.is_cached(0, BsId(2)));
        assert!(!cache.is_cached(1, BsId(2)));
        assert!(cache.is_cached(0, BsId(3)), "other stations untouched");
        // Re-use after the outage pays instantiation again.
        let cost = cache.apply(2, &[(0, 2)], &inst());
        assert_eq!(cost, 10.0);
        // Evicting an empty station is a no-op.
        assert_eq!(cache.evict_station(BsId(1)), 0);
    }

    #[test]
    fn drain_moves_mru_first_within_budget() {
        let mut cache = CacheState::new(3, 4);
        let _ = cache.apply(1, &[(0, 0), (1, 0)], &inst());
        let _ = cache.apply(2, &[(2, 0)], &inst());
        let moved = cache.drain_to(BsId(0), BsId(1), 2);
        assert_eq!(moved, 2);
        // MRU first: service 2 (slot 2) then the slot-1 tie broken by
        // service id — service 0 moves, service 1 stays behind.
        assert!(cache.is_cached(2, BsId(1)));
        assert!(cache.is_cached(0, BsId(1)));
        assert!(cache.is_cached(1, BsId(0)), "over-budget entry left behind");
        assert!(!cache.is_cached(2, BsId(0)));
        // Migrated entries keep their warmth: re-use at the target pays
        // nothing.
        let cost = cache.apply(3, &[(2, 1)], &inst());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn drain_consolidates_duplicates_without_spending_budget() {
        let mut cache = CacheState::new(3, 4);
        let _ = cache.apply(1, &[(0, 0), (1, 0), (0, 1)], &inst());
        // Service 0 is already warm at the target: its doomed copy is
        // dropped for free, the budget of one still moves service 1.
        let moved = cache.drain_to(BsId(0), BsId(1), 1);
        assert_eq!(moved, 1);
        assert!(cache.is_cached(1, BsId(1)));
        assert!(cache.is_cached(0, BsId(1)));
        assert_eq!(cache.live_at(BsId(0)), 0);
    }

    #[test]
    fn drain_with_zero_budget_is_a_no_op() {
        let mut cache = CacheState::new(3, 2);
        let _ = cache.apply(1, &[(0, 0)], &inst());
        assert_eq!(cache.drain_to(BsId(0), BsId(1), 0), 0);
        assert!(cache.is_cached(0, BsId(0)));
    }

    #[test]
    fn drain_budget_larger_than_warm_set_moves_everything() {
        let mut cache = CacheState::new(3, 4);
        let _ = cache.apply(1, &[(0, 0), (1, 0), (2, 0)], &inst());
        // Budget far exceeds the three warm instances: all of them
        // move, the surplus budget is simply unused.
        let moved = cache.drain_to(BsId(0), BsId(2), usize::MAX);
        assert_eq!(moved, 3);
        assert_eq!(cache.live_at(BsId(0)), 0);
        assert_eq!(cache.live_at(BsId(2)), 3);
        // And warmth survived the move.
        assert_eq!(cache.apply(2, &[(0, 2), (1, 2), (2, 2)], &inst()), 0.0);
    }

    #[test]
    fn drain_from_a_cold_station_moves_nothing() {
        let mut cache = CacheState::new(3, 4);
        let _ = cache.apply(1, &[(0, 1)], &inst());
        assert_eq!(cache.drain_to(BsId(0), BsId(1), 5), 0);
        assert_eq!(cache.live_count(), 1, "the target keeps its own entries");
    }

    #[test]
    #[should_panic(expected = "cannot drain a station onto itself")]
    fn drain_to_self_rejected() {
        let mut cache = CacheState::new(3, 2);
        let _ = cache.drain_to(BsId(0), BsId(0), 1);
    }

    #[test]
    #[should_panic(expected = "service out of range")]
    fn out_of_range_service_rejected() {
        let mut cache = CacheState::new(2, 2);
        let _ = cache.apply(1, &[(5, 0)], &InstantiationDelays::constant(2, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn zero_ttl_rejected() {
        let _ = CacheState::new(1, 1).with_idle_ttl(0);
    }
}
