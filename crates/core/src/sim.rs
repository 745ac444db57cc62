//! The slot-by-slot simulation engine.

use crate::assignment::{cheapest_station, Assignment, GreedyPass, StationOrder, Target};
use crate::lowering::{build_caching_lp, StationView, TransferCosts};
use crate::metrics::{EpisodeReport, SlotMetrics};
use crate::policy::{CachingPolicy, SlotContext, SlotFeedback};
use lexcache_obs as obs;
use lexcache_queue::{QueueConfig, QueueSim};
use mec_net::delay::{CongestionDelay, DelayProcess, RemoteDcDelay, UniformTierDelay};
use mec_net::{BsId, DrainState, FaultConfig, FaultProcess, NetworkConfig, Topology};
use mec_workload::demand::DemandProcess as _;
use mec_workload::Scenario;
use std::cell::OnceCell;

/// Which hidden unit-delay process drives the episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModelKind {
    /// IID uniform per-slot delays within each tier's range.
    Uniform,
    /// Congestion-modulated delays (two-state Markov chain per station).
    /// This is the default: temporally correlated congestion is the
    /// uncertainty that makes online learning beat static priors.
    Congestion {
        /// P(normal → congested) per slot.
        p_enter: f64,
        /// P(congested → normal) per slot.
        p_exit: f64,
        /// Delay multiplier while congested.
        factor: f64,
    },
}

impl DelayModelKind {
    /// The default congestion parameters used across the benches.
    pub fn default_congestion() -> Self {
        DelayModelKind::Congestion {
            p_enter: 0.10,
            p_exit: 0.25,
            factor: 3.0,
        }
    }
}

/// Episode-level knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeConfig {
    /// The hidden delay process.
    pub delay_model: DelayModelKind,
    /// Whether to hand the true demand vector to the policy
    /// (`given_demands`): `true` for the §IV `*_GD` regime, `false` for
    /// the §V prediction regime.
    pub reveal_demands: bool,
    /// Whether to solve the clairvoyant LP each slot for regret curves
    /// (roughly doubles runtime).
    pub track_regret: bool,
    /// `false` (default): the paper's per-slot accounting — every
    /// (service, station) instance used in a slot pays `d_ins`.
    /// `true`: instances stay warm across slots ([`crate::CacheState`])
    /// and only newly instantiated ones pay.
    pub amortize_instantiation: bool,
    /// Endogenous load-driven congestion: the realized unit delay of a
    /// station is additionally scaled by `1 + load_sensitivity ·
    /// (load/capacity)` — stations slow down *because* traffic piles
    /// onto them, the bottleneck mechanism of real topologies. `0`
    /// (default) disables it. Both the score and the bandit
    /// observations see the load-scaled delay, so learners can discover
    /// and avoid crowded stations.
    pub load_sensitivity: f64,
    /// Seeded fault injection: station outages, link failures and
    /// capacity brown-outs ([`FaultConfig::none`] by default — no fault
    /// process is even constructed, so the simulation is bit-identical
    /// to a build without fault support).
    pub faults: FaultConfig,
    /// How many warm cache entries may be migrated off a station per
    /// preemption notice (most-recently-used first, see
    /// [`crate::CacheState::drain_to`]). Only consulted when the fault
    /// config preempts; entries beyond the budget die with the station.
    pub migration_budget: usize,
    /// Open-loop queue core ([`lexcache_queue::QueueSim`]): when set,
    /// every edge-assigned request additionally arrives at a concrete
    /// instant inside its slot, queues at its station (whose effective
    /// rate shrinks under brown-outs, outages and drain notices) and
    /// departs after its service time, filling the measured
    /// `p50_sojourn_ms`/`p99_sojourn_ms`/`queue_dropped_count` slot
    /// metrics alongside the paper's linear proxy. `None` (default)
    /// skips the layer entirely; [`QueueConfig::equivalence`] runs it
    /// with zero service time, which is bit-identical to `None`
    /// (golden-tested). The queue layer draws from its own salted hash
    /// streams, never the episode RNG, so enabling it cannot perturb
    /// demands, delays or faults. It feeds back into the objective and
    /// the policy in exactly two places: waiting-room drops and
    /// resilience sheds are charged demand × realized remote delay in
    /// `avg_delay_ms` (zero when nothing is lost), and circuit-breaker
    /// verdicts ([`lexcache_queue::ResilConfig`]) down-weight the next
    /// slot's LP columns like `Draining(k)` does.
    pub queue: Option<QueueConfig>,
    /// Environment seed (delay realizations).
    pub seed: u64,
}

impl EpisodeConfig {
    /// Defaults: congestion delays, demands revealed, no regret tracking.
    pub fn new(seed: u64) -> Self {
        EpisodeConfig {
            delay_model: DelayModelKind::default_congestion(),
            reveal_demands: true,
            track_regret: false,
            amortize_instantiation: false,
            load_sensitivity: 0.0,
            faults: FaultConfig::none(),
            migration_budget: 8,
            queue: None,
            seed,
        }
    }

    /// Switches to the unknown-demand regime.
    pub fn hidden_demands(mut self) -> Self {
        self.reveal_demands = false;
        self
    }

    /// Enables clairvoyant-regret tracking.
    pub fn with_regret(mut self) -> Self {
        self.track_regret = true;
        self
    }

    /// Overrides the delay model.
    pub fn with_delay_model(mut self, model: DelayModelKind) -> Self {
        self.delay_model = model;
        self
    }

    /// Switches to warm-cache instantiation accounting.
    pub fn with_amortized_instantiation(mut self) -> Self {
        self.amortize_instantiation = true;
        self
    }

    /// Enables endogenous load-driven congestion.
    ///
    /// # Panics
    ///
    /// Panics if `sensitivity` is negative.
    pub fn with_load_sensitivity(mut self, sensitivity: f64) -> Self {
        assert!(sensitivity >= 0.0, "sensitivity must be non-negative");
        self.load_sensitivity = sensitivity;
        self
    }

    /// Enables seeded fault injection (station outages, link failures,
    /// capacity brown-outs).
    ///
    /// # Panics
    ///
    /// Panics if any rate in `faults` is outside `[0, 1]` (see
    /// [`FaultConfig::validate`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        faults.validate();
        self.faults = faults;
        self
    }

    /// Overrides the per-notice cache migration budget (0 disables
    /// drain migration entirely).
    pub fn with_migration_budget(mut self, budget: usize) -> Self {
        self.migration_budget = budget;
        self
    }

    /// Enables the open-loop queue core (see [`EpisodeConfig::queue`]).
    pub fn with_queue(mut self, queue: QueueConfig) -> Self {
        self.queue = Some(queue);
        self
    }
}

/// A runnable simulation episode: one topology, one workload scenario,
/// one hidden delay realization.
///
/// Reuse the episode across policies by constructing one per policy with
/// the same seed — the environment randomness is identical, so
/// comparisons are paired.
pub struct Episode {
    topo: Topology,
    net_cfg: NetworkConfig,
    scenario: Scenario,
    /// Transfer costs over the links alive this slot: recomputed from
    /// the topology whenever the fault process changes a link's state.
    transfer: TransferCosts,
    /// `Greedy_GD`'s station order over `transfer`: built by the first
    /// greedy placement, emptied with every recomputation of `transfer`.
    station_order: OnceCell<StationOrder>,
    prior_delay: Vec<f64>,
    delay: Box<dyn DelayProcess>,
    remote: RemoteDcDelay,
    cfg: EpisodeConfig,
    cache: crate::CacheState,
    /// `Some` only when `cfg.faults.is_enabled()` — a disabled fault
    /// model costs nothing and changes nothing.
    faults: Option<FaultProcess>,
    /// Per-slot station health handed to the policy, refreshed from the
    /// fault process and the queue core's breakers (healthy when both
    /// are off).
    stations: StationView,
    /// `Some` only when `cfg.queue` is set — the open-loop queue state
    /// (backlog included) persists across the episode's slots.
    queue: Option<QueueSim>,
}

impl Episode {
    /// Creates an episode with [`EpisodeConfig::new`] defaults.
    pub fn new(topo: Topology, net_cfg: NetworkConfig, scenario: Scenario, seed: u64) -> Self {
        Self::with_config(topo, net_cfg, scenario, EpisodeConfig::new(seed))
    }

    /// Creates an episode with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the scenario was built for a different topology size.
    pub fn with_config(
        topo: Topology,
        net_cfg: NetworkConfig,
        scenario: Scenario,
        cfg: EpisodeConfig,
    ) -> Self {
        for r in scenario.requests() {
            assert!(
                r.registered_bs().index() < topo.len(),
                "scenario was built for a different topology"
            );
        }
        let transfer = TransferCosts::compute(&topo, &scenario);
        let prior_delay: Vec<f64> = topo
            .stations()
            .iter()
            .map(|bs| net_cfg.tier(bs.tier()).unit_delay_ms.mid())
            .collect();
        let delay: Box<dyn DelayProcess> = match cfg.delay_model {
            DelayModelKind::Uniform => Box::new(UniformTierDelay::new(&topo, &net_cfg, cfg.seed)),
            DelayModelKind::Congestion {
                p_enter,
                p_exit,
                factor,
            } => Box::new(CongestionDelay::new(
                &topo, &net_cfg, p_enter, p_exit, factor, cfg.seed,
            )),
        };
        let remote = RemoteDcDelay::new(&net_cfg, cfg.seed);
        let cache = crate::CacheState::new(scenario.services().len(), topo.len());
        let faults = cfg
            .faults
            .is_enabled()
            .then(|| FaultProcess::new(&topo, cfg.faults, cfg.seed));
        let n = topo.len();
        let stations = StationView::healthy(&topo, &scenario);
        Episode {
            topo,
            net_cfg,
            scenario,
            transfer,
            station_order: OnceCell::new(),
            prior_delay,
            delay,
            remote,
            cfg,
            cache,
            faults,
            stations,
            // The queue core gets the episode seed so its retry jitter
            // stream (seed ⊕ retry salt) is paired across policies; with
            // resilience disabled the seed is never consulted.
            queue: cfg.queue.map(|q| QueueSim::new_seeded(n, q, cfg.seed)),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The transfer-cost matrix over the links alive in the last slot
    /// run (over every link before the first slot).
    pub fn transfer(&self) -> &TransferCosts {
        &self.transfer
    }

    /// Runs `policy` for `horizon` slots and collects metrics.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0` or the policy returns an assignment of
    /// the wrong size.
    pub fn run(&mut self, policy: &mut dyn CachingPolicy, horizon: usize) -> EpisodeReport {
        assert!(horizon > 0, "horizon must be positive");
        let request_cells: Vec<usize> = self
            .scenario
            .requests()
            .iter()
            .map(|r| r.location_cell())
            .collect();
        let slots = (1..=horizon)
            .map(|slot| self.run_slot(policy, slot, &request_cells))
            .collect();
        EpisodeReport {
            policy: policy.name().to_string(),
            topology: self.topo.name().to_string(),
            slots,
        }
    }

    /// One slot: the environment moves, the policy decides (Algorithm 1,
    /// lines 3–9), the decision is scored and the policy observes the
    /// stations it played (lines 10–11). Each stage opens its own
    /// `sim/*` span, whose names the benchmark's per-layer metrics read.
    /// The two fault stages run only with fault injection, the regret LP
    /// only with regret tracking and the queue stage only with the queue
    /// core.
    fn run_slot(
        &mut self,
        policy: &mut dyn CachingPolicy,
        slot: usize,
        request_cells: &[usize],
    ) -> SlotMetrics {
        obs::gauge("sim/slot", slot as f64);
        let mut m = SlotMetrics {
            slot,
            ..SlotMetrics::default()
        };
        let demands = self.advance_environment();
        self.inject_faults(&mut m);
        // Circuit-breaker verdicts from the queue core's *previous* slot
        // down-weight this slot's LP columns, exactly like `Draining(k)`.
        if let Some(qs) = &self.queue {
            self.stations.set_breaker_weights(&qs.breaker_weights());
        }
        let ctx = self.context(slot, &demands);
        let mut assignment = decide(policy, &ctx, &mut m);
        if self.faults.is_some() {
            assignment = repair_faulted_assignment(&ctx, assignment, &demands, &mut m);
        }
        let (realized, processing, instances) = self.realize(&assignment, &demands);
        let instantiation = self.apply_cache(slot, &instances);
        m.avg_delay_ms = (processing + instantiation) / self.scenario.requests().len() as f64;
        if self.cfg.track_regret {
            m.optimal_avg_delay_ms = self.regret_optimum(&realized, &demands);
        }
        self.feedback(
            policy,
            slot,
            &assignment,
            &realized,
            &demands,
            request_cells,
        );
        self.run_queue(slot, &assignment, &demands, &mut m);
        m.remote_count = assignment.remote_count();
        m
    }

    /// The environment reveals this slot's demands and (hidden) delays.
    fn advance_environment(&mut self) -> Vec<f64> {
        let _span = obs::span("sim/demand");
        self.scenario.demand_mut().advance();
        let demands = self.scenario.demand().demands();
        self.delay.advance();
        self.remote.advance();
        demands
    }

    /// Fault injection: advances the outage/link/brown-out chains, loses
    /// the warm cache of freshly failed stations, drains warned ones and
    /// reroutes transfer paths around dead links. Skipped entirely (not
    /// just a no-op) when faults are disabled.
    fn inject_faults(&mut self, m: &mut SlotMetrics) {
        let Some(fp) = self.faults.as_mut() else {
            return;
        };
        let _span = obs::span("sim/faults");
        fp.advance(&self.topo);
        let mut killed_while_draining = 0u64;
        for &bs in fp.newly_failed() {
            let lost = self.cache.evict_station(bs);
            if fp.preempt_killed().contains(&bs) {
                killed_while_draining += lost as u64;
                obs::mark("faults/preempt_kill");
            }
        }
        if killed_while_draining > 0 {
            obs::counter("faults/killed_while_draining", killed_while_draining);
        }
        if fp.injected_last_slot() > 0 {
            obs::counter("faults/injected", fp.injected_last_slot() as u64);
        }
        m.drained_count = fp.notices().len();
        if m.drained_count > 0 {
            obs::counter("faults/preempt_warned", m.drained_count as u64);
        }
        m.migrated_entries = drain_warned_stations(
            fp,
            &mut self.cache,
            &self.prior_delay,
            self.cfg.migration_budget,
        );
        if fp.links_changed() {
            self.transfer = TransferCosts::compute_masked(&self.topo, &self.scenario, fp.link_up());
            self.station_order = OnceCell::new();
        }
        self.stations
            .set_faults(fp.station_up(), fp.capacity_factors(), fp.drain_states());
    }

    /// What the policy may see this slot.
    fn context<'a>(&'a self, slot: usize, demands: &'a [f64]) -> SlotContext<'a> {
        let _span = obs::span("sim/context");
        SlotContext {
            slot,
            topo: &self.topo,
            scenario: &self.scenario,
            given_demands: self.cfg.reveal_demands.then_some(demands),
            transfer: &self.transfer,
            station_order: &self.station_order,
            prior_delay: &self.prior_delay,
            remote_delay: self.net_cfg.remote_dc_delay_ms.mid(),
            net_cfg: &self.net_cfg,
            stations: &self.stations,
        }
    }

    /// Scores the assignment against the realized delays. Returns the
    /// realized unit delays (the regret LP and the feedback read them),
    /// the processing and transfer part of objective (3), and the
    /// distinct (service, station) instances used, sorted. A station
    /// whose load exceeds its (brown-out) capacity queues: its unit delay
    /// scales by `(load / capacity)²`, the superlinear blow-up of
    /// queueing delay near saturation. Policies that under-predict bursty
    /// demand therefore pay for it — the physical effect the paper's
    /// bursty-demand story hinges on. The clairvoyant optimum respects
    /// capacities exactly and never overloads.
    fn realize(
        &self,
        assignment: &Assignment,
        demands: &[f64],
    ) -> (Vec<f64>, f64, Vec<(usize, usize)>) {
        let _span = obs::span("sim/realize");
        let n = self.topo.len();
        let load = assignment.station_load(demands, n);
        // Brown-outs shrink the capacity, so congestion kicks in earlier.
        let capacity = self.stations.brownout_capacity();
        let mut realized: Vec<f64> = (0..n).map(|i| self.delay.unit_delay(BsId(i))).collect();
        if self.cfg.load_sensitivity > 0.0 {
            // Endogenous congestion: this slot's utilization slows the
            // stations carrying it.
            for (i, r) in realized.iter_mut().enumerate() {
                *r *= 1.0 + self.cfg.load_sensitivity * (load[i] / capacity[i]);
            }
        }
        let overload: Vec<f64> = load
            .iter()
            .zip(capacity)
            .map(|(&l, &cap)| {
                let ratio = (l / cap).max(1.0);
                ratio * ratio
            })
            .collect();
        let mut processing = 0.0;
        // One mark per (service, station) pair, service-major, so reading
        // the marks in index order lists the instances sorted.
        let mut used = vec![false; self.scenario.services().len() * n];
        for (l, t) in assignment.targets().iter().enumerate() {
            match t {
                Target::Edge(bs) => {
                    let i = bs.index();
                    processing +=
                        demands[l] * (realized[i] * overload[i] + self.transfer.row(l)[i]);
                    let k = self.scenario.requests()[l].service().index();
                    used[k * n + i] = true;
                }
                Target::Remote => {
                    processing += demands[l] * self.remote.unit_delay();
                }
            }
        }
        let instances = used
            .iter()
            .enumerate()
            .filter(|&(_, &u)| u)
            .map(|(ki, _)| (ki / n, ki % n))
            .collect();
        (realized, processing, instances)
    }

    /// The instantiation cost of this slot's instances: each pays
    /// `d_ins` under the paper's per-slot accounting, only newly warm
    /// ones under amortized accounting.
    fn apply_cache(&mut self, slot: usize, instances: &[(usize, usize)]) -> f64 {
        let _span = obs::span("sim/cache_apply");
        obs::counter("cache/instances_used", instances.len() as u64);
        if self.cfg.amortize_instantiation {
            self.cache
                .apply(slot, instances, self.scenario.instantiation())
        } else {
            instances
                .iter()
                .map(|&(k, i)| self.scenario.instantiation().get(BsId(i), k))
                .sum()
        }
    }

    /// Clairvoyant reference: the processing-delay LP optimum under the
    /// realized delays and true demands, or `None` if the LP fails. The
    /// instantiation term is dropped from the reference — a fractional
    /// solution spreads requests over many partial instances, so its
    /// summed instantiation cost is *not* a lower bound on integral
    /// assignments, while the pure processing optimum is.
    fn regret_optimum(&self, realized: &[f64], demands: &[f64]) -> Option<f64> {
        let _span = obs::span("sim/regret_lp");
        // Unweighted: the optimum is scored on realized delays, so drain
        // and breaker steering have no place in it.
        let true_lp = build_caching_lp(
            &self.scenario,
            &self.transfer,
            realized,
            demands,
            self.remote.unit_delay(),
            &self.stations.unweighted(),
        );
        true_lp.solve_fast().ok().map(|sol| {
            let zero_y = vec![vec![0.0; true_lp.n_stations()]; true_lp.n_services()];
            true_lp.objective_of(&sol.x, &zero_y)
        })
    }

    /// Bandit feedback: only stations actually played reveal their
    /// realized delay.
    fn feedback(
        &self,
        policy: &mut dyn CachingPolicy,
        slot: usize,
        assignment: &Assignment,
        realized: &[f64],
        demands: &[f64],
        request_cells: &[usize],
    ) {
        let _span = obs::span("sim/feedback");
        let observed: Vec<(usize, f64)> = assignment
            .stations_used()
            .into_iter()
            .map(|bs| (bs.index(), realized[bs.index()]))
            .collect();
        policy.observe(&SlotFeedback {
            slot,
            observed_unit_delay: &observed,
            realized_demands: demands,
            request_cells,
            station_up: self.stations.up(),
        });
        obs::counter("sim/remote_requests", assignment.remote_count() as u64);
    }

    /// Open-loop queue layer: replays this slot's (repaired) assignment
    /// as timed arrivals against finite-rate station servers and
    /// measures per-request sojourns. The arrival and retry streams are
    /// hashed from (seed, slot, request) rather than drawn from the
    /// episode RNG, so a queue-disabled run is untouched. Two narrow
    /// feedback paths exist: breaker verdicts down-weight next slot's LP
    /// columns (see [`Episode::run_slot`]), and every waiting-room drop
    /// or resilience shed is charged its demand at the realized remote
    /// unit delay — the request was effectively bounced to the remote
    /// tier — so overload shows up in the paper's cost objective exactly
    /// like the fault path's `dropped_count`. A lossless slot adds
    /// nothing and leaves `avg_delay_ms` bit-identical.
    fn run_queue(
        &mut self,
        slot: usize,
        assignment: &Assignment,
        demands: &[f64],
        m: &mut SlotMetrics,
    ) {
        let Some(qs) = self.queue.as_mut() else {
            return;
        };
        let _span = obs::span("sim/queue");
        let qcfg = *qs.config();
        let n_requests = self.scenario.requests().len();
        // Drain notices interlock with the breakers: a HalfOpen breaker
        // must not spend its probe on a station that is scheduled to die.
        let draining: Vec<bool> = self
            .stations
            .drain()
            .iter()
            .map(|d| d.is_draining())
            .collect();
        qs.set_draining(&draining);
        qs.begin_slot(slot, self.stations.service_rate());
        // Normalize service times so total offered work is ρ × nominal
        // capacity (n stations × slot length). Normalizing by *nominal*
        // rather than live capacity means faults genuinely raise
        // effective load; per-station load depends on where the policy
        // routed demand.
        let total_demand: f64 = demands.iter().sum();
        let ms_per_unit = if total_demand > 0.0 {
            qcfg.offered_load * self.topo.len() as f64 * qcfg.slot_ms / total_demand
        } else {
            0.0
        };
        // Priority-aware shedding spares the heavy hitters: an
        // above-average-demand request is high priority.
        let mean_demand = total_demand / n_requests as f64;
        let arrivals = mec_workload::arrivals::expand_slot(
            self.cfg.seed ^ qcfg.arrival_seed_salt,
            slot,
            n_requests,
            qcfg.slot_ms,
        );
        for a in &arrivals {
            if let Target::Edge(bs) = assignment.targets()[a.request] {
                qs.submit_prio(
                    a.request,
                    bs.index(),
                    a.offset_ms,
                    demands[a.request] * ms_per_unit,
                    demands[a.request] >= mean_demand,
                );
            }
        }
        let stats = qs.run_slot();
        let mut loss_penalty = 0.0;
        for &r in stats.dropped_requests.iter().chain(&stats.shed_requests) {
            loss_penalty += demands[r] * self.remote.unit_delay();
        }
        if loss_penalty > 0.0 {
            m.avg_delay_ms += loss_penalty / n_requests as f64;
        }
        m.p50_sojourn_ms = stats.p50_ms();
        m.p99_sojourn_ms = stats.p99_ms();
        m.queue_dropped_count = stats.dropped;
        m.queue_completed_count = stats.completed();
        m.deadline_missed = stats.deadline_missed;
        m.retries_attempted = stats.retries_attempted;
        m.retries_succeeded = stats.retries_succeeded;
        m.shed_count = stats.shed;
        m.breaker_open_slots = stats.breaker_open;
    }
}

/// Proactive degradation: every station warned this slot drains its
/// warmest cache entries onto the cheapest alive station that is not
/// itself doomed, up to `budget` entries each. The rest of the warm set
/// dies with the station at kill time. Returns the entries migrated.
fn drain_warned_stations(
    fp: &FaultProcess,
    cache: &mut crate::CacheState,
    prior_delay: &[f64],
    budget: usize,
) -> usize {
    let (up, drain) = (fp.station_up(), fp.drain_states());
    let mut migrated = 0;
    for notice in fp.notices() {
        obs::mark("faults/preempt_notice");
        let from = notice.station;
        let target = cheapest_station(
            prior_delay.len(),
            f64::INFINITY,
            |i| i != from.index() && up[i] && !drain[i].is_draining(),
            |i| prior_delay[i],
        );
        if let Some(i) = target {
            let moved = cache.drain_to(from, BsId(i), budget);
            if moved > 0 {
                migrated += moved;
                obs::mark("faults/drain");
            }
        }
    }
    if migrated > 0 {
        obs::counter("faults/drained", migrated as u64);
    }
    migrated
}

/// The policy's decision, timed for the paper's running-time series
/// (`decide_us`).
fn decide(
    policy: &mut dyn CachingPolicy,
    ctx: &SlotContext<'_>,
    m: &mut SlotMetrics,
) -> Assignment {
    let _span = obs::span("sim/decide");
    let watch = obs::Stopwatch::start();
    let assignment = policy.decide(ctx);
    m.decide_us = watch.elapsed_us();
    assert_eq!(
        assignment.len(),
        ctx.scenario.requests().len(),
        "assignment must cover every request"
    );
    assignment
}

/// Graceful degradation, run after `decide` when faults are active:
/// nothing may stay assigned to a down station, whatever the policy
/// returned. Each such request is re-routed by `Greedy_GD`'s rule
/// (one [`GreedyPass`]) to its cheapest alive station with spare
/// (brown-out-adjusted) capacity, or to the remote data centre when none
/// has room. A second, pre-emptive pass then evacuates requests parked
/// on stations one slot away from a scheduled preemption kill
/// (`Draining(1)`) onto the cheapest alive non-draining station with
/// slack — acting on the warning now is cheaper than post-outage repair
/// next slot. Counts the moves in `m`'s `rerouted_count`,
/// `dropped_count` and `proactive_reroutes`.
fn repair_faulted_assignment(
    ctx: &SlotContext<'_>,
    assignment: Assignment,
    demands: &[f64],
    m: &mut SlotMetrics,
) -> Assignment {
    let _span = obs::span("sim/fault_repair");
    let (up, drain) = (ctx.stations.up(), ctx.stations.drain());
    let n = up.len();
    // Down stations' entries are summed too, but no pass reads them.
    let mut load = assignment.station_load(demands, n);
    let mut targets = assignment.targets().to_vec();
    let stranded: Vec<usize> = (0..targets.len())
        .filter(|&l| matches!(targets[l], Target::Edge(bs) if !up[bs.index()]))
        .collect();
    if !stranded.is_empty() {
        let mut pass = GreedyPass::over(ctx, &mut load, stranded.iter().map(|&l| demands[l]));
        for &l in &stranded {
            targets[l] = pass.pick(l, demands[l]);
            if targets[l].is_edge() {
                m.rerouted_count += 1;
            } else {
                m.dropped_count += 1;
            }
        }
    }
    // Pre-emptive pass: a request still parked on a `Draining(1)`
    // station would be force-repaired (or lost to the remote tier) next
    // slot anyway; moving it now, while the station still serves, avoids
    // instantiating anything new on doomed hardware. Unlike the
    // down-station pass there is no remote fallback — if no alive
    // non-draining station has slack, the request stays put for its
    // final served slot.
    if drain.contains(&DrainState::Draining(1)) {
        let capacity = ctx.stations.capacity();
        for (l, target) in targets.iter_mut().enumerate() {
            let Target::Edge(bs) = *target else {
                continue;
            };
            if drain[bs.index()] != DrainState::Draining(1) || !up[bs.index()] {
                continue;
            }
            let transfer = ctx.transfer.row(l);
            let safe = cheapest_station(
                n,
                f64::INFINITY,
                |i| up[i] && !drain[i].is_draining() && load[i] + demands[l] <= capacity[i] + 1e-9,
                |i| ctx.prior_delay[i] + transfer[i],
            );
            if let Some(i) = safe {
                load[bs.index()] -= demands[l];
                load[i] += demands[l];
                *target = Target::Edge(BsId(i));
                m.proactive_reroutes += 1;
            }
        }
    }
    if m.rerouted_count > 0 {
        obs::counter("requests/rerouted", m.rerouted_count as u64);
    }
    if m.dropped_count > 0 {
        obs::counter("requests/dropped", m.dropped_count as u64);
    }
    if m.proactive_reroutes > 0 {
        obs::counter("requests/proactive_reroute", m.proactive_reroutes as u64);
    }
    Assignment::new(targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyGd, OlGd, OlReg, PriGd};
    use crate::assignment::{scan_pick, Target};
    use crate::policy::PolicyConfig;
    use lexcache_runner::mini_json::ToJson;
    use mec_net::topology::gtitm;
    use mec_workload::ScenarioConfig;

    fn episode(seed: u64) -> Episode {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(20, &cfg, seed);
        let scenario = ScenarioConfig::small().build(&topo, seed);
        Episode::new(topo, cfg, scenario, seed)
    }

    #[test]
    fn ol_gd_runs_and_reports_every_slot() {
        let mut ep = episode(1);
        let report = ep.run(&mut OlGd::new(PolicyConfig::default()), 12);
        assert_eq!(report.slots.len(), 12);
        assert_eq!(report.policy, "OL_GD");
        for s in &report.slots {
            assert!(s.avg_delay_ms > 0.0 && s.avg_delay_ms.is_finite());
            assert!(s.decide_us >= 0.0);
            assert_eq!(s.optimal_avg_delay_ms, None);
        }
    }

    #[test]
    fn baselines_run() {
        for (policy, name) in [
            (
                Box::new(GreedyGd::new()) as Box<dyn CachingPolicy>,
                "Greedy_GD",
            ),
            (Box::new(PriGd::new()) as Box<dyn CachingPolicy>, "Pri_GD"),
        ] {
            let mut policy = policy;
            let mut ep = episode(2);
            let report = ep.run(policy.as_mut(), 5);
            assert_eq!(report.policy, name);
            assert!(report.mean_avg_delay_ms() > 0.0);
        }
    }

    #[test]
    fn regret_tracking_produces_optimum_per_slot() {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(15, &cfg, 3);
        let scenario = ScenarioConfig::small().build(&topo, 3);
        let mut ep = Episode::with_config(topo, cfg, scenario, EpisodeConfig::new(3).with_regret());
        let report = ep.run(&mut OlGd::new(PolicyConfig::default()), 6);
        for s in &report.slots {
            let opt = s.optimal_avg_delay_ms.expect("tracked");
            // The clairvoyant fractional optimum can never beat an
            // integral assignment by a negative margin.
            assert!(
                s.avg_delay_ms >= opt - 1e-6,
                "achieved {} below optimum {opt}",
                s.avg_delay_ms
            );
        }
        assert!(report.cumulative_regret_ms().unwrap() >= -1e-6);
    }

    #[test]
    fn paired_environments_are_identical_across_policies() {
        // Two episodes with the same seed expose the same demand/delay
        // realizations: a policy that ignores feedback sees identical
        // costs in both runs.
        let mut a = episode(7);
        let mut b = episode(7);
        let ra = a.run(&mut GreedyGd::new(), 8);
        let rb = b.run(&mut GreedyGd::new(), 8);
        assert_eq!(ra.delay_series(), rb.delay_series());
    }

    #[test]
    fn learning_beats_static_greedy_under_congestion() {
        // Run long enough for the arms to converge; the learner should
        // be at least competitive with (and typically beat) the static
        // prior-driven greedy under congested delays.
        let horizon = 60;
        let mut greedy_total = 0.0;
        let mut ol_total = 0.0;
        for seed in 0..3 {
            let mut e1 = episode(seed);
            greedy_total += e1.run(&mut GreedyGd::new(), horizon).mean_avg_delay_ms();
            let mut e2 = episode(seed);
            ol_total += e2
                .run(
                    &mut OlGd::new(PolicyConfig::default().with_seed(seed)),
                    horizon,
                )
                .mean_avg_delay_ms();
        }
        assert!(
            ol_total < greedy_total * 1.05,
            "OL_GD {ol_total} should be competitive with greedy {greedy_total}"
        );
    }

    #[test]
    fn hidden_demand_regime_runs_ol_reg() {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(15, &cfg, 5);
        let scenario = ScenarioConfig::small()
            .with_demand(mec_workload::scenario::DemandKind::Flash(
                mec_workload::demand::FlashCrowdConfig::default(),
            ))
            .build(&topo, 5);
        let mut ep =
            Episode::with_config(topo, cfg, scenario, EpisodeConfig::new(5).hidden_demands());
        let report = ep.run(&mut OlReg::new(PolicyConfig::default(), 3), 10);
        assert_eq!(report.slots.len(), 10);
        assert!(report.mean_avg_delay_ms() > 0.0);
    }

    #[test]
    fn amortized_accounting_is_cheaper_and_rank_preserving() {
        let cfg = NetworkConfig::paper_defaults();
        let run = |amortize: bool, seed: u64| {
            let topo = gtitm::generate(20, &cfg, seed);
            let scenario = ScenarioConfig::small().build(&topo, seed);
            let mut ep_cfg = EpisodeConfig::new(seed);
            if amortize {
                ep_cfg = ep_cfg.with_amortized_instantiation();
            }
            let mut ep = Episode::with_config(topo, cfg.clone(), scenario, ep_cfg);
            ep.run(&mut GreedyGd::new(), 12).mean_avg_delay_ms()
        };
        for seed in 0..3 {
            let per_slot = run(false, seed);
            let amortized = run(true, seed);
            assert!(
                amortized < per_slot,
                "warm cache must reduce total delay: {amortized} vs {per_slot}"
            );
        }
    }

    #[test]
    fn load_sensitivity_raises_delays_and_rewards_spreading() {
        let cfg = NetworkConfig::paper_defaults();
        let run = |sensitivity: f64| {
            let topo = gtitm::generate(20, &cfg, 5);
            let scenario = ScenarioConfig::small().with_requests(25).build(&topo, 5);
            let mut ep = Episode::with_config(
                topo,
                cfg.clone(),
                scenario,
                EpisodeConfig::new(5).with_load_sensitivity(sensitivity),
            );
            ep.run(&mut GreedyGd::new(), 10).mean_avg_delay_ms()
        };
        let base = run(0.0);
        let loaded = run(2.0);
        assert!(
            loaded > base,
            "load-driven congestion must raise delays: {loaded} vs {base}"
        );
    }

    #[test]
    #[should_panic(expected = "sensitivity must be non-negative")]
    fn negative_sensitivity_rejected() {
        let _ = EpisodeConfig::new(1).with_load_sensitivity(-1.0);
    }

    #[test]
    fn estimator_variants_run_end_to_end() {
        use crate::policy::EstimatorKind;
        for estimator in [
            EstimatorKind::SampleMean,
            EstimatorKind::Windowed { window: 5 },
            EstimatorKind::Discounted { gamma: 0.8 },
        ] {
            let mut ep = episode(11);
            let report = ep.run(
                &mut OlGd::new(PolicyConfig::default().with_estimator(estimator)),
                8,
            );
            assert_eq!(report.slots.len(), 8, "{estimator:?}");
            assert!(report.mean_avg_delay_ms() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let mut ep = episode(1);
        let _ = ep.run(&mut GreedyGd::new(), 0);
    }

    #[test]
    fn zero_rate_faults_match_plain_episode_bit_for_bit() {
        let plain = {
            let mut ep = episode(13);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 10)
        };
        let with_disabled_faults = {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 13);
            let scenario = ScenarioConfig::small().build(&topo, 13);
            let ep_cfg = EpisodeConfig::new(13).with_faults(FaultConfig::intensity(0.0));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 10)
        };
        let bits = |r: &EpisodeReport| -> Vec<(u64, usize)> {
            r.slots
                .iter()
                .map(|s| (s.avg_delay_ms.to_bits(), s.remote_count))
                .collect()
        };
        assert_eq!(bits(&plain), bits(&with_disabled_faults));
        assert_eq!(with_disabled_faults.total_rerouted(), 0);
        assert_eq!(with_disabled_faults.total_dropped(), 0);
    }

    #[test]
    fn faulty_episodes_are_deterministic() {
        let run = || {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 21);
            let scenario = ScenarioConfig::small().build(&topo, 21);
            let ep_cfg = EpisodeConfig::new(21).with_faults(FaultConfig::intensity(0.1));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 15)
        };
        let a = run();
        let b = run();
        let bits = |r: &EpisodeReport| -> Vec<(u64, usize, usize, usize)> {
            r.slots
                .iter()
                .map(|s| {
                    (
                        s.avg_delay_ms.to_bits(),
                        s.remote_count,
                        s.rerouted_count,
                        s.dropped_count,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed, same faults, same run");
    }

    #[test]
    fn repair_pass_moves_requests_off_down_stations() {
        let mut ep = episode(17);
        let n = ep.topology().len();
        let n_req = ep.scenario().requests().len();
        let demands = vec![1.0; n_req];
        let mut station_up = vec![true; n];
        station_up[0] = false;
        ep.stations
            .set_faults(&station_up, &vec![1.0; n], &vec![DrainState::Up; n]);
        // A pathological policy output: everything on the down station.
        let broken = crate::Assignment::new(vec![Target::Edge(mec_net::BsId(0)); n_req]);
        let mut m = SlotMetrics::default();
        let repaired =
            repair_faulted_assignment(&ep.context(1, &demands), broken, &demands, &mut m);
        let (rerouted, dropped, proactive) =
            (m.rerouted_count, m.dropped_count, m.proactive_reroutes);
        assert_eq!(rerouted + dropped, n_req, "every request was touched");
        assert_eq!(proactive, 0, "nothing drains in this scenario");
        let mut load = vec![0.0; n];
        for (l, t) in repaired.targets().iter().enumerate() {
            if let Target::Edge(bs) = t {
                assert_ne!(bs.index(), 0, "request {l} still on the down station");
                load[bs.index()] += demands[l];
            }
        }
        for (i, &l) in load.iter().enumerate() {
            let cap = ep.topology().stations()[i].capacity_mhz() / ep.scenario().c_unit_mhz();
            assert!(l <= cap + 1e-6, "station {i} overloaded after repair: {l}");
        }
    }

    /// Places every request by the reference scan ([`scan_pick`]), in
    /// `Greedy_GD`'s request order or `Pri_GD`'s, under the same name;
    /// counts the slots whose transfer costs differ from the slot
    /// before.
    struct ScanGreedy {
        name: &'static str,
        by_priority: bool,
        last_transfer: Option<TransferCosts>,
        transfer_changes: usize,
    }

    impl CachingPolicy for ScanGreedy {
        fn name(&self) -> &'static str {
            self.name
        }

        fn decide(&mut self, ctx: &SlotContext<'_>) -> crate::Assignment {
            if self
                .last_transfer
                .as_ref()
                .is_some_and(|t| t != ctx.transfer)
            {
                self.transfer_changes += 1;
            }
            self.last_transfer = Some(ctx.transfer.clone());
            let demands = ctx.given_demands.expect("given-demand regime");
            let mut order: Vec<usize> = (0..demands.len()).collect();
            if self.by_priority {
                let cover = |l: usize| ctx.scenario.requests()[l].cover_count();
                order.sort_by(|&a, &b| cover(b).cmp(&cover(a)).then(a.cmp(&b)));
            }
            let mut load = vec![0.0; ctx.topo.len()];
            let mut targets = vec![Target::Remote; demands.len()];
            for l in order {
                targets[l] = scan_pick(
                    ctx.stations.up(),
                    ctx.stations.capacity(),
                    ctx.prior_delay,
                    ctx.transfer.row(l),
                    ctx.remote_delay,
                    demands[l],
                    &mut load,
                );
            }
            crate::Assignment::new(targets)
        }

        fn observe(&mut self, _fb: &SlotFeedback<'_>) {}
    }

    /// Link failures recompute the transfer costs mid-episode, and with
    /// them the station order: `Greedy_GD` and `Pri_GD` must place
    /// exactly as the reference scan over the current costs does.
    #[test]
    fn greedy_episodes_under_link_changes_match_the_reference_scan() {
        let run = |policy: &mut dyn CachingPolicy| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 31);
            let scenario = ScenarioConfig::small().with_requests(200).build(&topo, 31);
            let ep_cfg = EpisodeConfig::new(31).with_faults(FaultConfig::intensity(0.3));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(policy, 40).with_zeroed_timings()
        };
        for (mut walk, by_priority) in [
            (Box::new(GreedyGd::new()) as Box<dyn CachingPolicy>, false),
            (Box::new(PriGd::new()) as Box<dyn CachingPolicy>, true),
        ] {
            let mut scan = ScanGreedy {
                name: walk.name(),
                by_priority,
                last_transfer: None,
                transfer_changes: 0,
            };
            let (walked, scanned) = (run(walk.as_mut()), run(&mut scan));
            assert_eq!(walked.to_json(), scanned.to_json(), "{}", scan.name);
            assert!(
                scan.transfer_changes > 0,
                "links must change the transfer costs during the episode"
            );
            let remote: usize = scanned.slots.iter().map(|s| s.remote_count).sum();
            assert!(remote > 0, "some requests find no station with slack");
        }
    }

    #[test]
    fn faulted_runs_reroute_a_fault_oblivious_policy() {
        // A policy that ignores `station_up` entirely: the simulator's
        // repair pass must still keep its requests off down stations.
        struct StickToZero;
        impl CachingPolicy for StickToZero {
            fn name(&self) -> &'static str {
                "Stick0"
            }
            fn decide(&mut self, ctx: &SlotContext<'_>) -> crate::Assignment {
                let n_req = ctx.scenario.requests().len();
                crate::Assignment::new(vec![Target::Edge(mec_net::BsId(0)); n_req])
            }
            fn observe(&mut self, _fb: &SlotFeedback<'_>) {}
        }
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(10, &cfg, 23);
        let scenario = ScenarioConfig::small().build(&topo, 23);
        let faults = FaultConfig {
            outage_rate: 0.9,
            repair_rate: 0.1,
            ..FaultConfig::none()
        };
        let ep_cfg = EpisodeConfig::new(23).with_faults(faults);
        let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
        let report = ep.run(&mut StickToZero, 30);
        assert!(
            report.total_rerouted() + report.total_dropped() > 0,
            "station 0 was down at some point; repairs must show up"
        );
    }

    #[test]
    fn policies_avoid_down_stations_and_reduced_capacity_under_faults() {
        // Audit every decision *before* the simulator's repair pass:
        // fault-aware policies must keep clear of down stations and obey
        // the brown-out-reduced capacities on their own.
        struct Audit(Box<dyn CachingPolicy>, bool);
        impl CachingPolicy for Audit {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn decide(&mut self, ctx: &SlotContext<'_>) -> crate::Assignment {
                let a = self.0.decide(ctx);
                let demands = ctx.given_demands.unwrap();
                let n = ctx.topo.len();
                let mut load = vec![0.0; n];
                for (l, t) in a.targets().iter().enumerate() {
                    if let Target::Edge(bs) = t {
                        assert!(
                            ctx.stations.up()[bs.index()],
                            "request {l} assigned to down station {}",
                            bs.index()
                        );
                        load[bs.index()] += demands[l];
                    }
                }
                for (i, &l) in load.iter().enumerate() {
                    let cap = ctx.stations.capacity()[i];
                    assert!(l <= cap + 1e-6, "station {i} over effective capacity: {l}");
                }
                if ctx.stations.up().iter().any(|&u| !u) {
                    self.1 = true;
                }
                a
            }
            fn observe(&mut self, fb: &SlotFeedback<'_>) {
                self.0.observe(fb);
            }
        }
        for (policy, label) in [
            (
                Box::new(OlGd::new(PolicyConfig::default())) as Box<dyn CachingPolicy>,
                "OL_GD",
            ),
            (
                Box::new(GreedyGd::new()) as Box<dyn CachingPolicy>,
                "greedy",
            ),
        ] {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 29);
            let scenario = ScenarioConfig::small().build(&topo, 29);
            let ep_cfg = EpisodeConfig::new(29).with_faults(FaultConfig::intensity(0.2));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            let mut audit = Audit(policy, false);
            let _ = ep.run(&mut audit, 25);
            assert!(audit.1, "{label}: no slot ever had a down station");
        }
    }

    #[test]
    fn capacity_is_never_violated() {
        // Use a scenario with heavy demand against a tiny network to
        // force the repair path, then audit loads per station.
        struct Audit<P>(P, Vec<Vec<f64>>);
        impl<P: CachingPolicy> CachingPolicy for Audit<P> {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn decide(&mut self, ctx: &SlotContext<'_>) -> crate::Assignment {
                let a = self.0.decide(ctx);
                let demands = ctx.given_demands.unwrap();
                let mut load = vec![0.0; ctx.topo.len()];
                for (l, t) in a.targets().iter().enumerate() {
                    if let Target::Edge(bs) = t {
                        load[bs.index()] += demands[l];
                    }
                }
                self.1.push(load);
                a
            }
            fn observe(&mut self, fb: &SlotFeedback<'_>) {
                self.0.observe(fb);
            }
        }
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(8, &cfg, 9);
        let scenario = ScenarioConfig::small().with_requests(40).build(&topo, 9);
        let caps: Vec<f64> = topo
            .stations()
            .iter()
            .map(|b| b.capacity_mhz() / scenario.c_unit_mhz())
            .collect();
        let mut audit = Audit(OlGd::new(PolicyConfig::default()), Vec::new());
        let mut ep = Episode::new(topo, cfg, scenario, 9);
        let _ = ep.run(&mut audit, 10);
        for loads in &audit.1 {
            for (i, &l) in loads.iter().enumerate() {
                assert!(l <= caps[i] + 1e-6, "station {i} overloaded: {l}");
            }
        }
    }

    /// Tentpole pin at the episode level: preemption with a zero-slot
    /// notice window is the unannounced-outage pipeline bit-for-bit —
    /// same kills, same repairs, same delays, and none of the
    /// drain-path metrics ever fire.
    #[test]
    fn preempt_notice_zero_episode_matches_unannounced_outage_episode() {
        let build = |faults: FaultConfig| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 43);
            let scenario = ScenarioConfig::small().build(&topo, 43);
            let ep_cfg = EpisodeConfig::new(43)
                .with_faults(faults)
                .with_amortized_instantiation();
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 25)
        };
        let preempt = build(FaultConfig::preempt(0.15, 0));
        let outage = build(FaultConfig {
            outage_rate: 0.15,
            repair_rate: 0.3,
            correlation_radius_m: 100.0,
            correlation_probability: 0.5,
            ..FaultConfig::none()
        });
        let bits = |r: &EpisodeReport| -> Vec<(u64, usize, usize, usize)> {
            r.slots
                .iter()
                .map(|s| {
                    (
                        s.avg_delay_ms.to_bits(),
                        s.remote_count,
                        s.rerouted_count,
                        s.dropped_count,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&preempt), bits(&outage));
        assert_eq!(preempt.total_drained(), 0, "no warnings at notice zero");
        assert_eq!(preempt.total_migrated(), 0);
        assert_eq!(preempt.total_proactive_reroutes(), 0);
    }

    #[test]
    fn preemptive_episodes_are_deterministic() {
        let run = || {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 47);
            let scenario = ScenarioConfig::small().build(&topo, 47);
            let ep_cfg = EpisodeConfig::new(47)
                .with_faults(FaultConfig::preempt(0.2, 3))
                .with_amortized_instantiation();
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 30)
        };
        let a = run();
        let b = run();
        let bits = |r: &EpisodeReport| -> Vec<(u64, usize, usize, usize)> {
            r.slots
                .iter()
                .map(|s| {
                    (
                        s.avg_delay_ms.to_bits(),
                        s.drained_count,
                        s.migrated_entries,
                        s.proactive_reroutes,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed, same preemptions");
        assert!(
            a.total_drained() > 0,
            "a 0.2 preempt rate over 30 slots must warn at least once"
        );
    }

    /// Slot-by-slot audit of the drain pipeline: drain states stay
    /// consistent with liveness as the policy sees them, and the warm
    /// cache never holds an entry on a down station — kills evict, and
    /// neither `apply` nor drain migration may repopulate one.
    #[test]
    fn preemption_invariants_hold_slot_by_slot() {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(15, &cfg, 53);
        let scenario = ScenarioConfig::small().build(&topo, 53);
        let ep_cfg = EpisodeConfig::new(53)
            .with_faults(FaultConfig::preempt(0.3, 2))
            .with_amortized_instantiation();
        let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
        let n = ep.topology().len();
        let mut saw_drain = false;
        for _ in 0..40 {
            let _ = ep.run(&mut GreedyGd::new(), 1);
            for i in 0..n {
                let up = ep.stations.up()[i];
                match ep.stations.drain()[i] {
                    DrainState::Draining(k) => {
                        saw_drain = true;
                        assert!(k >= 1, "a zero-countdown station must be dead already");
                        assert!(up, "draining station {i} must be up");
                    }
                    DrainState::Preempted => {
                        assert!(!up, "preempted station {i} must be down");
                    }
                    DrainState::Returning | DrainState::Up => {}
                }
                if !up {
                    assert_eq!(
                        ep.cache.live_at(mec_net::BsId(i)),
                        0,
                        "down station {i} still holds warm cache entries"
                    );
                }
            }
        }
        assert!(saw_drain, "a 0.3 preempt rate must drain at least once");
    }

    /// The robustness headline: with a usable notice window the pipeline
    /// (cache migration + pre-emptive reroute + warning-aware learners)
    /// keeps the learner competitive with — and typically ahead of — the
    /// warning-blind greedy baseline under the same preemption stream.
    #[test]
    fn warned_learner_is_competitive_with_blind_baseline_under_preemption() {
        let horizon = 50;
        let mut blind_total = 0.0;
        let mut warned_total = 0.0;
        for seed in 0..3 {
            let build = || {
                let cfg = NetworkConfig::paper_defaults();
                let topo = gtitm::generate(20, &cfg, 61 + seed);
                let scenario = ScenarioConfig::small().build(&topo, 61 + seed);
                let ep_cfg = EpisodeConfig::new(61 + seed)
                    .with_faults(FaultConfig::preempt(0.15, 3))
                    .with_amortized_instantiation();
                Episode::with_config(topo, cfg, scenario, ep_cfg)
            };
            blind_total += build()
                .run(&mut GreedyGd::new(), horizon)
                .mean_avg_delay_ms();
            warned_total += build()
                .run(
                    &mut OlGd::new(PolicyConfig::default().with_seed(61 + seed)),
                    horizon,
                )
                .mean_avg_delay_ms();
        }
        assert!(
            warned_total < blind_total * 1.05,
            "warned OL_GD {warned_total} should be competitive with blind greedy {blind_total}"
        );
    }

    /// Drain migration pays for itself: with the same policy, seed and
    /// fault stream (migration never touches the fault RNG), a non-zero
    /// migration budget preserves warm entries that a zero budget loses
    /// with the killed station.
    #[test]
    fn drain_migration_preserves_warm_cache_value() {
        let run = |budget: usize| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 67);
            let scenario = ScenarioConfig::small().build(&topo, 67);
            let ep_cfg = EpisodeConfig::new(67)
                .with_faults(FaultConfig::preempt(0.2, 3))
                .with_amortized_instantiation()
                .with_migration_budget(budget);
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut GreedyGd::new(), 40)
        };
        let with_budget = run(8);
        let without = run(0);
        assert!(with_budget.total_migrated() > 0, "the budget must be used");
        assert_eq!(without.total_migrated(), 0, "budget 0 disables migration");
        // Identical decisions and fault streams: only instantiation
        // accounting differs, and keeping entries warm can only help.
        assert!(
            with_budget.mean_avg_delay_ms() <= without.mean_avg_delay_ms() * 1.02,
            "migration should not cost delay: {} vs {}",
            with_budget.mean_avg_delay_ms(),
            without.mean_avg_delay_ms()
        );
        assert_eq!(
            with_budget.total_rerouted(),
            without.total_rerouted(),
            "migration must not perturb the fault stream"
        );
    }

    /// Satellite pin for the drain edge case PR 8 left untested at the
    /// episode level: when *every* candidate target is itself draining
    /// or down (preempt rate 1 warns all live stations at once), the
    /// drain pass finds no alive non-draining station, migrates
    /// nothing, and the episode completes gracefully — entries die
    /// with their stations instead of leaking onto doomed ones.
    #[test]
    fn drain_with_no_alive_target_migrates_nothing() {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(6, &cfg, 71);
        let scenario = ScenarioConfig::small().build(&topo, 71);
        let ep_cfg = EpisodeConfig::new(71)
            .with_faults(FaultConfig::preempt(1.0, 3))
            .with_amortized_instantiation();
        let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
        let report = ep.run(&mut GreedyGd::new(), 12);
        assert!(
            report.total_drained() > 0,
            "rate-1 preemption must warn every live station"
        );
        assert_eq!(
            report.total_migrated(),
            0,
            "with every station draining there is never a migration target"
        );
        for s in &report.slots {
            assert!(s.avg_delay_ms.is_finite() && s.avg_delay_ms >= 0.0);
        }
    }

    /// Tentpole golden: the queue core in equivalence mode (zero
    /// service time, infinite waiting rooms) reproduces the
    /// slot-synchronous path bit for bit — the *entire* serialized
    /// report, sojourn fields included, is byte-identical to a run
    /// with no queue layer at all, with and without faults.
    #[test]
    fn zero_service_queue_episode_matches_slot_synchronous_bit_for_bit() {
        let run = |queue: Option<QueueConfig>, faults: FaultConfig| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(20, &cfg, 73);
            let scenario = ScenarioConfig::small().build(&topo, 73);
            let mut ep_cfg = EpisodeConfig::new(73).with_amortized_instantiation();
            if faults.is_enabled() {
                ep_cfg = ep_cfg.with_faults(faults);
            }
            if let Some(q) = queue {
                ep_cfg = ep_cfg.with_queue(q);
            }
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            let n_requests = ep.scenario().requests().len();
            let report = ep.run(&mut OlGd::new(PolicyConfig::default()), 15);
            // decide_us is the one wall-clock (non-deterministic) field.
            (report.with_zeroed_timings(), n_requests)
        };
        for faults in [FaultConfig::none(), FaultConfig::preempt(0.2, 3)] {
            let (plain, _) = run(None, faults);
            let (mut equivalent, n_requests) = run(Some(QueueConfig::equivalence()), faults);
            // The one field a queue adds: every zero-service job
            // completes in the slot it arrives in, so each edge-assigned
            // request counts one completion (a run without a queue
            // reports 0).
            for s in &mut equivalent.slots {
                assert_eq!(
                    s.queue_completed_count,
                    n_requests - s.remote_count,
                    "slot {} (faults: {})",
                    s.slot,
                    faults.is_enabled()
                );
                s.queue_completed_count = 0;
            }
            assert_eq!(
                plain.to_json(),
                equivalent.to_json(),
                "equivalence-mode queue must be byte-invisible (faults: {})",
                faults.is_enabled()
            );
        }
    }

    #[test]
    fn queued_episodes_are_deterministic() {
        let run = || {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 79);
            let scenario = ScenarioConfig::small().build(&topo, 79);
            let ep_cfg = EpisodeConfig::new(79)
                .with_faults(FaultConfig::intensity(0.1))
                .with_queue(QueueConfig::open_loop(0.95));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 12)
        };
        let (a, b) = (run(), run());
        let bits = |r: &EpisodeReport| -> Vec<(u64, u64, usize)> {
            r.slots
                .iter()
                .map(|s| {
                    (
                        s.p50_sojourn_ms.to_bits(),
                        s.p99_sojourn_ms.to_bits(),
                        s.queue_dropped_count,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed, same sojourns");
        assert!(
            a.slots.iter().any(|s| s.p99_sojourn_ms > 0.0),
            "a loaded queue must measure non-zero sojourns"
        );
    }

    /// A lossless queue is pure measurement: with infinite waiting
    /// rooms and no resilience knobs nothing is ever dropped or shed,
    /// so enabling the layer at any load leaves the paper's delay
    /// proxy (and every fault metric) untouched — it draws from its
    /// own hash stream and the loss penalty never fires.
    #[test]
    fn queue_layer_never_perturbs_the_delay_proxy() {
        let run = |queue: Option<QueueConfig>| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 83);
            let scenario = ScenarioConfig::small().build(&topo, 83);
            let mut ep_cfg = EpisodeConfig::new(83).with_faults(FaultConfig::intensity(0.1));
            if let Some(q) = queue {
                ep_cfg = ep_cfg.with_queue(q);
            }
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 10)
        };
        let plain = run(None);
        let queued = run(Some(QueueConfig::open_loop(1.1)));
        let bits = |r: &EpisodeReport| -> Vec<(u64, usize, usize)> {
            r.slots
                .iter()
                .map(|s| (s.avg_delay_ms.to_bits(), s.remote_count, s.rerouted_count))
                .collect()
        };
        assert_eq!(bits(&plain), bits(&queued));
    }

    /// The regime the paper cannot express: past saturation the open-
    /// loop backlog compounds, so tail sojourns grow across the
    /// horizon and dwarf the sub-critical run's.
    #[test]
    fn overload_grows_the_sojourn_tail() {
        let run = |rho: f64| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 89);
            let scenario = ScenarioConfig::small().build(&topo, 89);
            let ep_cfg = EpisodeConfig::new(89).with_queue(QueueConfig::open_loop(rho));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut GreedyGd::new(), 15)
        };
        let calm = run(0.3);
        let overloaded = run(1.2);
        for r in [&calm, &overloaded] {
            for s in &r.slots {
                assert!(s.p99_sojourn_ms.is_finite() && s.p99_sojourn_ms >= s.p50_sojourn_ms);
            }
        }
        assert!(
            overloaded.mean_p99_sojourn_ms() > calm.mean_p99_sojourn_ms(),
            "ρ=1.2 tail {} must exceed ρ=0.3 tail {}",
            overloaded.mean_p99_sojourn_ms(),
            calm.mean_p99_sojourn_ms()
        );
        // Collapse signature: the backlog compounds, so the worst slot
        // tail dwarfs the first slot's (service scaling alone is 4×;
        // demand 10× guards against burst-shape luck).
        let first = overloaded.slots.first().unwrap().p99_sojourn_ms;
        let worst = overloaded.max_p99_sojourn_ms();
        assert!(
            worst > first,
            "open-loop overload must grow the tail across the horizon: {worst} vs {first}"
        );
    }

    #[test]
    fn finite_waiting_rooms_drop_and_count() {
        let run = |cap: usize| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(10, &cfg, 97);
            let scenario = ScenarioConfig::small().with_requests(30).build(&topo, 97);
            let ep_cfg = EpisodeConfig::new(97)
                .with_queue(QueueConfig::open_loop(1.2).with_queue_capacity(cap));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut GreedyGd::new(), 12)
        };
        let bounded = run(2);
        assert!(
            bounded.total_queue_dropped() > 0,
            "2-deep waiting rooms at ρ=1.2 must overflow"
        );
        let unbounded = run(usize::MAX);
        assert_eq!(
            unbounded.total_queue_dropped(),
            0,
            "infinite waiting rooms never drop"
        );
    }

    /// Tentpole golden: a [`ResilConfig::disabled`] queue constructs no
    /// resilience runtime at all, so the *entire* serialized report —
    /// sojourns, drops, every new counter — is byte-identical to the
    /// same queue config without the resilience field, faults included.
    #[test]
    fn disabled_resilience_episode_is_byte_invisible() {
        use lexcache_queue::ResilConfig;
        let run = |resil: Option<ResilConfig>| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 79);
            let scenario = ScenarioConfig::small().build(&topo, 79);
            let mut q = QueueConfig::open_loop(0.95);
            if let Some(r) = resil {
                q = q.with_resilience(r);
            }
            let ep_cfg = EpisodeConfig::new(79)
                .with_faults(FaultConfig::intensity(0.1))
                .with_queue(q);
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            let report = ep.run(&mut OlGd::new(PolicyConfig::default()), 12);
            report.with_zeroed_timings().to_json()
        };
        assert_eq!(
            run(None),
            run(Some(ResilConfig::disabled())),
            "a disabled resilience layer must be byte-invisible"
        );
    }

    /// Satellite bugfix pin: waiting-room drops now charge the cost
    /// objective — each lost request pays its demand at the realized
    /// remote unit delay, consistent with the fault path's
    /// `dropped_count` — while lossless slots stay bit-identical to
    /// the infinite-room run.
    #[test]
    fn queue_drops_charge_the_cost_objective() {
        let run = |cap: usize| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(10, &cfg, 97);
            let scenario = ScenarioConfig::small().with_requests(30).build(&topo, 97);
            let ep_cfg = EpisodeConfig::new(97)
                .with_queue(QueueConfig::open_loop(1.2).with_queue_capacity(cap));
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut GreedyGd::new(), 12)
        };
        let bounded = run(2);
        let unbounded = run(usize::MAX);
        assert!(bounded.total_queue_dropped() > 0, "cap 2 at ρ=1.2 drops");
        // Greedy is static, so the two runs share every decision and
        // every realization; only the loss penalty can differ.
        for (b, u) in bounded.slots.iter().zip(&unbounded.slots) {
            if b.queue_dropped_count == 0 {
                assert_eq!(
                    b.avg_delay_ms.to_bits(),
                    u.avg_delay_ms.to_bits(),
                    "slot {} lost nothing and must stay bit-identical",
                    b.slot
                );
            } else {
                assert!(
                    b.avg_delay_ms > u.avg_delay_ms,
                    "slot {} dropped {} jobs and must pay for them",
                    b.slot,
                    b.queue_dropped_count
                );
            }
        }
    }

    /// Deadlines, deterministic retries and the loss penalty are all
    /// hash-stream driven: two identical overloaded runs serialize to
    /// the same bytes, and the retry stream genuinely fired.
    #[test]
    fn resilient_episodes_are_deterministic() {
        use lexcache_queue::{Discipline, ResilConfig};
        let run = || {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 103);
            let scenario = ScenarioConfig::small().with_requests(60).build(&topo, 103);
            let q = QueueConfig::open_loop(1.1)
                .with_discipline(Discipline::ProcessorSharing)
                .with_resilience(
                    ResilConfig::slo(300.0)
                        .without_breakers()
                        .without_admission(),
                );
            let ep_cfg = EpisodeConfig::new(103).with_queue(q);
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 15)
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.with_zeroed_timings().to_json(),
            b.with_zeroed_timings().to_json(),
            "same seed, same misses, same retries"
        );
        assert!(
            a.total_deadline_missed() > 0,
            "ρ=1.1 under PS must miss a 300 ms deadline at least once"
        );
        assert!(
            a.total_retries_attempted() > 0,
            "misses with a retry budget must re-enqueue"
        );
    }

    /// The resilience headline (tentpole acceptance): at ρ = 1.1 under
    /// processor sharing, turning breakers + admission on over the same
    /// deadline/retry base strictly lowers the deadline-miss rate and
    /// the sojourn tail while completing *more* work — shedding the
    /// hopeless excess early (and steering the LP off tripped stations)
    /// beats burning shared capacity on jobs that die at their deadline
    /// anyway.
    #[test]
    fn breakers_and_admission_degrade_gracefully_at_overload() {
        use lexcache_queue::{Discipline, ResilConfig};
        let run = |resil: ResilConfig| {
            let cfg = NetworkConfig::paper_defaults();
            let topo = gtitm::generate(15, &cfg, 101);
            let scenario = ScenarioConfig::small().with_requests(60).build(&topo, 101);
            let q = QueueConfig::open_loop(1.1)
                .with_discipline(Discipline::ProcessorSharing)
                .with_resilience(resil);
            let ep_cfg = EpisodeConfig::new(101).with_queue(q);
            let mut ep = Episode::with_config(topo, cfg, scenario, ep_cfg);
            ep.run(&mut OlGd::new(PolicyConfig::default()), 30)
        };
        let base = run(ResilConfig::slo(300.0)
            .without_breakers()
            .without_admission());
        let on = run(ResilConfig::slo(300.0).with_admission(3, 0));
        assert!(
            base.total_deadline_missed() > 0,
            "the unprotected run must actually suffer"
        );
        assert!(
            on.total_shed() > 0,
            "overload must trip the shedding machinery"
        );
        assert!(
            on.total_breaker_open_slots() > 0,
            "sustained overload must trip a breaker"
        );
        assert!(
            on.deadline_miss_rate() < base.deadline_miss_rate(),
            "breakers+admission must cut the miss rate: {} vs {}",
            on.deadline_miss_rate(),
            base.deadline_miss_rate()
        );
        assert!(
            on.mean_p99_sojourn_ms() < base.mean_p99_sojourn_ms(),
            "breakers+admission must cut the tail: {} vs {}",
            on.mean_p99_sojourn_ms(),
            base.mean_p99_sojourn_ms()
        );
        assert!(
            on.total_queue_completed() > base.total_queue_completed(),
            "goodput must rise when hopeless work is shed: {} vs {}",
            on.total_queue_completed(),
            base.total_queue_completed()
        );
    }
}
