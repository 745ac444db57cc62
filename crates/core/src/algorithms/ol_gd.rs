//! Algorithm 1: `OL_GD` — online learning with given demands.

use crate::assignment::{cheapest_station, Assignment, Target};
use crate::lowering::build_caching_lp;
use crate::policy::{CachingPolicy, EstimatorKind, PolicyConfig, SlotContext, SlotFeedback};
use bandit::{sample_by_weight, ArmSet, DiscountedArmStats, WindowedArmSet};
use lexcache_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Believed-delay estimator bank, one entry per station.
#[derive(Debug)]
enum ArmBank {
    Mean(ArmSet),
    Windowed(WindowedArmSet),
    Discounted(Vec<DiscountedArmStats>),
}

impl ArmBank {
    fn new(kind: EstimatorKind, n: usize) -> ArmBank {
        match kind {
            EstimatorKind::SampleMean => ArmBank::Mean(ArmSet::new(n)),
            EstimatorKind::Windowed { window } => ArmBank::Windowed(WindowedArmSet::new(n, window)),
            EstimatorKind::Discounted { gamma } => {
                ArmBank::Discounted(vec![DiscountedArmStats::new(gamma); n])
            }
        }
    }

    fn observe(&mut self, i: usize, value: f64) {
        match self {
            ArmBank::Mean(a) => a.observe(i, value),
            ArmBank::Windowed(a) => a.observe(i, value),
            ArmBank::Discounted(a) => a[i].observe(value),
        }
    }

    fn means_or(&self, fallback: &[f64]) -> Vec<f64> {
        match self {
            ArmBank::Mean(a) => a.means_or(fallback),
            ArmBank::Windowed(a) => a.means_or(fallback),
            ArmBank::Discounted(a) => a
                .iter()
                .zip(fallback)
                .map(|(arm, &f)| arm.mean().unwrap_or(f))
                .collect(),
        }
    }

    fn mean(&self, i: usize) -> Option<f64> {
        match self {
            ArmBank::Mean(a) => a.mean(i),
            ArmBank::Windowed(a) => {
                let v = a.means_or(&vec![f64::NAN; a.len()]);
                (!v[i].is_nan()).then_some(v[i])
            }
            ArmBank::Discounted(a) => a[i].mean(),
        }
    }
}

/// The shared machinery of `OL_GD`, `OL_Reg` and `OL_GAN`: the per-slot
/// LP relaxation over believed delays, candidate sets, ε-greedy arm
/// selection and capacity repair. The three public policies differ only
/// in where the demand vector comes from.
#[derive(Debug)]
pub(crate) struct OlGdCore {
    cfg: PolicyConfig,
    arms: Option<ArmBank>,
    rng: StdRng,
}

impl OlGdCore {
    pub(crate) fn new(cfg: PolicyConfig) -> Self {
        OlGdCore {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x01_6d),
            cfg,
            arms: None,
        }
    }

    /// The learned mean of station `i`, if any (exposed for audits).
    pub(crate) fn learned_mean(&self, i: usize) -> Option<f64> {
        self.arms.as_ref().and_then(|a| a.mean(i))
    }

    /// Runs Algorithm 1's per-slot body on an explicit demand vector.
    pub(crate) fn decide_with_demands(
        &mut self,
        ctx: &SlotContext<'_>,
        demands: &[f64],
    ) -> Assignment {
        let n = ctx.topo.len();
        let kind = self.cfg.estimator;
        let arms = self.arms.get_or_insert_with(|| ArmBank::new(kind, n));
        // Line 3–4: relax the ILP into an LP over believed delays and
        // extract the fractional solution and candidate sets.
        let believed = {
            let _span = obs::span("decide/estimate");
            arms.means_or(ctx.prior_delay)
        };
        let lp = {
            let _span = obs::span("decide/lp_build");
            // Preemption warnings and breaker verdicts down-weight
            // troubled columns instead of hard-masking them.
            build_caching_lp(
                ctx.scenario,
                ctx.transfer,
                &believed,
                demands,
                ctx.remote_delay,
                ctx.stations,
            )
        };
        let solved = {
            let _span = obs::span("decide/lp_solve");
            lp.solve_fast()
        };
        let columns = match solved {
            Ok(sol) => {
                let candidates = {
                    let _span = obs::span("decide/candidates");
                    sol.candidate_sets(self.cfg.gamma)
                };
                let _span = obs::span("decide/select");
                let eps = self.cfg.epsilon.epsilon(ctx.slot);
                // Down stations are masked out of both exploitation and
                // exploration, and draining arms are frozen early: a
                // station with a scheduled kill is never worth an
                // exploratory pull (its sample stream is about to stop)
                // and leaves the candidate set whenever a safe candidate
                // remains. With every station alive and nothing draining
                // these are the full `0..n` (and `vec![n]` never
                // triggers), so the fault-free path is unchanged.
                let (up, drain) = (ctx.stations.up(), ctx.stations.drain());
                let alive_cols: Vec<usize> = (0..n)
                    .filter(|&i| up[i] && !drain[i].is_draining())
                    .collect();
                (0..demands.len())
                    .map(|l| {
                        // Lines 5–9: exploit the candidate set with
                        // probability 1 − ε_t (weighted by x*), explore a
                        // non-candidate station otherwise.
                        let explore = self.rng.random::<f64>() >= 1.0 - eps;
                        let mut cands = if candidates[l].is_empty() {
                            top_columns(&sol.x[l], 3)
                        } else {
                            candidates[l].clone()
                        };
                        cands.retain(|&c| c == n || up[c]);
                        if cands.iter().any(|&c| c == n || !drain[c].is_draining()) {
                            cands.retain(|&c| c == n || !drain[c].is_draining());
                        }
                        if cands.is_empty() {
                            cands = vec![n];
                        }
                        if !explore {
                            obs::counter("bandit/exploit", 1);
                            sample_by_weight(&mut self.rng, &sol.x[l], &cands)
                        } else {
                            obs::counter("bandit/explore", 1);
                            let non_cand: Vec<usize> = alive_cols
                                .iter()
                                .copied()
                                .filter(|c| !cands.contains(c))
                                .collect();
                            if non_cand.is_empty() {
                                if alive_cols.is_empty() {
                                    n
                                } else {
                                    alive_cols[self.rng.random_range(0..alive_cols.len())]
                                }
                            } else {
                                non_cand[self.rng.random_range(0..non_cand.len())]
                            }
                        }
                    })
                    .collect()
            }
            // The remote column keeps the LP feasible, so errors here can
            // only be iteration-limit pathologies; degrade to the static
            // greedy choice instead of crashing mid-episode.
            Err(_) => {
                obs::counter("decide/lp_fallback", 1);
                let up = ctx.stations.up();
                (0..demands.len())
                    .map(|l| {
                        cheapest_station(
                            n,
                            ctx.remote_delay,
                            |i| up[i],
                            |i| believed[i] + ctx.transfer.get(l, mec_net::BsId(i)),
                        )
                        .unwrap_or(n)
                    })
                    .collect()
            }
        };
        let columns = {
            let _span = obs::span("decide/repair");
            repair_capacity(ctx, columns, demands, &believed)
        };
        Assignment::new(
            columns
                .into_iter()
                .map(|c| Target::from_column(c, n))
                .collect(),
        )
    }

    /// Line 10–11: observe the realized unit delay of each played arm.
    /// Arms of down stations are frozen — an outage's delay sample says
    /// nothing about the station's delay when it is serving.
    pub(crate) fn observe_delays(&mut self, feedback: &SlotFeedback<'_>) {
        if let Some(arms) = self.arms.as_mut() {
            for &(i, d) in feedback.observed_unit_delay {
                if feedback.station_up[i] {
                    arms.observe(i, d);
                }
            }
        }
    }
}

/// Indices of the `k` largest entries of `xs`.
fn top_columns(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| crate::float_ord::total_cmp_f64(&xs[b], &xs[a]));
    idx.truncate(k.max(1));
    idx
}

/// Moves requests off overloaded stations (to their cheapest station
/// with slack, or the remote data centre) until every capacity holds.
///
/// Overload is resolved cheapest-victims-first: within an overloaded
/// station the requests with the largest per-unit cost advantage
/// elsewhere move first.
pub(crate) fn repair_capacity(
    ctx: &SlotContext<'_>,
    mut columns: Vec<usize>,
    demands: &[f64],
    believed: &[f64],
) -> Vec<usize> {
    let n = ctx.topo.len();
    // Down stations have zero usable capacity and brown-outs scale it
    // down, so the same overload loop also drains every request off a
    // failed station.
    let (up, capacity) = (ctx.stations.up(), ctx.stations.capacity());
    let mut load = vec![0.0; n];
    for (l, &c) in columns.iter().enumerate() {
        if c < n {
            load[c] += demands[l];
        }
    }
    loop {
        let Some(over) =
            (0..n).find(|&i| load[i] > capacity[i] + 1e-9 || (!up[i] && columns.contains(&i)))
        else {
            return columns;
        };
        // Requests currently on the overloaded station, largest demand
        // first (moving one big request restores feasibility fastest).
        let mut here: Vec<usize> = (0..columns.len()).filter(|&l| columns[l] == over).collect();
        here.sort_by(|&a, &b| crate::float_ord::total_cmp_f64(&demands[b], &demands[a]));
        let victim = here[0];
        // Cheapest alternative with slack; remote as last resort.
        let best = cheapest_station(
            n,
            ctx.remote_delay,
            |i| i != over && up[i] && load[i] + demands[victim] <= capacity[i] + 1e-9,
            |i| believed[i] + ctx.transfer.get(victim, mec_net::BsId(i)),
        )
        .unwrap_or(n);
        load[over] -= demands[victim];
        if best < n {
            load[best] += demands[victim];
        }
        columns[victim] = best;
    }
}

/// Algorithm 1: online learning for the dynamic service caching problem
/// with given demands.
///
/// # Example
///
/// ```
/// use lexcache_core::{OlGd, PolicyConfig, CachingPolicy};
/// let policy = OlGd::new(PolicyConfig::default());
/// assert_eq!(policy.name(), "OL_GD");
/// ```
#[derive(Debug)]
pub struct OlGd {
    core: OlGdCore,
}

impl OlGd {
    /// Creates the policy.
    pub fn new(cfg: PolicyConfig) -> Self {
        OlGd {
            core: OlGdCore::new(cfg),
        }
    }

    /// The learned mean unit delay of station `i`, if it was ever
    /// observed.
    pub fn learned_mean(&self, i: usize) -> Option<f64> {
        self.core.learned_mean(i)
    }
}

impl CachingPolicy for OlGd {
    fn name(&self) -> &'static str {
        "OL_GD"
    }

    fn decide(&mut self, ctx: &SlotContext<'_>) -> Assignment {
        let Some(demands) = ctx.given_demands else {
            panic!("OL_GD runs in the given-demands regime; enable reveal_demands")
        };
        self.core.decide_with_demands(ctx, demands)
    }

    fn observe(&mut self, feedback: &SlotFeedback<'_>) {
        self.core.observe_delays(feedback);
    }
}
