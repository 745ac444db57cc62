//! The policy interface every caching algorithm implements.

use crate::assignment::{Assignment, StationOrder};
use crate::lowering::{StationView, TransferCosts};
use bandit::EpsilonSchedule;
use mec_net::Topology;
use mec_workload::Scenario;
use std::cell::OnceCell;

/// Everything a policy may look at when deciding one slot.
///
/// `given_demands` carries the true demand vector in the §IV "given
/// demands" regime (`*_GD` algorithms) and is `None` in the §V regime
/// where demand must be predicted.
#[derive(Debug)]
pub struct SlotContext<'a> {
    /// 1-based slot index.
    pub slot: usize,
    /// The network.
    pub topo: &'a Topology,
    /// The workload (services, requests, capacities).
    pub scenario: &'a Scenario,
    /// True demands if the regime gives them to the algorithm.
    pub given_demands: Option<&'a [f64]>,
    /// Per-unit transfer delays request → station.
    pub transfer: &'a TransferCosts,
    /// `Greedy_GD`'s cheapest-first station order over `transfer`,
    /// `prior_delay` and `remote_delay`, built by the first greedy
    /// placement that reads it. Whoever changes one of the three must
    /// empty it.
    pub station_order: &'a OnceCell<StationOrder>,
    /// Historical (tier-prior) unit delays per station, used by the
    /// baselines and as the belief for never-pulled arms.
    pub prior_delay: &'a [f64],
    /// Mean remote-data-centre unit delay.
    pub remote_delay: f64,
    /// The network configuration reference.
    pub net_cfg: &'a mec_net::NetworkConfig,
    /// This slot's station health: liveness, usable capacity, drain
    /// states and LP cost weights. Policies must not assign requests to
    /// down stations; warning-blind baselines may ignore drain states
    /// and weights entirely. [`StationView::healthy`] when fault
    /// injection and the queue core's breakers are disabled.
    pub stations: &'a StationView,
}

/// End-of-slot feedback: what the environment revealed.
#[derive(Debug)]
pub struct SlotFeedback<'a> {
    /// 1-based slot index.
    pub slot: usize,
    /// `(station index, realized unit delay)` for every edge station the
    /// policy actually used — the bandit observation of Algorithm 1
    /// line 11.
    pub observed_unit_delay: &'a [(usize, f64)],
    /// The realized demand of every request this slot.
    pub realized_demands: &'a [f64],
    /// The location cell of every request (constant, repeated for
    /// convenience).
    pub request_cells: &'a [usize],
    /// `station_up[i]` — whether `BsId(i)` was alive this slot. Learners
    /// should freeze the bandit arms of down stations rather than feed
    /// them spurious samples.
    pub station_up: &'a [bool],
}

/// A per-slot service caching and task offloading algorithm.
pub trait CachingPolicy {
    /// Short name used in reports (`"OL_GD"`, `"Greedy_GD"`, …).
    fn name(&self) -> &'static str;

    /// Chooses this slot's assignment (and implicitly the cache set).
    fn decide(&mut self, ctx: &SlotContext<'_>) -> Assignment;

    /// Receives the end-of-slot observations.
    fn observe(&mut self, feedback: &SlotFeedback<'_>);
}

/// How the believed unit delay `θ̂_i` is estimated from observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// The paper's plain sample mean.
    SampleMean,
    /// Mean over the last `window` observations (drift-aware).
    Windowed {
        /// Observations kept per arm.
        window: usize,
    },
    /// Exponentially discounted mean with factor `gamma` per
    /// observation (drift-aware).
    Discounted {
        /// Discount per observation, in `(0, 1]`.
        gamma: f64,
    },
}

/// Shared knobs of the learning policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Candidate threshold `γ` of Eq. (9).
    pub gamma: f64,
    /// Exploration schedule `ε_t`.
    pub epsilon: EpsilonSchedule,
    /// Believed-delay estimator.
    pub estimator: EstimatorKind,
    /// RNG seed for the policy's own randomness.
    pub seed: u64,
}

impl PolicyConfig {
    /// Defaults: `γ = 0.1` and the decaying exploration `ε_t = c/t`
    /// (`c = 0.5`) that Theorem 1's regret analysis assumes. Algorithm 1
    /// line 2 instead pins `ε_t = 1/4`; pass
    /// [`EpsilonSchedule::paper_default`] through
    /// [`PolicyConfig::with_epsilon`] to reproduce that variant (the
    /// `ablation_epsilon` bench compares the two).
    pub fn paper_defaults() -> Self {
        PolicyConfig {
            gamma: 0.1,
            epsilon: EpsilonSchedule::Decay { c: 0.5 },
            estimator: EstimatorKind::SampleMean,
            seed: 0,
        }
    }

    /// Overrides `γ`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma ∉ (0, 1]`.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        self.gamma = gamma;
        self
    }

    /// Overrides the exploration schedule.
    pub fn with_epsilon(mut self, epsilon: EpsilonSchedule) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the believed-delay estimator.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = PolicyConfig::default();
        assert_eq!(cfg.gamma, 0.1);
        assert_eq!(cfg.epsilon, EpsilonSchedule::Decay { c: 0.5 });
        assert_eq!(cfg.estimator, EstimatorKind::SampleMean);
        assert_eq!(cfg.seed, 0);
    }

    #[test]
    fn estimator_override() {
        let cfg = PolicyConfig::default().with_estimator(EstimatorKind::Windowed { window: 8 });
        assert_eq!(cfg.estimator, EstimatorKind::Windowed { window: 8 });
    }

    #[test]
    fn builders_override() {
        let cfg = PolicyConfig::paper_defaults()
            .with_gamma(0.3)
            .with_epsilon(EpsilonSchedule::Decay { c: 0.5 })
            .with_seed(9);
        assert_eq!(cfg.gamma, 0.3);
        assert_eq!(cfg.epsilon.epsilon(2), 0.25);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn bad_gamma_rejected() {
        let _ = PolicyConfig::default().with_gamma(1.5);
    }
}
