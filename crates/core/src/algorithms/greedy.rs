//! The non-learning baselines: `Greedy_GD` and `Pri_GD`.

use crate::assignment::{greedy_pick, Assignment, Target};
use crate::policy::{CachingPolicy, SlotContext, SlotFeedback};
use lexcache_obs as obs;

fn demands_of(ctx: &SlotContext<'_>) -> Vec<f64> {
    let Some(demands) = ctx.given_demands else {
        panic!("the *_GD baselines run in the given-demands regime; enable reveal_demands")
    };
    demands.to_vec()
}

/// `Greedy_GD`: "each base station greedily selects a service and its
/// tasks that could minimize the delay of each request, assuming that the
/// data volume of each request is given" — delays taken from static
/// historical information (the tier priors), never updated online.
///
/// # Example
///
/// ```
/// use lexcache_core::{GreedyGd, CachingPolicy};
/// assert_eq!(GreedyGd::new().name(), "Greedy_GD");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyGd;

impl GreedyGd {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyGd
    }
}

impl CachingPolicy for GreedyGd {
    fn name(&self) -> &'static str {
        "Greedy_GD"
    }

    fn decide(&mut self, ctx: &SlotContext<'_>) -> Assignment {
        let _span = obs::span("decide/greedy");
        let demands = demands_of(ctx);
        let mut load = vec![0.0; ctx.topo.len()];
        let targets = (0..demands.len())
            .map(|l| greedy_pick(ctx, l, demands[l], &mut load))
            .collect();
        Assignment::new(targets)
    }

    fn observe(&mut self, _feedback: &SlotFeedback<'_>) {}
}

/// `Pri_GD`, the priority-driven caching of [20]: requests get a
/// priority equal to the number of base stations covering them, and
/// stations serve high-priority requests first.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriGd;

impl PriGd {
    /// Creates the policy.
    pub fn new() -> Self {
        PriGd
    }
}

impl CachingPolicy for PriGd {
    fn name(&self) -> &'static str {
        "Pri_GD"
    }

    fn decide(&mut self, ctx: &SlotContext<'_>) -> Assignment {
        let _span = obs::span("decide/greedy");
        let demands = demands_of(ctx);
        let mut load = vec![0.0; ctx.topo.len()];
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by(|&a, &b| {
            let pa = ctx.scenario.requests()[a].cover_count();
            let pb = ctx.scenario.requests()[b].cover_count();
            pb.cmp(&pa).then(a.cmp(&b))
        });
        let mut targets = vec![Target::Remote; demands.len()];
        for l in order {
            targets[l] = greedy_pick(ctx, l, demands[l], &mut load);
        }
        Assignment::new(targets)
    }

    fn observe(&mut self, _feedback: &SlotFeedback<'_>) {}
}
