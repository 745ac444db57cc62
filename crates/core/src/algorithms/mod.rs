//! The five algorithms of the paper's evaluation.

mod greedy;
mod ol_gan;
pub(crate) mod ol_gd;
mod ol_reg;
mod ol_ucb;

pub use greedy::{GreedyGd, PriGd};
pub use ol_gan::OlGan;
pub use ol_gd::OlGd;
pub use ol_reg::{ol_ewma, ol_holt, ol_naive, OlForecast, OlReg};
pub use ol_ucb::OlUcb;

pub(crate) use ol_gd::OlGdCore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::{StationView, TransferCosts};
    use crate::policy::{CachingPolicy, PolicyConfig, SlotContext, SlotFeedback};
    use crate::Target;
    use mec_net::topology::gtitm;
    use mec_net::NetworkConfig;
    use mec_workload::{Scenario, ScenarioConfig};

    struct Fixture {
        topo: mec_net::Topology,
        net_cfg: NetworkConfig,
        scenario: Scenario,
        transfer: TransferCosts,
        prior: Vec<f64>,
        demands: Vec<f64>,
        stations: StationView,
        station_order: std::cell::OnceCell<crate::StationOrder>,
    }

    fn fixture(seed: u64) -> Fixture {
        let net_cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(15, &net_cfg, seed);
        let scenario = ScenarioConfig::small().build(&topo, seed);
        let transfer = TransferCosts::compute(&topo, &scenario);
        let prior: Vec<f64> = topo
            .stations()
            .iter()
            .map(|b| net_cfg.tier(b.tier()).unit_delay_ms.mid())
            .collect();
        let demands: Vec<f64> = scenario
            .requests()
            .iter()
            .map(|r| r.basic_demand())
            .collect();
        let stations = StationView::healthy(&topo, &scenario);
        Fixture {
            topo,
            net_cfg,
            scenario,
            transfer,
            prior,
            demands,
            stations,
            station_order: std::cell::OnceCell::new(),
        }
    }

    impl Fixture {
        fn ctx(&self, slot: usize) -> SlotContext<'_> {
            SlotContext {
                slot,
                topo: &self.topo,
                scenario: &self.scenario,
                given_demands: Some(&self.demands),
                transfer: &self.transfer,
                station_order: &self.station_order,
                prior_delay: &self.prior,
                remote_delay: 75.0,
                net_cfg: &self.net_cfg,
                stations: &self.stations,
            }
        }
    }

    #[test]
    fn greedy_is_deterministic_and_covers_all_requests() {
        let f = fixture(1);
        let mut g = GreedyGd::new();
        let a = g.decide(&f.ctx(1));
        let b = g.decide(&f.ctx(2));
        assert_eq!(a, b, "static policy must repeat its choice");
        assert_eq!(a.len(), f.demands.len());
    }

    #[test]
    fn greedy_prefers_cheap_local_stations() {
        let f = fixture(2);
        let mut g = GreedyGd::new();
        let a = g.decide(&f.ctx(1));
        // Every chosen edge target must not be dominated by a strictly
        // cheaper station with spare capacity *ignoring* other requests
        // (the greedy invariant for the first-assigned request).
        let first = a.targets()[0];
        if let Target::Edge(bs) = first {
            let cost = f.prior[bs.index()] + f.transfer.get(0, bs);
            for i in 0..f.topo.len() {
                let alt = f.prior[i] + f.transfer.get(0, mec_net::BsId(i));
                assert!(
                    cost <= alt + 1e-9,
                    "request 0 should take the global cheapest station"
                );
            }
        }
    }

    #[test]
    fn priority_serves_high_coverage_requests_first() {
        let f = fixture(3);
        let mut p = PriGd::new();
        let a = p.decide(&f.ctx(1));
        // The highest-priority request gets its unconstrained best
        // station (nothing was assigned before it).
        let best_req = (0..f.demands.len())
            .max_by_key(|&l| (f.scenario.requests()[l].cover_count(), usize::MAX - l))
            .expect("non-empty");
        if let Target::Edge(bs) = a.targets()[best_req] {
            let cost = f.prior[bs.index()] + f.transfer.get(best_req, bs);
            for i in 0..f.topo.len() {
                let alt = f.prior[i] + f.transfer.get(best_req, mec_net::BsId(i));
                assert!(cost <= alt + 1e-9);
            }
        }
    }

    #[test]
    fn ol_gd_requires_given_demands() {
        let f = fixture(4);
        let mut ctx = f.ctx(1);
        ctx.given_demands = None;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            OlGd::new(PolicyConfig::default()).decide(&ctx)
        }));
        assert!(result.is_err(), "OL_GD must reject the hidden regime");
    }

    #[test]
    fn ol_gd_learns_only_played_arms() {
        let f = fixture(5);
        let mut policy = OlGd::new(PolicyConfig::default());
        let a = policy.decide(&f.ctx(1));
        let played: Vec<usize> = a.stations_used().iter().map(|b| b.index()).collect();
        let observed: Vec<(usize, f64)> = played.iter().map(|&i| (i, 9.0)).collect();
        policy.observe(&SlotFeedback {
            slot: 1,
            observed_unit_delay: &observed,
            realized_demands: &f.demands,
            request_cells: &vec![0; f.demands.len()],
            station_up: f.stations.up(),
        });
        for i in 0..f.topo.len() {
            if played.contains(&i) {
                assert_eq!(policy.learned_mean(i), Some(9.0));
            } else {
                assert_eq!(policy.learned_mean(i), None);
            }
        }
    }

    #[test]
    fn ol_ucb_visits_unexplored_stations_early() {
        let f = fixture(6);
        let mut policy = OlUcb::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for slot in 1..=12 {
            let a = policy.decide(&f.ctx(slot));
            let played: Vec<(usize, f64)> = a
                .stations_used()
                .iter()
                .map(|b| {
                    seen.insert(b.index());
                    (b.index(), 10.0)
                })
                .collect();
            policy.observe(&SlotFeedback {
                slot,
                observed_unit_delay: &played,
                realized_demands: &f.demands,
                request_cells: &vec![0; f.demands.len()],
                station_up: f.stations.up(),
            });
        }
        // Optimism should have spread trials across a sizable share of
        // the network by now.
        assert!(
            seen.len() >= f.topo.len() / 3,
            "only {} of {} stations tried",
            seen.len(),
            f.topo.len()
        );
    }

    #[test]
    fn forecast_policies_use_basic_floor_before_history() {
        let f = fixture(7);
        let mut ctx = f.ctx(1);
        ctx.given_demands = None;
        let mut policy = OlReg::new(PolicyConfig::default(), 3);
        // First slot: no history, forecasts fall back to basics; the
        // decision must still cover every request.
        let a = policy.decide(&ctx);
        assert_eq!(a.len(), f.demands.len());
        // lexlint: allow(LX06): asserting the exact zero-initialized fallback
        assert!(policy.forecasts().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ewma_and_naive_variants_have_distinct_names() {
        let e = ol_ewma(PolicyConfig::default());
        let n = ol_naive(PolicyConfig::default());
        assert_eq!(e.name(), "OL_EWMA");
        assert_eq!(n.name(), "OL_Naive");
    }
}
