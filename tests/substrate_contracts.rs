//! Cross-crate contract tests: the pieces the algorithms assume about
//! their substrates.

use lexcache::bandit::{ArmSet, GapParams};
use lexcache::forecast::{mae, MultiSeries, PaperArma};
use lexcache::infogan::{InfoGanConfig, InfoRnnGan};
use lexcache::net::delay::{DelayProcess as _, UniformTierDelay};
use lexcache::net::{topology::gtitm, NetworkConfig};
use lexcache::simplex::{CachingLp, LinearProgram, Relation};
use lexcache::workload::demand::DemandProcess as _;
use lexcache::workload::{HotspotTrace, ScenarioConfig};

#[test]
fn arm_estimates_converge_to_delay_process_means() {
    // Feed an ArmSet the actual draws of a delay process; the empirical
    // mean must approach the process's declared true mean — the contract
    // Algorithm 1's believed-delay LP relies on.
    let cfg = NetworkConfig::paper_defaults();
    let topo = gtitm::generate(10, &cfg, 3);
    let mut process = UniformTierDelay::new(&topo, &cfg, 3);
    let mut arms = ArmSet::new(10);
    for _ in 0..3000 {
        process.advance();
        for i in 0..10 {
            arms.observe(i, process.unit_delay(lexcache::net::BsId(i)));
        }
    }
    for i in 0..10 {
        let estimated = arms.mean(i).expect("observed");
        let truth = process.true_mean(lexcache::net::BsId(i));
        assert!(
            (estimated - truth).abs() < 0.1 * truth,
            "arm {i}: {estimated} vs {truth}"
        );
    }
}

#[test]
fn lemma1_sigma_covers_realized_per_slot_gap() {
    // The Lemma 1 gap is an upper bound on how much worse any caching
    // can be than the best one in a single slot; verify empirically on
    // random assignments.
    let cfg = NetworkConfig::paper_defaults();
    let topo = gtitm::generate(12, &cfg, 1);
    let scenario = ScenarioConfig::small().build(&topo, 1);
    let n = topo.len();
    let demands: Vec<f64> = scenario
        .requests()
        .iter()
        .map(|r| r.basic_demand())
        .collect();
    let believed: Vec<f64> = topo
        .stations()
        .iter()
        .map(|b| cfg.tier(b.tier()).unit_delay_ms.hi)
        .collect();
    let lp = lexcache::core::lowering::build_caching_lp(
        &scenario,
        &lexcache::core::TransferCosts::compute(&topo, &scenario),
        &believed,
        &demands,
        75.0,
        &lexcache::core::StationView::healthy(&topo, &scenario),
    );
    // Best vs worst single-station assignment (per-request local view).
    let mut best = f64::INFINITY;
    let mut worst: f64 = 0.0;
    for i in 0..n {
        let assignment = vec![i; demands.len()];
        if lp.respects_capacity(&assignment) {
            let v = lp.assignment_objective(&assignment);
            best = best.min(v);
            worst = worst.max(v);
        }
    }
    let sigma = GapParams {
        n_requests: demands.len(),
        d_max: 50.0 * 1.25 * 3.0 + 1_000.0, // delay + worst transfer penalty
        d_min: 5.0 * 0.75,
        delta_ins: 30.0,
        gamma: 0.1,
    }
    .sigma();
    assert!(
        worst - best <= sigma,
        "realized gap {} exceeds sigma {}",
        worst - best,
        sigma
    );
}

#[test]
fn trace_feeds_gan_training_end_to_end() {
    let trace = HotspotTrace::synthesize(12, 3, 2, 40, 8);
    let series = trace.cell_demand_series();
    let cells: Vec<usize> = (0..trace.n_cells()).collect();
    let mut gan = InfoRnnGan::new(InfoGanConfig::small(trace.n_cells()), 8);
    let report = gan.fit(&series, &cells, 8);
    assert_eq!(report.d_loss.len(), 8);
    assert!(report.d_loss.iter().all(|l| l.is_finite()));
    let pred = gan.predict_next(&series[0][..10], 0);
    assert!(pred.is_finite() && pred >= 0.0);
}

#[test]
fn arma_bank_tracks_scenario_demands() {
    let cfg = NetworkConfig::paper_defaults();
    let topo = gtitm::generate(15, &cfg, 2);
    let mut scenario = ScenarioConfig::small().build(&topo, 2);
    let n = scenario.requests().len();
    let mut bank = MultiSeries::from_fn(n, || PaperArma::with_linear_weights(3));
    let mut preds = Vec::new();
    let mut actuals = Vec::new();
    for _ in 0..30 {
        scenario.demand_mut().advance();
        let demands = scenario.demand().demands();
        preds.extend(bank.predict_all());
        actuals.extend(demands.iter().copied());
        bank.observe_all(&demands);
    }
    // Fixed demands: after warm-up the ARMA is exact; allow the cold
    // start to dominate the first slots only.
    let tail_preds = &preds[n * 5..];
    let tail_actuals = &actuals[n * 5..];
    assert!(mae(tail_preds, tail_actuals) < 1e-9);
}

#[test]
fn simplex_handles_caching_shaped_blocks() {
    // A miniature of the full ILP relaxation solved through the generic
    // path: assignment rows, capacity rows, y-link rows.
    let lp = CachingLp::new(
        vec![2.0, 3.0],
        vec![0, 1],
        vec![vec![1.0, 9.0], vec![9.0, 1.0]],
        vec![5.0, 5.0],
        vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        2,
    );
    let exact = lp.solve_exact().expect("small instance");
    let fast = lp.solve_fast().expect("feasible");
    assert!(exact.is_feasible(&lp, 1e-6));
    assert!(fast.is_feasible(&lp, 1e-6));
    assert!(fast.objective >= exact.objective - 1e-9);

    // And the raw builder API stays usable for custom models.
    let mut custom = LinearProgram::minimize(vec![1.0, 2.0]);
    custom.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
    let sol = lexcache::simplex::dense::solve(&custom).expect("feasible");
    assert!((sol.objective - 1.0).abs() < 1e-9);
}
