//! Regression tests for bit-level run-to-run determinism.
//!
//! The decision path must not depend on iteration order of hashed
//! collections or on NaN-collapsing float comparisons: two episodes
//! built from the same seed have to produce *byte-identical* per-slot
//! results. These tests compare `f64::to_bits` of every per-slot
//! delay, not an epsilon band — any hidden source of nondeterminism
//! (e.g. a `HashMap` on the lowering path) shows up as a hard failure.

use lexcache_core::{
    CachingPolicy, Episode, EpisodeReport, GreedyGd, OlGd, OlReg, PolicyConfig, PriGd,
};
use mec_net::{topology::gtitm, NetworkConfig};
use mec_workload::ScenarioConfig;

const HORIZON: usize = 12;

/// Builds a fresh policy for each run.
type MakePolicy = Box<dyn Fn() -> Box<dyn CachingPolicy>>;

fn run_once(seed: u64, make_policy: &dyn Fn() -> Box<dyn CachingPolicy>) -> EpisodeReport {
    let cfg = NetworkConfig::paper_defaults();
    let topo = gtitm::generate(20, &cfg, seed);
    let scenario = ScenarioConfig::small().build(&topo, seed);
    let mut episode = Episode::new(topo, cfg, scenario, seed);
    episode.run(make_policy().as_mut(), HORIZON)
}

/// Asserts two same-seed reports agree bit-for-bit on every per-slot
/// observable except wall-clock decision time.
fn assert_identical(a: &EpisodeReport, b: &EpisodeReport) {
    assert_eq!(a.slots.len(), b.slots.len(), "slot count differs");
    for (t, (sa, sb)) in a.slots.iter().zip(&b.slots).enumerate() {
        assert_eq!(
            sa.avg_delay_ms.to_bits(),
            sb.avg_delay_ms.to_bits(),
            "slot {t}: avg_delay_ms differs ({} vs {})",
            sa.avg_delay_ms,
            sb.avg_delay_ms
        );
        assert_eq!(
            sa.remote_count, sb.remote_count,
            "slot {t}: remote_count differs"
        );
    }
}

#[test]
fn same_seed_episodes_are_bit_identical() {
    let policies: [(&str, MakePolicy); 4] = [
        (
            "OL_GD",
            Box::new(|| Box::new(OlGd::new(PolicyConfig::default()))),
        ),
        (
            "OL_Reg",
            Box::new(|| Box::new(OlReg::new(PolicyConfig::default(), 3))),
        ),
        ("Greedy_GD", Box::new(|| Box::new(GreedyGd::new()))),
        ("Pri_GD", Box::new(|| Box::new(PriGd::new()))),
    ];
    for (name, make) in &policies {
        for seed in [0u64, 7, 42] {
            let first = run_once(seed, make.as_ref());
            let second = run_once(seed, make.as_ref());
            assert_eq!(&first.policy, name);
            assert_identical(&first, &second);
        }
    }
}

#[test]
fn observability_sinks_do_not_perturb_results() {
    // The obs layer must be write-only: installing a sink (NoopSink or
    // a collecting registry) cannot change a single bit of the episode
    // outcome, only record it.
    let make: MakePolicy = Box::new(|| Box::new(OlGd::new(PolicyConfig::default())));
    let baseline = run_once(5, make.as_ref());

    lexcache_obs::install(Box::new(lexcache_obs::NoopSink));
    let with_noop = run_once(5, make.as_ref());
    drop(lexcache_obs::uninstall());
    assert_identical(&baseline, &with_noop);

    let registry = lexcache_obs::SharedRegistry::new();
    lexcache_obs::install(Box::new(registry.clone()));
    let with_registry = run_once(5, make.as_ref());
    drop(lexcache_obs::uninstall());
    assert_identical(&baseline, &with_registry);

    let snap = registry.snapshot();
    assert!(!snap.is_empty(), "registry collected no events");
    assert!(
        snap.spans().contains_key("sim/decide"),
        "expected per-slot sim/decide spans in the registry"
    );
}

#[test]
fn different_seeds_actually_diverge() {
    // Sanity check that the comparison above is not vacuous: distinct
    // seeds must produce distinct delay traces.
    let make: MakePolicy = Box::new(|| Box::new(OlGd::new(PolicyConfig::default())));
    let a = run_once(1, make.as_ref());
    let b = run_once(2, make.as_ref());
    let same = a
        .slots
        .iter()
        .zip(&b.slots)
        .all(|(sa, sb)| sa.avg_delay_ms.to_bits() == sb.avg_delay_ms.to_bits());
    assert!(!same, "seeds 1 and 2 produced identical delay traces");
}
