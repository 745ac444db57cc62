//! The slot pipeline's stage spans, slot by slot and in order. The
//! benchmark's per-layer metrics read these span names, so a renamed or
//! lost stage would silently zero one of them.
//!
//! One test function in a binary of its own: the obs sink is
//! process-wide state, and tests running in parallel would interleave
//! their events.

use lexcache_core::{Episode, EpisodeConfig, FaultConfig, GreedyGd, QueueConfig, ResilConfig};
use lexcache_obs::{install, uninstall, EventKind, SharedRegistry};
use mec_net::{topology::gtitm, NetworkConfig};
use mec_workload::ScenarioConfig;

/// Runs a Greedy_GD episode under an event-keeping registry and returns
/// each slot's depth-0 span names, in order.
fn stage_spans(cfg: EpisodeConfig, horizon: usize) -> Vec<Vec<String>> {
    let net_cfg = NetworkConfig::paper_defaults();
    let topo = gtitm::generate(15, &net_cfg, 7);
    let scenario = ScenarioConfig::small().build(&topo, 7);
    let mut episode = Episode::with_config(topo, net_cfg, scenario, cfg);
    let registry = SharedRegistry::with_events();
    install(Box::new(registry.clone()));
    episode.run(&mut GreedyGd::new(), horizon);
    drop(uninstall());
    let mut slots: Vec<Vec<String>> = Vec::new();
    for event in registry.snapshot().events() {
        match event.kind {
            // Every slot opens with its `sim/slot` gauge.
            EventKind::Gauge if event.name == "sim/slot" => slots.push(Vec::new()),
            EventKind::SpanEnter if event.depth == 0 => {
                let Some(slot) = slots.last_mut() else {
                    panic!("span {} opened before the first slot", event.name)
                };
                slot.push(event.name.clone());
            }
            _ => {}
        }
    }
    slots
}

fn names(stages: &[&str]) -> Vec<String> {
    stages.iter().map(|s| format!("sim/{s}")).collect()
}

#[test]
fn every_slot_runs_the_named_stages_in_order() {
    let full = EpisodeConfig::new(3)
        .with_regret()
        .with_faults(FaultConfig::preempt(0.1, 2))
        .with_queue(QueueConfig::open_loop(1.1).with_resilience(ResilConfig::slo(300.0)));
    let every_stage = names(&[
        "demand",
        "faults",
        "context",
        "decide",
        "fault_repair",
        "realize",
        "cache_apply",
        "regret_lp",
        "feedback",
        "queue",
    ]);
    assert_eq!(stage_spans(full, 3), vec![every_stage; 3]);

    let plain_stages = names(&[
        "demand",
        "context",
        "decide",
        "realize",
        "cache_apply",
        "feedback",
    ]);
    assert_eq!(stage_spans(EpisodeConfig::new(3), 3), vec![plain_stages; 3]);
}
