//! Ablation: preemption warnings — reactive vs proactive graceful
//! degradation of the caching pipeline under scheduled station kills.
//!
//! Every station is subject to a seeded preemption process
//! ([`FaultConfig::preempt`]): a doomed station first announces its kill
//! `notice` slots ahead, drains (the episode migrates its warm cache
//! entries to the cheapest safe station, the LP down-weights its
//! columns, the repair pass evacuates its requests one slot before the
//! kill), then goes down and later returns. The sweep crosses the
//! notice window ∈ {0, 1, 3, 10 slots} with the preemption intensity
//! over every policy family, under amortized instantiation accounting
//! (so warm-cache value — the thing warnings protect — shows up in the
//! delay numbers).
//!
//! Expected shape: at notice 0 nobody can react and the numbers
//! reproduce the unannounced-outage ablation; as the window widens the
//! warning-aware pipeline recovers most of the preemption penalty
//! (fewer cold restarts, fewer post-outage repairs), with the learning
//! policies benefiting ahead of the warning-blind greedy baselines.
//!
//! `--smoke` runs a tiny grid through the full parallel sweep harness,
//! asserts that some preemption notice fired and some warm cache entry
//! migrated, and is byte-comparable across worker counts with
//! `LEXCACHE_ZERO_TIMINGS=1` (the preempt-smoke CI diff).

use bench::{
    maybe_obs_profile, maybe_write_json, mean_std, repeats, run_grid, Algo, FaultConfig,
    JsonSeries, RunSpec, Table,
};
use mec_workload::ScenarioConfig;

const NOTICES: [usize; 4] = [0, 1, 3, 10];
const RATES: [f64; 2] = [0.05, 0.15];
const ALGOS: [Algo; 6] = [
    Algo::OlGd,
    Algo::OlUcb,
    Algo::GreedyGd,
    Algo::PriGd,
    Algo::OlReg,
    Algo::OlGan,
];

/// Fig. 3 (given demands) or Fig. 6 (hidden demands) spec, shrunk to
/// 60 stations, preemption dialled to `rate` with a `notice`-slot
/// warning window, amortized accounting.
fn spec_for(algo: Algo, rate: f64, notice: usize) -> RunSpec {
    let base = if algo.hidden_demands() {
        RunSpec::fig6(algo)
    } else {
        RunSpec::fig3(algo)
    };
    RunSpec {
        n_stations: 60,
        ..base
    }
    .with_faults(FaultConfig::preempt(rate, notice))
    .with_amortize()
    // Unique per-cell label: one policy appears at every (rate, notice)
    // point, so trace tracks and decide-phase attribution need more
    // than the bare policy name.
    .with_label(format!("{}@{rate}/n{notice}", algo.name()))
}

fn main() {
    bench::init_bin("ablation_preempt");
    if bench::smoke_requested() {
        smoke();
        bench::maybe_trace_export("ablation_preempt");
        return;
    }
    let repeats = repeats().min(3);
    println!(
        "Ablation — preemption warnings, 60 stations, rates {RATES:?}, \
         notice windows {NOTICES:?} slots, {repeats} topologies, amortized accounting\n"
    );

    // One job graph over every (algo, rate, notice) sweep point.
    let specs: Vec<RunSpec> = ALGOS
        .iter()
        .flat_map(|&algo| {
            RATES.iter().flat_map(move |&rate| {
                NOTICES
                    .iter()
                    .map(move |&notice| spec_for(algo, rate, notice))
            })
        })
        .collect();
    let results = run_grid(&specs, repeats);

    let mut json = Vec::new();
    let mut rows = results.into_iter();
    let mut delay_tables: Vec<Table> = RATES
        .iter()
        .map(|rate| {
            let mut t = Table::new(
                format!("mean delay (ms) by notice window, preempt rate {rate}"),
                "notice slots",
            );
            t.x_values(NOTICES.iter().map(|n| n.to_string()));
            t
        })
        .collect();
    let mut drainage = Table::new(
        format!(
            "drain pipeline per episode at rate {} (warned stations / migrated entries / \
             proactive reroutes), notice 3",
            RATES[RATES.len() - 1]
        ),
        "metric",
    );
    drainage.x_values(["warned".into(), "migrated".into(), "proactive".into()]);
    for algo in ALGOS {
        for (r, &rate) in RATES.iter().enumerate() {
            let mut delays = Vec::new();
            for &notice in &NOTICES {
                let reports = rows.next().expect("one row per sweep point");
                let vals: Vec<f64> = reports.iter().map(|r| r.mean_avg_delay_ms()).collect();
                delays.push(mean_std(&vals).0);
                if r == RATES.len() - 1 && notice == 3 {
                    let stat = |f: fn(&bench::EpisodeReport) -> usize| {
                        mean_std(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>()).0
                    };
                    drainage.series(
                        algo.name(),
                        vec![
                            stat(|r| r.total_drained()),
                            stat(|r| r.total_migrated()),
                            stat(|r| r.total_proactive_reroutes()),
                        ],
                    );
                }
                json.push(JsonSeries {
                    label: format!("{}@{rate}/n{notice}", algo.name()),
                    reports,
                });
            }
            delay_tables[r].series(algo.name(), delays);
        }
        println!("{} swept", algo.name());
    }
    for t in &delay_tables {
        println!("\n{}", t.render());
    }
    println!("{}", drainage.render());
    println!("expectation: notice 0 reproduces the unannounced-outage numbers; from");
    println!("notice >= 3 the warned pipeline (cache drain + pre-emptive reroute +");
    println!("warning-aware learners) recovers most of the preemption penalty, and the");
    println!("learning policies stay ahead of the warning-blind greedy baselines");

    maybe_write_json("ablation_preempt", &json);

    let profile: Vec<(&str, RunSpec)> = ALGOS
        .iter()
        .map(|&a| (a.name(), spec_for(a, RATES[RATES.len() - 1], 3)))
        .collect();
    maybe_obs_profile("ablation_preempt", &profile);
    bench::maybe_trace_export("ablation_preempt");
}

/// A tiny notice-window grid through the full parallel sweep harness —
/// fast enough for CI, and (with `LEXCACHE_ZERO_TIMINGS=1` and
/// `--json`) byte-identical across `--threads` counts, which the
/// preempt-smoke CI job diffs.
fn smoke() {
    println!("ablation_preempt --smoke: tiny notice-window grid per policy\n");
    let specs: Vec<RunSpec> = ALGOS
        .iter()
        .flat_map(|&algo| {
            NOTICES.iter().map(move |&notice| RunSpec {
                n_stations: 12,
                scenario: ScenarioConfig::small(),
                horizon: 6,
                ..spec_for(algo, 0.1, notice)
            })
        })
        .collect();
    let results = run_grid(&specs, 2);
    let mut json = Vec::new();
    let mut rows = results.into_iter();
    let (mut drained, mut migrated) = (0usize, 0usize);
    for algo in ALGOS {
        for &notice in &NOTICES {
            let reports = rows.next().expect("one row per smoke point");
            let warned = reports.iter().map(|r| r.total_drained()).sum::<usize>();
            let moved = reports.iter().map(|r| r.total_migrated()).sum::<usize>();
            drained += warned;
            migrated += moved;
            for report in &reports {
                let delay = report.mean_avg_delay_ms();
                assert!(
                    delay.is_finite() && delay >= 0.0,
                    "{} produced a non-finite mean delay at notice {notice}",
                    algo.name()
                );
            }
            let mean = mean_std(
                &reports
                    .iter()
                    .map(|r| r.mean_avg_delay_ms())
                    .collect::<Vec<_>>(),
            )
            .0;
            println!(
                "  {:>9}  notice {notice:>2}: {mean:>8.2} ms  warned {:>2}  migrated {:>3}  \
                 proactive {:>3}",
                algo.name(),
                warned,
                moved,
                reports
                    .iter()
                    .map(|r| r.total_proactive_reroutes())
                    .sum::<usize>(),
            );
            json.push(JsonSeries {
                label: format!("{}/n{notice}", algo.name()),
                reports,
            });
        }
    }
    assert!(
        drained > 0,
        "no preemption notice ever fired in the smoke grid"
    );
    assert!(
        migrated > 0,
        "no warm cache entry was ever migrated off a doomed station"
    );
    println!("\n{drained} notices, {migrated} migrated entries");
    maybe_write_json("ablation_preempt", &json);
    println!("\nsmoke ok");
}
