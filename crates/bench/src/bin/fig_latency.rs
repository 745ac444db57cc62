//! Latency figure: per-request sojourn percentiles under open-loop
//! load — the regime the paper's slot-level delay proxy cannot see.
//!
//! Every sweep point attaches the event-driven queue core
//! ([`bench::QueueConfig`]) to an otherwise unchanged episode: requests
//! arrive at hashed instants inside each slot, queue at the station
//! their policy picked, and are served at a rate normalized so the
//! whole system runs at offered load ρ. The sweep crosses
//! ρ ∈ {0.5, 0.8, 0.95, 1.1} with every policy family.
//!
//! Expected shape: the mean delay proxy (the paper's metric) is
//! ρ-invariant by construction — the queue layer is pure measurement —
//! while the p99 sojourn diverges from p50 as ρ → 1 and explodes past
//! saturation (ρ = 1.1), where the open-loop backlog compounds across
//! the horizon. Policies with better placement spread load more evenly
//! and keep the tail shorter at the same ρ.
//!
//! `--smoke` runs a tiny grid through the full parallel sweep harness,
//! asserts that the mean p99 sojourn at ρ = 1.1 exceeds the one at
//! ρ = 0.5, and is byte-comparable across worker counts with
//! `LEXCACHE_ZERO_TIMINGS=1` (the queue-smoke CI diff).

use bench::{
    maybe_obs_profile, maybe_write_json, mean_std, repeats, run_grid, Algo, JsonSeries,
    QueueConfig, RunSpec, Table,
};
use mec_workload::ScenarioConfig;

const RHOS: [f64; 4] = [0.5, 0.8, 0.95, 1.1];
const ALGOS: [Algo; 6] = [
    Algo::OlGd,
    Algo::OlUcb,
    Algo::GreedyGd,
    Algo::PriGd,
    Algo::OlReg,
    Algo::OlGan,
];

/// Waiting-room depth per station: deep enough that sub-critical loads
/// never drop, shallow enough that the ρ = 1.1 point shows loss.
const QUEUE_CAPACITY: usize = 256;

/// Fig. 3 (given demands) or Fig. 6 (hidden demands) spec, shrunk to
/// 60 stations, with the queue core attached at offered load `rho`.
fn spec_for(algo: Algo, rho: f64) -> RunSpec {
    let base = if algo.hidden_demands() {
        RunSpec::fig6(algo)
    } else {
        RunSpec::fig3(algo)
    };
    RunSpec {
        n_stations: 60,
        ..base
    }
    .with_queue(QueueConfig::open_loop(rho).with_queue_capacity(QUEUE_CAPACITY))
    // Unique per-cell label: one policy appears at every ρ point, so
    // trace tracks and decide-phase attribution need more than the
    // bare policy name.
    .with_label(format!("{}@rho{rho}", algo.name()))
}

fn main() {
    bench::init_bin("fig_latency");
    if bench::smoke_requested() {
        smoke();
        bench::maybe_trace_export("fig_latency");
        return;
    }
    let repeats = repeats().min(3);
    println!(
        "Latency figure — sojourn percentiles under open-loop load, 60 stations, \
         rho {RHOS:?}, {repeats} topologies\n"
    );

    // One job graph over every (algo, rho) sweep point.
    let specs: Vec<RunSpec> = ALGOS
        .iter()
        .flat_map(|&algo| RHOS.iter().map(move |&rho| spec_for(algo, rho)))
        .collect();
    let results = run_grid(&specs, repeats);

    let mut proxy = Table::new("mean delay proxy (ms) by offered load", "rho");
    let mut p50 = Table::new("mean p50 sojourn (ms) by offered load", "rho");
    let mut p99 = Table::new("mean p99 sojourn (ms) by offered load", "rho");
    let mut drops = Table::new(
        format!("queue drops per episode by offered load (waiting room {QUEUE_CAPACITY})"),
        "rho",
    );
    for t in [&mut proxy, &mut p50, &mut p99, &mut drops] {
        t.x_values(RHOS.iter().map(|r| r.to_string()));
    }

    let mut json = Vec::new();
    let mut rows = results.into_iter();
    for algo in ALGOS {
        let (mut proxies, mut p50s, mut p99s, mut dropped) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &rho in &RHOS {
            let reports = rows.next().expect("one row per sweep point");
            let mean_of = |f: &dyn Fn(&bench::EpisodeReport) -> f64| {
                mean_std(&reports.iter().map(f).collect::<Vec<_>>()).0
            };
            proxies.push(mean_of(&|r| r.mean_avg_delay_ms()));
            p50s.push(mean_of(&|r| r.mean_p50_sojourn_ms()));
            p99s.push(mean_of(&|r| r.mean_p99_sojourn_ms()));
            dropped.push(mean_of(&|r| r.total_queue_dropped() as f64));
            json.push(JsonSeries {
                label: format!("{}@rho{rho}", algo.name()),
                reports,
            });
        }
        proxy.series(algo.name(), proxies);
        p50.series(algo.name(), p50s);
        p99.series(algo.name(), p99s);
        drops.series(algo.name(), dropped);
        println!("{} swept", algo.name());
    }
    for t in [&proxy, &p50, &p99, &drops] {
        println!("\n{}", t.render());
    }
    println!("expectation: the delay proxy is flat in rho (the queue layer is pure");
    println!("measurement); p99 pulls away from p50 as rho -> 1 and explodes past");
    println!("saturation at rho 1.1, where finite waiting rooms also start dropping");

    maybe_write_json("fig_latency", &json);

    let profile: Vec<(&str, RunSpec)> = ALGOS
        .iter()
        .map(|&a| (a.name(), spec_for(a, RHOS[2])))
        .collect();
    maybe_obs_profile("fig_latency", &profile);
    bench::maybe_trace_export("fig_latency");
}

/// A tiny ρ-grid through the full parallel sweep harness — fast enough
/// for CI, and (with `LEXCACHE_ZERO_TIMINGS=1` and `--json`)
/// byte-identical across `--threads` counts, which the queue-smoke CI
/// job diffs.
fn smoke() {
    println!("fig_latency --smoke: tiny rho grid per policy\n");
    let specs: Vec<RunSpec> = ALGOS
        .iter()
        .flat_map(|&algo| {
            RHOS.iter().map(move |&rho| RunSpec {
                n_stations: 12,
                scenario: ScenarioConfig::small(),
                horizon: 6,
                ..spec_for(algo, rho)
            })
        })
        .collect();
    let results = run_grid(&specs, 2);
    let mut json = Vec::new();
    let mut rows = results.into_iter();
    let mut measured_any_sojourn = false;
    // Each report's mean p99 sojourn, per ρ over every policy.
    let mut p99s_by_rho = vec![Vec::new(); RHOS.len()];
    for algo in ALGOS {
        for (i, &rho) in RHOS.iter().enumerate() {
            let reports = rows.next().expect("one row per smoke point");
            p99s_by_rho[i].extend(reports.iter().map(|r| r.mean_p99_sojourn_ms()));
            for report in &reports {
                let delay = report.mean_avg_delay_ms();
                assert!(
                    delay.is_finite() && delay >= 0.0,
                    "{} produced a non-finite mean delay at rho {rho}",
                    algo.name()
                );
                for s in &report.slots {
                    assert!(
                        s.p99_sojourn_ms.is_finite() && s.p99_sojourn_ms >= s.p50_sojourn_ms,
                        "{} violated p99 >= p50 at rho {rho}",
                        algo.name()
                    );
                    measured_any_sojourn |= s.p99_sojourn_ms > 0.0;
                }
            }
            let mean_p99 = mean_std(
                &reports
                    .iter()
                    .map(|r| r.mean_p99_sojourn_ms())
                    .collect::<Vec<_>>(),
            )
            .0;
            println!(
                "  {:>9}  rho {rho:>4}: p99 sojourn {mean_p99:>9.2} ms  dropped {:>4}",
                algo.name(),
                reports
                    .iter()
                    .map(|r| r.total_queue_dropped())
                    .sum::<usize>(),
            );
            json.push(JsonSeries {
                label: format!("{}@rho{rho}", algo.name()),
                reports,
            });
        }
    }
    assert!(
        measured_any_sojourn,
        "a loaded queue must measure at least one non-zero sojourn"
    );
    let light = mean_std(&p99s_by_rho[0]).0;
    let saturated = mean_std(&p99s_by_rho[RHOS.len() - 1]).0;
    assert!(
        saturated > light,
        "the p99 tail did not grow with load: {saturated:.2} ms at rho {} vs \
         {light:.2} ms at rho {}",
        RHOS[RHOS.len() - 1],
        RHOS[0]
    );
    println!(
        "\nmean p99 sojourn {light:.2} ms at rho {} vs {saturated:.2} ms at rho {}",
        RHOS[0],
        RHOS[RHOS.len() - 1]
    );
    maybe_write_json("fig_latency", &json);
    println!("\nsmoke ok");
}
