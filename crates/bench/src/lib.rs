//! Benchmark harness regenerating every figure of the paper's
//! evaluation (§VI).
//!
//! Each figure has a binary (`fig3` … `fig7`, `regret_bound`, `summary`,
//! `ablation_*`) that prints the same series the paper plots, as aligned
//! text tables plus machine-readable CSV blocks. Absolute numbers depend
//! on our simulator; the *shapes* — who wins, by roughly what factor,
//! where crossovers fall — are the reproduction targets recorded in
//! `EXPERIMENTS.md`.
//!
//! Environment knobs (all optional):
//!
//! * `LEXCACHE_REPEATS` — topologies averaged per data point (default 10;
//!   the paper uses 80).
//! * `LEXCACHE_SLOTS` — time horizon per episode (default 100, as in the
//!   paper).
//! * `--threads N` (flag) or `LEXCACHE_THREADS` — worker threads for the
//!   sweep job graph (default: available parallelism; `1` forces the
//!   serial path). The reduction is canonical-order, so the worker count
//!   never changes a bit of any result.
//! * `--seed N` (flag) or `LEXCACHE_SEED` — base seed added to every
//!   sweep's per-repeat seed (default 0), so whole experiments replay on
//!   a different seed set without recompiling.
//! * `LEXCACHE_OBS=1` — after the normal sweep, run one instrumented
//!   single-threaded episode per policy (seed 0), write the raw event
//!   stream to `results/obs_<bin>.jsonl`, and print a per-policy phase
//!   breakdown table (see README "Observability").
//! * `LEXCACHE_JSON=1` (or the `--json` flag) — also write the raw
//!   per-seed [`EpisodeReport`]s as `results/<bin>.json`.
//! * `--max-retries N` / `LEXCACHE_RETRIES` — re-runs of a panicked
//!   sweep cell (same positional seed) before quarantine (default 1).
//! * `--cell-budget-ms N` / `LEXCACHE_CELL_BUDGET_MS` — per-cell
//!   watchdog budget; slower cells are flagged, never killed.
//! * `--resume PATH` / `LEXCACHE_RESUME` — splice completed cells from
//!   a checkpoint journal; `--journal PATH` / `--no-journal` /
//!   `LEXCACHE_JOURNAL` control where this run checkpoints (default
//!   `results/<bin>.journal.jsonl`). See [`sweep`].
//! * `LEXCACHE_ZERO_TIMINGS=1` — zero the wall-clock `decide_us`
//!   fields in JSON reports so two runs of the same seeds are
//!   byte-comparable (the resume-smoke CI diff). Also zeroes trace
//!   timestamps, making `--trace` exports byte-identical across
//!   thread counts (the trace-smoke CI diff).
//! * `--trace` (flag) or `LEXCACHE_TRACE=1` — record a per-thread
//!   event trace of the whole run and export
//!   `results/trace_<bin>.json` (Chrome Trace Format / Perfetto),
//!   `results/trace_<bin>.folded` (flamegraph fold) and a per-policy
//!   decide-phase attribution table. `LEXCACHE_TRACE_CAP` sets the
//!   per-thread ring capacity in events (default 2^18).
//!
//! Every binary starts with [`init_bin`], which strictly validates the
//! shared CLI (unknown flags, `--threads 0` and malformed values exit
//! with status 2) and arms crash-safe checkpoint journaling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod sweep;

use cli::Cli;
use infogan::InfoGanConfig;
use lexcache_core::{
    ol_ewma, ol_holt, ol_naive, CachingPolicy, Episode, EpisodeConfig, GreedyGd, OlGan, OlGd,
    OlReg, OlUcb, PolicyConfig, PriGd,
};
pub use lexcache_core::{EpisodeReport, FaultConfig, QueueConfig, QueueDiscipline, ResilConfig};
use lexcache_runner::mini_json::{write_object, ToJson};
use mec_net::topology::{as1755, gtitm};
use mec_net::{NetworkConfig, Topology};
use mec_workload::demand::{DemandProcess as _, FlashCrowd, FlashCrowdConfig};
use mec_workload::scenario::DemandKind;
use mec_workload::{Scenario, ScenarioConfig};
pub use sweep::{init_bin, Checkpoint, QuarantinedCell, SweepOptions};

/// Number of repeated topologies per data point (`LEXCACHE_REPEATS`).
pub fn repeats() -> usize {
    env_usize("LEXCACHE_REPEATS", 10)
}

/// Episode horizon in slots (`LEXCACHE_SLOTS`).
pub fn slots() -> usize {
    env_usize("LEXCACHE_SLOTS", 100)
}

/// Worker threads for sweeps: the `--threads N` / `--threads=N` flag
/// wins, then `LEXCACHE_THREADS`, then available parallelism.
pub fn threads() -> usize {
    Cli::from_env()
        .threads
        .unwrap_or_else(|| env_usize("LEXCACHE_THREADS", lexcache_runner::available_threads()))
}

fn env_usize(key: &str, default: usize) -> usize {
    cli::env_var(key)
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Base seed added to every sweep's per-repeat seed: the `--seed N` /
/// `--seed=N` flag wins, then the `LEXCACHE_SEED` env var, default 0.
pub fn base_seed() -> u64 {
    Cli::from_env().seed.unwrap_or_else(|| {
        cli::env_var("LEXCACHE_SEED")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// Whether the reduced CI-sized run was requested (`--smoke`).
pub fn smoke_requested() -> bool {
    Cli::from_env().smoke
}

/// Which topology family a data point uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// GT-ITM-equivalent Erdős–Rényi graph (`p = 0.1`).
    Gtitm,
    /// The AS1755-shaped real-network generator.
    As1755,
}

impl TopoKind {
    /// Builds an `n`-station topology of this kind.
    pub fn build(self, n: usize, cfg: &NetworkConfig, seed: u64) -> Topology {
        match self {
            TopoKind::Gtitm => gtitm::generate(n, cfg, seed),
            TopoKind::As1755 => as1755::scaled(n, cfg, seed),
        }
    }
}

/// Which algorithm to instantiate (fresh per episode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// Algorithm 1 with the default decaying exploration.
    OlGd,
    /// The optimism-driven `OL_UCB` variant (given demands).
    OlUcb,
    /// `Greedy_GD`.
    GreedyGd,
    /// `Pri_GD` of [20].
    PriGd,
    /// `OL_Reg` with ARMA order 3.
    OlReg,
    /// Algorithm 2, pre-trained on a small synthetic hotspot trace.
    OlGan,
    /// Algorithm 1 with an explicit policy configuration (ablations).
    OlGdWith(PolicyConfig),
    /// Algorithm 2 with explicit GAN loss weights (ablations).
    OlGanWith {
        /// Mutual-information weight λ.
        lambda: f64,
        /// Supervised prediction weight μ.
        mu: f64,
    },
    /// The online body on an EWMA forecaster (ablation).
    OlEwma,
    /// The online body on a last-value forecaster (ablation).
    OlNaive,
    /// The online body on a Holt trend forecaster (ablation).
    OlHolt,
}

impl Algo {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::OlGd | Algo::OlGdWith(_) => "OL_GD",
            Algo::OlUcb => "OL_UCB",
            Algo::GreedyGd => "Greedy_GD",
            Algo::PriGd => "Pri_GD",
            Algo::OlReg => "OL_Reg",
            Algo::OlGan | Algo::OlGanWith { .. } => "OL_GAN",
            Algo::OlEwma => "OL_EWMA",
            Algo::OlNaive => "OL_Naive",
            Algo::OlHolt => "OL_Holt",
        }
    }

    /// Whether the algorithm needs the unknown-demand regime.
    pub fn hidden_demands(self) -> bool {
        matches!(
            self,
            Algo::OlReg
                | Algo::OlGan
                | Algo::OlGanWith { .. }
                | Algo::OlEwma
                | Algo::OlNaive
                | Algo::OlHolt
        )
    }
}

/// One experiment cell: a topology family and size, a scenario, a
/// horizon, one algorithm, averaged over `repeats` seeds.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Topology family.
    pub topo: TopoKind,
    /// Number of base stations.
    pub n_stations: usize,
    /// Scenario configuration.
    pub scenario: ScenarioConfig,
    /// Episode horizon.
    pub horizon: usize,
    /// Algorithm under test.
    pub algo: Algo,
    /// Track clairvoyant regret.
    pub track_regret: bool,
    /// Fault injection ([`FaultConfig::none`] = disabled, the default
    /// for every figure spec).
    pub faults: FaultConfig,
    /// Amortize instantiation costs over cache residency (the warm-cache
    /// accounting the preemption ablation needs; `false` for every
    /// figure spec — the paper charges instantiation per slot).
    pub amortize: bool,
    /// Display-label override for tables, JSON series and trace tracks.
    /// `None` uses the policy name — ambiguous in sweeps that run the
    /// same policy at several parameter points, which set e.g.
    /// `"OL_GD@0.1"` here so trace attribution stays per-cell.
    pub label: Option<String>,
    /// Open-loop queue core configuration (`None` — the default for
    /// every figure spec — keeps the slot-synchronous path; the
    /// latency sweep sets an offered load ρ here to measure sojourn
    /// percentiles on top of the unchanged caching dynamics).
    pub queue: Option<QueueConfig>,
}

impl RunSpec {
    /// The canonical given-demand spec of Fig. 3 (100 stations,
    /// 100 slots, fixed demands).
    pub fn fig3(algo: Algo) -> Self {
        RunSpec {
            topo: TopoKind::Gtitm,
            n_stations: 100,
            scenario: ScenarioConfig::paper_defaults().with_demand(DemandKind::Fixed),
            horizon: slots(),
            algo,
            track_regret: false,
            faults: FaultConfig::none(),
            amortize: false,
            label: None,
            queue: None,
        }
    }

    /// The unknown-demand spec of Fig. 6 (flash-crowd bursts).
    pub fn fig6(algo: Algo) -> Self {
        RunSpec {
            topo: TopoKind::Gtitm,
            n_stations: 100,
            scenario: ScenarioConfig::paper_defaults()
                .with_demand(DemandKind::Flash(FlashCrowdConfig::default())),
            horizon: slots(),
            algo,
            track_regret: false,
            faults: FaultConfig::none(),
            amortize: false,
            label: None,
            queue: None,
        }
    }

    /// Overrides the fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Switches the episode to amortized instantiation accounting.
    pub fn with_amortize(mut self) -> Self {
        self.amortize = true;
        self
    }

    /// Attaches the open-loop queue core at the given configuration
    /// (see [`QueueConfig::open_loop`]); sojourn percentiles and drop
    /// counts land in the per-slot metrics.
    pub fn with_queue(mut self, queue: QueueConfig) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Sets an explicit display label (see the `label` field).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The label used for tables, JSON series and trace tracks: the
    /// explicit override if set, the policy display name otherwise.
    pub fn display_label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.algo.name().to_string())
    }
}

/// Builds a fresh policy for one episode. `OL_GAN` is pre-trained on a
/// small synthetic hotspot trace drawn from the *same scenario family*
/// with a different seed (the paper trains on a small sample of the NYC
/// hotspot data, not on the evaluation episode itself).
pub fn make_policy(spec: &RunSpec, scenario: &Scenario, seed: u64) -> Box<dyn CachingPolicy> {
    let cfg = PolicyConfig::default().with_seed(seed);
    match spec.algo {
        Algo::OlGd => Box::new(OlGd::new(cfg)),
        Algo::OlUcb => Box::new(OlUcb::new(seed)),
        Algo::OlGdWith(custom) => Box::new(OlGd::new(custom.with_seed(seed))),
        Algo::GreedyGd => Box::new(GreedyGd::new()),
        Algo::PriGd => Box::new(PriGd::new()),
        Algo::OlReg => Box::new(OlReg::new(cfg, 3)),
        Algo::OlGan => make_gan(cfg, scenario, seed, None),
        Algo::OlGanWith { lambda, mu } => make_gan(cfg, scenario, seed, Some((lambda, mu))),
        Algo::OlEwma => Box::new(ol_ewma(cfg)),
        Algo::OlNaive => Box::new(ol_naive(cfg)),
        Algo::OlHolt => Box::new(ol_holt(cfg)),
    }
}

fn make_gan(
    cfg: PolicyConfig,
    scenario: &Scenario,
    seed: u64,
    weights: Option<(f64, f64)>,
) -> Box<dyn CachingPolicy> {
    let n_cells = scenario.n_cells();
    let mut gan_cfg = InfoGanConfig::paper_defaults(n_cells);
    gan_cfg.window = 10;
    gan_cfg.bins = 24;
    gan_cfg.mu = 3.0;
    if let Some((lambda, mu)) = weights {
        gan_cfg.lambda = lambda;
        gan_cfg.mu = mu;
    }
    let mut policy = OlGan::new(cfg, gan_cfg, seed);
    policy.set_online_steps(2);
    policy.set_mc_samples(12);
    let (series, cells) = pretraining_series(scenario, seed ^ 0x9e37_79b9, 60);
    policy.pretrain(&series, &cells, 120);
    Box::new(policy)
}

/// Synthesizes the small-sample per-cell *burst residual* training
/// series for `OL_GAN` from the scenario's own request population under
/// an independent, burst-rich flash-crowd realization (the stand-in for
/// the NYC hotspot trace; historical samples deliberately cover busy
/// periods so the burst dynamics are observable).
pub fn pretraining_series(
    scenario: &Scenario,
    seed: u64,
    n_slots: usize,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut process = FlashCrowd::new(
        scenario.requests(),
        FlashCrowdConfig {
            event_probability: 0.5,
            ..FlashCrowdConfig::default()
        },
        seed,
    );
    let n_cells = scenario.n_cells();
    let mut cell_basics = vec![0.0; n_cells];
    for r in scenario.requests() {
        cell_basics[r.location_cell()] += r.basic_demand();
    }
    let mut series = vec![vec![0.0; n_slots]; n_cells];
    for t in 0..n_slots {
        process.advance();
        for r in scenario.requests() {
            series[r.location_cell()][t] += process.demand(r.id());
        }
        for (row, &basic) in series.iter_mut().zip(&cell_basics) {
            row[t] = (row[t] - basic).max(0.0);
        }
    }
    let cells: Vec<usize> = (0..n_cells).collect();
    // Keep only cells that actually have members.
    let populated: Vec<usize> = cells
        .into_iter()
        .filter(|&c| scenario.requests().iter().any(|r| r.location_cell() == c))
        .collect();
    let series = populated.iter().map(|&c| series[c].clone()).collect();
    (series, populated)
}

/// Runs one episode of the spec under seed `seed`.
pub fn run_one(spec: &RunSpec, seed: u64) -> EpisodeReport {
    let net_cfg = NetworkConfig::paper_defaults();
    let topo = spec.topo.build(spec.n_stations, &net_cfg, seed);
    let scenario = spec.scenario.build(&topo, seed);
    let mut policy = make_policy(spec, &scenario, seed);
    let mut ep_cfg = EpisodeConfig::new(seed);
    if spec.algo.hidden_demands() {
        ep_cfg = ep_cfg.hidden_demands();
    }
    if spec.track_regret {
        ep_cfg = ep_cfg.with_regret();
    }
    if spec.amortize {
        ep_cfg = ep_cfg.with_amortized_instantiation();
    }
    ep_cfg = ep_cfg.with_faults(spec.faults);
    if let Some(queue) = spec.queue {
        ep_cfg = ep_cfg.with_queue(queue);
    }
    let mut episode = Episode::with_config(topo, net_cfg, scenario, ep_cfg);
    episode.run(policy.as_mut(), spec.horizon)
}

/// Runs the spec over `repeats` seeded topologies in parallel and
/// returns the per-repeat reports (ordered; repeat `i` uses episode seed
/// [`base_seed`]` + i`). Routed through the crash-safe sweep layer
/// ([`sweep::run_sweep_or_exit`]): panicked repeats are retried with the
/// same seed then quarantined, and completed repeats are checkpointed
/// when the process is an armed bin.
pub fn run_many(spec: &RunSpec, repeats: usize) -> Vec<EpisodeReport> {
    if lexcache_obs::trace::is_on() {
        lexcache_obs::trace::label_next_sweep(vec![spec.display_label()]);
    }
    let rows = sweep::run_sweep_or_exit(1, repeats, &SweepOptions::from_env(), |_, seed| {
        run_one(spec, seed)
    });
    rows.into_iter().next().unwrap_or_default()
}

/// [`run_many`] with explicit worker count and base seed — the
/// deterministic core the golden-trace tests drive directly. Seeds are
/// positional (`base + i`), the reduction is canonical-order, and any
/// installed obs sink sees each repeat's events routed to shard `i`, so
/// `threads = 8` is bit-identical to `threads = 1`.
pub fn run_many_with(
    spec: &RunSpec,
    repeats: usize,
    threads: usize,
    base: u64,
) -> Vec<EpisodeReport> {
    lexcache_runner::map_indexed(repeats, threads, |i| {
        lexcache_obs::set_current_cell(i);
        run_one(spec, base + i as u64)
    })
}

/// Runs a whole sweep — every `(spec, repeat)` cell — as one parallel
/// job graph and returns per-spec report vectors in spec order, using
/// the process-wide knobs (worker count, base seed, retry budget,
/// watchdog, checkpoint journaling — see [`sweep`]).
pub fn run_grid(specs: &[RunSpec], repeats: usize) -> Vec<Vec<EpisodeReport>> {
    label_sweep_from_specs(specs);
    sweep::run_sweep_or_exit(
        specs.len(),
        repeats,
        &SweepOptions::from_env(),
        |s, seed| run_one(&specs[s], seed),
    )
}

/// Declares the upcoming sweep's series labels to the trace layer (one
/// per spec: the explicit label override where set, the policy display
/// name otherwise), so `--trace` exports can name cell tracks and
/// attribute decide phases per spec — ablation sweeps that run one
/// policy at several parameter points stay distinguishable.
fn label_sweep_from_specs(specs: &[RunSpec]) {
    if lexcache_obs::trace::is_on() {
        lexcache_obs::trace::label_next_sweep(specs.iter().map(RunSpec::display_label).collect());
    }
}

/// [`run_grid_with`]'s cell `(s, i)` runs `specs[s]` under seed
/// `base + i` — the same derivation a serial per-spec loop over
/// [`run_many`] uses, so the two produce identical reports. Obs events
/// are routed to the cell's canonical index (`s·repeats + i`), letting a
/// [`lexcache_obs::ShardedRegistry`] sized [`grid_cells`] reduce
/// deterministically.
pub fn run_grid_with(
    specs: &[RunSpec],
    repeats: usize,
    threads: usize,
    base: u64,
) -> Vec<Vec<EpisodeReport>> {
    label_sweep_from_specs(specs);
    sweep::run_sweep_or_exit(
        specs.len(),
        repeats,
        &SweepOptions::explicit(threads, base),
        |s, seed| run_one(&specs[s], seed),
    )
}

/// Number of cells a [`run_grid`] sweep schedules — the shard count to
/// give a [`lexcache_obs::ShardedRegistry`] covering it.
pub fn grid_cells(n_specs: usize, repeats: usize) -> usize {
    lexcache_runner::Grid::new(n_specs, repeats).n_cells()
}

/// Parallel sweep for bins whose cell body is not a plain [`run_one`]
/// (custom episode configs, explicit delay models, …): runs
/// `n_series × repeats` cells of `f(series, seed)` with the same
/// positional seeds, canonical reduction, per-cell obs routing and
/// crash-safety (retry, quarantine, checkpoint/resume) as
/// [`run_grid`], returning one vector per series. The cell type must
/// be journalable ([`Checkpoint`]; `f64` and [`EpisodeReport`] are).
pub fn run_cells<T: Send + Checkpoint>(
    n_series: usize,
    repeats: usize,
    f: impl Fn(usize, u64) -> T + Sync,
) -> Vec<Vec<T>> {
    sweep::run_sweep_or_exit(n_series, repeats, &SweepOptions::from_env(), f)
}

/// Ensures the shared `results/` output directory exists and returns
/// its (relative) path. Every sink or report writer goes through here
/// before opening a file, so no output path ever races directory
/// creation. Creation failure is reported once on stderr; the
/// subsequent file open produces the definitive error.
pub fn results_dir() -> &'static str {
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("results: cannot create results/: {e}");
    }
    "results"
}

/// Whether the instrumented-profile mode is on (`LEXCACHE_OBS=1`).
pub fn obs_enabled() -> bool {
    cli::env_var("LEXCACHE_OBS").is_some_and(|v| v == "1")
}

/// Whether machine-readable JSON output was requested, via the
/// `--json` flag or `LEXCACHE_JSON=1`.
pub fn json_requested() -> bool {
    Cli::from_env().json || cli::env_var("LEXCACHE_JSON").is_some_and(|v| v == "1")
}

/// One labelled series of per-seed episode reports — the JSON shape
/// written next to every figure's text table.
#[derive(Debug, Clone)]
pub struct JsonSeries {
    /// Series label (policy name or sweep point).
    pub label: String,
    /// Per-seed reports, ordered by seed.
    pub reports: Vec<EpisodeReport>,
}

impl ToJson for JsonSeries {
    fn write_json(&self, out: &mut String) {
        write_object(out, &[("label", &self.label), ("reports", &self.reports)]);
    }
}

/// Whether wall-clock timing fields should be zeroed in JSON reports
/// (`LEXCACHE_ZERO_TIMINGS=1`), making two runs of the same seeds
/// byte-comparable — the invariant the resume-smoke CI job diffs.
pub fn zero_timings_requested() -> bool {
    cli::env_var("LEXCACHE_ZERO_TIMINGS").is_some_and(|v| v == "1")
}

/// Writes the series as `results/<bin>.json` if JSON output is on, as
/// one array of [`JsonSeries`] objects. The write is atomic (temp
/// file + rename), so a crash or Ctrl-C never leaves a torn report. A
/// write error is reported on stderr, never fatal: the text tables
/// already printed.
pub fn maybe_write_json(bin: &str, series: &[JsonSeries]) {
    if !json_requested() {
        return;
    }
    let path = format!("{}/{bin}.json", results_dir());
    let stripped: Vec<JsonSeries>;
    let payload: &[JsonSeries] = if zero_timings_requested() {
        stripped = series
            .iter()
            .map(|s| JsonSeries {
                label: s.label.clone(),
                reports: s
                    .reports
                    .iter()
                    .map(EpisodeReport::with_zeroed_timings)
                    .collect(),
            })
            .collect();
        &stripped
    } else {
        series
    };
    match lexcache_runner::atomic_write(std::path::Path::new(&path), &payload.to_json()) {
        Ok(()) => println!("\njson reports written to {path}"),
        Err(e) => eprintln!("json: cannot write {path}: {e}"),
    }
}

/// With `LEXCACHE_OBS=1`, runs one instrumented single-threaded episode
/// per labelled spec (the base seed), appends the raw event stream of all of
/// them to `results/obs_<bin>.jsonl`, and prints a per-policy phase
/// breakdown plus a coverage line comparing the summed `decide/*` span
/// times against the episode's reported decide total.
///
/// The profile episode is separate from the main sweep on purpose: the
/// sweep runs policies concurrently, and a process-global sink would
/// interleave their events. One dedicated episode per policy keeps the
/// stream attributable and the default run untouched.
pub fn maybe_obs_profile(bin: &str, specs: &[(&str, RunSpec)]) {
    if !obs_enabled() {
        return;
    }
    let path = format!("{}/obs_{bin}.jsonl", results_dir());
    // Events accumulate in memory and land on disk in one atomic
    // temp+rename publish, so a crash mid-profile never leaves a torn
    // results/obs_<bin>.jsonl (lexlint rule LX12).
    let sink = lexcache_obs::AtomicJsonl::create(std::path::Path::new(&path));
    println!(
        "\n# observability profile (LEXCACHE_OBS=1): one instrumented episode per policy, \
         seed {}",
        base_seed()
    );
    for (label, spec) in specs {
        let registry = lexcache_obs::SharedRegistry::new();
        let tee = lexcache_obs::Tee::new(Box::new(sink.clone()), Box::new(registry.clone()));
        lexcache_obs::install(Box::new(tee));
        lexcache_obs::mark(&format!("profile/{label}"));
        let report = run_one(spec, base_seed());
        drop(lexcache_obs::uninstall());
        let snap = registry.snapshot();
        println!("\n## {label}");
        print!("{}", snap.render_table());
        let instrumented_ms = snap.span_total_us_with_prefix("decide/") / 1_000.0;
        let reported_ms = report.total_decide_ms();
        let pct = if reported_ms > 0.0 {
            100.0 * instrumented_ms / reported_ms
        } else {
            0.0
        };
        println!(
            "decide coverage: instrumented phases {instrumented_ms:.3} ms \
             of reported decide total {reported_ms:.3} ms ({pct:.1}%)"
        );
    }
    match sink.publish() {
        Ok(()) => println!("\nobs events written to {path}"),
        Err(e) => eprintln!("obs: cannot publish {path}: {e}"),
    }
}

/// An in-flight whole-process observability session started by
/// [`maybe_obs_begin`]: the aggregating registry plus the atomic JSONL
/// sink that will publish the event stream on finish.
pub struct ObsSession {
    registry: lexcache_obs::SharedRegistry,
    sink: lexcache_obs::AtomicJsonl,
}

/// With `LEXCACHE_OBS=1`, installs a JSONL + registry sink covering the
/// rest of the process — for bins whose work is not an episode sweep
/// (e.g. the prediction audit). Returns the session handle to pass to
/// [`maybe_obs_finish`]; `None` when profiling is off.
pub fn maybe_obs_begin(bin: &str) -> Option<ObsSession> {
    if !obs_enabled() {
        return None;
    }
    let path = format!("{}/obs_{bin}.jsonl", results_dir());
    let sink = lexcache_obs::AtomicJsonl::create(std::path::Path::new(&path));
    let registry = lexcache_obs::SharedRegistry::new();
    let tee = lexcache_obs::Tee::new(Box::new(sink.clone()), Box::new(registry.clone()));
    lexcache_obs::install(Box::new(tee));
    Some(ObsSession { registry, sink })
}

/// Uninstalls the sink installed by [`maybe_obs_begin`], prints the
/// aggregated phase/counter breakdown and publishes the event stream
/// atomically (temp + rename).
pub fn maybe_obs_finish(session: Option<ObsSession>) {
    let Some(session) = session else { return };
    drop(lexcache_obs::uninstall());
    println!("\n# observability profile (LEXCACHE_OBS=1)");
    print!("{}", session.registry.snapshot().render_table());
    let path = session.sink.path().display().to_string();
    match session.sink.publish() {
        Ok(()) => println!("obs events written to {path}"),
        Err(e) => eprintln!("obs: cannot publish {path}: {e}"),
    }
}

/// Whether event tracing is on for this process (armed by
/// [`init_bin`] from `--trace` / `LEXCACHE_TRACE=1`).
pub fn trace_requested() -> bool {
    lexcache_obs::trace::is_on()
}

/// If tracing is on, collects the recording and exports it: prints the
/// per-policy decide-phase attribution table, then writes
/// `results/trace_<bin>.json` (Chrome Trace Format — open in Perfetto
/// or `chrome://tracing`) and `results/trace_<bin>.folded`
/// (`stack;stack count` lines for `inferno-flamegraph` / speedscope),
/// both through the atomic temp+rename path. Every bin calls this at
/// the end of `main`; it is free when tracing is off.
pub fn maybe_trace_export(bin: &str) {
    if !trace_requested() {
        return;
    }
    let snap = lexcache_obs::trace::collect();
    print!("{}", snap.render_decide_summary());
    if snap.dropped() > 0 {
        eprintln!(
            "trace: {} event(s) lost to ring overflow — raise LEXCACHE_TRACE_CAP \
             for a complete (and thread-count-reproducible) trace",
            snap.dropped()
        );
    }
    let json_path = format!("{}/trace_{bin}.json", results_dir());
    match lexcache_runner::atomic_write(std::path::Path::new(&json_path), &snap.to_chrome_json()) {
        Ok(()) => {}
        Err(e) => eprintln!("trace: cannot write {json_path}: {e}"),
    }
    let folded_path = format!("{}/trace_{bin}.folded", results_dir());
    match lexcache_runner::atomic_write(std::path::Path::new(&folded_path), &snap.to_folded()) {
        Ok(()) => {}
        Err(e) => eprintln!("trace: cannot write {folded_path}: {e}"),
    }
    println!(
        "\ntrace: {} events → {json_path} (Perfetto) + {folded_path} (flame fold)",
        snap.event_count()
    );
}

/// Mean and (population) standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Per-slot delay series averaged across reports (entry `t` averages the
/// reports' slot `t`).
pub fn mean_delay_series(reports: &[EpisodeReport]) -> Vec<f64> {
    if reports.is_empty() {
        return Vec::new();
    }
    let horizon = reports[0].slots.len();
    (0..horizon)
        .map(|t| {
            reports.iter().map(|r| r.slots[t].avg_delay_ms).sum::<f64>() / reports.len() as f64
        })
        .collect()
}

/// A printable result table: one labelled series per column.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    x_label: String,
    x: Vec<String>,
    columns: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates a table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            x_label: x_label.into(),
            ..Table::default()
        }
    }

    /// Sets the x-axis values.
    pub fn x_values(&mut self, xs: impl IntoIterator<Item = String>) -> &mut Self {
        self.x = xs.into_iter().collect();
        self
    }

    /// Adds a named series (one value per x entry).
    ///
    /// # Panics
    ///
    /// Panics if the series length does not match the x axis.
    pub fn series(&mut self, name: impl Into<String>, values: Vec<f64>) -> &mut Self {
        assert_eq!(values.len(), self.x.len(), "series length mismatch");
        self.columns.push((name.into(), values));
        self
    }

    /// Renders the table (aligned text plus a CSV block).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let mut header = format!("{:>12}", self.x_label);
        for (name, _) in &self.columns {
            let _ = write!(header, " {name:>14}");
        }
        let _ = writeln!(out, "{header}");
        for (i, x) in self.x.iter().enumerate() {
            let mut row = format!("{x:>12}");
            for (_, vals) in &self.columns {
                let _ = write!(row, " {:>14.3}", vals[i]);
            }
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out, "\n```csv");
        let mut csv_head = self.x_label.replace(' ', "_");
        for (name, _) in &self.columns {
            csv_head.push(',');
            csv_head.push_str(&name.replace(' ', "_"));
        }
        let _ = writeln!(out, "{csv_head}");
        for (i, x) in self.x.iter().enumerate() {
            let mut row = x.clone();
            for (_, vals) in &self.columns {
                let _ = write!(row, ",{:.6}", vals[i]);
            }
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(out, "```");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_have_defaults() {
        assert!(repeats() > 0);
        assert!(slots() > 0);
        assert!(threads() > 0);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new("demo", "slots");
        t.x_values(["1".into(), "2".into()]);
        t.series("OL_GD", vec![1.5, 2.5]);
        let s = t.render();
        assert!(s.contains("# demo"));
        assert!(s.contains("OL_GD"));
        assert!(s.contains("slots,OL_GD"));
        assert!(s.contains("2,2.500000"));
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn table_rejects_ragged_series() {
        let mut t = Table::new("demo", "x");
        t.x_values(["1".into()]);
        t.series("a", vec![1.0, 2.0]);
    }

    #[test]
    fn small_end_to_end_run() {
        let spec = RunSpec {
            topo: TopoKind::Gtitm,
            n_stations: 12,
            scenario: ScenarioConfig::small(),
            horizon: 4,
            algo: Algo::GreedyGd,
            track_regret: false,
            faults: FaultConfig::none(),
            amortize: false,
            label: None,
            queue: None,
        };
        let reports = run_many(&spec, 2);
        assert_eq!(reports.len(), 2);
        assert_eq!(mean_delay_series(&reports).len(), 4);
    }

    #[test]
    fn run_many_is_deterministic_and_ordered() {
        let spec = RunSpec {
            topo: TopoKind::Gtitm,
            n_stations: 10,
            scenario: ScenarioConfig::small(),
            horizon: 3,
            algo: Algo::PriGd,
            track_regret: false,
            faults: FaultConfig::none(),
            amortize: false,
            label: None,
            queue: None,
        };
        let a = run_many(&spec, 3);
        let b = run_many(&spec, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.delay_series(), y.delay_series());
        }
    }

    #[test]
    fn grid_matches_per_spec_serial_loops() {
        // One parallel job graph over every (spec, repeat) cell must
        // reproduce the serial per-spec loops bit-for-bit.
        let spec = |algo| RunSpec {
            topo: TopoKind::Gtitm,
            n_stations: 10,
            scenario: ScenarioConfig::small(),
            horizon: 3,
            algo,
            track_regret: false,
            faults: FaultConfig::none(),
            amortize: false,
            label: None,
            queue: None,
        };
        let specs = [spec(Algo::GreedyGd), spec(Algo::PriGd)];
        let grid = run_grid_with(&specs, 2, 4, 5);
        assert_eq!(grid.len(), 2);
        for (s, reports) in grid.iter().enumerate() {
            let serial = run_many_with(&specs[s], 2, 1, 5);
            assert_eq!(reports.len(), serial.len());
            for (p, q) in reports.iter().zip(&serial) {
                let pb: Vec<u64> = p.delay_series().iter().map(|v| v.to_bits()).collect();
                let qb: Vec<u64> = q.delay_series().iter().map(|v| v.to_bits()).collect();
                assert_eq!(pb, qb);
            }
        }
        assert_eq!(grid_cells(specs.len(), 2), 4);
    }

    // Minimal journalable cell type so `run_cells` (whose bound is
    // `Checkpoint`) can be exercised with a plain tuple.
    impl Checkpoint for (usize, u64) {
        fn encode(&self) -> String {
            format!("{} {}", self.0, self.1)
        }

        fn decode(text: &str) -> Result<Self, String> {
            let (a, b) = text
                .split_once(' ')
                .ok_or_else(|| "missing separator".to_string())?;
            Ok((
                a.parse().map_err(|_| "bad usize".to_string())?,
                b.parse().map_err(|_| "bad u64".to_string())?,
            ))
        }
    }

    #[test]
    fn run_cells_uses_positional_seeds() {
        let cells = run_cells(2, 3, |series, seed| (series, seed));
        assert_eq!(cells.len(), 2);
        let base = base_seed();
        for (s, row) in cells.iter().enumerate() {
            let want: Vec<(usize, u64)> = (0..3).map(|i| (s, base + i)).collect();
            assert_eq!(row, &want);
        }
    }

    #[test]
    fn pretraining_series_covers_populated_cells() {
        let net = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(15, &net, 1);
        let scenario = ScenarioConfig::small().build(&topo, 1);
        let (series, cells) = pretraining_series(&scenario, 7, 20);
        assert_eq!(series.len(), cells.len());
        assert!(!series.is_empty());
        for s in &series {
            assert_eq!(s.len(), 20);
            assert!(s.iter().all(|&v| v >= 0.0));
        }
        // Burst-rich pretraining must actually contain bursts.
        assert!(series.iter().flatten().any(|&v| v > 0.0));
    }
}
