//! The paper's contribution: online-learning service caching and task
//! offloading in a 5G-enabled MEC.
//!
//! This crate wires the substrates together into the five algorithms the
//! paper evaluates plus the slot-by-slot simulation engine:
//!
//! * [`OlGd`] — **Algorithm 1** (`OL_GD`): per slot, relax the caching
//!   ILP (3)–(7) into an LP using the *believed* unit delays `θ̂_i`
//!   learned under bandit feedback, build candidate sets
//!   `BS_l^candi = {bs_i : x*_li ≥ γ}`, exploit candidates with
//!   probability `1 − ε_t` (sampling by `x*_li`) and explore a random
//!   non-candidate station otherwise, then observe the realized delays of
//!   the stations actually used.
//! * [`GreedyGd`] — the `Greedy_GD` baseline: static historical (tier
//!   prior) delays, every request greedily takes its cheapest station
//!   with remaining capacity.
//! * [`PriGd`] — the priority baseline of [20]: like greedy but requests
//!   covered by more base stations are served first.
//! * [`OlReg`] — `OL_GD` driven by ARMA-predicted demands (Eq. 27).
//! * [`OlGan`] — **Algorithm 2** (`OL_GAN`): per-cell demand predictions
//!   from the Info-RNN-GAN, plus the per-slot adversarial feedback step.
//!
//! [`Episode`] runs any [`CachingPolicy`] against a topology, a bursty
//! workload and a hidden delay process, recording average delay, decision
//! runtime and (optionally) per-slot regret against the clairvoyant LP
//! optimum. With [`FaultConfig`] enabled it also injects seeded station
//! outages, link failures and capacity brown-outs: failed stations lose
//! their warm cache, policies see per-slot liveness through
//! [`SlotContext`], and a repair pass re-routes anything still assigned
//! to a down station.
//!
//! # Example
//!
//! ```
//! use mec_net::{NetworkConfig, topology::gtitm};
//! use mec_workload::ScenarioConfig;
//! use lexcache_core::{Episode, OlGd, PolicyConfig};
//!
//! let cfg = NetworkConfig::paper_defaults();
//! let topo = gtitm::generate(20, &cfg, 1);
//! let scenario = ScenarioConfig::small().build(&topo, 1);
//! let mut episode = Episode::new(topo, cfg, scenario, 1);
//! let report = episode.run(&mut OlGd::new(PolicyConfig::default()), 5);
//! assert_eq!(report.slots.len(), 5);
//! assert!(report.mean_avg_delay_ms() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod assignment;
pub mod cache;
pub mod float_ord;
pub mod lowering;
pub mod metrics;
pub mod policy;
pub mod sim;

pub use algorithms::{
    ol_ewma, ol_holt, ol_naive, GreedyGd, OlForecast, OlGan, OlGd, OlReg, OlUcb, PriGd,
};
pub use assignment::{Assignment, StationOrder, Target};
pub use cache::CacheState;
pub use lexcache_queue::{Discipline as QueueDiscipline, QueueConfig, ResilConfig};
pub use lowering::{StationView, TransferCosts};
pub use mec_net::{DrainState, FaultConfig, PreemptNotice};
pub use metrics::{EpisodeReport, SlotMetrics};
pub use policy::{CachingPolicy, PolicyConfig, SlotContext, SlotFeedback};
pub use sim::{DelayModelKind, Episode, EpisodeConfig};
