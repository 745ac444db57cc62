//! Unit-processing-delay processes `X_i(t)` and instantiation delays.
//!
//! The paper models the delay of processing one unit of data at base
//! station `bs_i` in slot `t` as a random process `X_i(t)` whose
//! distribution is unknown to the algorithm but whose support
//! `[d_min, d_max]` is known (Lemma 1). Delays are constant within a slot
//! and can be observed at a station only when the station is actually used
//! (the bandit feedback model).
//!
//! Stations are *heterogeneous within a tier*: each draws a persistent
//! long-run mean from its tier's delay range at construction (two femto
//! cells are not interchangeable — one may host a faster accelerator or a
//! less loaded backhaul). Static baselines only know the tier prior
//! (range midpoint); discovering which concrete stations are fast is
//! exactly what the bandit learner is for.

use crate::params::{NetworkConfig, Range};
use crate::station::BsId;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-slot multiplicative jitter around each station's persistent mean.
const JITTER: f64 = 0.25;

/// A realized snapshot of every station's unit delay for one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySample {
    /// The slot index the sample belongs to.
    pub slot: usize,
    /// `unit_delay_ms[i]` is the realized delay of `BsId(i)` in ms/unit.
    pub unit_delay_ms: Vec<f64>,
}

/// A per-slot stochastic process of unit processing delays over all
/// stations of one topology.
///
/// Implementations are deterministic given their construction seed, which
/// makes simulation episodes reproducible.
pub trait DelayProcess: std::fmt::Debug {
    /// Number of stations covered by the process.
    fn len(&self) -> usize;

    /// Whether the process covers no stations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The realized unit delay (ms/unit) of `bs` in the current slot.
    ///
    /// # Panics
    ///
    /// Implementations panic if `bs` is out of range.
    fn unit_delay(&self, bs: BsId) -> f64;

    /// Advances the process to the next time slot, re-drawing delays.
    fn advance(&mut self);

    /// The long-run mean of station `bs`'s process (the ground-truth
    /// `θ_i` used when computing regret against the optimum).
    fn true_mean(&self, bs: BsId) -> f64;

    /// Known support `(d_min, d_max)` over all stations and slots,
    /// needed by the Lemma 1 gap bound.
    fn bounds(&self) -> (f64, f64);

    /// Snapshot of the current slot.
    fn sample(&self, slot: usize) -> DelaySample {
        DelaySample {
            slot,
            unit_delay_ms: (0..self.len()).map(|i| self.unit_delay(BsId(i))).collect(),
        }
    }
}

/// Draws one persistent mean per station from its tier range.
fn draw_means(topo: &Topology, cfg: &NetworkConfig, rng: &mut StdRng) -> (Vec<f64>, Vec<Range>) {
    let ranges: Vec<Range> = topo
        .stations()
        .iter()
        .map(|bs| cfg.tier(bs.tier()).unit_delay_ms)
        .collect();
    let means = ranges.iter().map(|r| r.sample(rng)).collect();
    (means, ranges)
}

/// Per-slot jittered delays around persistent per-station means.
///
/// Station `i` draws a mean `μ_i` uniformly from its tier's delay range
/// once; each slot realizes `U(μ_i·(1−j), μ_i·(1+j))` with `j = 0.25`.
///
/// # Example
///
/// ```
/// use mec_net::{NetworkConfig, topology::gtitm, delay::UniformTierDelay, DelayProcess, BsId};
/// let cfg = NetworkConfig::paper_defaults();
/// let topo = gtitm::generate(20, &cfg, 7);
/// let mut proc_ = UniformTierDelay::new(&topo, &cfg, 7);
/// let before = proc_.unit_delay(BsId(0));
/// proc_.advance();
/// let (lo, hi) = proc_.bounds();
/// assert!(before >= lo && before <= hi);
/// ```
#[derive(Debug, Clone)]
pub struct UniformTierDelay {
    means: Vec<f64>,
    ranges: Vec<Range>,
    current: Vec<f64>,
    rng: StdRng,
}

impl UniformTierDelay {
    /// Builds the process for every station of `topo` using the tier
    /// delay ranges in `cfg`.
    pub fn new(topo: &Topology, cfg: &NetworkConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_de1a);
        let (means, ranges) = draw_means(topo, cfg, &mut rng);
        let current = means
            .iter()
            .map(|&m| rng.random_range(m * (1.0 - JITTER)..=m * (1.0 + JITTER)))
            .collect();
        UniformTierDelay {
            means,
            ranges,
            current,
            rng,
        }
    }

    /// The persistent mean of station `bs` (test/audit hook; unknown to
    /// the algorithms).
    pub fn station_mean(&self, bs: BsId) -> f64 {
        self.means[bs.index()]
    }
}

impl DelayProcess for UniformTierDelay {
    fn len(&self) -> usize {
        self.means.len()
    }

    fn unit_delay(&self, bs: BsId) -> f64 {
        self.current[bs.index()]
    }

    fn advance(&mut self) {
        for (c, &m) in self.current.iter_mut().zip(&self.means) {
            *c = self
                .rng
                .random_range(m * (1.0 - JITTER)..=m * (1.0 + JITTER));
        }
    }

    fn true_mean(&self, bs: BsId) -> f64 {
        self.means[bs.index()]
    }

    fn bounds(&self) -> (f64, f64) {
        let lo = self
            .ranges
            .iter()
            .map(|r| r.lo * (1.0 - JITTER))
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .ranges
            .iter()
            .map(|r| r.hi * (1.0 + JITTER))
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

/// Congestion-modulated delays: the jittered per-station process of
/// [`UniformTierDelay`] additionally passes through a two-state
/// (normal / congested) Markov chain per station; while congested the
/// delay is multiplied by `factor`.
///
/// Stations differ in congestion-proneness: station `i`'s entry rate is
/// `p_enter · u_i` with `u_i ~ U(0.5, 1.5)` drawn once. A bandit learner
/// can therefore discover not just which stations are intrinsically fast
/// but which ones are rarely congested — neither is visible to the
/// static tier prior.
#[derive(Debug, Clone)]
pub struct CongestionDelay {
    means: Vec<f64>,
    ranges: Vec<Range>,
    p_enter: Vec<f64>,
    p_exit: f64,
    factor: f64,
    congested: Vec<bool>,
    current: Vec<f64>,
    rng: StdRng,
}

impl CongestionDelay {
    /// Builds the process. `p_enter` is the *mean* per-slot probability
    /// of entering congestion, `p_exit` the exit probability, `factor`
    /// the delay multiplier while congested.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `[0, 1]` or `factor < 1`.
    pub fn new(
        topo: &Topology,
        cfg: &NetworkConfig,
        p_enter: f64,
        p_exit: f64,
        factor: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&p_enter), "p_enter must be in [0, 1]");
        assert!((0.0..=1.0).contains(&p_exit), "p_exit must be in [0, 1]");
        assert!(factor >= 1.0, "congestion factor must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc046_e511);
        let (means, ranges) = draw_means(topo, cfg, &mut rng);
        let p_enter = means
            .iter()
            .map(|_| (p_enter * rng.random_range(0.5..=1.5)).min(1.0))
            .collect();
        let congested = vec![false; means.len()];
        let current = means.clone();
        let mut process = CongestionDelay {
            means,
            ranges,
            p_enter,
            p_exit,
            factor,
            congested,
            current,
            rng,
        };
        process.redraw();
        process
    }

    /// Mean stationary congestion probability across stations.
    pub fn stationary_congestion(&self) -> f64 {
        let total: f64 = self
            .p_enter
            .iter()
            .map(|&pe| {
                // lexlint: allow(LX06): exact-zero divisor guard for a frozen chain
                if pe + self.p_exit == 0.0 {
                    0.0
                } else {
                    pe / (pe + self.p_exit)
                }
            })
            .sum();
        total / self.p_enter.len() as f64
    }

    /// Whether `bs` is congested in the current slot.
    pub fn is_congested(&self, bs: BsId) -> bool {
        self.congested[bs.index()]
    }

    /// The persistent base mean of station `bs` (audit hook).
    pub fn station_mean(&self, bs: BsId) -> f64 {
        self.means[bs.index()]
    }

    fn redraw(&mut self) {
        for i in 0..self.means.len() {
            let m = self.means[i];
            let base = self
                .rng
                .random_range(m * (1.0 - JITTER)..=m * (1.0 + JITTER));
            self.current[i] = if self.congested[i] {
                base * self.factor
            } else {
                base
            };
        }
    }
}

impl DelayProcess for CongestionDelay {
    fn len(&self) -> usize {
        self.means.len()
    }

    fn unit_delay(&self, bs: BsId) -> f64 {
        self.current[bs.index()]
    }

    fn advance(&mut self) {
        for i in 0..self.means.len() {
            let flip: f64 = self.rng.random();
            if self.congested[i] {
                if flip < self.p_exit {
                    self.congested[i] = false;
                }
            } else if flip < self.p_enter[i] {
                self.congested[i] = true;
            }
        }
        self.redraw();
    }

    fn true_mean(&self, bs: BsId) -> f64 {
        let i = bs.index();
        // lexlint: allow(LX06): exact-zero divisor guard for a frozen chain
        let pi_c = if self.p_enter[i] + self.p_exit == 0.0 {
            0.0
        } else {
            self.p_enter[i] / (self.p_enter[i] + self.p_exit)
        };
        self.means[i] * (1.0 - pi_c) + self.means[i] * self.factor * pi_c
    }

    fn bounds(&self) -> (f64, f64) {
        let lo = self
            .ranges
            .iter()
            .map(|r| r.lo * (1.0 - JITTER))
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .ranges
            .iter()
            .map(|r| r.hi * (1.0 + JITTER) * self.factor)
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

/// Instantiation delays `d_ins(i, k)` for caching an instance of service
/// `k` at station `i`.
///
/// The paper assumes these are constants given a priori, varying across
/// (station, service) pairs. They are drawn once at construction from a
/// uniform range and then fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantiationDelays {
    n_stations: usize,
    n_services: usize,
    /// Row-major `[station][service]` delays in ms.
    delays_ms: Vec<f64>,
}

impl InstantiationDelays {
    /// Default instantiation-delay range in ms (container/VM spin-up).
    pub const DEFAULT_RANGE_MS: (f64, f64) = (10.0, 40.0);

    /// Draws instantiation delays uniformly from `range_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `range_ms.0 > range_ms.1` or either is negative.
    pub fn generate(n_stations: usize, n_services: usize, range_ms: (f64, f64), seed: u64) -> Self {
        assert!(
            range_ms.0 >= 0.0 && range_ms.0 <= range_ms.1,
            "invalid instantiation delay range"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0125_7a7e);
        let range = Range::new(range_ms.0, range_ms.1);
        let delays_ms = (0..n_stations * n_services)
            .map(|_| range.sample(&mut rng))
            .collect();
        InstantiationDelays {
            n_stations,
            n_services,
            delays_ms,
        }
    }

    /// Uniform constant delays (useful in tests and analytic checks).
    pub fn constant(n_stations: usize, n_services: usize, delay_ms: f64) -> Self {
        assert!(delay_ms >= 0.0, "delay must be non-negative");
        InstantiationDelays {
            n_stations,
            n_services,
            delays_ms: vec![delay_ms; n_stations * n_services],
        }
    }

    /// Delay of instantiating service `service` at station `bs`, in ms.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, bs: BsId, service: usize) -> f64 {
        assert!(bs.index() < self.n_stations, "station out of range");
        assert!(service < self.n_services, "service out of range");
        self.delays_ms[bs.index() * self.n_services + service]
    }

    /// Number of stations.
    pub fn n_stations(&self) -> usize {
        self.n_stations
    }

    /// Number of services.
    pub fn n_services(&self) -> usize {
        self.n_services
    }

    /// The spread `Δ_ins = max d_ins − min d_ins` used by Lemma 1.
    pub fn spread(&self) -> f64 {
        if self.delays_ms.is_empty() {
            return 0.0;
        }
        let max = self
            .delays_ms
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let min = self.delays_ms.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        max - min
    }
}

/// Remote data-centre delay process: uniform in the configured range,
/// independent across slots. Used when a request cannot be served at any
/// edge station.
#[derive(Debug, Clone)]
pub struct RemoteDcDelay {
    range: Range,
    current: f64,
    rng: StdRng,
}

impl RemoteDcDelay {
    /// Builds the process from the network configuration.
    pub fn new(cfg: &NetworkConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdc_de1a);
        let range = cfg.remote_dc_delay_ms;
        let current = range.sample(&mut rng);
        RemoteDcDelay {
            range,
            current,
            rng,
        }
    }

    /// The realized remote delay in the current slot, ms/unit.
    pub fn unit_delay(&self) -> f64 {
        self.current
    }

    /// Advances to the next slot.
    pub fn advance(&mut self) {
        self.current = self.range.sample(&mut self.rng);
    }

    /// Long-run mean of the remote delay.
    pub fn true_mean(&self) -> f64 {
        self.range.mid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::gtitm;

    fn small_topo() -> (Topology, NetworkConfig) {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(30, &cfg, 11);
        (topo, cfg)
    }

    #[test]
    fn station_means_lie_in_tier_ranges() {
        let (topo, cfg) = small_topo();
        let p = UniformTierDelay::new(&topo, &cfg, 3);
        for bs in topo.stations() {
            let r = cfg.tier(bs.tier()).unit_delay_ms;
            assert!(r.contains(p.station_mean(bs.id())));
        }
    }

    #[test]
    fn stations_within_a_tier_are_heterogeneous() {
        let (topo, cfg) = small_topo();
        let p = UniformTierDelay::new(&topo, &cfg, 3);
        let femto_means: Vec<f64> = topo
            .stations()
            .iter()
            .filter(|b| b.tier() == crate::Tier::Femto)
            .map(|b| p.station_mean(b.id()))
            .collect();
        assert!(femto_means.len() > 2);
        let min = femto_means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = femto_means
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.5, "femto means should spread: {min}..{max}");
    }

    #[test]
    fn uniform_delays_stay_near_station_mean() {
        let (topo, cfg) = small_topo();
        let mut p = UniformTierDelay::new(&topo, &cfg, 3);
        for _ in 0..50 {
            for bs in topo.stations() {
                let d = p.unit_delay(bs.id());
                let m = p.station_mean(bs.id());
                assert!(d >= m * (1.0 - JITTER) - 1e-9 && d <= m * (1.0 + JITTER) + 1e-9);
            }
            p.advance();
        }
    }

    #[test]
    fn uniform_delay_is_deterministic_per_seed() {
        let (topo, cfg) = small_topo();
        let mut a = UniformTierDelay::new(&topo, &cfg, 9);
        let mut b = UniformTierDelay::new(&topo, &cfg, 9);
        for _ in 0..10 {
            a.advance();
            b.advance();
        }
        assert_eq!(a.sample(10), b.sample(10));
    }

    #[test]
    fn different_seeds_differ() {
        let (topo, cfg) = small_topo();
        let a = UniformTierDelay::new(&topo, &cfg, 1);
        let b = UniformTierDelay::new(&topo, &cfg, 2);
        assert_ne!(a.sample(0), b.sample(0));
    }

    #[test]
    fn uniform_empirical_mean_converges_to_true_mean() {
        let (topo, cfg) = small_topo();
        let mut p = UniformTierDelay::new(&topo, &cfg, 5);
        let id = topo.stations()[0].id();
        let mut sum = 0.0;
        let n = 5000;
        for _ in 0..n {
            sum += p.unit_delay(id);
            p.advance();
        }
        let emp = sum / n as f64;
        let truth = p.true_mean(id);
        assert!(
            (emp - truth).abs() < 0.05 * truth,
            "empirical {emp} vs true {truth}"
        );
    }

    #[test]
    fn bounds_cover_all_samples() {
        let (topo, cfg) = small_topo();
        let mut p = UniformTierDelay::new(&topo, &cfg, 3);
        let (lo, hi) = p.bounds();
        for _ in 0..20 {
            for i in 0..p.len() {
                let d = p.unit_delay(BsId(i));
                assert!(d >= lo && d <= hi);
            }
            p.advance();
        }
    }

    #[test]
    fn congestion_multiplies_delay() {
        let (topo, cfg) = small_topo();
        // Always congested: enter with probability 1, never exit.
        let mut p = CongestionDelay::new(&topo, &cfg, 1.0, 0.0, 3.0, 3);
        // u_i >= 0.5 so every station's entry probability is >= 0.5;
        // after enough seeded slots every station has entered congestion.
        for _ in 0..20 {
            p.advance();
        }
        for bs in topo.stations() {
            assert!(p.is_congested(bs.id()), "{} should be congested", bs.id());
            let m = p.station_mean(bs.id());
            let d = p.unit_delay(bs.id());
            assert!(d >= m * (1.0 - JITTER) * 3.0 - 1e-9);
        }
    }

    #[test]
    fn congestion_stationary_probability_is_sane() {
        let (topo, cfg) = small_topo();
        let p = CongestionDelay::new(&topo, &cfg, 0.1, 0.3, 2.0, 3);
        let pi = p.stationary_congestion();
        // Entry rates vary in [0.05, 0.15] → π in [1/7, 1/3].
        assert!(pi > 1.0 / 7.0 - 1e-9 && pi < 1.0 / 3.0 + 1e-9, "pi = {pi}");
    }

    #[test]
    fn congestion_proneness_varies_across_stations() {
        let (topo, cfg) = small_topo();
        let p = CongestionDelay::new(&topo, &cfg, 0.2, 0.2, 2.0, 3);
        let ratios: Vec<f64> = topo
            .stations()
            .iter()
            .map(|b| p.true_mean(b.id()) / p.station_mean(b.id()))
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min + 0.05, "congestion tax should vary: {min}..{max}");
    }

    #[test]
    fn congestion_empirical_mean_tracks_true_mean() {
        let (topo, cfg) = small_topo();
        let mut p = CongestionDelay::new(&topo, &cfg, 0.2, 0.2, 2.0, 17);
        let bs = topo.stations()[0].id();
        let mut sum = 0.0;
        let n = 30_000;
        for _ in 0..n {
            p.advance();
            sum += p.unit_delay(bs);
        }
        let emp = sum / n as f64;
        let truth = p.true_mean(bs);
        assert!(
            (emp - truth).abs() < 0.05 * truth,
            "empirical {emp} vs true {truth}"
        );
    }

    #[test]
    #[should_panic(expected = "congestion factor")]
    fn congestion_rejects_shrinking_factor() {
        let (topo, cfg) = small_topo();
        let _ = CongestionDelay::new(&topo, &cfg, 0.1, 0.1, 0.5, 3);
    }

    #[test]
    fn instantiation_delays_in_range_and_fixed() {
        let d = InstantiationDelays::generate(10, 4, (5.0, 25.0), 3);
        for i in 0..10 {
            for k in 0..4 {
                let v = d.get(BsId(i), k);
                assert!((5.0..=25.0).contains(&v));
                // Fixed: re-reading yields the same value.
                assert_eq!(v, d.get(BsId(i), k));
            }
        }
        assert_eq!(d.n_stations(), 10);
        assert_eq!(d.n_services(), 4);
    }

    #[test]
    fn instantiation_spread_of_constant_is_zero() {
        let d = InstantiationDelays::constant(5, 3, 12.0);
        assert_eq!(d.spread(), 0.0);
        assert_eq!(d.get(BsId(4), 2), 12.0);
    }

    #[test]
    fn instantiation_spread_bounded_by_range_width() {
        let d = InstantiationDelays::generate(20, 5, (10.0, 40.0), 9);
        assert!(d.spread() <= 30.0);
        assert!(d.spread() > 0.0);
    }

    #[test]
    #[should_panic(expected = "station out of range")]
    fn instantiation_get_rejects_bad_station() {
        let d = InstantiationDelays::constant(2, 2, 1.0);
        let _ = d.get(BsId(2), 0);
    }

    #[test]
    fn remote_dc_delay_in_paper_range() {
        let cfg = NetworkConfig::paper_defaults();
        let mut r = RemoteDcDelay::new(&cfg, 3);
        for _ in 0..100 {
            assert!((50.0..=100.0).contains(&r.unit_delay()));
            r.advance();
        }
        assert_eq!(r.true_mean(), 75.0);
    }

    #[test]
    fn sample_snapshot_has_len_entries() {
        let (topo, cfg) = small_topo();
        let p = UniformTierDelay::new(&topo, &cfg, 3);
        let s = p.sample(7);
        assert_eq!(s.slot, 7);
        assert_eq!(s.unit_delay_ms.len(), topo.len());
    }
}
