//! Lowering topology + scenario + believed delays into the caching LP.

use mec_net::{BsId, DrainState, Topology};
use mec_workload::Scenario;
use simplex::CachingLp;

/// Per-unit-data transfer delay from each request's registered station to
/// every candidate serving station, computed once per episode over the
/// weighted shortest paths of the topology.
///
/// The paper's delay model (2) multiplies the data volume by a per-unit
/// delay; serving a request away from its registered station additionally
/// drags its data across backhaul links, which is what makes real
/// (bottlenecked) topologies harder than synthetic ones in Fig. 5.
///
/// Requests registered at the same station share one row, so the
/// matrix holds one Dijkstra row per distinct registered station.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferCosts {
    /// `rows[r][i]`: ms per data unit from the `r`-th distinct
    /// registered station (in order of first registration) to station
    /// `i`.
    rows: Vec<Vec<f64>>,
    /// `row_of[l]`: the row of request `l`.
    row_of: Vec<usize>,
}

impl TransferCosts {
    /// Computes the transfer matrix with Dijkstra over link delays from
    /// every distinct registered station.
    pub fn compute(topo: &Topology, scenario: &Scenario) -> Self {
        Self::compute_masked(topo, scenario, &vec![true; topo.edge_count()])
    }

    /// Like [`TransferCosts::compute`] but skipping dead links:
    /// `link_up[e]` mirrors `topo.edges()[e]`. Stations reachable only
    /// through dead links get the same large-but-finite unreachable
    /// penalty as disconnected ones, keeping the LP well-posed.
    ///
    /// # Panics
    ///
    /// Panics if `link_up.len() != topo.edge_count()`.
    pub fn compute_masked(topo: &Topology, scenario: &Scenario, link_up: &[bool]) -> Self {
        assert_eq!(link_up.len(), topo.edge_count(), "one flag per edge");
        let mut row_of_station: Vec<Option<usize>> = vec![None; topo.len()];
        let mut rows = Vec::new();
        let row_of = scenario
            .requests()
            .iter()
            .map(|r| {
                let src = r.registered_bs().index();
                *row_of_station[src].get_or_insert_with(|| {
                    rows.push(dijkstra(topo, src, link_up));
                    rows.len() - 1
                })
            })
            .collect();
        TransferCosts { rows, row_of }
    }

    /// Transfer cost of serving request `l` at station `bs`, ms/unit.
    pub fn get(&self, l: usize, bs: BsId) -> f64 {
        self.row(l)[bs.index()]
    }

    /// Request `l`'s transfer cost to every station, ms/unit: the row it
    /// shares with every request registered at the same station.
    pub fn row(&self, l: usize) -> &[f64] {
        &self.rows[self.row_of[l]]
    }

    /// One row per distinct registered station.
    pub(crate) fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// `row_indices()[l]`: the index into [`TransferCosts::rows`] of
    /// request `l`'s row.
    pub(crate) fn row_indices(&self) -> &[usize] {
        &self.row_of
    }
}

/// Shortest-path delays (ms) from `src` to every station over the alive
/// link delays; unreachable stations get a large-but-finite penalty so
/// the LP stays well-posed.
fn dijkstra(topo: &Topology, src: usize, link_up: &[bool]) -> Vec<f64> {
    const UNREACHABLE_MS: f64 = 1_000.0;
    let n = topo.len();
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    // Edge lookup: adjacency with delays, dead links excluded.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (e, &(u, v)) in topo.edges().iter().enumerate() {
        if !link_up[e] {
            continue;
        }
        let d = topo.edge_delay_ms(e);
        adj[u].push((v, d));
        adj[v].push((u, d));
    }
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((ordered(0.0), src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        let d = d.0;
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(std::cmp::Reverse((ordered(nd), v)));
            }
        }
    }
    dist.into_iter()
        .map(|d| if d.is_finite() { d } else { UNREACHABLE_MS })
        .collect()
}

/// Total-ordered wrapper for f64 keys in the heap, ordered by
/// [`f64::total_cmp`] so even a NaN delay has a definite position
/// instead of breaking the heap invariant.
#[derive(PartialEq)]
struct Ordered(f64);
impl Eq for Ordered {}
impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        crate::float_ord::total_cmp_f64(&self.0, &other.0)
    }
}
fn ordered(v: f64) -> Ordered {
    Ordered(v)
}

/// The per-column cost multiplier a draining station carries in the
/// caching LP: `1 + 1/k` with `k` slots left before the kill.
/// `Draining(1)` doubles its columns' costs (work placed there is all
/// but lost), a long notice barely penalizes; non-draining states weigh
/// `1.0` exactly.
pub fn drain_cost_weight(state: DrainState) -> f64 {
    match state {
        DrainState::Draining(k) => 1.0 + 1.0 / (k.max(1) as f64),
        _ => 1.0,
    }
}

/// One slot's view of station health, refreshed by the episode from the
/// fault process and the queue core's circuit breakers. Every consumer
/// (the LP builder, the learners, the baselines, the repair passes and
/// the queue core) reads capacity, cost weights and service rates from
/// here instead of recomputing them.
///
/// [`StationView::healthy`] is the fault-free value: every station up
/// at nominal capacity, nothing draining, every breaker Closed, so every
/// cost weight and service rate is exactly `1.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct StationView {
    /// `capacity_mhz / c_unit_mhz` per station, fixed for the episode.
    nominal: Vec<f64>,
    up: Vec<bool>,
    drain: Vec<DrainState>,
    breaker_weight: Vec<f64>,
    brownout_capacity: Vec<f64>,
    capacity: Vec<f64>,
    cost_weight: Vec<f64>,
    service_rate: Vec<f64>,
}

impl StationView {
    /// The fault-free view of `topo`'s stations under `scenario`'s
    /// per-unit computing demand.
    pub fn healthy(topo: &Topology, scenario: &Scenario) -> Self {
        let n = topo.len();
        let nominal: Vec<f64> = topo
            .stations()
            .iter()
            .map(|bs| bs.capacity_mhz() / scenario.c_unit_mhz())
            .collect();
        StationView {
            brownout_capacity: nominal.clone(),
            capacity: nominal.clone(),
            nominal,
            up: vec![true; n],
            drain: vec![DrainState::Up; n],
            breaker_weight: vec![1.0; n],
            cost_weight: vec![1.0; n],
            service_rate: vec![1.0; n],
        }
    }

    /// Takes this slot's fault snapshot: liveness, brown-out capacity
    /// multipliers in `(0, 1]` and preemption drain states.
    ///
    /// # Panics
    ///
    /// Panics if a slice does not have one entry per station.
    pub fn set_faults(&mut self, up: &[bool], capacity_factor: &[f64], drain: &[DrainState]) {
        let n = self.len();
        assert_eq!(up.len(), n, "one up flag per station");
        assert_eq!(capacity_factor.len(), n, "one capacity factor per station");
        assert_eq!(drain.len(), n, "one drain state per station");
        self.up.copy_from_slice(up);
        self.drain.copy_from_slice(drain);
        for i in 0..n {
            let cap = self.nominal[i] * capacity_factor[i];
            self.brownout_capacity[i] = cap;
            self.capacity[i] = if up[i] { cap } else { 0.0 };
            // A station `Draining(k)` serves at k/(k+1), mirroring the
            // LP's (1 + 1/k) cost penalty on its columns.
            let drain_factor = match drain[i] {
                DrainState::Draining(k) => k as f64 / (k as f64 + 1.0),
                _ => 1.0,
            };
            self.service_rate[i] = if up[i] {
                capacity_factor[i] * drain_factor
            } else {
                0.0
            };
        }
        self.reweight();
    }

    /// Takes the queue core's circuit-breaker weights (1.0 Closed, 1.5
    /// HalfOpen, 2.0 Open).
    ///
    /// # Panics
    ///
    /// Panics if `breaker_weight` does not have one entry per station.
    pub fn set_breaker_weights(&mut self, breaker_weight: &[f64]) {
        assert_eq!(
            breaker_weight.len(),
            self.len(),
            "one breaker weight per station"
        );
        self.breaker_weight.copy_from_slice(breaker_weight);
        self.reweight();
    }

    fn reweight(&mut self) {
        for (w, (&d, &b)) in self
            .cost_weight
            .iter_mut()
            .zip(self.drain.iter().zip(&self.breaker_weight))
        {
            *w = drain_cost_weight(d) * b;
        }
    }

    /// This view with every cost weight at `1.0`: the same liveness and
    /// capacities, no steering. The clairvoyant regret LP uses it, since
    /// it is scored on realized delays.
    pub fn unweighted(&self) -> Self {
        StationView {
            cost_weight: vec![1.0; self.len()],
            ..self.clone()
        }
    }

    /// Number of stations.
    pub(crate) fn len(&self) -> usize {
        self.up.len()
    }

    /// `up()[i]` — whether `BsId(i)` is alive this slot. Policies must
    /// not assign requests to down stations.
    pub fn up(&self) -> &[bool] {
        &self.up
    }

    /// `drain()[i]` — where `BsId(i)` sits in the preemption drain
    /// lifecycle. Draining stations are still alive but will be killed
    /// in `k` slots; warning-aware policies shift work off them early.
    pub fn drain(&self) -> &[DrainState] {
        &self.drain
    }

    /// Usable capacity in data units: nominal capacity scaled by the
    /// brown-out factor, and `0` for down stations.
    pub fn capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// Nominal capacity scaled by the brown-out factor, *not* zeroed for
    /// down stations: overload scoring divides realized load by it, and
    /// a zero would turn an idle down station's `0/0` into NaN.
    pub fn brownout_capacity(&self) -> &[f64] {
        &self.brownout_capacity
    }

    /// LP unit-cost multiplier per station: [`drain_cost_weight`] times
    /// the circuit-breaker weight, so the LP steers work off doomed and
    /// unhealthy stations without masking them.
    pub fn cost_weight(&self) -> &[f64] {
        &self.cost_weight
    }

    /// Queue service-rate multiplier per station: the brown-out factor,
    /// times `k/(k+1)` while `Draining(k)`, and `0` for down stations.
    pub fn service_rate(&self) -> &[f64] {
        &self.service_rate
    }
}

/// Builds the per-slot caching LP over `stations.len() + 1` columns —
/// the extra column is the remote data centre (unbounded capacity, no
/// instantiation cost, `remote_delay` ms/unit).
///
/// `believed_delay[i]` is the unit delay the caller attributes to
/// station `i`: a policy passes its learned means / tier priors, the
/// simulator passes the *realized* delays to score assignments and
/// compute the clairvoyant optimum. Station `i`'s column costs
/// `(believed_delay[i] + transfer) * stations.cost_weight()[i]` per
/// unit and holds `stations.capacity()[i]` units, so down stations
/// attract no flow and draining or breaker-gated ones are down-weighted
/// but still serve.
///
/// # Panics
///
/// Panics if vector lengths are inconsistent or `remote_delay` is not
/// positive.
pub fn build_caching_lp(
    scenario: &Scenario,
    transfer: &TransferCosts,
    believed_delay: &[f64],
    demands: &[f64],
    remote_delay: f64,
    stations: &StationView,
) -> CachingLp {
    let n = stations.len();
    assert_eq!(believed_delay.len(), n, "one believed delay per station");
    assert_eq!(
        demands.len(),
        scenario.requests().len(),
        "one demand per request"
    );
    assert!(remote_delay > 0.0, "remote delay must be positive");
    let total_demand: f64 = demands.iter().sum();

    // Rows are sized for the remote column up front: pushing it onto a
    // full row would double the row's allocation.
    let weight = stations.cost_weight();
    let unit_cost: Vec<Vec<f64>> = (0..demands.len())
        .map(|l| {
            let mut row = Vec::with_capacity(n + 1);
            row.extend(
                believed_delay
                    .iter()
                    .zip(&transfer.row(l)[..n])
                    .zip(weight)
                    .map(|((&b, &t), &w)| (b + t) * w),
            );
            row.push(remote_delay);
            row
        })
        .collect();

    let mut capacity_units = Vec::with_capacity(n + 1);
    capacity_units.extend_from_slice(stations.capacity());
    capacity_units.push(total_demand.max(1.0));

    let n_services = scenario.services().len();
    let inst_delay: Vec<Vec<f64>> = (0..=n)
        .map(|i| {
            (0..n_services)
                .map(|k| {
                    if i < n {
                        scenario.instantiation().get(BsId(i), k)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();

    let service_of: Vec<usize> = scenario
        .requests()
        .iter()
        .map(|r| r.service().index())
        .collect();

    CachingLp::new(
        demands.to_vec(),
        service_of,
        unit_cost,
        capacity_units,
        inst_delay,
        n_services,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_net::topology::gtitm;
    use mec_net::NetworkConfig;
    use mec_workload::ScenarioConfig;

    fn setup() -> (Topology, NetworkConfig, Scenario) {
        let cfg = NetworkConfig::paper_defaults();
        let topo = gtitm::generate(25, &cfg, 3);
        let scenario = ScenarioConfig::small().build(&topo, 3);
        (topo, cfg, scenario)
    }

    /// Tier-prior beliefs and basic demands: the LP inputs of slot 1.
    fn lp_inputs(
        topo: &Topology,
        cfg: &NetworkConfig,
        scenario: &Scenario,
    ) -> (Vec<f64>, Vec<f64>) {
        let believed = topo
            .stations()
            .iter()
            .map(|b| cfg.tier(b.tier()).unit_delay_ms.mid())
            .collect();
        let demands = scenario
            .requests()
            .iter()
            .map(|r| r.basic_demand())
            .collect();
        (believed, demands)
    }

    #[test]
    fn transfer_to_registered_station_is_zero() {
        let (topo, _, scenario) = setup();
        let t = TransferCosts::compute(&topo, &scenario);
        for (l, r) in scenario.requests().iter().enumerate() {
            assert_eq!(t.get(l, r.registered_bs()), 0.0);
        }
    }

    #[test]
    fn requests_registered_at_one_station_share_a_row() {
        let (topo, _, scenario) = setup();
        let t = TransferCosts::compute(&topo, &scenario);
        let registered: Vec<usize> = scenario
            .requests()
            .iter()
            .map(|r| r.registered_bs().index())
            .collect();
        let mut distinct = registered.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() < registered.len(),
            "some requests share a station"
        );
        assert_eq!(t.rows().len(), distinct.len());
        for (a, &ra) in registered.iter().enumerate() {
            for (b, &rb) in registered.iter().enumerate() {
                let shared = std::ptr::eq(t.row(a), t.row(b));
                assert_eq!(shared, ra == rb, "requests {a} and {b}");
                assert_eq!(shared, t.row_indices()[a] == t.row_indices()[b]);
            }
            assert_eq!(t.row(a)[ra], 0.0);
            assert_eq!(t.row(a).len(), topo.len());
        }
    }

    #[test]
    fn transfer_is_positive_to_other_stations() {
        let (topo, _, scenario) = setup();
        let t = TransferCosts::compute(&topo, &scenario);
        let r0 = &scenario.requests()[0];
        let other = (0..topo.len())
            .map(BsId)
            .find(|&b| b != r0.registered_bs())
            .unwrap();
        assert!(t.get(0, other) > 0.0);
    }

    #[test]
    fn transfer_satisfies_triangle_inequality_to_neighbors() {
        let (topo, _, scenario) = setup();
        let t = TransferCosts::compute(&topo, &scenario);
        let src = scenario.requests()[0].registered_bs();
        for nb in topo.neighbors(src) {
            // Direct edge must not beat the shortest path.
            let e = topo
                .edges()
                .iter()
                .position(|&(u, v)| {
                    (u == src.index() && v == nb.index()) || (v == src.index() && u == nb.index())
                })
                .unwrap();
            assert!(t.get(0, nb) <= topo.edge_delay_ms(e) + 1e-9);
        }
    }

    #[test]
    fn lp_has_remote_column() {
        let (topo, cfg, scenario) = setup();
        let transfer = TransferCosts::compute(&topo, &scenario);
        let (believed, demands) = lp_inputs(&topo, &cfg, &scenario);
        let healthy = StationView::healthy(&topo, &scenario);
        let lp = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &healthy);
        assert_eq!(lp.n_stations(), topo.len() + 1);
        // Remote unit cost is the configured mean for every request.
        for l in 0..lp.n_requests() {
            assert_eq!(lp.unit_cost()[l][topo.len()], 75.0);
        }
        // Remote capacity swallows all demand.
        let total: f64 = demands.iter().sum();
        assert!(lp.capacity_units()[topo.len()] >= total);
    }

    #[test]
    fn lp_is_always_feasible_even_under_extreme_demand() {
        let (topo, _cfg, scenario) = setup();
        let transfer = TransferCosts::compute(&topo, &scenario);
        let believed: Vec<f64> = vec![10.0; topo.len()];
        // Demand far above the whole edge capacity.
        let demands: Vec<f64> = vec![1e6; scenario.requests().len()];
        let healthy = StationView::healthy(&topo, &scenario);
        let lp = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &healthy);
        let sol = lp.solve_fast().expect("remote column keeps LP feasible");
        assert!(sol.is_feasible(&lp, 1e-4));
    }

    /// The fault-free contract: a healthy view, or any view refreshed
    /// with fault-free inputs, prices every column at exactly `believed
    /// + transfer` and gives every station its nominal capacity.
    #[test]
    fn healthy_view_prices_columns_at_believed_plus_transfer_bit_exact() {
        let (topo, cfg, scenario) = setup();
        let n = topo.len();
        let transfer = TransferCosts::compute(&topo, &scenario);
        let all_links =
            TransferCosts::compute_masked(&topo, &scenario, &vec![true; topo.edge_count()]);
        assert_eq!(transfer, all_links);
        let (believed, demands) = lp_inputs(&topo, &cfg, &scenario);
        let healthy = StationView::healthy(&topo, &scenario);
        let mut refreshed = healthy.clone();
        refreshed.set_faults(&vec![true; n], &vec![1.0; n], &vec![DrainState::Up; n]);
        refreshed.set_breaker_weights(&vec![1.0; n]);
        assert_eq!(refreshed, healthy);
        assert_eq!(healthy.unweighted(), healthy);
        assert_eq!(healthy.service_rate(), vec![1.0; n].as_slice());
        let lp = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &healthy);
        for l in 0..lp.n_requests() {
            for (i, &b) in believed.iter().enumerate() {
                let expected = b + transfer.get(l, BsId(i));
                assert_eq!(lp.unit_cost()[l][i].to_bits(), expected.to_bits());
            }
        }
        for (i, bs) in topo.stations().iter().enumerate() {
            let nominal = bs.capacity_mhz() / scenario.c_unit_mhz();
            assert_eq!(lp.capacity_units()[i].to_bits(), nominal.to_bits());
            assert_eq!(healthy.brownout_capacity()[i].to_bits(), nominal.to_bits());
        }
    }

    #[test]
    fn dead_links_raise_transfer_costs() {
        let (topo, _, scenario) = setup();
        let alive = TransferCosts::compute(&topo, &scenario);
        // Kill every link: every off-registered station becomes
        // unreachable (cost 1000), registered stations stay at 0.
        let dead = TransferCosts::compute_masked(&topo, &scenario, &vec![false; topo.edge_count()]);
        for (l, r) in scenario.requests().iter().enumerate() {
            for i in 0..topo.len() {
                let bs = BsId(i);
                if bs == r.registered_bs() {
                    assert_eq!(dead.get(l, bs), 0.0);
                } else {
                    assert_eq!(dead.get(l, bs), 1_000.0);
                    assert!(alive.get(l, bs) <= dead.get(l, bs));
                }
            }
        }
    }

    #[test]
    fn down_station_receives_no_lp_flow() {
        let (topo, _cfg, scenario) = setup();
        let n = topo.len();
        let transfer = TransferCosts::compute(&topo, &scenario);
        // Station 0 is believed nearly free but down: mass must go
        // elsewhere even though its column is by far the cheapest.
        let mut believed = vec![500.0; n];
        believed[0] = 0.1;
        let demands: Vec<f64> = scenario
            .requests()
            .iter()
            .map(|r| r.basic_demand())
            .collect();
        let mut up = vec![true; n];
        up[0] = false;
        let mut view = StationView::healthy(&topo, &scenario);
        view.set_faults(&up, &vec![1.0; n], &vec![DrainState::Up; n]);
        assert_eq!(view.capacity()[0], 0.0);
        // Overload scoring still divides by the un-zeroed capacity.
        assert!(view.brownout_capacity()[0] > 0.0);
        let lp = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &view);
        assert_eq!(lp.capacity_units()[0], 0.0);
        let sol = lp.solve_fast().unwrap();
        let mass_at_0: f64 = (0..lp.n_requests()).map(|l| sol.x[l][0]).sum();
        assert!(mass_at_0.abs() < 1e-9, "down station attracted {mass_at_0}");
    }

    #[test]
    fn brownout_factor_scales_lp_capacity() {
        let (topo, cfg, scenario) = setup();
        let n = topo.len();
        let transfer = TransferCosts::compute(&topo, &scenario);
        let (believed, demands) = lp_inputs(&topo, &cfg, &scenario);
        let mut view = StationView::healthy(&topo, &scenario);
        view.set_faults(&vec![true; n], &vec![0.5; n], &vec![DrainState::Up; n]);
        let lp = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &view);
        for (i, bs) in topo.stations().iter().enumerate() {
            let full = bs.capacity_mhz() / scenario.c_unit_mhz();
            assert!((lp.capacity_units()[i] - full * 0.5).abs() < 1e-12);
            assert_eq!(view.capacity()[i], view.brownout_capacity()[i]);
            assert_eq!(view.service_rate()[i], 0.5);
        }
    }

    #[test]
    fn drain_cost_weight_shape() {
        assert_eq!(drain_cost_weight(DrainState::Up), 1.0);
        assert_eq!(drain_cost_weight(DrainState::Preempted), 1.0);
        assert_eq!(drain_cost_weight(DrainState::Returning), 1.0);
        assert_eq!(drain_cost_weight(DrainState::Draining(1)), 2.0);
        assert!((drain_cost_weight(DrainState::Draining(10)) - 1.1).abs() < 1e-12);
        // Imminence orders the penalty.
        assert!(
            drain_cost_weight(DrainState::Draining(1)) > drain_cost_weight(DrainState::Draining(3))
        );
    }

    #[test]
    fn draining_columns_are_down_weighted_not_masked() {
        let (topo, cfg, scenario) = setup();
        let n = topo.len();
        let transfer = TransferCosts::compute(&topo, &scenario);
        let (believed, demands) = lp_inputs(&topo, &cfg, &scenario);
        let mut drain = vec![DrainState::Up; n];
        drain[0] = DrainState::Draining(1);
        drain[1] = DrainState::Draining(3);
        let healthy = StationView::healthy(&topo, &scenario);
        let mut view = healthy.clone();
        view.set_faults(&vec![true; n], &vec![1.0; n], &drain);
        let plain = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &healthy);
        let weighted = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &view);
        for l in 0..plain.n_requests() {
            let base0 = plain.unit_cost()[l][0];
            let base1 = plain.unit_cost()[l][1];
            assert!((weighted.unit_cost()[l][0] - base0 * 2.0).abs() < 1e-12);
            assert!((weighted.unit_cost()[l][1] - base1 * (1.0 + 1.0 / 3.0)).abs() < 1e-12);
            // Untouched columns and the remote column keep their costs.
            for i in 2..n {
                assert_eq!(weighted.unit_cost()[l][i], plain.unit_cost()[l][i]);
            }
            assert_eq!(weighted.unit_cost()[l][n], 75.0);
        }
        // Draining stations keep their capacity: they still serve.
        assert_eq!(weighted.capacity_units(), plain.capacity_units());
        // The regret LP's view drops the steering, not the health.
        let unweighted = view.unweighted();
        assert_eq!(unweighted.cost_weight(), healthy.cost_weight());
        assert_eq!(unweighted.drain(), view.drain());
    }

    #[test]
    fn breaker_weights_compose_with_drain_down_weights() {
        let (topo, cfg, scenario) = setup();
        let n = topo.len();
        let transfer = TransferCosts::compute(&topo, &scenario);
        let (believed, demands) = lp_inputs(&topo, &cfg, &scenario);
        let mut drain = vec![DrainState::Up; n];
        drain[0] = DrainState::Draining(1); // drain weight 2.0
        drain[2] = DrainState::Draining(2); // drain weight 1.5
        let mut breaker = vec![1.0; n];
        breaker[0] = 1.5; // HalfOpen on the draining station
        breaker[1] = 2.0; // Open elsewhere
        let healthy = StationView::healthy(&topo, &scenario);
        let mut view = healthy.clone();
        view.set_faults(&vec![true; n], &vec![1.0; n], &drain);
        // All-Closed breakers leave the drain weights bit-exact.
        let drain_only = view.cost_weight().to_vec();
        view.set_breaker_weights(&vec![1.0; n]);
        assert_eq!(view.cost_weight(), drain_only.as_slice());
        // The composition is `drain × breaker`, whichever arrives last.
        view.set_breaker_weights(&breaker);
        let mut reordered = healthy.clone();
        reordered.set_breaker_weights(&breaker);
        reordered.set_faults(&vec![true; n], &vec![1.0; n], &drain);
        assert_eq!(view, reordered);
        assert_eq!(view.cost_weight()[0], 3.0);
        assert_eq!(view.cost_weight()[1], 2.0);
        assert_eq!(view.cost_weight()[2], 1.5);
        let plain = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &healthy);
        let resilient = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &view);
        for l in 0..plain.n_requests() {
            let base0 = plain.unit_cost()[l][0];
            let base1 = plain.unit_cost()[l][1];
            // Station 0: drain 2.0 × breaker 1.5 = 3.0.
            assert!((resilient.unit_cost()[l][0] - base0 * 3.0).abs() < 1e-12);
            // Station 1: breaker alone.
            assert!((resilient.unit_cost()[l][1] - base1 * 2.0).abs() < 1e-12);
            for i in 3..n {
                assert_eq!(resilient.unit_cost()[l][i], plain.unit_cost()[l][i]);
            }
            assert_eq!(resilient.unit_cost()[l][n], 75.0);
        }
        // Gated stations keep their capacity — the weights only steer.
        assert_eq!(resilient.capacity_units(), plain.capacity_units());
    }

    #[test]
    fn service_rate_follows_liveness_brownout_and_drain() {
        let (topo, _, scenario) = setup();
        let n = topo.len();
        let mut up = vec![true; n];
        up[0] = false;
        let mut factor = vec![1.0; n];
        factor[0] = 0.5;
        factor[3] = 0.5;
        let mut drain = vec![DrainState::Up; n];
        drain[2] = DrainState::Draining(1);
        drain[3] = DrainState::Draining(3);
        let mut view = StationView::healthy(&topo, &scenario);
        view.set_faults(&up, &factor, &drain);
        let rate = view.service_rate();
        assert_eq!(rate[0], 0.0, "a down station serves nothing");
        assert_eq!(rate[1], 1.0, "an Up station serves at full rate");
        assert_eq!(rate[2], 0.5, "Draining(1) serves at 1/2");
        assert_eq!(
            rate[3],
            0.5 * 0.75,
            "Draining(3) serves at 3/4 of its brown-out rate"
        );
    }

    #[test]
    fn cheap_believed_stations_attract_flow() {
        let (topo, _cfg, scenario) = setup();
        let transfer = TransferCosts::compute(&topo, &scenario);
        // Station 0 is believed nearly free; everything else is awful.
        let mut believed = vec![500.0; topo.len()];
        believed[0] = 0.1;
        let demands: Vec<f64> = scenario
            .requests()
            .iter()
            .map(|r| r.basic_demand())
            .collect();
        let healthy = StationView::healthy(&topo, &scenario);
        let lp = build_caching_lp(&scenario, &transfer, &believed, &demands, 75.0, &healthy);
        let sol = lp.solve_fast().unwrap();
        let mass_at_0: f64 = (0..lp.n_requests()).map(|l| sol.x[l][0]).sum();
        assert!(mass_at_0 > 0.5, "cheap station attracted {mass_at_0}");
    }
}
