//! Per-slot assignment of requests to serving locations, and the
//! cheapest-station rules the baselines and the repair passes place
//! requests by.

use crate::float_ord::total_cmp_f64;
use crate::policy::SlotContext;
use mec_net::BsId;

/// Where one request's data is processed in a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// A cached service instance at an edge base station.
    Edge(BsId),
    /// The origin deployment in the remote data centre (the fallback the
    /// paper's motivation contrasts against; used when no edge capacity
    /// is available).
    Remote,
}

impl Target {
    /// The LP column of this target given `n_stations` edge stations
    /// (remote is the extra last column).
    pub fn column(self, n_stations: usize) -> usize {
        match self {
            Target::Edge(bs) => {
                assert!(bs.index() < n_stations, "station out of range");
                bs.index()
            }
            Target::Remote => n_stations,
        }
    }

    /// Builds a target from an LP column.
    ///
    /// # Panics
    ///
    /// Panics if `column > n_stations`.
    pub fn from_column(column: usize, n_stations: usize) -> Self {
        if column == n_stations {
            Target::Remote
        } else {
            assert!(column < n_stations, "column out of range");
            Target::Edge(BsId(column))
        }
    }

    /// Whether the target is an edge station.
    pub fn is_edge(self) -> bool {
        matches!(self, Target::Edge(_))
    }
}

/// One slot's assignment: `targets()[l]` serves request `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    targets: Vec<Target>,
}

impl Assignment {
    /// Wraps a target vector.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(targets: Vec<Target>) -> Self {
        assert!(!targets.is_empty(), "assignment must cover requests");
        Assignment { targets }
    }

    /// Target per request.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// Number of requests covered.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the assignment is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Edge stations used by at least one request, deduplicated and in
    /// index order.
    pub fn stations_used(&self) -> Vec<BsId> {
        let mut seen: Vec<bool> = Vec::new();
        for t in &self.targets {
            if let Target::Edge(bs) = t {
                let i = bs.index();
                if i >= seen.len() {
                    seen.resize(i + 1, false);
                }
                seen[i] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| BsId(i))
            .collect()
    }

    /// Number of requests sent to the remote data centre.
    pub fn remote_count(&self) -> usize {
        self.targets.iter().filter(|t| !t.is_edge()).count()
    }

    /// Data units assigned to each of `n_stations` stations: the sum of
    /// `demands[l]` over the requests `l` it serves, in request order.
    pub(crate) fn station_load(&self, demands: &[f64], n_stations: usize) -> Vec<f64> {
        let mut load = vec![0.0; n_stations];
        for (t, &d) in self.targets.iter().zip(demands) {
            if let Target::Edge(bs) = t {
                load[bs.index()] += d;
            }
        }
        load
    }
}

/// The station `i < n` with the least `cost(i)` among those `eligible`,
/// if that cost is below `ceiling`; ties go to the lowest index.
#[inline]
pub(crate) fn cheapest_station(
    n: usize,
    ceiling: f64,
    eligible: impl Fn(usize) -> bool,
    cost: impl Fn(usize) -> f64,
) -> Option<usize> {
    let mut best = None;
    let mut best_cost = ceiling;
    for i in 0..n {
        if eligible(i) {
            let c = cost(i);
            if c < best_cost {
                best_cost = c;
                best = Some(i);
            }
        }
    }
    best
}

/// Marks a station that a row of a [`StationOrder`] does not list.
const UNLISTED: u32 = u32::MAX;

/// `Greedy_GD`'s candidate stations per transfer row, cheapest first:
/// for each row of [`crate::TransferCosts`], the stations whose static
/// prior delay plus transfer cost is below the remote delay, sorted by
/// that cost, ties to the lower index. A scan over every station that
/// keeps the first strictly cheaper one picks the first station of
/// this list that passes the same test.
///
/// [`crate::Episode`] builds it on the first greedy placement over its
/// transfer costs and drops it when a link change recomputes them;
/// policies read it through [`SlotContext::station_order`].
#[derive(Debug)]
pub struct StationOrder {
    /// Number of stations.
    n: usize,
    /// The rows' lists, concatenated: row `r` is
    /// `stations[start[r]..start[r + 1]]`.
    stations: Vec<u32>,
    start: Vec<usize>,
    /// `rank[i * rows + r]`: station `i`'s position in row `r`'s list,
    /// or [`UNLISTED`]. Station-major, so taking a station out of every
    /// row reads one run.
    rank: Vec<u32>,
    /// 64-bit words per row of a pass's live sets.
    words: usize,
}

impl StationOrder {
    /// The order of `rows` (one transfer cost per station each) under
    /// the static `prior` delays, listing only costs below `ceiling`.
    pub(crate) fn build(rows: &[Vec<f64>], prior: &[f64], ceiling: f64) -> Self {
        let n = prior.len();
        assert!(n < UNLISTED as usize, "too many stations to rank");
        let mut stations = Vec::new();
        let mut start = vec![0];
        let mut rank = vec![UNLISTED; n * rows.len()];
        // At least one word, so a row that lists nothing still has one.
        let mut words = 1;
        for (r, row) in rows.iter().enumerate() {
            // `+ 0.0` turns −0.0 into +0.0, which `total_cmp` would
            // otherwise order apart from the +0.0 that `<` calls equal.
            let cost: Vec<f64> = prior
                .iter()
                .zip(&row[..n])
                .map(|(&p, &t)| p + t + 0.0)
                .collect();
            let first = stations.len();
            stations.extend((0..n as u32).filter(|&i| cost[i as usize] < ceiling));
            stations[first..].sort_unstable_by(|&a, &b| {
                total_cmp_f64(&cost[a as usize], &cost[b as usize]).then(a.cmp(&b))
            });
            for (k, &i) in stations[first..].iter().enumerate() {
                rank[i as usize * rows.len() + r] = k as u32;
            }
            words = words.max((stations.len() - first).div_ceil(64));
            start.push(stations.len());
        }
        StationOrder {
            n,
            stations,
            start,
            rank,
            words,
        }
    }

    fn rows(&self) -> usize {
        self.start.len() - 1
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.stations[self.start[r]..self.start[r + 1]]
    }
}

/// One placement pass by `Greedy_GD`'s rule: each request takes the
/// cheapest alive station (static prior delay + transfer) with slack
/// for its demand, or the remote data centre when none beats the
/// remote delay. A pass is one `Greedy_GD` or `Pri_GD` decision, or one
/// fault-repair reroute pass.
///
/// Each row of the [`StationOrder`] keeps a live set. A station leaves
/// every live set once it is down or cannot take the pass's least
/// demand; loads only grow within a pass, so it never returns. A
/// request takes the first live station of its row that fits its own
/// demand: the station, and the load arithmetic, of a scan over every
/// station.
pub(crate) struct GreedyPass<'p> {
    order: &'p StationOrder,
    row_of: &'p [usize],
    up: &'p [bool],
    capacity: &'p [f64],
    load: &'p mut [f64],
    least_demand: f64,
    /// Row `r`'s live set is `live[r * order.words..][..order.words]`:
    /// bit `k` is set while the `k`-th station of its list is live.
    live: Vec<u64>,
}

impl<'p> GreedyPass<'p> {
    /// A pass over `ctx`'s stations that adds its placements to `load`
    /// and places requests with the given `demands` (in any order).
    /// Builds the context's station order if no pass has yet.
    pub(crate) fn over(
        ctx: &'p SlotContext<'_>,
        load: &'p mut [f64],
        demands: impl IntoIterator<Item = f64>,
    ) -> Self {
        let order = ctx.station_order.get_or_init(|| {
            StationOrder::build(ctx.transfer.rows(), ctx.prior_delay, ctx.remote_delay)
        });
        Self::new(
            order,
            ctx.transfer.row_indices(),
            ctx.stations.up(),
            ctx.stations.capacity(),
            load,
            demands.into_iter().fold(f64::INFINITY, f64::min),
        )
    }

    fn new(
        order: &'p StationOrder,
        row_of: &'p [usize],
        up: &'p [bool],
        capacity: &'p [f64],
        load: &'p mut [f64],
        least_demand: f64,
    ) -> Self {
        assert!(least_demand >= 0.0, "demands must be non-negative");
        let (n, w) = (order.n, order.words);
        let mut live = vec![0; order.rows() * w];
        for (r, row_live) in live.chunks_exact_mut(w).enumerate() {
            let len = order.row(r).len();
            for (j, word) in row_live.iter_mut().enumerate() {
                *word = match len.saturating_sub(j * 64) {
                    0 => 0,
                    k if k < 64 => (1 << k) - 1,
                    _ => !0,
                };
            }
        }
        let mut pass = GreedyPass {
            order,
            row_of,
            up: &up[..n],
            capacity: &capacity[..n],
            load: &mut load[..n],
            least_demand,
            live,
        };
        for i in 0..n {
            pass.retire_if_spent(i);
        }
        pass
    }

    /// Places request `l` with `demand`, which must be at least the
    /// pass's least demand, and adds it to the chosen station's load.
    pub(crate) fn pick(&mut self, l: usize, demand: f64) -> Target {
        assert!(demand >= self.least_demand, "demand below the pass's least");
        let Some(i) = self.first_fit(self.row_of[l], demand) else {
            return Target::Remote;
        };
        self.load[i] += demand;
        self.retire_if_spent(i);
        Target::Edge(BsId(i))
    }

    /// The first live station of row `r` with slack for `demand`.
    fn first_fit(&self, r: usize, demand: f64) -> Option<usize> {
        let w = self.order.words;
        let list = self.order.row(r);
        for (j, &word) in self.live[r * w..(r + 1) * w].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = list[j * 64 + bits.trailing_zeros() as usize] as usize;
                if self.load[i] + demand <= self.capacity[i] + 1e-9 {
                    return Some(i);
                }
                bits &= bits - 1;
            }
        }
        None
    }

    /// Takes station `i` out of every row's live set if it is down or
    /// cannot take the pass's least demand.
    fn retire_if_spent(&mut self, i: usize) {
        if self.up[i] && self.load[i] + self.least_demand <= self.capacity[i] + 1e-9 {
            return;
        }
        let (rows, w) = (self.order.rows(), self.order.words);
        for (r, &k) in self.order.rank[i * rows..(i + 1) * rows].iter().enumerate() {
            if k != UNLISTED {
                let k = k as usize;
                self.live[r * w + k / 64] &= !(1 << (k % 64));
            }
        }
    }
}

/// The scan [`GreedyPass`] replaces, kept as its test oracle: reads
/// every station for the cheapest alive one (by `prior + transfer`)
/// with slack for `demand`, or remote when none beats `remote_delay`,
/// and adds `demand` to the chosen station's `load`.
#[cfg(test)]
pub(crate) fn scan_pick(
    up: &[bool],
    capacity: &[f64],
    prior: &[f64],
    transfer: &[f64],
    remote_delay: f64,
    demand: f64,
    load: &mut [f64],
) -> Target {
    let best = cheapest_station(
        prior.len(),
        remote_delay,
        |i| up[i] && load[i] + demand <= capacity[i] + 1e-9,
        |i| prior[i] + transfer[i],
    );
    match best {
        Some(i) => {
            load[i] += demand;
            Target::Edge(BsId(i))
        }
        None => Target::Remote,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic case generator: splitmix64, as in
    /// `tests/properties.rs`.
    struct Cases(u64);

    impl Cases {
        /// A uniform draw from `lo..hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + (z ^ (z >> 31)) % (hi - lo)
        }

        /// A uniform draw from `xs`.
        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.range(0, xs.len() as u64) as usize]
        }

        /// `len` draws from `xs`.
        fn vec<T: Copy>(&mut self, len: usize, xs: &[T]) -> Vec<T> {
            (0..len).map(|_| self.pick(xs)).collect()
        }
    }

    /// The walk of a [`GreedyPass`] against [`scan_pick`] on random
    /// passes: every pick and the final loads must agree bit for bit.
    /// Few distinct values make costs tie (−0.0 with +0.0 too), sum to
    /// exactly the remote delay or above it (so that some rows list no
    /// station), and demands fill stations to exactly `capacity + 1e-9`. Stations go down (with their
    /// capacity kept, so only the walk's liveness test excludes them),
    /// brown out or hold nothing, and some passes start with every
    /// station full. Requests are placed in index order (`Greedy_GD`),
    /// in a priority order (`Pri_GD`), or, for a subset, over loads
    /// already placed (the fault repair's reroute).
    #[test]
    fn greedy_pass_matches_the_scan_bit_for_bit() {
        const REMOTE: f64 = 10.0;
        let boundary: f64 = 1.0 + 1e-9;
        let past_boundary = f64::from_bits(boundary.to_bits() + 1);
        let mut cases = Cases(0x5ca7);
        let (mut edge, mut remote, mut at_boundary, mut full_passes) = (0, 0, 0, 0);
        let mut unlisted_picks = 0;
        for case in 0..500 {
            let n = cases.range(1, 140) as usize;
            let n_rows = cases.range(1, 6) as usize;
            let n_req = cases.range(1, 90) as usize;
            let prior = cases.vec(n, &[-0.0, 1.0, 2.0, 2.0, 2.5, 4.0, 10.0]);
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|_| cases.vec(n, &[-0.0, 0.0, 0.5, 1.0, 6.0, 8.0, 1_000.0]))
                .collect();
            let row_of: Vec<usize> = (0..n_req)
                .map(|_| cases.range(0, n_rows as u64) as usize)
                .collect();
            let up: Vec<bool> = (0..n).map(|_| cases.range(0, 4) > 0).collect();
            let capacity = if cases.range(0, 8) == 0 {
                vec![0.0; n]
            } else {
                cases.vec(n, &[0.0, 0.5, 1.0, 1.0, 1.5, 3.0, 12.0])
            };
            let demands = cases.vec(
                n_req,
                &[0.0, 0.5, 0.5, 1.0, 1.0, boundary, past_boundary, 2.0, 3.0],
            );
            let mode = cases.range(0, 3);
            let (load, placed): (Vec<f64>, Vec<usize>) = match mode {
                0 => (vec![0.0; n], (0..n_req).collect()),
                1 => {
                    let cover = cases.vec(n_req, &[1_u64, 2, 3]);
                    let mut order: Vec<usize> = (0..n_req).collect();
                    order.sort_by(|&a, &b| cover[b].cmp(&cover[a]).then(a.cmp(&b)));
                    (vec![0.0; n], order)
                }
                _ => (
                    cases.vec(n, &[0.0, 0.0, 0.5, 1.0, 2.0, 20.0]),
                    (0..n_req).filter(|_| cases.range(0, 3) == 0).collect(),
                ),
            };
            let inputs = format!(
                "case {case}, mode {mode}: prior {prior:?}, rows {rows:?}, row_of {row_of:?}, \
                 up {up:?}, capacity {capacity:?}, demands {demands:?}, load {load:?}, \
                 placed {placed:?}"
            );
            let order = StationOrder::build(&rows, &prior, REMOTE);
            let least = placed
                .iter()
                .map(|&l| demands[l])
                .fold(f64::INFINITY, f64::min);
            let (mut walk_load, mut scan_load) = (load.clone(), load);
            let mut pass = GreedyPass::new(&order, &row_of, &up, &capacity, &mut walk_load, least);
            for &l in &placed {
                let walked = pass.pick(l, demands[l]);
                let scanned = scan_pick(
                    &up,
                    &capacity,
                    &prior,
                    &rows[row_of[l]],
                    REMOTE,
                    demands[l],
                    &mut scan_load,
                );
                assert_eq!(walked, scanned, "request {l}; {inputs}");
                unlisted_picks += usize::from(order.row(row_of[l]).is_empty());
                match scanned {
                    Target::Edge(bs) => {
                        edge += 1;
                        let i = bs.index();
                        let filled = scan_load[i].to_bits() == (capacity[i] + 1e-9).to_bits();
                        at_boundary += usize::from(filled);
                    }
                    Target::Remote => remote += 1,
                }
            }
            let bits = |load: &[f64]| load.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&walk_load), bits(&scan_load), "final loads; {inputs}");
            let all_full = (0..n).all(|i| !up[i] || scan_load[i] + least > capacity[i] + 1e-9);
            full_passes += usize::from(all_full && !placed.is_empty());
        }
        // The cases reach what they are drawn for.
        assert!(
            edge > 1_000 && remote > 1_000,
            "{edge} edge, {remote} remote picks"
        );
        assert!(
            at_boundary > 0 && full_passes > 0 && unlisted_picks > 0,
            "{at_boundary} fills, {full_passes} full, {unlisted_picks} from empty rows"
        );
    }

    #[test]
    fn column_round_trip() {
        assert_eq!(Target::Edge(BsId(3)).column(5), 3);
        assert_eq!(Target::Remote.column(5), 5);
        assert_eq!(Target::from_column(3, 5), Target::Edge(BsId(3)));
        assert_eq!(Target::from_column(5, 5), Target::Remote);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn bad_column_rejected() {
        let _ = Target::from_column(6, 5);
    }

    #[test]
    fn stations_used_dedups_and_sorts() {
        let a = Assignment::new(vec![
            Target::Edge(BsId(2)),
            Target::Remote,
            Target::Edge(BsId(0)),
            Target::Edge(BsId(2)),
        ]);
        assert_eq!(a.stations_used(), vec![BsId(0), BsId(2)]);
        assert_eq!(a.remote_count(), 1);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "must cover requests")]
    fn empty_assignment_rejected() {
        let _ = Assignment::new(vec![]);
    }
}
