//! Per-slot assignment of requests to serving locations, and the
//! cheapest-station rules the baselines and the repair passes place
//! requests by.

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

/// `Greedy_GD`'s rule for one request: the cheapest alive station (by
/// static prior delay + transfer) with slack for `demand`, or remote
/// when none beats the remote delay. Adds `demand` to the chosen
/// station's `load`.
pub(crate) fn greedy_pick(
    ctx: &SlotContext<'_>,
    l: usize,
    demand: f64,
    load: &mut [f64],
) -> Target {
    let n = ctx.topo.len();
    // Every per-station slice, the request's transfer row included, is
    // bound once at length `n`, so the scan neither re-derives them nor
    // re-checks their bounds per station.
    let up = &ctx.stations.up()[..n];
    let capacity = &ctx.stations.capacity()[..n];
    let prior = &ctx.prior_delay[..n];
    let transfer = &ctx.transfer.matrix()[l][..n];
    let station_load = &load[..n];
    let mut best: Option<usize> = None;
    let mut best_cost = ctx.remote_delay;
    for i in 0..n {
        if up[i] && station_load[i] + demand <= capacity[i] + 1e-9 {
            let c = prior[i] + transfer[i];
            if c < best_cost {
                best_cost = c;
                best = Some(i);
            }
        }
    }
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
