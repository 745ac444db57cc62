//! AS1755-shaped "real network" topology.
//!
//! The paper's Fig. 5 and Fig. 7 run on the Rocketfuel map of AS1755
//! (Ebone, a European ISP backbone with 87 routers and ~320 links). The
//! raw Rocketfuel dataset is an external artefact, so this module embeds a
//! deterministic generator that reproduces the *structural* properties the
//! paper's observation relies on — "there is usually more bottleneck links
//! in real network topologies than the synthetic ones":
//!
//! * heavy-tailed degree distribution via preferential attachment over a
//!   small densely meshed core (hub-and-spoke, like an ISP backbone);
//! * sparse overall (mean degree ≈ 7, vs. `0.1 · n` for the paper's
//!   Erdős–Rényi graphs at n ≥ 100);
//! * longer shortest paths through hub routers, which concentrate load.
//!
//! The default instance has exactly 87 nodes and ~320 edges; [`scaled`]
//! produces larger instances with the same growth process for the
//! network-size sweep of Fig. 7.

use super::Topology;
use crate::params::NetworkConfig;
use crate::station::{BaseStation, BsId, Position, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of routers in the Rocketfuel AS1755 map.
pub const AS1755_NODES: usize = 87;

/// Core mesh size: the handful of fully meshed backbone routers.
const CORE: usize = 6;

/// Links added per attached node (tuned so that 87 nodes yield ~320
/// edges, matching AS1755's published link count).
const ATTACH_LINKS: usize = 4;

/// Propagation delay per backbone link in ms. Same per-link range as the
/// synthetic generator: what makes the real topology harder is its
/// *structure* (longer, hub-concentrated paths), not slower wires.
const LINK_DELAY_MS: (f64, f64) = (0.5, 2.0);

/// Generates the 87-node AS1755-shaped topology.
///
/// The growth process is seeded, so the same seed always yields the same
/// graph; seed `0` is the canonical instance used by the benches.
///
/// # Example
///
/// ```
/// use mec_net::{NetworkConfig, topology::as1755};
/// let topo = as1755::generate(&NetworkConfig::paper_defaults(), 0);
/// assert_eq!(topo.len(), as1755::AS1755_NODES);
/// assert!(topo.is_connected());
/// ```
pub fn generate(cfg: &NetworkConfig, seed: u64) -> Topology {
    scaled(AS1755_NODES, cfg, seed)
}

/// Generates an `n`-node topology with the AS1755 growth process
/// (preferential attachment over a meshed core).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn scaled(n: usize, cfg: &NetworkConfig, seed: u64) -> Topology {
    assert!(n > 0, "topology must contain at least one station");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00a5_1755);

    let core = CORE.min(n);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Fully meshed core.
    for u in 0..core {
        for v in (u + 1)..core {
            edges.push((u, v));
        }
    }
    // Degree-proportional attachment: each new node connects to
    // ATTACH_LINKS distinct existing nodes, chosen by degree.
    let mut degree = vec![core.saturating_sub(1); core];
    for u in core..n {
        degree.push(0);
        let m = ATTACH_LINKS.min(u);
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let total: usize = degree[..u].iter().sum::<usize>() + u; // +1 smoothing
            let mut pick = rng.random_range(0..total);
            let mut v = 0;
            for (i, &d) in degree[..u].iter().enumerate() {
                let w = d + 1;
                if pick < w {
                    v = i;
                    break;
                }
                pick -= w;
            }
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        for &v in &chosen {
            edges.push((v.min(u), v.max(u)));
            degree[u] += 1;
            degree[v] += 1;
        }
    }

    // Tier by role: core routers are macro cells; the next-highest-degree
    // third are micro; leaves are femto. This matches the paper's mapping
    // of the AS graph onto a heterogeneous MEC (bigger routers host bigger
    // cloudlets).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| degree[b].cmp(&degree[a]).then(a.cmp(&b)));
    let mut tiers = vec![Tier::Femto; n];
    let n_macro = (n / 10).max(1);
    let n_micro = (n - n_macro) / 2;
    for (rank, &node) in order.iter().enumerate() {
        tiers[node] = if rank < n_macro {
            Tier::Macro
        } else if rank < n_macro + n_micro {
            Tier::Micro
        } else {
            Tier::Femto
        };
    }

    // Positions: hubs in a central ring, leaves scattered around their
    // first attachment point (purely cosmetic for this topology, but kept
    // so coverage queries still work).
    let mut positions = vec![Position::default(); n];
    for (rank, &node) in order.iter().enumerate() {
        let theta = rank as f64 / n as f64 * std::f64::consts::TAU;
        let radius = 40.0 + 240.0 * (rank as f64 / n as f64);
        positions[node] = Position::new(radius * theta.cos(), radius * theta.sin());
    }

    let stations: Vec<BaseStation> = (0..n)
        .map(|i| {
            let p = cfg.tier(tiers[i]);
            BaseStation::new(
                BsId(i),
                tiers[i],
                positions[i],
                p.capacity_mhz.sample(&mut rng),
                p.bandwidth_mbps.sample(&mut rng),
                p.radius_m,
                p.transmit_power_w,
            )
        })
        .collect();

    let edge_delay_ms = edges
        .iter()
        .map(|_| rng.random_range(LINK_DELAY_MS.0..=LINK_DELAY_MS.1))
        .collect();

    let name = if n == AS1755_NODES {
        "as1755".to_string()
    } else {
        format!("as1755-{n}")
    };
    Topology::new(name, stations, edges, edge_delay_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::gtitm;

    #[test]
    fn canonical_instance_matches_as1755_shape() {
        let cfg = NetworkConfig::paper_defaults();
        let t = generate(&cfg, 0);
        assert_eq!(t.len(), 87);
        assert!(t.is_connected());
        // Rocketfuel AS1755 has ~320 links; the growth process gives
        // 15 core + 81*4 = 339 before duplicate suppression.
        assert!(
            (300..=345).contains(&t.edge_count()),
            "edge count {}",
            t.edge_count()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = NetworkConfig::paper_defaults();
        assert_eq!(generate(&cfg, 0), generate(&cfg, 0));
        assert_ne!(generate(&cfg, 0), generate(&cfg, 1));
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let cfg = NetworkConfig::paper_defaults();
        let t = generate(&cfg, 0);
        let mut degrees: Vec<usize> = (0..t.len()).map(|i| t.degree(BsId(i))).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Hubs: the top node should have far more links than the median.
        let median = degrees[t.len() / 2];
        assert!(
            degrees[0] >= 3 * median,
            "top degree {} vs median {median}",
            degrees[0]
        );
    }

    #[test]
    fn hubs_are_macro_cells() {
        let cfg = NetworkConfig::paper_defaults();
        let t = generate(&cfg, 0);
        let mut by_degree: Vec<usize> = (0..t.len()).collect();
        by_degree.sort_by_key(|&i| std::cmp::Reverse(t.degree(BsId(i))));
        // The very highest-degree router must be macro.
        assert!(t.station(BsId(by_degree[0])).tier().is_macro());
    }

    #[test]
    fn longer_paths_than_equal_size_er_graph() {
        let cfg = NetworkConfig::paper_defaults();
        let real = generate(&cfg, 0);
        let er = gtitm::generate(87, &cfg, 0);
        assert!(
            real.mean_hop_length() > er.mean_hop_length(),
            "real {} vs er {}",
            real.mean_hop_length(),
            er.mean_hop_length()
        );
    }

    #[test]
    fn scaled_sizes_grow_and_stay_connected() {
        let cfg = NetworkConfig::paper_defaults();
        for &n in &[10usize, 50, 150, 300] {
            let t = scaled(n, &cfg, 0);
            assert_eq!(t.len(), n);
            assert!(t.is_connected(), "n={n}");
        }
    }

    #[test]
    fn tiny_instances_work() {
        let cfg = NetworkConfig::paper_defaults();
        let t = scaled(1, &cfg, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.edge_count(), 0);
        let t3 = scaled(3, &cfg, 0);
        assert!(t3.is_connected());
    }

    #[test]
    fn name_marks_canonical_vs_scaled() {
        let cfg = NetworkConfig::paper_defaults();
        assert_eq!(generate(&cfg, 0).name(), "as1755");
        assert_eq!(scaled(50, &cfg, 0).name(), "as1755-50");
    }
}
