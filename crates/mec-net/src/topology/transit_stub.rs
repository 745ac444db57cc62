//! Transit-stub topology generator — GT-ITM's hierarchical mode.
//!
//! The paper's evaluation uses GT-ITM in flat mode (pairwise connection
//! probability 0.1 → [`super::gtitm`]); GT-ITM's better-known output is
//! the two-level *transit-stub* model: a small transit core of densely
//! meshed domains with stub domains hanging off transit nodes. This
//! generator is provided for robustness studies beyond the paper's
//! setup — transit-stub graphs sit between the flat ER graphs and the
//! AS1755 hub-and-spoke extreme in path-length concentration.

use super::Topology;
use crate::params::NetworkConfig;
use crate::station::{BaseStation, BsId, Position, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Propagation delay per link in ms (kept equal to the flat generator).
const LINK_DELAY_MS: (f64, f64) = (0.5, 2.0);

/// Shape of a transit-stub topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitStubConfig {
    /// Number of transit-domain nodes (the meshed core).
    pub transit_nodes: usize,
    /// Stub domains attached per transit node.
    pub stubs_per_transit: usize,
    /// Nodes per stub domain.
    pub stub_size: usize,
}

impl TransitStubConfig {
    /// A shape producing roughly `n` total nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn for_size(n: usize) -> Self {
        assert!(n > 0, "topology must contain at least one station");
        let transit_nodes = ((n as f64).sqrt() / 2.0).ceil().max(1.0) as usize;
        let stub_size = 4.min(n).max(1);
        let per_transit = ((n.saturating_sub(transit_nodes)) as f64
            / (transit_nodes * stub_size) as f64)
            .ceil()
            .max(1.0) as usize;
        TransitStubConfig {
            transit_nodes,
            stubs_per_transit: per_transit,
            stub_size,
        }
    }

    /// Total node count this shape produces.
    pub fn total_nodes(&self) -> usize {
        self.transit_nodes + self.transit_nodes * self.stubs_per_transit * self.stub_size
    }
}

/// Generates a transit-stub topology.
///
/// Transit nodes are macro cells; each stub domain is a ring of
/// micro/femto cells attached to its transit node. Intra-stub rings keep
/// stubs connected; transit nodes form a full mesh.
///
/// # Panics
///
/// Panics if any shape field is zero.
///
/// # Example
///
/// ```
/// use mec_net::{NetworkConfig, topology::transit_stub};
/// let shape = transit_stub::TransitStubConfig::for_size(50);
/// let topo = transit_stub::generate(shape, &NetworkConfig::paper_defaults(), 1);
/// assert_eq!(topo.len(), shape.total_nodes());
/// assert!(topo.is_connected());
/// ```
pub fn generate(shape: TransitStubConfig, cfg: &NetworkConfig, seed: u64) -> Topology {
    assert!(shape.transit_nodes > 0, "need at least one transit node");
    assert!(
        shape.stubs_per_transit > 0,
        "need at least one stub per transit"
    );
    assert!(shape.stub_size > 0, "stubs need at least one node");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0072_455b);
    let n = shape.total_nodes();

    let mut tiers = Vec::with_capacity(n);
    let mut positions = Vec::with_capacity(n);
    let mut edges: Vec<(usize, usize)> = Vec::new();

    // Transit mesh on a circle.
    for t in 0..shape.transit_nodes {
        tiers.push(Tier::Macro);
        let theta = t as f64 / shape.transit_nodes as f64 * std::f64::consts::TAU;
        positions.push(Position::new(200.0 * theta.cos(), 200.0 * theta.sin()));
        for u in 0..t {
            edges.push((u, t));
        }
    }

    // Stub rings.
    let mut next = shape.transit_nodes;
    for t in 0..shape.transit_nodes {
        for s in 0..shape.stubs_per_transit {
            let first = next;
            for j in 0..shape.stub_size {
                let idx = next;
                next += 1;
                tiers.push(if j % 2 == 0 { Tier::Femto } else { Tier::Micro });
                let base = positions[t];
                let theta = (s * shape.stub_size + j) as f64
                    / (shape.stubs_per_transit * shape.stub_size).max(1) as f64
                    * std::f64::consts::TAU;
                positions.push(Position::new(
                    base.x + 80.0 * theta.cos(),
                    base.y + 80.0 * theta.sin(),
                ));
                if j > 0 {
                    edges.push((idx - 1, idx));
                }
            }
            // Close the ring and uplink the stub to its transit node.
            if shape.stub_size > 2 {
                edges.push((first, next - 1));
            }
            edges.push((t, first));
        }
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
    Topology::new(format!("transit-stub-{n}"), stations, edges, edge_delay_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::gtitm;

    #[test]
    fn shape_arithmetic() {
        let shape = TransitStubConfig {
            transit_nodes: 3,
            stubs_per_transit: 2,
            stub_size: 4,
        };
        assert_eq!(shape.total_nodes(), 3 + 24);
    }

    #[test]
    fn generated_graph_is_connected_and_sized() {
        let cfg = NetworkConfig::paper_defaults();
        for &n in &[1usize, 10, 50, 120] {
            let shape = TransitStubConfig::for_size(n);
            let t = generate(shape, &cfg, 7);
            assert_eq!(t.len(), shape.total_nodes());
            assert!(t.is_connected(), "n={n}");
        }
    }

    #[test]
    fn transit_nodes_are_macro_hubs() {
        let cfg = NetworkConfig::paper_defaults();
        let shape = TransitStubConfig {
            transit_nodes: 4,
            stubs_per_transit: 3,
            stub_size: 4,
        };
        let t = generate(shape, &cfg, 1);
        for i in 0..4 {
            assert!(t.station(BsId(i)).tier().is_macro());
            // Mesh (3) + stub uplinks (3).
            assert!(t.degree(BsId(i)) >= 6);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = NetworkConfig::paper_defaults();
        let shape = TransitStubConfig::for_size(40);
        assert_eq!(generate(shape, &cfg, 5), generate(shape, &cfg, 5));
        assert_ne!(generate(shape, &cfg, 5), generate(shape, &cfg, 6));
    }

    #[test]
    fn path_lengths_sit_between_flat_and_as1755() {
        let cfg = NetworkConfig::paper_defaults();
        let shape = TransitStubConfig::for_size(87);
        let ts = generate(shape, &cfg, 0);
        let flat = gtitm::generate(ts.len(), &cfg, 0);
        assert!(
            ts.mean_hop_length() > flat.mean_hop_length(),
            "transit-stub {} vs flat {}",
            ts.mean_hop_length(),
            flat.mean_hop_length()
        );
    }
}
