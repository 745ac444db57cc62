//! The paper's motivating scenario: a museum VR service hit by flash
//! crowds. Demands are *not* known in advance; `OL_GAN` predicts each
//! location cell's bursty demand with the Info-RNN-GAN while `OL_Reg`
//! uses the fixed-weight ARMA of Eq. 27.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example vr_flash_crowd
//! ```

use lexcache::core::{Episode, EpisodeConfig, OlGan, OlReg, PolicyConfig};
use lexcache::infogan::InfoGanConfig;
use lexcache::net::{topology::gtitm, NetworkConfig};
use lexcache::workload::demand::{DemandProcess as _, FlashCrowd, FlashCrowdConfig};
use lexcache::workload::scenario::DemandKind;
use lexcache::workload::ScenarioConfig;

fn main() {
    let net_cfg = NetworkConfig::paper_defaults();
    let topo = gtitm::generate(60, &net_cfg, 7);
    let scenario = ScenarioConfig::paper_defaults()
        .with_requests(100)
        .with_demand(DemandKind::Flash(FlashCrowdConfig::default()))
        .build(&topo, 7);
    let n_cells = scenario.n_cells();
    println!(
        "VR flash-crowd scenario: {} users across {} museum cells",
        scenario.requests().len(),
        n_cells
    );

    // Pre-train OL_GAN on a small historical sample: 60 slots of an
    // independent burst-rich realization, reduced to per-cell burst
    // residuals (the stand-in for the NYC hotspot trace).
    let mut cell_basics = vec![0.0; n_cells];
    for r in scenario.requests() {
        cell_basics[r.location_cell()] += r.basic_demand();
    }
    let mut history = FlashCrowd::new(
        scenario.requests(),
        FlashCrowdConfig {
            event_probability: 0.5,
            ..FlashCrowdConfig::default()
        },
        999,
    );
    let n_hist = 60;
    let mut series = vec![vec![0.0; n_hist]; n_cells];
    for t in 0..n_hist {
        history.advance();
        for r in scenario.requests() {
            series[r.location_cell()][t] += history.demand(r.id());
        }
        for (row, &basic) in series.iter_mut().zip(&cell_basics) {
            row[t] = (row[t] - basic).max(0.0);
        }
    }
    let cells: Vec<usize> = (0..n_cells).collect();

    let mut gan_cfg = InfoGanConfig::paper_defaults(n_cells);
    gan_cfg.window = 10;
    gan_cfg.bins = 24;
    gan_cfg.mu = 3.0;
    let mut ol_gan = OlGan::new(PolicyConfig::default(), gan_cfg, 7);
    ol_gan.pretrain(&series, &cells, 120);
    println!(
        "pre-trained Info-RNN-GAN ({} parameters) on {} slots of history",
        ol_gan.gan().n_params(),
        n_hist
    );

    // Unknown-demand episodes (the policies never see the true ρ(t)).
    let horizon = 80;
    let cfg = EpisodeConfig::new(7).hidden_demands();
    let mut e1 = Episode::with_config(topo.clone(), net_cfg.clone(), scenario.clone(), cfg);
    let gan_report = e1.run(&mut ol_gan, horizon);
    let mut e2 = Episode::with_config(topo, net_cfg, scenario, cfg);
    let reg_report = e2.run(&mut OlReg::new(PolicyConfig::default(), 3), horizon);

    println!("\nper-slot average delay (ms) around the first bursts:");
    println!("{:>6} {:>10} {:>10}", "slot", "OL_GAN", "OL_Reg");
    for t in (0..horizon).step_by(8) {
        println!(
            "{:>6} {:>10.1} {:>10.1}",
            t + 1,
            gan_report.slots[t].avg_delay_ms,
            reg_report.slots[t].avg_delay_ms
        );
    }
    println!(
        "\nmeans: OL_GAN {:.2} ms vs OL_Reg {:.2} ms ({:+.1}%)",
        gan_report.mean_avg_delay_ms(),
        reg_report.mean_avg_delay_ms(),
        (gan_report.mean_avg_delay_ms() - reg_report.mean_avg_delay_ms())
            / reg_report.mean_avg_delay_ms()
            * 100.0
    );
    println!(
        "runtime: OL_GAN {:.1} vs OL_Reg {:.1} ms/slot",
        gan_report.mean_decide_us() / 1000.0,
        reg_report.mean_decide_us() / 1000.0
    );
}
