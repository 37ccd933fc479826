//! Ray-tracing divergence study: run the primary-ray and ambient-occlusion
//! workloads across scenes and compaction modes, reproducing the headline
//! observations of the paper's Fig. 11 — AO diverges far more than primary
//! rays, SCC beats BCC on scattered masks, and the realized wall-clock gain
//! depends on data-cluster bandwidth.
//!
//! Run with: `cargo run --release --example raytrace_divergence`

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::sim::GpuConfig;
use intra_warp_compaction::workloads::raytrace::{ambient_occlusion, primary, SceneKind};

fn main() {
    println!("scene      kernel     eff     bccEU   sccEU   | time gain @DC1 -> @DC2 (scc)");
    for kind in [SceneKind::Al, SceneKind::Bl, SceneKind::Wm] {
        for (label, built) in [
            ("primary", primary(kind, 1)),
            ("ao-simd16", ambient_occlusion(kind, 16, 1)),
        ] {
            let base1 = built
                .run_checked(&GpuConfig::paper_default())
                .expect("baseline run");
            let t = base1.compute_tally();
            let scc1 = built
                .run_checked(&GpuConfig::paper_default().with_compaction(EngineId::SCC))
                .expect("scc run");
            let base2 = built
                .run_checked(&GpuConfig::paper_default().with_dc_bandwidth(2.0))
                .expect("dc2 baseline");
            let scc2 = built
                .run_checked(
                    &GpuConfig::paper_default()
                        .with_compaction(EngineId::SCC)
                        .with_dc_bandwidth(2.0),
                )
                .expect("dc2 scc");
            println!(
                "{:<10} {:<10} {:>5.1}%  {:>5.1}%  {:>5.1}%  | {:>5.1}% -> {:>5.1}%",
                format!("{kind:?}"),
                label,
                100.0 * base1.simd_efficiency(),
                100.0 * t.reduction_vs_ivb(EngineId::BCC),
                100.0 * t.reduction_vs_ivb(EngineId::SCC),
                100.0 * (1.0 - scc1.cycles as f64 / base1.cycles as f64),
                100.0 * (1.0 - scc2.cycles as f64 / base2.cycles as f64),
            );
        }
    }
    println!("\nAO diverges more than primary rays; DC2 realizes more of the EU-cycle gain.");
}
