//! Fig. 12: Rodinia kernels — reduction in total execution cycles with the
//! 128 KB L3 and with a perfect (infinite) L3, compared with the EU-cycle
//! reduction from BCC/SCC.
//!
//! The paper's finding: memory-latency-bound kernels (BFS) see little
//! wall-clock benefit even from a perfect L3; compute-bound kernels realize
//! most of the EU-cycle gain.

use super::Outcome;
use crate::runner::parallel_map;
use crate::{cycle_reduction, pct, print_config, scale};
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
use iwc_workloads::{rodinia, Built};

fn rodinia_set(scale: u32) -> Vec<Built> {
    vec![
        rodinia::bfs(scale),
        rodinia::hotspot(scale),
        rodinia::lavamd(scale),
        rodinia::needleman_wunsch(scale),
        rodinia::particle_filter(scale),
    ]
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Fig. 12: Rodinia — total vs EU cycle reduction, 128KB vs perfect L3 ==\n");
    print_config(&GpuConfig::paper_default());
    println!(
        "\n{:<16} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "kernel", "bccTot", "sccTot", "bccTotPL3", "sccTotPL3", "bccEU", "sccEU"
    );
    let builts = rodinia_set(scale());
    let cells = builts.len();
    let modes = [EngineId::IVY_BRIDGE, EngineId::BCC, EngineId::SCC];
    let rows = parallel_map(&builts, |built| {
        let sweep = |perfect: bool| {
            crate::run_modes_cfg(
                built,
                &GpuConfig::paper_default().with_perfect_l3(perfect),
                &modes,
            )
        };
        let real = sweep(false);
        let perf = sweep(true);
        let t = real[0].compute_tally();
        format!(
            "{:<16} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
            built.name,
            pct(cycle_reduction(&real[0], &real[1])),
            pct(cycle_reduction(&real[0], &real[2])),
            pct(cycle_reduction(&perf[0], &perf[1])),
            pct(cycle_reduction(&perf[0], &perf[2])),
            pct(t.reduction_vs_ivb(EngineId::BCC)),
            pct(t.reduction_vs_ivb(EngineId::SCC)),
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!(
        "\npaper: EU-cycle savings average 18% (BCC) / 21% (SCC) for this set, but \
         total-time gains are smaller; BFS is memory-bound and gains little even \
         with a perfect L3"
    );
    Outcome::cells(cells)
}
