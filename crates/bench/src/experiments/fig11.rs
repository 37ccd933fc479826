//! Fig. 11: ray-tracing kernels — reduction in *total* execution cycles
//! under DC1 and DC2 data-cluster bandwidth, compared with the reduction in
//! *EU* cycles, plus the data-cluster throughput demand (secondary axis of
//! the paper's figure).
//!
//! The paper's finding: with one line/cycle (DC1) the realized gain is well
//! below the EU-cycle gain because the data cluster saturates; doubling the
//! bandwidth (DC2) recovers ~90 % of the EU-cycle gain.

use super::Outcome;
use crate::runner::parallel_map;
use crate::{cycle_reduction, pct, print_config, scale};
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
use iwc_workloads::{raytrace, Built};

fn rt_set(scale: u32) -> Vec<Built> {
    use raytrace::*;
    vec![
        primary_al(scale),
        primary_bl(scale),
        primary_wm(scale),
        ao_al8(scale),
        ao_bl8(scale),
        ao_wm8(scale),
        ao_al16(scale),
        ao_bl16(scale),
        ao_wm16(scale),
    ]
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Fig. 11: ray tracing — total vs EU cycle reduction, DC1/DC2 ==\n");
    print_config(&GpuConfig::paper_default());
    println!(
        "\n{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "workload",
        "bccDC1",
        "sccDC1",
        "bccDC2",
        "sccDC2",
        "bccEU",
        "sccEU",
        "dcBase",
        "dcBCC",
        "dcSCC"
    );
    let builts = rt_set(scale());
    let cells = builts.len();
    let modes = [EngineId::IVY_BRIDGE, EngineId::BCC, EngineId::SCC];
    let rows = parallel_map(&builts, |built| {
        let sweep = |dc: f64| {
            crate::run_modes_cfg(
                built,
                &GpuConfig::paper_default().with_dc_bandwidth(dc),
                &modes,
            )
        };
        let dc1 = sweep(1.0);
        let dc2 = sweep(2.0);
        // EU-cycle reduction is a property of the mask stream (identical
        // across the runs); take it from the baseline run's tally.
        let t = dc1[0].compute_tally();
        format!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7.2} {:>7.2} {:>7.2}",
            built.name,
            pct(cycle_reduction(&dc1[0], &dc1[1])),
            pct(cycle_reduction(&dc1[0], &dc1[2])),
            pct(cycle_reduction(&dc2[0], &dc2[1])),
            pct(cycle_reduction(&dc2[0], &dc2[2])),
            pct(t.reduction_vs_ivb(EngineId::BCC)),
            pct(t.reduction_vs_ivb(EngineId::SCC)),
            dc1[0].dc_throughput(),
            dc1[1].dc_throughput(),
            dc1[2].dc_throughput(),
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!(
        "\npaper: DC1 realizes only part of the EU gain (data cluster saturates near \
         1 line/cycle); DC2 realizes ~90% of it"
    );
    Outcome::cells(cells)
}
