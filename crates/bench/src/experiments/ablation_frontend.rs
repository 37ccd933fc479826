//! Ablation: front-end issue bandwidth (§4.3).
//!
//! "As BCC and SCC both increase the overall throughput of the EUs,
//! adequate instruction fetch bandwidth and front-end processing bandwidth
//! may be needed to balance the higher rate of execution." This harness
//! sweeps the issue width: with a 1-instruction/cycle front end, heavily
//! compressed SIMD8 streams hit the issue wall and BCC/SCC gains clip; a
//! 2-wide front end unlocks them.

use super::Outcome;
use crate::{cycle_reduction, pct, scale};
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
use iwc_workloads::micro::pipe_mix;

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== ablation: front-end issue bandwidth vs realized compaction gain ==\n");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "workload", "scc @issue1", "scc @issue2", "bcc @issue1", "bcc @issue2"
    );
    // Compute-bound divergent kernels: sparse quad pattern 0x00F0, one
    // active quad out of the warp. SIMD8 compresses from 2 waves/instr to
    // 1 — exactly where a 1-wide front end becomes the wall.
    for (label, simd) in [("pipemix-s8", 8u32), ("pipemix-s16", 16)] {
        let built = pipe_mix(0x00F0, simd, scale());
        let run = |mode: EngineId, issue: u32| {
            let cfg = GpuConfig::paper_default()
                .with_compaction(mode)
                .with_issue_per_cycle(issue)
                .with_dc_bandwidth(2.0); // remove the memory bottleneck
            built.run_checked(&cfg).unwrap_or_else(|e| panic!("{e}"))
        };
        let base1 = run(EngineId::IVY_BRIDGE, 1);
        let base2 = run(EngineId::IVY_BRIDGE, 2);
        println!(
            "{label:<16} {:>12} {:>12} {:>12} {:>12}",
            pct(cycle_reduction(&base1, &run(EngineId::SCC, 1))),
            pct(cycle_reduction(&base2, &run(EngineId::SCC, 2))),
            pct(cycle_reduction(&base1, &run(EngineId::BCC, 1))),
            pct(cycle_reduction(&base2, &run(EngineId::BCC, 2))),
        );
    }
    println!(
        "\nreading: compressed dual-pipe streams demand more than one issue slot per \
         cycle, so a 1-wide front end clips the gain; widening the front end to two \
         issues per cycle unlocks it — §4.3's provisioning requirement."
    );
    Outcome::done()
}
