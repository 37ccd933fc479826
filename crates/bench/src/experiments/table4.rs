//! Table 4: summary of BCC and SCC benefits for divergent workloads —
//! max/average EU-cycle reductions (simulated and trace-based) and
//! execution-time reductions under DC1 and DC2.

use super::Outcome;
use crate::runner::{self, parallel_map};
use crate::{cycle_reduction, pct, scale, trace_len, MaxAvg};
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
use iwc_trace::{analyze_corpus, corpus};
use iwc_workloads::{catalog, Category};

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Table 4: summary of BCC and SCC benefits (divergent workloads) ==\n");
    let entries: Vec<_> = catalog()
        .into_iter()
        .filter(|e| e.category == Category::Divergent)
        .collect();
    let profiles = corpus();
    let cells = entries.len() + profiles.len();

    // One cell per divergent workload: [sim_bcc, sim_scc, dc1_bcc, dc1_scc,
    // dc2_bcc, dc2_scc] reductions, aggregated in catalog order below.
    let sim_cells = parallel_map(&entries, |entry| {
        let built = (entry.build)(scale());
        let run = |mode: EngineId, dc: f64| {
            let cfg = GpuConfig::paper_default()
                .with_compaction(mode)
                .with_dc_bandwidth(dc);
            crate::run_cfg(&built, &cfg)
        };
        let base1 = run(EngineId::IVY_BRIDGE, 1.0);
        let base2 = run(EngineId::IVY_BRIDGE, 2.0);
        let t = base1.compute_tally();
        [
            t.reduction_vs_ivb(EngineId::BCC),
            t.reduction_vs_ivb(EngineId::SCC),
            cycle_reduction(&base1, &run(EngineId::BCC, 1.0)),
            cycle_reduction(&base1, &run(EngineId::SCC, 1.0)),
            cycle_reduction(&base2, &run(EngineId::BCC, 2.0)),
            cycle_reduction(&base2, &run(EngineId::SCC, 2.0)),
        ]
    });

    let (mut sim_bcc, mut sim_scc) = (MaxAvg::default(), MaxAvg::default());
    let (mut tr_bcc, mut tr_scc) = (MaxAvg::default(), MaxAvg::default());
    let (mut dc1_bcc, mut dc1_scc) = (MaxAvg::default(), MaxAvg::default());
    let (mut dc2_bcc, mut dc2_scc) = (MaxAvg::default(), MaxAvg::default());
    for cell in &sim_cells {
        sim_bcc.add(cell[0]);
        sim_scc.add(cell[1]);
        dc1_bcc.add(cell[2]);
        dc1_scc.add(cell[3]);
        dc2_bcc.add(cell[4]);
        dc2_scc.add(cell[5]);
    }
    for report in analyze_corpus(&profiles, trace_len(), runner::threads()) {
        tr_bcc.add(report.reduction(EngineId::BCC));
        tr_scc.add(report.reduction(EngineId::SCC));
    }

    println!(
        "{:<38} {:>9} {:>9} {:>9} {:>9}",
        "divergent workloads", "BCC max", "BCC avg", "SCC max", "SCC avg"
    );
    let row = |label: &str, bcc: &MaxAvg, scc: &MaxAvg| {
        println!(
            "{label:<38} {:>9} {:>9} {:>9} {:>9}",
            pct(bcc.max),
            pct(bcc.avg()),
            pct(scc.max),
            pct(scc.avg())
        );
    };
    row("GPGenSim (EU cycles)", &sim_bcc, &sim_scc);
    row("Traces (EU cycles)", &tr_bcc, &tr_scc);
    row("GPGenSim execution time (DC1)", &dc1_bcc, &dc1_scc);
    row("GPGenSim execution time (DC2)", &dc2_bcc, &dc2_scc);

    println!("\npaper Table 4:");
    println!("  GPGenSim EU cycles          bcc 36%/18%  scc 38%/24%");
    println!("  Traces EU cycles            bcc 31%/12%  scc 42%/18%");
    println!("  Execution time (DC1)        bcc 21%/ 5%  scc 21%/ 7%");
    println!("  Execution time (DC2)        bcc 28%/12%  scc 36%/18%");
    Outcome::cells(cells)
}
