//! Fig. 10: EU execution-cycle reduction of kernels from BCC and SCC, over
//! and above the existing Ivy Bridge optimization, for divergent workloads.
//!
//! Bars stack the BCC reduction and the additional SCC reduction, exactly
//! like the paper's figure.

use super::Outcome;
use crate::runner::{self, parallel_map};
use crate::{bar, pct, run_mode, scale, trace_len};
use iwc_compaction::{CompactionTally, EngineId};
use iwc_trace::{analyze_corpus, corpus};
use iwc_workloads::{catalog, Category};

fn print_row(name: &str, tally: &CompactionTally, src: &str) {
    let bcc = tally.reduction_vs_ivb(EngineId::BCC);
    let scc = tally.reduction_vs_ivb(EngineId::SCC);
    println!(
        "{name:<22} bcc {} + scc {} = {}  |{}| [{src}]",
        pct(bcc),
        pct(scc - bcc),
        pct(scc),
        bar(scc / 0.5, 30)
    );
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Fig. 10: EU execution-cycle reduction with BCC & SCC (above IVB opt) ==\n");
    let entries: Vec<_> = catalog()
        .into_iter()
        .filter(|e| e.category == Category::Divergent)
        .collect();
    let profiles = corpus();
    let cells = entries.len() + profiles.len();

    let sim_rows = parallel_map(&entries, |entry| {
        let built = (entry.build)(scale());
        let r = run_mode(&built, EngineId::IVY_BRIDGE);
        (entry.name, r.compute_tally().clone())
    });

    let mut all_bcc = Vec::new();
    let mut all_scc = Vec::new();
    for (name, t) in &sim_rows {
        print_row(name, t, "sim");
        all_bcc.push(t.reduction_vs_ivb(EngineId::BCC));
        all_scc.push(t.reduction_vs_ivb(EngineId::SCC));
    }
    let reports = analyze_corpus(&profiles, trace_len(), runner::threads());
    crate::telemetry().absorb(&iwc_trace::corpus_snapshot(&reports));
    for report in reports {
        print_row(&report.name, &report.tally, "trace");
        all_bcc.push(report.reduction(EngineId::BCC));
        all_scc.push(report.reduction(EngineId::SCC));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\naverage: bcc {} scc {}   max: bcc {} scc {}",
        pct(avg(&all_bcc)),
        pct(avg(&all_scc)),
        pct(max(&all_bcc)),
        pct(max(&all_scc))
    );
    println!("paper: up to 42% reduction, ~20% average for divergent applications");
    Outcome::cells(cells)
}
