//! Fig. 3: SIMD efficiency of the workload suite on the Ivy Bridge-style
//! architecture, split into coherent (≥ 95 %) and divergent applications.
//!
//! Simulated workloads (Table 1 subset) run on the cycle-level simulator;
//! the trace-only corpus (LuxMark, GLBench, Face-Detection, …) is analyzed
//! from synthetic mask traces (see DESIGN.md substitutions).

use super::Outcome;
use crate::runner::{self, parallel_map};
use crate::{bar, run_mode, scale, trace_len};
use iwc_compaction::EngineId;
use iwc_trace::{analyze_corpus, corpus};
use iwc_workloads::catalog;

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Fig. 3: SIMD efficiency, coherent/divergent split ==\n");
    let entries = catalog();
    let profiles = corpus();
    let cells = entries.len() + profiles.len();

    let mut rows: Vec<(String, f64, &'static str)> = parallel_map(&entries, |entry| {
        let built = (entry.build)(scale());
        let r = run_mode(&built, EngineId::IVY_BRIDGE);
        (entry.name.to_string(), r.simd_efficiency(), "sim")
    });
    let reports = analyze_corpus(&profiles, trace_len(), runner::threads());
    crate::telemetry().absorb(&iwc_trace::corpus_snapshot(&reports));
    rows.extend(
        reports
            .into_iter()
            .map(|report| (report.name.clone(), report.simd_efficiency(), "trace")),
    );

    // Present like the figure: divergent block first (ascending efficiency),
    // then the coherent block.
    let (mut divergent, mut coherent): (Vec<_>, Vec<_>) =
        rows.into_iter().partition(|(_, eff, _)| *eff < 0.95);
    divergent.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    coherent.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));

    println!("-- divergent benchmarks (SIMD efficiency < 95%) --");
    for (name, eff, src) in &divergent {
        println!(
            "{name:<22} {:>6.1}%  |{}| [{src}]",
            100.0 * eff,
            bar(*eff, 40)
        );
    }
    println!("\n-- coherent benchmarks (SIMD efficiency >= 95%) --");
    for (name, eff, src) in &coherent {
        println!(
            "{name:<22} {:>6.1}%  |{}| [{src}]",
            100.0 * eff,
            bar(*eff, 40)
        );
    }
    println!(
        "\n{} divergent, {} coherent (paper: divergent block on the right of Fig. 3)",
        divergent.len(),
        coherent.len()
    );
    Outcome::cells(cells)
}
