//! Fig. 9: SIMD utilization breakdown in SIMD8 and SIMD16 instructions for
//! divergent workloads — the fraction of instructions in each active-lane
//! bucket (1-4/16, 5-8/16, 9-12/16, 13-16/16, 1-4/8, 5-8/8).

use super::Outcome;
use crate::runner::{self, parallel_map};
use crate::{run_mode, scale, trace_len};
use iwc_compaction::{EngineId, UtilBucket};
use iwc_trace::{analyze_corpus, corpus};
use iwc_workloads::{catalog, Category};

fn print_row(name: &str, buckets: &[(UtilBucket, f64); 7], src: &str) {
    print!("{name:<22}");
    for (_, frac) in buckets.iter().take(6) {
        print!(" {:>8.1}%", 100.0 * frac);
    }
    println!("  [{src}]");
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Fig. 9: SIMD utilization breakdown (divergent workloads) ==\n");
    print!("{:<22}", "workload");
    for b in UtilBucket::ALL.iter().take(6) {
        print!(" {:>9}", b.label());
    }
    println!();

    let entries: Vec<_> = catalog()
        .into_iter()
        .filter(|e| e.category == Category::Divergent)
        .collect();
    let profiles = corpus();
    let cells = entries.len() + profiles.len();

    let sim_rows = parallel_map(&entries, |entry| {
        let built = (entry.build)(scale());
        let r = run_mode(&built, EngineId::IVY_BRIDGE);
        (entry.name, r.eu.simd_tally.bucket_fractions())
    });
    for (name, buckets) in &sim_rows {
        print_row(name, buckets, "sim");
    }
    let reports = analyze_corpus(&profiles, trace_len(), runner::threads());
    crate::telemetry().absorb(&iwc_trace::corpus_snapshot(&reports));
    for report in reports {
        print_row(&report.name, &report.buckets(), "trace");
    }
    println!(
        "\ncompaction potential: 1-4/16 saves 3 cycles, 5-8/16 saves 2, 9-12/16 saves 1, \
         1-4/8 saves 1; 13-16/16 and 5-8/8 save none (paper §5.3)"
    );
    Outcome::cells(cells)
}
