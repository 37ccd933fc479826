//! Stall-attribution profile: where divergent workloads lose their cycles
//! (the analysis behind §5.4 — "some of these benchmarks suffer from the
//! long latency memory access times that cannot be hidden"; "if memory
//! stalls dominate the execution time as is the case for BFS, any
//! optimization in EU cycles will not make a noticeable impact").
//!
//! Each row attributes thread issue-attempt failures to: scoreboard
//! dependences (dominated by in-flight memory loads), pipe occupancy (the
//! cycles compaction removes), fences, instruction fetch, and end-of-thread
//! memory drains.

use super::Outcome;
use crate::{run_mode, scale};
use iwc_compaction::EngineId;
use iwc_workloads::{catalog, Category};

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== stall attribution (divergent workloads, IVB baseline) ==\n");
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>9} {:>9} {:>10}",
        "workload", "cycles", "scoreboard", "pipeBusy", "fence", "ifetch", "memDrain"
    );
    for entry in catalog() {
        if entry.category != Category::Divergent {
            continue;
        }
        let built = (entry.build)(scale());
        let r = run_mode(&built, EngineId::IVY_BRIDGE);
        let s = &r.eu.stalls;
        let tot = s.total().max(1) as f64;
        println!(
            "{:<14} {:>10} {:>11.1}% {:>9.1}% {:>8.1}% {:>8.1}% {:>9.1}%",
            entry.name,
            r.cycles,
            100.0 * s.scoreboard as f64 / tot,
            100.0 * s.pipe_busy as f64 / tot,
            100.0 * s.stalled as f64 / tot,
            100.0 * s.ifetch as f64 / tot,
            100.0 * s.mem_drain as f64 / tot,
        );
    }
    println!(
        "\nreading: pipe-busy stalls are the compressible component; workloads dominated \
         by scoreboard stalls (memory latency) realize little of their EU-cycle gain — \
         the Fig. 12 story."
    );
    Outcome::done()
}
