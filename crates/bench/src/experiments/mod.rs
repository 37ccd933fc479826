//! Declarative experiment registry: every figure, table, ablation, and
//! tool of the evaluation as one [`Experiment`] descriptor, dispatched by
//! the unified `iwc` driver binary (`iwc fig10`, `iwc table4`, …).
//!
//! `iwc` is the only binary; every experiment's stdout is pinned against
//! its checked-in `results/<name>.txt` by
//! `crates/bench/tests/determinism.rs`. Adding a design point is adding
//! one module with a `run` function and one row in [`EXPERIMENTS`] —
//! no new binary, no new scaffolding.

mod ablation_dtype;
mod ablation_energy;
mod ablation_frontend;
mod ablation_interwarp;
mod ablation_swizzle;
mod ablation_width;
mod corpusbench;
mod fig10;
mod fig11;
mod fig12;
mod fig3;
mod fig8;
mod fig9;
mod memprobe;
mod pack_tool;
mod perfgate;
mod profile;
mod rf_area;
mod run_kernel;
mod serve_daemon;
mod servebench;
mod simbench;
mod stall_profile;
mod table2;
mod table4;
mod trace_export;
mod trace_tool;

use crate::runner::Harness;
use std::process::ExitCode;

/// Result of one experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Evaluation cells the sweep ran — recorded in the perf report when
    /// the experiment is harnessed.
    pub cells: usize,
    /// Process exit code (0 = success).
    pub code: u8,
}

impl Outcome {
    /// Successful run of `cells` evaluation cells.
    pub fn cells(cells: usize) -> Self {
        Outcome { cells, code: 0 }
    }

    /// Successful run without cell accounting.
    pub fn done() -> Self {
        Self::cells(0)
    }

    /// Failed run (exit code 1).
    pub fn fail() -> Self {
        Outcome { cells: 0, code: 1 }
    }
}

/// Presentation group of an experiment — `iwc list` prints the registry
/// grouped by category now that it has grown past a dozen entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Paper artifacts: figures and tables of the evaluation.
    Figures,
    /// Diagnostics: profilers and probes beyond the paper's plots.
    Diagnostics,
    /// Design-space ablations.
    Ablations,
    /// Performance benchmarks writing `BENCH_*.json` reports.
    Benches,
    /// Tools and services: trace/pack utilities, kernel runner, daemon.
    Tools,
}

impl Category {
    /// Every category, in `iwc list` presentation order.
    pub const ALL: [Category; 5] = [
        Category::Figures,
        Category::Diagnostics,
        Category::Ablations,
        Category::Benches,
        Category::Tools,
    ];

    /// Group heading shown by `iwc list`.
    pub fn heading(self) -> &'static str {
        match self {
            Category::Figures => "figures & tables",
            Category::Diagnostics => "diagnostics",
            Category::Ablations => "ablations",
            Category::Benches => "benches",
            Category::Tools => "tools & services",
        }
    }
}

/// One experiment in the registry: a named, self-describing entry point.
///
/// The descriptor carries everything the driver needs; the body keeps full
/// ownership of its stdout so report text stays byte-identical to the
/// pre-registry binaries.
pub struct Experiment {
    /// Subcommand name (`iwc <name>`).
    pub name: &'static str,
    /// One-line description shown by `iwc list`.
    pub about: &'static str,
    /// Group `iwc list` files the experiment under.
    pub category: Category,
    /// When set, the driver wraps the run in a [`Harness`] perf record
    /// with this stem (`results/bench_<stem>.json`). Bookkeeping goes to
    /// stderr and the results file only — never stdout.
    pub harness: Option<&'static str>,
    /// The experiment body; receives the arguments after the subcommand.
    pub run: fn(&[String]) -> Outcome,
}

/// Every experiment, in DESIGN.md §4 presentation order: paper artifacts
/// first (figures, then tables), then diagnostics, ablations, and tools.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3",
        category: Category::Figures,
        about: "SIMD efficiency of the workload suite, coherent/divergent split",
        harness: Some("fig3"),
        run: fig3::run,
    },
    Experiment {
        name: "fig8",
        category: Category::Figures,
        about: "Ivy Bridge divergence micro-benchmark, relative times",
        harness: None,
        run: fig8::run,
    },
    Experiment {
        name: "fig9",
        category: Category::Figures,
        about: "SIMD utilization breakdown of divergent workloads",
        harness: Some("fig9"),
        run: fig9::run,
    },
    Experiment {
        name: "fig10",
        category: Category::Figures,
        about: "EU execution-cycle reduction from BCC and SCC",
        harness: Some("fig10"),
        run: fig10::run,
    },
    Experiment {
        name: "fig11",
        category: Category::Figures,
        about: "Ray tracing: total vs EU cycle reduction, DC1/DC2, throughput",
        harness: Some("fig11"),
        run: fig11::run,
    },
    Experiment {
        name: "fig12",
        category: Category::Figures,
        about: "Rodinia: total vs EU cycle reduction, 128KB vs perfect L3",
        harness: Some("fig12"),
        run: fig12::run,
    },
    Experiment {
        name: "table2",
        category: Category::Figures,
        about: "Nested-branch benefit of IVB/BCC/SCC",
        harness: Some("table2"),
        run: table2::run,
    },
    Experiment {
        name: "table4",
        category: Category::Figures,
        about: "Summary of max/average BCC and SCC benefits",
        harness: Some("table4"),
        run: table4::run,
    },
    Experiment {
        name: "rf_area",
        category: Category::Diagnostics,
        about: "Register-file organization study (Fig. 5 / §4.3)",
        harness: None,
        run: rf_area::run,
    },
    Experiment {
        name: "stall_profile",
        category: Category::Diagnostics,
        about: "Stall attribution of divergent workloads (§5.4)",
        harness: None,
        run: stall_profile::run,
    },
    Experiment {
        name: "profile",
        category: Category::Diagnostics,
        about: "Per-instruction divergence hotspots of one workload",
        harness: Some("profile"),
        run: profile::run,
    },
    Experiment {
        name: "memprobe",
        category: Category::Diagnostics,
        about: "Memory-divergence probe of the ray-tracing workloads",
        harness: None,
        run: memprobe::run,
    },
    Experiment {
        name: "ablation_dtype",
        category: Category::Ablations,
        about: "Element width vs compaction benefit (§4.1)",
        harness: None,
        run: ablation_dtype::run,
    },
    Experiment {
        name: "ablation_energy",
        category: Category::Ablations,
        about: "Dynamic-energy estimate of BCC and SCC (§4.3)",
        harness: None,
        run: ablation_energy::run,
    },
    Experiment {
        name: "ablation_frontend",
        category: Category::Ablations,
        about: "Front-end issue bandwidth vs realized gain (§4.3)",
        harness: None,
        run: ablation_frontend::run,
    },
    Experiment {
        name: "ablation_interwarp",
        category: Category::Ablations,
        about: "Intra-warp vs inter-warp compaction (§3.2, §6)",
        harness: None,
        run: ablation_interwarp::run,
    },
    Experiment {
        name: "ablation_width",
        category: Category::Ablations,
        about: "SIMD width vs compaction opportunity (§7)",
        harness: None,
        run: ablation_width::run,
    },
    Experiment {
        name: "ablation_swizzle",
        category: Category::Ablations,
        about: "Swizzle-network reach: distance-limited SCC crossbars (§4.3)",
        harness: Some("ablation_swizzle"),
        run: ablation_swizzle::run,
    },
    Experiment {
        name: "simbench",
        category: Category::Benches,
        about: "Decoded vs reference interpreter throughput (BENCH_sim.json)",
        harness: None,
        run: simbench::run,
    },
    Experiment {
        name: "serve",
        category: Category::Tools,
        about: "Simulation-as-a-service daemon (HTTP + WebSocket, DESIGN.md \u{a7}10)",
        harness: None,
        run: serve_daemon::run,
    },
    Experiment {
        name: "servebench",
        category: Category::Benches,
        about: "Closed-loop serve-path load generator (BENCH_serve.json)",
        harness: None,
        run: servebench::run,
    },
    Experiment {
        name: "corpusbench",
        category: Category::Benches,
        about: "Streaming corpus-pack analysis throughput (BENCH_corpus.json)",
        harness: None,
        run: corpusbench::run,
    },
    Experiment {
        name: "perfgate",
        category: Category::Benches,
        about: "Regression gate over the BENCH_*.json run trajectories",
        harness: None,
        run: perfgate::run,
    },
    Experiment {
        name: "run_kernel",
        category: Category::Tools,
        about: "Assemble and run an .iwcasm kernel under any engine",
        harness: None,
        run: run_kernel::run,
    },
    Experiment {
        name: "trace_tool",
        category: Category::Tools,
        about: "Generate / capture / analyze execution-mask trace files",
        harness: None,
        run: trace_tool::run,
    },
    Experiment {
        name: "pack",
        category: Category::Tools,
        about: "Write the expanded corpus (or .iwct files) into an .iwcc pack",
        harness: None,
        run: pack_tool::run_pack,
    },
    Experiment {
        name: "unpack",
        category: Category::Tools,
        about: "Extract traces from an .iwcc pack back into .iwct files",
        harness: None,
        run: pack_tool::run_unpack,
    },
    Experiment {
        name: "trace-export",
        category: Category::Tools,
        about: "Export one run as Chrome trace-event JSON (Perfetto)",
        harness: Some("trace_export"),
        run: trace_export::run,
    },
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs experiment `name` with `args`, handling the perf-harness
/// bookkeeping — the single code path behind the `iwc` driver.
pub fn dispatch(name: &str, args: &[String]) -> ExitCode {
    let Some(exp) = find(name) else {
        match suggest(name) {
            Some(s) => {
                eprintln!("unknown experiment {name:?} (did you mean {s:?}?); see `iwc list`");
            }
            None => eprintln!("unknown experiment {name:?}; see `iwc list`"),
        }
        return ExitCode::FAILURE;
    };
    let harness = exp.harness.map(Harness::begin);
    let outcome = (exp.run)(args);
    if outcome.code == 0 {
        if let Some(h) = harness {
            h.finish(outcome.cells);
        }
    }
    ExitCode::from(outcome.code)
}

/// Prints the registry (the `iwc list` subcommand), grouped by category
/// with descriptions aligned to the longest experiment name.
pub fn list() {
    println!("experiments:");
    let width = EXPERIMENTS.iter().map(|e| e.name.len()).max().unwrap_or(0);
    for cat in Category::ALL {
        let group: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| e.category == cat).collect();
        if group.is_empty() {
            continue;
        }
        println!("\n{}:", cat.heading());
        for e in group {
            println!("  {:<width$}  {}", e.name, e.about);
        }
    }
}

/// Closest registered experiment name to a mistyped one: a prefix match in
/// either direction counts as distance 1, otherwise Levenshtein distance;
/// suggestions further than 3 edits away are suppressed (ties break
/// alphabetically).
fn suggest(name: &str) -> Option<&'static str> {
    EXPERIMENTS
        .iter()
        .map(|e| {
            let d = if !name.is_empty() && (e.name.starts_with(name) || name.starts_with(e.name)) {
                1
            } else {
                edit_distance(name, e.name)
            };
            (d, e.name)
        })
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, n)| n)
}

/// Levenshtein distance over bytes (experiment names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_findable() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate experiment names");
        assert!(find("fig10").is_some());
        assert!(find("ablation_swizzle").is_some());
        assert!(find("profile").is_some());
        assert!(find("trace-export").is_some());
        assert!(find("pack").is_some());
        assert!(find("unpack").is_some());
        assert!(find("corpusbench").is_some());
        assert!(find("perfgate").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn suggestions_for_near_misses() {
        assert_eq!(suggest("fig99"), Some("fig9"));
        assert_eq!(suggest("fig"), Some("fig10"), "prefix tie breaks by name");
        assert_eq!(suggest("trace_export"), Some("trace-export"));
        assert_eq!(suggest("profil"), Some("profile"));
        assert_eq!(suggest("zzzzzzzzzzz"), None, "far names stay unsuggested");
        assert_eq!(suggest(""), None, "empty input matches nothing usefully");
        // The corpus-store additions stay reachable through typos too.
        assert_eq!(suggest("pck"), Some("pack"));
        assert_eq!(suggest("unpck"), Some("unpack"));
        assert_eq!(suggest("corpsbench"), Some("corpusbench"));
        assert_eq!(suggest("corpusbenc"), Some("corpusbench"));
        assert_eq!(suggest("prefgate"), Some("perfgate"));
    }

    #[test]
    fn categories_cover_the_registry_and_group_sanely() {
        for e in EXPERIMENTS {
            assert!(
                Category::ALL.contains(&e.category),
                "{} has an unlisted category",
                e.name
            );
        }
        let of = |name: &str| find(name).expect(name).category;
        assert_eq!(of("fig10"), Category::Figures);
        assert_eq!(of("table4"), Category::Figures);
        assert_eq!(of("profile"), Category::Diagnostics);
        assert_eq!(of("ablation_swizzle"), Category::Ablations);
        assert_eq!(of("simbench"), Category::Benches);
        assert_eq!(of("corpusbench"), Category::Benches);
        assert_eq!(of("perfgate"), Category::Benches);
        assert_eq!(of("pack"), Category::Tools);
        assert_eq!(of("unpack"), Category::Tools);
        // Every category is populated, so `iwc list` prints all headings.
        for cat in Category::ALL {
            assert!(
                EXPERIMENTS.iter().any(|e| e.category == cat),
                "category {:?} is empty",
                cat
            );
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("fig99", "fig9"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn every_experiment_name_resolves() {
        for name in [
            "fig3",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "table2",
            "table4",
            "rf_area",
            "stall_profile",
            "memprobe",
            "ablation_dtype",
            "ablation_energy",
            "ablation_frontend",
            "ablation_interwarp",
            "ablation_width",
            "run_kernel",
            "trace_tool",
        ] {
            assert!(find(name).is_some(), "missing experiment {name}");
        }
    }
}
