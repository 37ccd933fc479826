//! Simulator-throughput baseline: replays the workload corpus under two
//! backends — decoded micro-op plans (the production configuration) and
//! the reference interpreter — checks both retire identical cycle counts,
//! and records the throughputs plus the speedup ratio in
//! `results/BENCH_sim.json`.
//!
//! The report also keeps a `"runs"` trajectory of schema-compatible run
//! lines (`{ threads, wall_ms, cells }`, the same line format as the
//! `bench_<name>.json` harness reports), carried forward across
//! regenerations so the file tracks throughput across PRs. Each line's
//! `cells` are the cells its `wall_ms` timed: every workload × engine on
//! the production backend. The run just measured is appended last, which
//! is the line `iwc perfgate` judges. A legacy schema-1 report contributes
//! its decoded sweep as a synthesized baseline line.
//!
//! Stdout carries only the deterministic part — per-workload simulated
//! cycles and the agreement verdict — so the output stays byte-identical
//! across machines and thread counts. Wall-clock numbers go to stderr and
//! the JSON report, like every other harness bookkeeping channel.
//!
//! When `IWC_PERF_FLOOR` is set (cycles per second, e.g. `5000000`), the
//! run fails unless the production backend's throughput clears it — the
//! CI perf-smoke gate against silent simulator regressions.

use super::Outcome;
use crate::runner::{parallel_map, parse_run_line, results_dir, threads, RunRecord};
use crate::scale;
use iwc_compaction::EngineId;
use iwc_sim::{ExecBackend, GpuConfig, SimResult};
use iwc_workloads::{catalog, Built};
use std::time::Instant;

/// One backend of the sweep; the first is the production backend, the
/// one the run trajectory and `IWC_PERF_FLOOR` time.
struct Backend {
    /// Name used in the JSON report and stderr summary.
    name: &'static str,
    exec: ExecBackend,
}

const BACKENDS: [Backend; 2] = [
    Backend {
        name: "decoded",
        exec: ExecBackend::Decoded,
    },
    Backend {
        name: "reference",
        exec: ExecBackend::Reference,
    },
];

/// Run lines kept in the trajectory: the baseline pool `iwc perfgate`
/// takes its median over, plus the run being judged.
const KEPT_RUNS: usize = 9;

/// One backend's corpus replay: total simulated cycles (summed over every
/// workload × engine cell) and the wall time the sweep took.
struct Replay {
    /// Per-workload simulated cycles, summed over the canonical engines.
    cycles_by_workload: Vec<u64>,
    total_cycles: u64,
    wall_ms: f64,
}

fn replay(built: &[Built], backend: &Backend) -> Replay {
    let start = Instant::now();
    let cycles_by_workload = parallel_map(built, |b| {
        EngineId::CANONICAL
            .iter()
            .map(|&engine| {
                let cfg = GpuConfig::paper_default()
                    .with_compaction(engine)
                    .with_exec(backend.exec);
                let (r, _img): (SimResult, _) = b
                    .run(&cfg)
                    .unwrap_or_else(|e| panic!("{} under {engine}: {e}", b.name));
                r.cycles
            })
            .sum::<u64>()
    });
    let total_cycles = cycles_by_workload.iter().sum();
    Replay {
        cycles_by_workload,
        total_cycles,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn throughput(r: &Replay) -> f64 {
    if r.wall_ms > 0.0 {
        #[allow(clippy::cast_precision_loss)]
        let t = r.total_cycles as f64 / (r.wall_ms / 1e3);
        t
    } else {
        0.0
    }
}

fn speedup(fast: &Replay, slow: &Replay) -> f64 {
    if fast.wall_ms > 0.0 {
        slow.wall_ms / fast.wall_ms
    } else {
        0.0
    }
}

/// Run lines carried over from the previous report, oldest first, plus a
/// baseline synthesized from a legacy schema-1 report's decoded sweep
/// (whose line format predates the trajectory). `timed` is the cell count
/// one run times. Earlier reports multiplied it by the number of backends
/// swept although only one backend was ever timed, so their lines are
/// rescaled to `timed`. At most `KEPT_RUNS - 1` lines are kept, leaving
/// room for the run about to be appended.
fn prior_runs(text: &str, timed: usize) -> Vec<RunRecord> {
    let mut runs: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
    if runs.is_empty() {
        if let Some(r) = legacy_schema1_run(text) {
            runs.push(r);
        }
    }
    for r in &mut runs {
        if r.cells > timed && r.cells % timed == 0 {
            r.cells = timed;
        }
    }
    runs.split_off(runs.len().saturating_sub(KEPT_RUNS - 1))
}

/// Extracts `{ threads, wall_ms, cells }` from a schema-1 `BENCH_sim.json`
/// (two backends, no run lines): the decoded backend's wall time over
/// `workloads × engines` cells.
fn legacy_schema1_run(text: &str) -> Option<RunRecord> {
    let number_after = |hay: &str, key: &str| -> Option<f64> {
        let tail = &hay[hay.find(&format!("\"{key}\""))?..];
        let tail = &tail[tail.find(':')? + 1..];
        let end = tail.find([',', '\n', '}'])?;
        tail[..end].trim().parse().ok()
    };
    let decoded = &text[text.find("\"exec\": \"decoded\"")?..];
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Some(RunRecord {
        threads: number_after(text, "threads")? as usize,
        wall_ms: number_after(decoded, "wall_ms")?,
        cells: (number_after(text, "workloads")? * number_after(text, "engines")?) as usize,
    })
}

fn render_json(replays: &[Replay], workloads: usize, runs: &[RunRecord]) -> String {
    let (decoded, reference) = (&replays[0], &replays[1]);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"name\": \"sim\",\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"threads\": {},\n", threads()));
    out.push_str(&format!(
        "  \"corpus\": {{ \"workloads\": {workloads}, \"engines\": {}, \
         \"simulated_cycles\": {} }},\n",
        EngineId::CANONICAL.len(),
        decoded.total_cycles
    ));
    out.push_str("  \"backends\": [\n");
    for (i, (b, r)) in BACKENDS.iter().zip(replays).enumerate() {
        let comma = if i + 1 < replays.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"exec\": \"{}\", \"wall_ms\": {:.2}, \
             \"throughput_cycles_per_s\": {:.0} }}{comma}\n",
            b.name,
            r.wall_ms,
            throughput(r)
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"speedup_decoded_vs_reference\": {:.2},\n",
        speedup(decoded, reference)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"threads\": {}, \"wall_ms\": {:.2}, \"cells\": {} }}{comma}\n",
            r.threads, r.wall_ms, r.cells
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Pure parse of an `IWC_PERF_FLOOR` value: a positive throughput number
/// (`5000000`, `1e6`, …) in the gated benchmark's own unit — simulated
/// cycles/s for `simbench`, traces/s for `corpusbench`.
pub(crate) fn parse_floor(raw: &str) -> Option<f64> {
    raw.trim().parse::<f64>().ok().filter(|f| *f > 0.0)
}

/// The `IWC_PERF_FLOOR` gate: `Some(floor)` when the variable is set to a
/// valid value; malformed values warn once and disable the floor — the
/// same convention as every other `IWC_*` knob.
pub(crate) fn perf_floor() -> Option<f64> {
    let v = std::env::var("IWC_PERF_FLOOR").ok()?;
    let floor = parse_floor(&v);
    if floor.is_none() {
        crate::warn_once(
            "IWC_PERF_FLOOR",
            &format!(
                "warning: ignoring malformed IWC_PERF_FLOOR={v:?} (want throughput > 0); \
                 not enforcing a floor"
            ),
        );
    }
    floor
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Simulator throughput: decoded plans vs reference interpreter ==\n");
    let entries = catalog();
    let built: Vec<Built> = entries.iter().map(|e| (e.build)(scale())).collect();

    let replays: Vec<Replay> = BACKENDS.iter().map(|b| replay(&built, b)).collect();

    let mut agree = true;
    for (i, e) in entries.iter().enumerate() {
        let cycles = replays[0].cycles_by_workload[i];
        let ok = replays.iter().all(|r| r.cycles_by_workload[i] == cycles);
        let mark = if ok { "ok" } else { "MISMATCH" };
        agree &= ok;
        println!("{:<22} {cycles:>12} cycles  [{mark}]", e.name);
    }
    println!(
        "\n{} workloads x {} engines: backends {}",
        entries.len(),
        EngineId::CANONICAL.len(),
        if agree { "agree" } else { "DISAGREE" }
    );

    // The trajectory times the production backend's sweep only.
    let cells = entries.len() * EngineId::CANONICAL.len();
    let path = results_dir().join("BENCH_sim.json");
    let mut runs = prior_runs(&std::fs::read_to_string(&path).unwrap_or_default(), cells);
    runs.push(RunRecord {
        threads: threads(),
        wall_ms: replays[0].wall_ms,
        cells,
    });

    let json = render_json(&replays, entries.len(), &runs);
    if let Err(e) =
        std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, &json))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    for (b, r) in BACKENDS.iter().zip(&replays) {
        eprintln!(
            "[simbench] {:<14} {:>9.1} ms  ({:.2e} cyc/s)",
            b.name,
            r.wall_ms,
            throughput(r)
        );
    }
    eprintln!(
        "[simbench] decoded vs reference {:.2}x -> {}",
        speedup(&replays[0], &replays[1]),
        path.display()
    );

    if let Some(floor) = perf_floor() {
        let got = throughput(&replays[0]);
        if got < floor {
            eprintln!(
                "[simbench] FAIL: decoded throughput {got:.0} cyc/s is below \
                 IWC_PERF_FLOOR={floor:.0}"
            );
            return Outcome::fail();
        }
        eprintln!("[simbench] perf floor {floor:.0} cyc/s cleared ({got:.0} cyc/s)");
    }

    if agree {
        Outcome::cells(cells)
    } else {
        Outcome::fail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA1: &str = r#"{
  "name": "sim",
  "schema": 1,
  "threads": 1,
  "corpus": { "workloads": 50, "engines": 4, "simulated_cycles": 8942623 },
  "backends": [
    { "exec": "decoded", "wall_ms": 10414.46, "throughput_cycles_per_s": 858674 },
    { "exec": "reference", "wall_ms": 19065.81, "throughput_cycles_per_s": 469040 }
  ],
  "speedup_decoded_vs_reference": 1.83
}"#;

    #[test]
    fn floor_parses_positive_rates_only() {
        assert_eq!(parse_floor("5000000"), Some(5_000_000.0));
        assert_eq!(parse_floor(" 1e6 "), Some(1_000_000.0));
        assert_eq!(parse_floor("0"), None, "zero floor gates nothing");
        assert_eq!(parse_floor("-3"), None);
        assert_eq!(parse_floor("fast"), None);
        assert_eq!(parse_floor("NaN"), None);
    }

    #[test]
    fn legacy_report_synthesizes_a_baseline_run() {
        let r = legacy_schema1_run(SCHEMA1).expect("legacy report parses");
        assert_eq!(
            r,
            RunRecord {
                threads: 1,
                wall_ms: 10414.46,
                cells: 200,
            }
        );
        assert_eq!(legacy_schema1_run("{}"), None);
        assert_eq!(prior_runs(SCHEMA1, 200), vec![r]);
    }

    #[test]
    fn prior_runs_rescale_backend_multiplied_cells_and_keep_order() {
        // Lines written when `cells` counted every backend swept (400 for
        // two, 600 for three) although `wall_ms` timed one backend's 200.
        let text = "  \"runs\": [\n\
             { \"threads\": 1, \"wall_ms\": 10414.46, \"cells\": 400 },\n\
             { \"threads\": 1, \"wall_ms\": 6658.21, \"cells\": 600 },\n\
             { \"threads\": 1, \"wall_ms\": 5000.0, \"cells\": 200 }\n  ]";
        let runs = prior_runs(text, 200);
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
        assert_eq!(walls, [10414.46, 6658.21, 5000.0], "history order kept");
        assert!(runs.iter().all(|r| r.cells == 200), "{runs:?}");
    }

    #[test]
    fn prior_runs_keep_a_bounded_history() {
        let text: String = (0..20)
            .map(|i| format!("{{ \"threads\": 1, \"wall_ms\": {i}.0, \"cells\": 200 }}\n"))
            .collect();
        let runs = prior_runs(&text, 200);
        assert_eq!(runs.len(), KEPT_RUNS - 1);
        assert_eq!(runs.last().map(|r| r.wall_ms), Some(19.0), "newest kept");
    }

    #[test]
    fn report_runs_stay_line_parseable() {
        let replays: Vec<Replay> = (0..2)
            .map(|i| Replay {
                cycles_by_workload: vec![500, 500],
                total_cycles: 1000,
                wall_ms: f64::from(i + 1) * 10.0,
            })
            .collect();
        let runs = vec![RunRecord {
            threads: 2,
            wall_ms: 10.0,
            cells: 8,
        }];
        let text = render_json(&replays, 2, &runs);
        let parsed: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
        assert_eq!(parsed, runs);
        assert!(
            text.contains("\"speedup_decoded_vs_reference\": 2.00"),
            "{text}"
        );
        assert!(text.contains("\"exec\": \"decoded\""));
        assert!(!text.contains("wheel"), "{text}");
    }
}
