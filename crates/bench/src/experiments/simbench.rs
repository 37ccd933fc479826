//! Simulator-throughput baseline: replays the workload corpus (every
//! catalog workload under every canonical engine) on the simulator and
//! records the throughput in `results/BENCH_sim.json`.
//!
//! The report also keeps a `"runs"` trajectory of schema-compatible run
//! lines (`{ threads, wall_ms, cells }`, the same line format as the
//! `bench_<name>.json` harness reports), carried forward across
//! regenerations so the file tracks throughput across PRs. Each line's
//! `cells` are the workload × engine cells its `wall_ms` timed. The run
//! just measured is appended last, which is the line `iwc perfgate`
//! judges.
//!
//! Stdout carries only the deterministic part — per-workload simulated
//! cycles and their total — so the output stays byte-identical
//! across machines and thread counts. Wall-clock numbers go to stderr and
//! the JSON report, like every other harness bookkeeping channel.
//!
//! When `IWC_PERF_FLOOR` is set (cycles per second, e.g. `5000000`), the
//! run fails unless the sweep's throughput clears it — the
//! CI perf-smoke gate against silent simulator regressions.

use super::Outcome;
use crate::runner::{parallel_map, parse_run_line, results_dir, threads, RunRecord};
use crate::scale;
use iwc_compaction::EngineId;
use iwc_sim::{GpuConfig, SimResult};
use iwc_workloads::{catalog, Built};
use std::time::Instant;

/// Run lines kept in the trajectory: the baseline pool `iwc perfgate`
/// takes its median over, plus the run being judged.
const KEPT_RUNS: usize = 9;

/// The corpus replay: total simulated cycles (summed over every workload ×
/// engine cell) and the wall time the sweep took.
struct Replay {
    /// Per-workload simulated cycles, summed over the canonical engines.
    cycles_by_workload: Vec<u64>,
    total_cycles: u64,
    wall_ms: f64,
}

fn replay(built: &[Built]) -> Replay {
    let start = Instant::now();
    let cycles_by_workload = parallel_map(built, |b| {
        EngineId::CANONICAL
            .iter()
            .map(|&engine| {
                let cfg = GpuConfig::paper_default().with_compaction(engine);
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

/// Run lines carried over from the previous report, oldest first: at most
/// `KEPT_RUNS - 1`, leaving room for the run about to be appended.
fn prior_runs(text: &str) -> Vec<RunRecord> {
    let mut runs: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
    runs.split_off(runs.len().saturating_sub(KEPT_RUNS - 1))
}

fn render_json(replay: &Replay, workloads: usize, runs: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"name\": \"sim\",\n");
    out.push_str("  \"schema\": 3,\n");
    out.push_str(&format!("  \"threads\": {},\n", threads()));
    out.push_str(&format!(
        "  \"corpus\": {{ \"workloads\": {workloads}, \"engines\": {}, \
         \"simulated_cycles\": {} }},\n",
        EngineId::CANONICAL.len(),
        replay.total_cycles
    ));
    out.push_str(&format!("  \"wall_ms\": {:.2},\n", replay.wall_ms));
    out.push_str(&format!(
        "  \"throughput_cycles_per_s\": {:.0},\n",
        throughput(replay)
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
    println!("== Simulator throughput: the workload corpus under every engine ==\n");
    let entries = catalog();
    let built: Vec<Built> = entries.iter().map(|e| (e.build)(scale())).collect();

    let replay = replay(&built);
    for (e, cycles) in entries.iter().zip(&replay.cycles_by_workload) {
        println!("{:<22} {cycles:>12} cycles", e.name);
    }
    println!(
        "\n{} workloads x {} engines: {} simulated cycles",
        entries.len(),
        EngineId::CANONICAL.len(),
        replay.total_cycles
    );

    let cells = entries.len() * EngineId::CANONICAL.len();
    let path = results_dir().join("BENCH_sim.json");
    let mut runs = prior_runs(&std::fs::read_to_string(&path).unwrap_or_default());
    runs.push(RunRecord {
        threads: threads(),
        wall_ms: replay.wall_ms,
        cells,
    });

    let json = render_json(&replay, entries.len(), &runs);
    if let Err(e) =
        std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, &json))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    let got = throughput(&replay);
    eprintln!(
        "[simbench] {:.1} ms ({got:.2e} cyc/s) -> {}",
        replay.wall_ms,
        path.display()
    );

    if let Some(floor) = perf_floor() {
        if got < floor {
            eprintln!(
                "[simbench] FAIL: throughput {got:.0} cyc/s is below \
                 IWC_PERF_FLOOR={floor:.0}"
            );
            return Outcome::fail();
        }
        eprintln!("[simbench] perf floor {floor:.0} cyc/s cleared ({got:.0} cyc/s)");
    }
    Outcome::cells(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn prior_runs_keep_a_bounded_history() {
        let text: String = (0..20)
            .map(|i| format!("{{ \"threads\": 1, \"wall_ms\": {i}.0, \"cells\": 200 }}\n"))
            .collect();
        let runs = prior_runs(&text);
        assert_eq!(runs.len(), KEPT_RUNS - 1);
        assert_eq!(runs.last().map(|r| r.wall_ms), Some(19.0), "newest kept");
    }

    #[test]
    fn report_runs_stay_line_parseable() {
        let replay = Replay {
            cycles_by_workload: vec![500, 500],
            total_cycles: 1000,
            wall_ms: 10.0,
        };
        let runs = vec![RunRecord {
            threads: 2,
            wall_ms: 10.0,
            cells: 8,
        }];
        let text = render_json(&replay, 2, &runs);
        let parsed: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
        assert_eq!(parsed, runs);
        assert!(
            text.contains("\"throughput_cycles_per_s\": 100000,"),
            "{text}"
        );
        assert!(!text.contains("wheel"), "{text}");
        let doc = iwc_telemetry::json::parse(&text).expect("report parses");
        assert_eq!(
            doc.get("wall_ms")
                .and_then(iwc_telemetry::json::Json::as_num),
            Some(10.0)
        );
    }
}
