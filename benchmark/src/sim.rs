//! `sim_catalog`: the figure and table regeneration path. Every Table-1
//! catalog kernel at scale 1 under every canonical engine: decode, run on
//! a cold device with the paper's default configuration, check the
//! kernel's output and compare its cycles with the goldens.

use crate::metrics::{median, min, percentile};
use crate::span::{LayerTable, Recorder};
use crate::util::{ms_since, SplitMix64, Tally};
use crate::{Measured, Opts, Traced};
use iwc_compaction::EngineId;
use iwc_sim::{simulate_decoded, DecodedProgram, GpuConfig, SimResult};
use iwc_workloads::{catalog, Built};
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated cycles per (kernel, engine) cell, one `kernel engine cycles`
/// line each; regenerate with `--print-goldens`.
const GOLDENS: &str = include_str!("../goldens/sim_catalog.txt");

/// Kernel builds per run; `setup_s` is their median. Building the whole
/// catalog takes milliseconds, so many repetitions cost little.
const SETUP_REPS: usize = 21;

/// Passes per run, at least: each cell's time is its best over the
/// passes, so contention that slows some passes moves nothing.
const MIN_PASSES: u64 = 3;

const ENGINES: usize = EngineId::CANONICAL.len();

type Goldens = BTreeMap<(String, String), u64>;

fn goldens() -> Result<Goldens, String> {
    GOLDENS
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [kernel, engine, cycles] => cycles
                .parse()
                .map(|c| ((kernel.to_string(), engine.to_string()), c))
                .map_err(|e| format!("golden line {l:?}: {e}")),
            _ => Err(format!("golden line {l:?}: want `kernel engine cycles`")),
        })
        .collect()
}

/// Every catalog kernel at scale 1, with its Table-1 name.
fn build_all(rec: &mut Recorder) -> Vec<(&'static str, Built)> {
    catalog()
        .iter()
        .map(|e| (e.name, rec.time("workloads.build", |_| (e.build)(1))))
        .collect()
}

/// One cell, as the figure binaries run it: decode, simulate cold, check.
fn run_cell(
    name: &str,
    b: &Built,
    engine: EngineId,
    rec: &mut Recorder,
) -> Result<SimResult, String> {
    let decoded = rec.time("sim.decode", |_| DecodedProgram::decode(&b.launch.program));
    let mut img = rec.time("sim.image_clone", |_| b.img.clone());
    let cfg = GpuConfig::paper_default().with_compaction(engine);
    let r = rec
        .time("sim.run", |_| {
            simulate_decoded(&cfg, &b.launch, &mut img, &decoded)
        })
        .map_err(|e| format!("{name} under {engine}: {e}"))?;
    if let Some(check) = &b.check {
        rec.time("workloads.check", |_| check(&img))
            .map_err(|e| format!("{name} under {engine}: check failed: {e}"))?;
    }
    Ok(r)
}

/// Exact work counts summed from each cell's telemetry snapshot.
#[derive(Default)]
struct Counts {
    cells: u64,
    cycles: u64,
    issued: u64,
    lines: u64,
    l3_hits: u64,
    l3_misses: u64,
    stall_mem: u64,
    stall_all: u64,
    skipped: u64,
    burst_plans: u64,
    swizzles: u64,
}

impl Counts {
    fn add(&mut self, r: &SimResult) {
        let c = |name: &str| r.telemetry.counter(name).unwrap_or(0);
        self.cells += 1;
        self.cycles += r.cycles;
        self.issued += c("eu/issued");
        self.lines += c("mem/lines_requested");
        self.l3_hits += c("mem/l3/hits");
        self.l3_misses += c("mem/l3/misses");
        self.stall_mem += c("eu/stall/mem_latency");
        self.stall_all += r
            .telemetry
            .counters()
            .filter(|(n, _)| n.starts_with("eu/stall/"))
            .map(|(_, v)| v)
            .sum::<u64>();
        self.skipped += c("sim/wheel/cycles_skipped");
        self.burst_plans += c("sim/burst/plans");
        self.swizzles += c("eu/compute/scc_swizzles");
    }

    fn publish(&self, run_ms: f64, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert("sim.cells", self.cells as f64);
        out.insert("sim.cycles", self.cycles as f64);
        out.insert("sim.issued", self.issued as f64);
        out.insert(
            "sim.ns_per_cycle",
            if self.cycles == 0 {
                0.0
            } else {
                run_ms * 1e6 / self.cycles as f64
            },
        );
        out.insert("mem.lines_requested", self.lines as f64);
        out.insert(
            "mem.l3.hit_ratio",
            ratio(self.l3_hits, self.l3_hits + self.l3_misses),
        );
        out.insert(
            "eu.stall.mem_latency_share",
            ratio(self.stall_mem, self.stall_all),
        );
        out.insert("sim.wheel.skip_ratio", ratio(self.skipped, self.cycles));
        out.insert("sim.burst.plan_ratio", ratio(self.burst_plans, self.issued));
        out.insert("compaction.scc_swizzles", self.swizzles as f64);
    }
}

/// The seeded cell order of pass `pass`: every kernel under every engine,
/// as cell ids `kernel * ENGINES + engine`.
fn order(n_kernels: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut cells: Vec<usize> = (0..n_kernels * ENGINES).collect();
    SplitMix64::new(seed, pass).shuffle(&mut cells);
    cells
}

/// One full pass over the catalog in `cells` order, appending each cell's
/// time to `cell_ms[cell]`; returns the simulated cycles.
fn pass(
    built: &[(&'static str, Built)],
    goldens: &Goldens,
    cells: &[usize],
    rec: &mut Recorder,
    tally: &mut Tally,
    counts: &mut Counts,
    cell_ms: &mut [Vec<f64>],
) -> u64 {
    let mut cycles = 0;
    for &cell in cells {
        rec.set_op(cell as u64);
        let (name, b) = &built[cell / ENGINES];
        let engine = EngineId::CANONICAL[cell % ENGINES];
        let started = Instant::now();
        let result = run_cell(name, b, engine, rec);
        cell_ms[cell].push(ms_since(started));
        let outcome = rec.time("bench.verify", |_| {
            let r = result?;
            let key = (name.to_string(), engine.label());
            match goldens.get(&key) {
                Some(&want) if want == r.cycles => {
                    cycles += r.cycles;
                    counts.add(&r);
                    Ok(())
                }
                Some(&want) => Err(format!(
                    "{name} under {engine}: {} cycles, golden {want}",
                    r.cycles
                )),
                None => Err(format!("{name} under {engine}: no golden")),
            }
        });
        tally.record(outcome);
    }
    cycles
}

/// Untraced run: `SETUP_REPS` kernel builds, then whole passes until
/// `opts.seconds` have elapsed and `MIN_PASSES` are done. Throughput and
/// latencies use each cell's best time over the passes.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let goldens = goldens()?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        built = build_all(&mut Recorder::off());
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let mut cell_ms = vec![Vec::new(); built.len() * ENGINES];
    let mut cycles = 0;
    let started = Instant::now();
    let mut p = 0;
    while p < MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        let cells = order(built.len(), opts.seed, p);
        cycles = pass(
            &built,
            &goldens,
            &cells,
            &mut Recorder::off(),
            &mut tally,
            &mut Counts::default(),
            &mut cell_ms,
        );
        p += 1;
    }
    let latencies_ms: Vec<f64> = cell_ms.iter().map(|t| min(t)).collect();
    let pass_s = latencies_ms.iter().sum::<f64>() / 1e3;
    Ok(Measured {
        setup_s: median(&setups),
        work_per_s: cycles as f64 / pass_s,
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        latencies_ms,
        tally,
        notes: vec![format!(
            "{} kernels x {ENGINES} engines, {p} passes; each cell's time is its best pass",
            built.len()
        )],
    })
}

/// Traced run: one kernel build and one pass, untraced, traced, and
/// untraced again; the traced time against the mean of the untraced ones
/// is the tracing overhead.
pub fn traced(opts: &Opts) -> Result<Traced, String> {
    let goldens = goldens()?;
    let run = |rec: &mut Recorder, tally: &mut Tally, counts: &mut Counts| {
        rec.time("sim_catalog", |rec| {
            let built = build_all(rec);
            let cells = order(built.len(), opts.seed, 0);
            let mut cell_ms = vec![Vec::new(); cells.len()];
            pass(&built, &goldens, &cells, rec, tally, counts, &mut cell_ms);
        });
    };
    let untraced = |tally: &mut Tally| {
        let started = Instant::now();
        run(&mut Recorder::off(), tally, &mut Counts::default());
        ms_since(started)
    };

    let mut tally = Tally::default();
    let before_ms = untraced(&mut tally);
    let mut rec = Recorder::new(true, Instant::now());
    let mut counts = Counts::default();
    run(&mut rec, &mut tally, &mut counts);
    let untraced_ms = (before_ms + untraced(&mut tally)) / 2.0;
    let threads = vec![("main".to_string(), rec.into_spans())];
    let table = LayerTable::from_threads(threads.iter().map(|t| t.1.as_slice()));
    let mut values = BTreeMap::new();
    counts.publish(table.self_ms("sim.run"), &mut values);
    Ok(Traced {
        threads,
        table,
        untraced_ms,
        values,
        tally,
        notes: vec![
            "one kernel build plus one pass over every cell; untraced before and after".to_string(),
        ],
    })
}

/// Prints the golden file for the current simulator: one line per cell, in
/// catalog order.
pub fn print_goldens() -> Result<(), String> {
    for (name, b) in build_all(&mut Recorder::off()) {
        for engine in EngineId::CANONICAL {
            let r = run_cell(name, &b, engine, &mut Recorder::off())?;
            println!("{name} {} {}", engine.label(), r.cycles);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_cover_every_cell() {
        let g = goldens().expect("goldens parse");
        let names: Vec<&str> = catalog().iter().map(|e| e.name).collect();
        assert_eq!(g.len(), names.len() * EngineId::CANONICAL.len());
        for name in names {
            for engine in EngineId::CANONICAL {
                assert!(
                    g.contains_key(&(name.to_string(), engine.label())),
                    "{name}/{engine}"
                );
            }
        }
    }

    #[test]
    fn cell_order_is_a_seeded_permutation() {
        let a = order(50, 1, 0);
        assert_eq!(a, order(50, 1, 0));
        assert_ne!(a, order(50, 2, 0));
        assert_ne!(a, order(50, 1, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..200).collect::<Vec<_>>(),
            "every cell exactly once"
        );
    }
}
