//! `profile` — per-instruction divergence hotspots of one workload.
//!
//! ```console
//! iwc profile <workload> [--top N] [--mode <label>]
//! ```
//!
//! Runs the named catalog workload once with
//! [`GpuConfig::profile_insns`](iwc_sim::GpuConfig) enabled and prints the
//! static instructions ranked by the execution cycles intra-warp compaction
//! would save (active mode → SCC), each with its enabled-channel and
//! quad-occupancy profile, followed by a per-basic-block rollup that names
//! the hottest block. This answers the question the aggregate Fig. 10
//! numbers cannot: *which* instructions pay for divergence, and where a
//! kernel author should look first.

use super::Outcome;
use crate::scale;
use iwc_compaction::{EngineId, EngineRegistry};
use iwc_sim::GpuConfig;
use iwc_workloads::catalog;

struct Options {
    workload: String,
    top: usize,
    mode: iwc_compaction::EngineId,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter();
    let workload = args.next().ok_or("missing workload name")?.clone();
    let mut opts = Options {
        workload,
        top: 12,
        mode: iwc_compaction::EngineId::IVY_BRIDGE,
    };
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--top" => opts.top = value()?.parse().map_err(|e| format!("{e}"))?,
            "--mode" => {
                let v = value()?;
                let registry = EngineRegistry::global();
                opts.mode = registry.find(v).ok_or_else(|| {
                    format!("unknown mode {v:?} ({})", registry.labels().join("|"))
                })?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

pub(crate) fn run(args: &[String]) -> Outcome {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: profile <workload> [--top N] [--mode base|ivb|bcc|scc]");
            eprintln!(
                "workloads: {}",
                catalog()
                    .iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return Outcome::fail();
        }
    };
    let entries = catalog();
    let Some(entry) = entries.iter().find(|e| e.name == opts.workload) else {
        eprintln!("unknown workload {:?}", opts.workload);
        eprintln!(
            "workloads: {}",
            entries.iter().map(|e| e.name).collect::<Vec<_>>().join(" ")
        );
        return Outcome::fail();
    };
    let built = (entry.build)(scale());
    let cfg = GpuConfig::paper_default()
        .with_compaction(opts.mode)
        .with_insn_profile(true);
    let r = match built.run_checked(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", built.name);
            return Outcome::fail();
        }
    };
    crate::telemetry().absorb(&r.telemetry);
    let from = EngineId::IVY_BRIDGE;
    let to = EngineId::SCC;
    let program = &built.launch.program;
    let profile = &r.eu.insn_profile;

    println!(
        "== divergence profile: {} ({} insns, mode {}) ==",
        built.name,
        program.len(),
        r.mode
    );
    println!("{r}\n");

    let hot = profile.hotspots(from, to);
    if hot.is_empty() {
        println!("no compressible instructions: every executed mask is already dense");
    } else {
        println!("hotspots (cycles saved, {from} -> {to}):");
        println!(
            "{:>4} {:>5} {:>9} {:>7} {:>8} {:>7} {:>8}  instruction",
            "rank", "pc", "execs", "skips", "ch/exec", "saved", "of-ivb"
        );
        for (rank, &(pc, saved)) in hot.iter().take(opts.top).enumerate() {
            let s = &profile.insns[pc];
            let ivb = s.cycles.get(from).max(1);
            println!(
                "{:>4} {:>5} {:>9} {:>7} {:>8.1} {:>7} {:>7.1}%  {}",
                rank + 1,
                pc,
                s.execs,
                s.zero_skips,
                s.mean_channels(),
                saved,
                100.0 * saved as f64 / ivb as f64,
                program.insns()[pc]
            );
        }
        if hot.len() > opts.top {
            println!("  ... {} more (use --top)", hot.len() - opts.top);
        }
    }

    // Basic-block rollup: where a kernel author should look first.
    let blocks = profile.by_block(program);
    let mut ranked: Vec<(usize, &iwc_sim::BlockStat)> = blocks.iter().enumerate().collect();
    ranked.sort_by(|a, b| {
        b.1.stat
            .savings(from, to)
            .cmp(&a.1.stat.savings(from, to))
            .then(a.0.cmp(&b.0))
    });
    println!("\nbasic blocks (by cycles saved):");
    println!(
        "{:>4} {:>11} {:>9} {:>9} {:>8} {:>7}",
        "blk", "pc range", "execs", "ivb cyc", "scc cyc", "saved"
    );
    for &(i, b) in ranked.iter().take(opts.top) {
        if b.stat.execs == 0 && b.stat.zero_skips == 0 {
            continue;
        }
        println!(
            "{:>4} {:>5}..{:<5} {:>9} {:>9} {:>8} {:>7}",
            format!("B{i}"),
            b.range.start,
            b.range.end,
            b.stat.execs,
            b.stat.cycles.get(from),
            b.stat.cycles.get(to),
            b.stat.savings(from, to)
        );
    }
    if let Some(&(i, b)) = ranked.first() {
        let saved = b.stat.savings(from, to);
        if saved > 0 {
            println!(
                "\nhottest block: B{i} (pc {}..{}) — SCC would save {saved} execution \
                 cycles here ({:.1}% of the kernel's total saving)",
                b.range.start,
                b.range.end,
                100.0 * saved as f64
                    / blocks
                        .iter()
                        .map(|b| b.stat.savings(from, to))
                        .sum::<u64>()
                        .max(1) as f64
            );
        } else {
            println!("\nhottest block: none — no block saves cycles under {to}");
        }
    }
    Outcome::cells(1)
}
