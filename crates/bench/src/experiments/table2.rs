//! Table 2: Ivy Bridge optimization, BCC, and SCC benefit for nested
//! divergent branches (levels L1–L4).
//!
//! Two methodologies, as in the paper: the analytic cycle model applied to
//! the exact leaf-path masks, and GPGenSim-style simulation of the nested
//! micro-benchmark kernel.

use super::Outcome;
use crate::runner::parallel_map;
use crate::{pct, print_config, run_mode, scale};
use iwc_compaction::{execution_cycles, EngineId};
use iwc_isa::{DataType, ExecMask};
use iwc_sim::GpuConfig;
use iwc_workloads::micro::nested_branches;

/// The leaf execution masks of the nested-branch benchmark at `level`:
/// every value of the low `level` bits of the lane id selects one path.
fn leaf_masks(level: u32) -> Vec<ExecMask> {
    let paths = 1u32 << level;
    (0..paths)
        .map(|k| {
            let mut bits = 0u32;
            for lane in 0..16 {
                if lane & (paths - 1) == k {
                    bits |= 1 << lane;
                }
            }
            ExecMask::new(bits, 16)
        })
        .collect()
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Table 2: nested-branch benefit of IVB / BCC / SCC ==\n");
    println!("-- analytic cycle model over the leaf-path masks --");
    println!(
        "{:<6} {:<28} {:>12} {:>12} {:>12}",
        "level", "example masks", "IVB benefit", "BCC add'l", "SCC add'l"
    );
    for level in 1..=4u32 {
        let masks = leaf_masks(level);
        let base: u64 = masks
            .iter()
            .map(|&m| u64::from(execution_cycles(m, DataType::F, EngineId::BASELINE)))
            .sum();
        let cyc = |mode| -> u64 {
            masks
                .iter()
                .map(|&m| u64::from(execution_cycles(m, DataType::F, mode)))
                .sum()
        };
        let ivb = cyc(EngineId::IVY_BRIDGE);
        let bcc = cyc(EngineId::BCC);
        let scc = cyc(EngineId::SCC);
        let rel = |saved: u64| saved as f64 / base as f64;
        let examples = match level {
            1 => "5555, AAAA",
            2 => "1111, 4444, 8888, 2222",
            3 => "0101, 1010, ... (8 paths)",
            _ => "0001 .. 8000 (16 paths)",
        };
        println!(
            "L{:<5} {:<28} {:>12} {:>12} {:>12}",
            level,
            examples,
            pct(rel(base - ivb)),
            pct(rel(ivb - bcc)),
            pct(rel(bcc - scc)),
        );
    }
    println!(
        "\npaper Table 2: L1 -> SCC 50% | L2 -> SCC 75% | L3 -> BCC 50% + SCC 25% | \
         L4 -> IVB 50% + BCC 25%"
    );

    println!("\n-- simulation of the nested micro-benchmark kernel --");
    print_config(&GpuConfig::paper_default());
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>14}",
        "level", "base cyc", "ivb cyc", "bcc cyc", "scc cyc"
    );
    let levels = [1u32, 2, 3, 4];
    let rows = parallel_map(&levels, |&level| {
        let built = nested_branches(level, scale());
        // Sweep in the registry's documented canonical order (weakest to
        // strongest), which the column headers above assume.
        let cycles: Vec<u64> = EngineId::CANONICAL
            .iter()
            .map(|&id| run_mode(&built, id).cycles)
            .collect();
        (level, cycles)
    });
    for (level, cycles) in rows {
        println!(
            "L{:<5} {:>12} {:>12} {:>12} {:>14}",
            level, cycles[0], cycles[1], cycles[2], cycles[3]
        );
    }
    Outcome::cells(levels.len())
}
