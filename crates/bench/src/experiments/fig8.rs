//! Fig. 8: Ivy Bridge divergent-branch micro-benchmark — relative execution
//! time versus the pattern of enabled SIMD lanes in a balanced if/else.
//!
//! The paper infers from this experiment that real Ivy Bridge executes a
//! SIMD16 instruction whose upper or lower eight lanes are idle in two
//! cycles; our simulator models exactly that optimization, so the same
//! pattern must emerge: FFFF ≈ 1.0, F0F0 ≈ 2.0, 00FF ≈ 1.0, FF0F ≈ 1.5,
//! AAAA ≈ 2.0.

use super::Outcome;
use crate::{bar, print_config, run_mode, scale};
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
use iwc_workloads::micro::{mask_pattern, FIG8_PATTERNS};

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Fig. 8: relative execution time vs if/else enabled-lane pattern ==\n");
    print_config(&GpuConfig::paper_default().with_compaction(EngineId::IVY_BRIDGE));
    let cycles: Vec<(u16, u64)> = FIG8_PATTERNS
        .iter()
        .map(|&pat| {
            let built = mask_pattern(pat, scale());
            (pat, run_mode(&built, EngineId::IVY_BRIDGE).cycles)
        })
        .collect();
    let base = cycles[0].1 as f64;
    println!(
        "\n{:<10} {:>12} {:>10}  bar (200% full)",
        "pattern", "cycles", "relative"
    );
    let paper = [1.0, 2.0, 1.0, 1.5, 2.0];
    for ((pat, c), want) in cycles.iter().zip(paper) {
        let rel = *c as f64 / base;
        println!(
            "0x{pat:04X}    {c:>12} {rel:>9.2}x  |{}|  (paper ~{want:.1}x)",
            bar(rel / 2.0, 30)
        );
    }
    Outcome::done()
}
