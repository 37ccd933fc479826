//! Ablation: SIMD width vs divergence opportunity (§5.4 closing and §7).
//!
//! The paper argues that SIMD efficiency falls with wider warps (NVIDIA 32,
//! AMD 64), so wider architectures gain *more* from intra-warp compaction.
//! We reproduce the trend by running the same per-channel divergence
//! process at widths 8, 16 and 32 and measuring efficiency and BCC/SCC
//! cycle reductions.

use super::Outcome;
use crate::pct;
use iwc_compaction::{CompactionTally, EngineId};
use iwc_isa::{DataType, ExecMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One divergence process: each channel independently takes the `if` side
/// with probability `p_taken`; both sides execute (the masks are the taken
/// set and its complement), modelling one if/else per instruction pair.
fn run_width(width: u32, p_taken: f64, insns: usize, seed: u64) -> CompactionTally {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tally = CompactionTally::new();
    for _ in 0..insns {
        let mut bits = 0u32;
        for ch in 0..width {
            if rng.gen_bool(p_taken) {
                bits |= 1 << ch;
            }
        }
        let taken = ExecMask::new(bits, width);
        tally.add(taken, DataType::F);
        tally.add(taken.not(), DataType::F);
    }
    tally
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== ablation: SIMD width vs compaction opportunity ==\n");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "width", "efficiency", "bcc gain", "scc gain", "scc-bcc"
    );
    for width in [8u32, 16, 32] {
        let t = run_width(width, 0.5, 20_000, 7);
        let bcc = t.reduction_vs_ivb(EngineId::BCC);
        let scc = t.reduction_vs_ivb(EngineId::SCC);
        println!(
            "SIMD{width:<4} {:>12} {:>12} {:>12} {:>12}",
            pct(t.simd_efficiency()),
            pct(bcc),
            pct(scc),
            pct(scc - bcc)
        );
    }
    println!(
        "\npaper §7: 'One can expect a larger optimization opportunity and potential \
         benefit from applying intra-warp compaction techniques to these other \
         (wider-SIMD) architectures.'"
    );
    println!(
        "note: efficiency of a 50/50 divergent branch is width-independent (~50%), but \
         the probability that a whole quad is idle — BCC's harvest — shrinks with \
         width, while SCC's packing gain stays, widening the SCC-BCC gap."
    );
    Outcome::done()
}
