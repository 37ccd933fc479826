//! Ablation: data-type width vs compaction benefit (§4.1).
//!
//! "Benefits may be higher for wider datatypes (doubles and long integers)
//! that take more cycles through the execution pipe, and conversely,
//! benefit may be lower for narrow datatypes (half float / short)." The
//! same divergent mask stream is costed at every element width: byte
//! streams barely compress (a dead wave needs 16 disabled contiguous
//! channels) while double streams compress at pair granularity.

use super::Outcome;
use crate::pct;
use iwc_compaction::{execution_cycles, EngineId};
use iwc_isa::{DataType, ExecMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== ablation: element width vs compaction benefit ==\n");
    // A scattered divergent stream at ~45% density over SIMD16.
    let mut rng = SmallRng::seed_from_u64(5);
    let masks: Vec<ExecMask> = (0..20_000)
        .map(|_| {
            let mut bits = 0u32;
            for ch in 0..16 {
                if rng.gen_bool(0.45) {
                    bits |= 1 << ch;
                }
            }
            ExecMask::new(bits | 1, 16)
        })
        .collect();

    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12}",
        "dtype", "elem/wave", "base waves", "bcc gain", "scc gain"
    );
    for dt in [DataType::Ub, DataType::Hf, DataType::F, DataType::Df] {
        let total = |engine: EngineId| -> u64 {
            masks
                .iter()
                .map(|&m| u64::from(execution_cycles(m, dt, engine)))
                .sum()
        };
        let base = total(EngineId::IVY_BRIDGE);
        let bcc = total(EngineId::BCC);
        let scc = total(EngineId::SCC);
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>12}",
            dt.to_string(),
            dt.elements_per_wave(),
            base,
            pct(1.0 - bcc as f64 / base as f64),
            pct(1.0 - scc as f64 / base as f64),
        );
    }
    println!(
        "\npaper §4.1: wider datatypes (more waves per instruction) benefit more; \
         narrow datatypes (fewer waves) benefit less."
    );
    Outcome::done()
}
