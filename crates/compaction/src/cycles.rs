//! Execution-cycle models for the four studied configurations.
//!
//! A SIMD instruction of width *W* executes over `W / 4` waves of 4 channels
//! through the 4-wide ALU (Fig. 2 of the paper). The models below compute how
//! many of those waves actually issue under each optimization level:
//!
//! * **Baseline** — every wave issues, enabled or not.
//! * **Ivy Bridge** ([`EngineId::IVY_BRIDGE`]) — the limited optimization
//!   the paper infers from hardware micro-benchmarking (Fig. 8): a SIMD16
//!   instruction whose *upper or lower eight* channels are all disabled
//!   executes as SIMD8 (two waves instead of four).
//! * **BCC** ([`EngineId::BCC`]) — any aligned all-disabled quad is
//!   skipped; cycles = number of active quads.
//! * **SCC** ([`EngineId::SCC`]) — channels are swizzled into packed
//!   quads; cycles = ⌈active channels / 4⌉.
//!
//! The per-mode formulas live in each engine's [`crate::engine`]
//! implementation; the functions here dispatch through an [`EngineId`].
//!
//! All modes execute at least one wave even for an all-disabled mask (the
//! instruction still flows down the pipe), and 64-bit data types double-pump
//! the 32-bit datapath, doubling the wave count (§4.1).

use crate::engine::{
    BaselineEngine, BccEngine, CompactionEngine, EngineId, IvyBridgeEngine, SccEngine,
};
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use serde::{Deserialize, Serialize};

/// Number of issue waves (execution cycles in the ALU) for an instruction
/// with execution mask `mask` under `engine`, for a 32-bit data type.
///
/// # Examples
///
/// ```
/// use iwc_compaction::cycles::waves;
/// use iwc_compaction::EngineId;
/// use iwc_isa::mask::ExecMask;
///
/// let m = ExecMask::new(0xAAAA, 16); // 8 channels, 2 per quad
/// assert_eq!(waves(m, EngineId::BASELINE), 4);
/// assert_eq!(waves(m, EngineId::IVY_BRIDGE), 4); // no idle half
/// assert_eq!(waves(m, EngineId::BCC), 4);        // every quad active
/// assert_eq!(waves(m, EngineId::SCC), 2);        // packs to 2 quads
/// ```
pub fn waves(mask: ExecMask, engine: EngineId) -> u32 {
    execution_cycles(mask, DataType::F, engine)
}

/// Number of execution waves at the *data-type granularity*: the 4×32-bit
/// datapath consumes [`DataType::elements_per_wave`] channels per cycle
/// (2 for 64-bit types, 8 for 16-bit, 16 for bytes), so the aligned group
/// that must be fully disabled for BCC to skip a wave — and the packing
/// unit SCC fills — scales with the element size. This is §4.1's
/// observation that compression "benefits may be higher for wider
/// datatypes … and lower for narrow datatypes". Equals [`waves`] for
/// 32-bit types.
pub fn execution_cycles(mask: ExecMask, dtype: DataType, engine: EngineId) -> u32 {
    engine.engine().cycles(mask, dtype)
}

/// Per-instruction cycle counts under all four modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Baseline (no compression) cycles.
    pub baseline: u64,
    /// Cycles with the Ivy Bridge half-width optimization.
    pub ivb: u64,
    /// Cycles with BCC.
    pub bcc: u64,
    /// Cycles with SCC.
    pub scc: u64,
}

impl CycleBreakdown {
    /// Computes the breakdown for one instruction, calling the four unit
    /// engines directly.
    pub fn of(mask: ExecMask, dtype: DataType) -> Self {
        Self {
            baseline: u64::from(BaselineEngine.cycles(mask, dtype)),
            ivb: u64::from(IvyBridgeEngine.cycles(mask, dtype)),
            bcc: u64::from(BccEngine.cycles(mask, dtype)),
            scc: u64::from(SccEngine.cycles(mask, dtype)),
        }
    }

    /// Cycle count under the canonical engine `engine`.
    ///
    /// # Panics
    ///
    /// Panics when `engine` is not one of [`EngineId::CANONICAL`].
    pub fn get(&self, engine: EngineId) -> u64 {
        match engine {
            EngineId::BASELINE => self.baseline,
            EngineId::IVY_BRIDGE => self.ivb,
            EngineId::BCC => self.bcc,
            EngineId::SCC => self.scc,
            _ => panic!("engine {engine} is not one of the four canonical engines"),
        }
    }

    /// Accumulates another breakdown (for whole-kernel tallies).
    pub fn accumulate(&mut self, other: Self) {
        self.baseline += other.baseline;
        self.ivb += other.ivb;
        self.bcc += other.bcc;
        self.scc += other.scc;
    }

    /// Fractional cycle reduction of `engine` relative to the Ivy Bridge
    /// baseline — the quantity the paper reports ("over and above the
    /// existing Ivy Bridge optimization", §5.2).
    pub fn reduction_vs_ivb(&self, engine: EngineId) -> f64 {
        if self.ivb == 0 {
            0.0
        } else {
            1.0 - self.get(engine) as f64 / self.ivb as f64
        }
    }

    /// Fractional cycle reduction of `engine` relative to the uncompressed
    /// baseline.
    pub fn reduction_vs_baseline(&self, engine: EngineId) -> f64 {
        if self.baseline == 0 {
            0.0
        } else {
            1.0 - self.get(engine) as f64 / self.baseline as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m16(bits: u32) -> ExecMask {
        ExecMask::new(bits, 16)
    }

    #[test]
    fn full_mask_takes_full_waves_in_every_mode() {
        for mode in EngineId::CANONICAL {
            assert_eq!(waves(ExecMask::all(16), mode), 4, "{mode}");
            assert_eq!(waves(ExecMask::all(8), mode), 2, "{mode}");
        }
    }

    #[test]
    fn ivb_optimizes_half_idle_simd16_only() {
        // Paper §5.2: 0x00FF and 0xFF0F patterns are optimized...
        assert_eq!(waves(m16(0x00FF), EngineId::IVY_BRIDGE), 2);
        assert_eq!(waves(m16(0xFF00), EngineId::IVY_BRIDGE), 2);
        // ...but 0xF0F0 and 0xAAAA are not.
        assert_eq!(waves(m16(0xF0F0), EngineId::IVY_BRIDGE), 4);
        assert_eq!(waves(m16(0xAAAA), EngineId::IVY_BRIDGE), 4);
        // And SIMD8 half-idle masks are NOT optimized by IVB.
        assert_eq!(waves(ExecMask::new(0x0F, 8), EngineId::IVY_BRIDGE), 2);
    }

    #[test]
    fn fig8_pattern_ff0f() {
        // 0xFF0F has its *middle* quad idle: half-idle? No — upper byte 0xFF,
        // lower byte 0x0F. Wait: 0xFF0F upper 8 = 0xFF (active), lower 8 =
        // 0x0F (active). IVB does not help; BCC skips the idle quad 1.
        assert_eq!(waves(m16(0xFF0F), EngineId::IVY_BRIDGE), 4);
        assert_eq!(waves(m16(0xFF0F), EngineId::BCC), 3);
        assert_eq!(waves(m16(0xFF0F), EngineId::SCC), 3);
    }

    #[test]
    fn bcc_counts_active_quads() {
        assert_eq!(waves(m16(0xF0F0), EngineId::BCC), 2);
        assert_eq!(waves(m16(0x000F), EngineId::BCC), 1);
        assert_eq!(waves(m16(0x1111), EngineId::BCC), 4); // 1 lane per quad
    }

    #[test]
    fn scc_packs_channels() {
        assert_eq!(waves(m16(0x1111), EngineId::SCC), 1); // 4 channels → 1 quad
        assert_eq!(waves(m16(0xAAAA), EngineId::SCC), 2); // 8 channels
        assert_eq!(waves(m16(0x7777), EngineId::SCC), 3); // 12 channels
        assert_eq!(waves(m16(0x0001), EngineId::SCC), 1);
    }

    #[test]
    fn empty_mask_still_takes_one_wave() {
        for mode in [EngineId::BCC, EngineId::SCC] {
            assert_eq!(waves(ExecMask::none(16), mode), 1, "{mode}");
        }
        assert_eq!(waves(ExecMask::none(16), EngineId::BASELINE), 4);
    }

    #[test]
    fn mode_ordering_invariant_sample() {
        // scc <= bcc <= ivb <= baseline for a few interesting masks.
        for bits in [
            0x0000u32, 0x0001, 0x00FF, 0xF0F0, 0xAAAA, 0x8421, 0xFFFF, 0x7F01,
        ] {
            let m = m16(bits);
            let b = CycleBreakdown::of(m, DataType::F);
            assert!(b.scc <= b.bcc, "{bits:#x}");
            assert!(b.bcc <= b.ivb, "{bits:#x}");
            assert!(b.ivb <= b.baseline, "{bits:#x}");
        }
    }

    #[test]
    fn breakdown_matches_every_canonical_engine() {
        for bits in [0x0000u32, 0x0001, 0x00FF, 0xF0F0, 0xAAAA, 0x8421, 0xFFFF] {
            for dtype in [DataType::Ub, DataType::Hf, DataType::F, DataType::Df] {
                let b = CycleBreakdown::of(m16(bits), dtype);
                for id in EngineId::CANONICAL {
                    assert_eq!(
                        b.get(id),
                        u64::from(execution_cycles(m16(bits), dtype, id)),
                        "mask {bits:#x} {id} {dtype:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not one of the four canonical engines")]
    fn breakdown_get_rejects_ablation_engines() {
        let k1 = crate::engine::SccLimited::register(1);
        CycleBreakdown::default().get(k1);
    }

    #[test]
    fn wide_types_double_pump() {
        let m = m16(0xF0F0);
        assert_eq!(execution_cycles(m, DataType::Df, EngineId::BASELINE), 8);
        assert_eq!(execution_cycles(m, DataType::Df, EngineId::BCC), 4);
        assert_eq!(execution_cycles(m, DataType::F, EngineId::BCC), 2);
    }

    #[test]
    fn narrow_types_take_fewer_waves_and_compress_less() {
        // SIMD16 HF: 8 elements per wave → 2 waves uncompressed.
        let full = ExecMask::all(16);
        assert_eq!(execution_cycles(full, DataType::Hf, EngineId::BASELINE), 2);
        // One active quad: a 32-bit type saves 3 of 4 waves with BCC...
        let sparse = m16(0x000F);
        assert_eq!(execution_cycles(sparse, DataType::F, EngineId::BCC), 1);
        // ...but HF can only save 1 of 2 (the dead group must span 8 lanes).
        assert_eq!(execution_cycles(sparse, DataType::Hf, EngineId::BCC), 1);
        assert_eq!(
            execution_cycles(m16(0x0101), DataType::Hf, EngineId::BCC),
            2,
            "both 8-lane groups have an active channel"
        );
        // 64-bit types compress at pair granularity: one active channel
        // leaves a single wave, not two.
        assert_eq!(
            execution_cycles(m16(0x0001), DataType::Df, EngineId::SCC),
            1
        );
        assert_eq!(
            execution_cycles(m16(0x0001), DataType::Df, EngineId::BASELINE),
            8
        );
    }

    #[test]
    fn breakdown_reductions() {
        let mut t = CycleBreakdown::of(m16(0x000F), DataType::F); // ivb=2? lower half 0x000F active, upper idle → 2; bcc=1; scc=1
        assert_eq!(t.ivb, 2);
        assert_eq!(t.bcc, 1);
        assert_eq!(t.reduction_vs_ivb(EngineId::BCC), 0.5);
        assert_eq!(t.reduction_vs_baseline(EngineId::SCC), 0.75);
        t.accumulate(CycleBreakdown::of(ExecMask::all(16), DataType::F));
        assert_eq!(t.baseline, 8);
        assert_eq!(t.scc, 5);
    }

    #[test]
    fn simd32_supported() {
        let m = ExecMask::new(0x0000_00FF, 32);
        assert_eq!(waves(m, EngineId::BASELINE), 8);
        assert_eq!(
            waves(m, EngineId::IVY_BRIDGE),
            8,
            "IVB opt is SIMD16-specific"
        );
        assert_eq!(waves(m, EngineId::BCC), 2);
        assert_eq!(waves(m, EngineId::SCC), 2);
    }
}
