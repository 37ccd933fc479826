//! Property-based tests of the intra-warp compaction invariants
//! (DESIGN.md §5 invariants 1 and 2).

use iwc_compaction::{execution_cycles, waves, EngineId, SccSchedule};
use iwc_isa::{DataType, ExecMask};
use proptest::prelude::*;

fn arb_mask() -> impl Strategy<Value = ExecMask> {
    (
        any::<u32>(),
        prop_oneof![Just(4u32), Just(8), Just(16), Just(32)],
    )
        .prop_map(|(bits, width)| ExecMask::new(bits, width))
}

proptest! {
    /// Invariant 1: scc <= bcc <= ivb <= baseline, and at least 1 wave.
    #[test]
    fn mode_ordering(mask in arb_mask()) {
        let b = waves(mask, EngineId::BASELINE);
        let i = waves(mask, EngineId::IVY_BRIDGE);
        let c = waves(mask, EngineId::BCC);
        let s = waves(mask, EngineId::SCC);
        prop_assert!(s <= c, "scc {s} > bcc {c} for {mask}");
        prop_assert!(c <= i, "bcc {c} > ivb {i} for {mask}");
        prop_assert!(i <= b, "ivb {i} > base {b} for {mask}");
        prop_assert!(s >= 1);
        prop_assert_eq!(b, mask.quad_count());
    }

    /// SCC achieves exactly the information-theoretic optimum.
    #[test]
    fn scc_is_optimal(mask in arb_mask()) {
        let s = waves(mask, EngineId::SCC);
        prop_assert_eq!(s, mask.active_channels().div_ceil(4).max(1));
    }

    /// Invariant 2: the SCC schedule issues every active channel exactly
    /// once and nothing else.
    #[test]
    fn scc_schedule_valid(mask in arb_mask()) {
        let sched = SccSchedule::compute(mask);
        prop_assert!(sched.validate().is_ok(), "{:?}", sched.validate());
        prop_assert_eq!(sched.cycle_count(), waves(mask, EngineId::SCC));
    }

    /// A full mask is never compressed (no false savings on coherent code).
    #[test]
    fn full_masks_never_compressed(width in prop_oneof![Just(8u32), Just(16), Just(32)]) {
        let m = ExecMask::all(width);
        for mode in EngineId::CANONICAL {
            prop_assert_eq!(waves(m, mode), width / 4);
        }
    }

    /// BCC never swizzles: a schedule with the same cycle count as BCC is
    /// reported as bcc-like with zero swizzles.
    #[test]
    fn bcc_like_schedules_have_no_swizzles(mask in arb_mask()) {
        let sched = SccSchedule::compute(mask);
        if sched.is_bcc_like() {
            prop_assert_eq!(sched.swizzle_count(), 0);
        }
    }

    /// Data-type granularity: 64-bit cycles are between 1x and 2x the
    /// 32-bit cycles (exactly 2x for the uncompressed baseline), and
    /// 16-bit cycles are between half and equal.
    #[test]
    fn dtype_granularity_bounds(mask in arb_mask()) {
        for mode in EngineId::CANONICAL {
            let f = execution_cycles(mask, DataType::F, mode);
            let df = execution_cycles(mask, DataType::Df, mode);
            let hf = execution_cycles(mask, DataType::Hf, mode);
            prop_assert!(df >= f && df <= 2 * f, "df {df} vs f {f} under {mode}");
            prop_assert!(hf <= f && 2 * hf >= f, "hf {hf} vs f {f} under {mode}");
        }
        prop_assert_eq!(
            execution_cycles(mask, DataType::Df, EngineId::BASELINE),
            2 * execution_cycles(mask, DataType::F, EngineId::BASELINE)
        );
    }

    /// Mode ordering holds at every data-type granularity.
    #[test]
    fn mode_ordering_all_dtypes(mask in arb_mask()) {
        for dt in [DataType::Ub, DataType::Hf, DataType::F, DataType::Df] {
            let b = execution_cycles(mask, dt, EngineId::BASELINE);
            let i = execution_cycles(mask, dt, EngineId::IVY_BRIDGE);
            let c = execution_cycles(mask, dt, EngineId::BCC);
            let s = execution_cycles(mask, dt, EngineId::SCC);
            prop_assert!(s <= c && c <= i && i <= b, "{dt}: {s} {c} {i} {b}");
        }
    }

    /// Swizzling only happens when BCC alone would be suboptimal.
    #[test]
    fn swizzles_imply_gain_over_bcc(mask in arb_mask()) {
        let sched = SccSchedule::compute(mask);
        if sched.swizzle_count() > 0 {
            prop_assert!(
                waves(mask, EngineId::SCC) < waves(mask, EngineId::BCC),
                "swizzled but no gain for {mask}"
            );
        }
    }
}

/// Exhaustive check over every SIMD16 mask: schedule validity and mode
/// ordering (not random — all 65536 cases).
#[test]
fn exhaustive_simd16() {
    for bits in 0..=0xFFFFu32 {
        let m = ExecMask::new(bits, 16);
        let sched = SccSchedule::compute(m);
        if let Err(e) = sched.validate() {
            panic!("mask {bits:#06x}: {e}");
        }
        assert!(waves(m, EngineId::SCC) <= waves(m, EngineId::BCC));
        assert!(waves(m, EngineId::BCC) <= waves(m, EngineId::IVY_BRIDGE));
    }
}
