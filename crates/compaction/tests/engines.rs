//! Integration tests of the pluggable engine layer: the mode-ordering
//! invariant proved exhaustively *through the trait objects* (the way the
//! simulator consumes engines), and the correctness contract of the
//! distance-limited `SccLimited` ablation engine.

use iwc_compaction::{CompactionEngine, EngineId, EngineRegistry, SccLimited, SccSchedule};
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;

fn m16(bits: u32) -> ExecMask {
    ExecMask::new(bits, 16)
}

/// Stronger compaction never costs cycles: for every one of the 65,536
/// SIMD16 masks, `scc ≤ bcc ≤ ivb ≤ baseline`, evaluated through
/// registry-resolved trait objects exactly as the simulator does.
#[test]
fn exhaustive_mode_ordering_through_trait_objects() {
    let engines: Vec<&dyn CompactionEngine> =
        EngineId::CANONICAL.iter().map(|&id| id.engine()).collect();
    let [base, ivb, bcc, scc] = &engines[..] else {
        panic!("canonical order must have four engines");
    };
    for bits in 0..=0xFFFFu32 {
        let mask = m16(bits);
        let (b, i, c, s) = (
            base.cycles(mask, DataType::F),
            ivb.cycles(mask, DataType::F),
            bcc.cycles(mask, DataType::F),
            scc.cycles(mask, DataType::F),
        );
        assert!(
            s <= c && c <= i && i <= b,
            "mask {bits:#06x}: scc {s} ≤ bcc {c} ≤ ivb {i} ≤ base {b} violated"
        );
    }
}

/// The registry's canonical ordering is the documented weakest-to-strongest
/// sweep order, and the registry resolves each label back to its id.
#[test]
fn canonical_ordering_is_weakest_to_strongest() {
    let labels: Vec<String> = EngineId::CANONICAL.iter().map(|id| id.label()).collect();
    assert_eq!(labels, ["base", "ivb", "bcc", "scc"]);
    for (id, label) in EngineId::CANONICAL.iter().zip(&labels) {
        assert_eq!(EngineRegistry::global().find(label), Some(*id));
    }
}

/// A full-reach crossbar (`k = 3` on SIMD16: three quads on either side)
/// loses nothing: its cycle count equals full SCC on every mask, through
/// the trait objects, exhaustively.
#[test]
fn limited_full_reach_matches_scc_exhaustively() {
    let k3 = SccLimited::register(3).engine();
    let scc = EngineId::SCC.engine();
    for bits in 0..=0xFFFFu32 {
        let mask = m16(bits);
        assert_eq!(
            k3.cycles(mask, DataType::F),
            scc.cycles(mask, DataType::F),
            "mask {bits:#06x}: SccLimited(3) must match full SCC"
        );
    }
}

/// Every `SccLimited(k)` schedule issues each active channel exactly once
/// and never an inactive one, and its write-back unswizzle is the exact
/// inverse of the operand swizzle (§4.2): routing lane `n`'s result back to
/// `(quad, home_lane)` lands on the channel that was issued there.
#[test]
fn limited_schedules_issue_once_and_unswizzle_inverts() {
    for k in 0..=3u8 {
        let eng = SccLimited::new(k);
        for bits in (0..=0xFFFFu32).step_by(23) {
            let mask = m16(bits);
            let sched = eng.limited_schedule(mask);
            sched
                .validate_issue()
                .unwrap_or_else(|e| panic!("mask {bits:#06x} k={k}: {e}"));
            for c in 0..sched.cycle_count() as usize {
                let issued = sched.issued_channels(c);
                let back = sched.unswizzle(c);
                for (n, (ch, home)) in issued.iter().zip(&back).enumerate() {
                    match (ch, home) {
                        (None, None) => {}
                        (Some(ch), Some((quad, lane))) => assert_eq!(
                            *ch,
                            u32::from(*quad) * 4 + u32::from(*lane),
                            "mask {bits:#06x} k={k} cycle {c} lane {n}: \
                             unswizzle must return the issued channel home"
                        ),
                        other => panic!(
                            "mask {bits:#06x} k={k} cycle {c} lane {n}: \
                             swizzle/unswizzle disagree on occupancy: {other:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// Reach buys cycles monotonically: `scc ≤ limited(k+1) ≤ limited(k) ≤ bcc`
/// on 4-byte types, so the ablation sweep is guaranteed to interpolate
/// between the two paper designs.
#[test]
fn limited_interpolates_between_scc_and_bcc() {
    let engines: Vec<&dyn CompactionEngine> =
        (0..=3).map(|k| SccLimited::register(k).engine()).collect();
    let bcc = EngineId::BCC.engine();
    let scc = EngineId::SCC.engine();
    for bits in (0..=0xFFFFu32).step_by(19) {
        let mask = m16(bits);
        let cycles: Vec<u32> = engines
            .iter()
            .map(|e| e.cycles(mask, DataType::F))
            .collect();
        for (k, pair) in cycles.windows(2).enumerate() {
            assert!(
                pair[1] <= pair[0],
                "mask {bits:#06x}: limited(k={}) {} > limited(k={k}) {}",
                k + 1,
                pair[1],
                pair[0]
            );
        }
        assert!(
            cycles[0] <= bcc.cycles(mask, DataType::F),
            "mask {bits:#06x}"
        );
        assert!(
            scc.cycles(mask, DataType::F) <= cycles[3],
            "mask {bits:#06x}"
        );
    }
}

/// On every data type, a bounded crossbar never beats the full one: full
/// SCC is a lower bound for `SccLimited(k)` cycles.
#[test]
fn limited_never_beats_scc_on_any_dtype() {
    let scc = EngineId::SCC.engine();
    for k in [0u8, 1, 3] {
        let eng = SccLimited::register(k).engine();
        for bits in (0..=0xFFFFu32).step_by(31) {
            let mask = m16(bits);
            for dt in [DataType::Ub, DataType::Hf, DataType::F, DataType::Df] {
                assert!(
                    scc.cycles(mask, dt) <= eng.cycles(mask, dt),
                    "mask {bits:#06x} k={k} {dt:?}: limited beats full SCC"
                );
            }
        }
    }
}

/// The registry resolves ablation engines by label, idempotently, and their
/// schedules agree with the memoized full-SCC schedule whenever the early
/// exit applies (a BCC-like mask needs no swizzling at any reach).
#[test]
fn registry_roundtrip_and_bcc_like_masks() {
    let id = SccLimited::register(2);
    assert_eq!(EngineRegistry::global().find("scc-k2"), Some(id));
    assert_eq!(SccLimited::register(2), id);

    // 0x00F0: one fully active quad — BCC-like, identical at every reach.
    let full = SccSchedule::compute(m16(0x00F0));
    for k in 0..=3u8 {
        let sched = SccLimited::new(k).limited_schedule(m16(0x00F0));
        assert_eq!(sched.cycle_count(), full.cycle_count());
        assert_eq!(sched.swizzle_count(), 0);
    }
}
