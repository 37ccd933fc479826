//! Property-based tests of the trace layer: serialization round-trips and
//! synthetic-generator guarantees.

use iwc_compaction::EngineId;
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use iwc_trace::{analyze, Trace};
use proptest::prelude::*;

fn arb_dtype() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::F),
        Just(DataType::Df),
        Just(DataType::Ud),
        Just(DataType::D),
        Just(DataType::Hf),
        Just(DataType::W),
    ]
}

fn arb_record() -> impl Strategy<Value = (u32, u32, DataType)> {
    (
        any::<u32>(),
        prop_oneof![Just(8u32), Just(16), Just(32)],
        arb_dtype(),
    )
}

proptest! {
    /// Binary serialization round-trips arbitrary traces exactly.
    #[test]
    fn trace_roundtrip(
        name in "[a-zA-Z0-9_-]{0,24}",
        records in prop::collection::vec(arb_record(), 0..200),
    ) {
        let mut t = Trace::new(name);
        for (bits, w, dt) in records {
            t.push(ExecMask::new(bits, w), dt);
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        let back = Trace::read_from(&buf[..]).expect("read");
        prop_assert_eq!(t, back);
    }

    /// Truncated streams are rejected, never panicking.
    #[test]
    fn truncated_traces_rejected(cut in 1usize..40) {
        let mut t = Trace::new("cut");
        for i in 0..8u32 {
            t.push(ExecMask::new(0xFF << (i % 8), 16), DataType::F);
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        let cut = cut.min(buf.len() - 1);
        let short = &buf[..buf.len() - cut];
        prop_assert!(Trace::read_from(short).is_err());
    }

    /// Analysis is permutation-invariant: the compaction arithmetic is a
    /// pure function of the multiset of masks.
    #[test]
    fn analysis_order_invariant(records in prop::collection::vec(arb_record(), 1..100)) {
        let mut a = Trace::new("a");
        let mut b = Trace::new("a");
        for &(bits, w, dt) in &records {
            a.push(ExecMask::new(bits, w), dt);
        }
        for &(bits, w, dt) in records.iter().rev() {
            b.push(ExecMask::new(bits, w), dt);
        }
        let (ra, rb) = (analyze(&a), analyze(&b));
        prop_assert_eq!(ra.tally.cycles, rb.tally.cycles);
        prop_assert_eq!(ra.simd_efficiency(), rb.simd_efficiency());
    }

    /// Every synthetic profile generates reproducible traces whose
    /// reductions respect the mode ordering.
    #[test]
    fn synth_profiles_well_formed(idx in 0usize..17, len in 500usize..3000) {
        let profiles = iwc_trace::corpus();
        let p = &profiles[idx % profiles.len()];
        let t = p.generate(len);
        prop_assert_eq!(t.len(), len);
        let r = analyze(&t);
        let bcc = r.reduction(EngineId::BCC);
        let scc = r.reduction(EngineId::SCC);
        prop_assert!(scc >= bcc - 1e-12);
        prop_assert!((0.0..=1.0).contains(&bcc));
        prop_assert!((0.0..=1.0).contains(&scc));
    }
}
