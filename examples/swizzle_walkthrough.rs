//! SCC control-logic walkthrough: print the swizzle schedules the Fig. 6
//! algorithm derives for interesting execution masks, including the exact
//! worked example of the paper's Fig. 7 (mask 0xAAAA).
//!
//! Run with: `cargo run --release --example swizzle_walkthrough`

use intra_warp_compaction::compaction::{waves, EngineId, SccSchedule};
use intra_warp_compaction::isa::ExecMask;

fn main() {
    for (label, bits) in [
        ("Fig. 7 worked example (odd channels)", 0xAAAAu32),
        ("one channel per quad, lane 0", 0x1111),
        ("BCC-friendly aligned quads", 0xF0F0),
        ("half-idle (Ivy Bridge already optimizes)", 0x00FF),
        ("irregular", 0x8421),
        ("five channels (uneven tail)", 0x001F),
    ] {
        let mask = ExecMask::new(bits, 16);
        let sched = SccSchedule::compute(mask);
        sched.validate().expect("schedule invariant");
        println!("-- {label} --");
        println!(
            "mask {mask}: baseline {} / ivb {} / bcc {} / scc {} cycles, {} swizzles{}",
            waves(mask, EngineId::BASELINE),
            waves(mask, EngineId::IVY_BRIDGE),
            waves(mask, EngineId::BCC),
            waves(mask, EngineId::SCC),
            sched.swizzle_count(),
            if sched.is_bcc_like() {
                " (bcc-like, no crossbar needed)"
            } else {
                ""
            },
        );
        print!("{sched}");
        println!();
    }
}
