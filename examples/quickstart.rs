//! Quickstart: build a divergent kernel with the ISA DSL, run it on the
//! cycle-level GPU simulator under every compaction mode, and print the
//! cycle savings BCC and SCC deliver.
//!
//! Run with: `cargo run --release --example quickstart`

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::isa::{CondOp, FlagReg, KernelBuilder, MemSpace, Operand, Predicate};
use intra_warp_compaction::sim::{simulate, GpuConfig, Launch, MemoryImage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Kernel: out[gid] = gid odd ? expensive(gid) : cheap(gid).
    // Odd/even divergence is the 0xAAAA pattern of the paper's Fig. 4(b):
    // BCC cannot compress it, SCC halves it.
    let mut b = KernelBuilder::new("quickstart", 16);
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(1));
    b.cmp(CondOp::Ne, FlagReg::F0, Operand::rud(6), Operand::imm_ud(0));
    b.mov(Operand::rf(8), Operand::imm_f(1.0));
    b.if_(Predicate::normal(FlagReg::F0));
    for _ in 0..24 {
        b.mad(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f(1.001),
            Operand::imm_f(0.1),
        );
    }
    b.else_();
    b.add(Operand::rf(8), Operand::rf(8), Operand::imm_f(1.0));
    b.end_if();
    // out[gid] = r8
    b.shl(Operand::rud(10), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(10),
        Operand::rud(10),
        Operand::scalar(3, 0, intra_warp_compaction::isa::DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), Operand::rf(8));
    let program = b.finish()?;
    println!("{program}");

    let mut baseline = 0u64;
    for mode in EngineId::CANONICAL {
        let mut img = MemoryImage::new(1 << 20);
        let out = img.alloc(1024 * 4);
        let launch = Launch::new(program.clone(), 1024, 64).with_args(&[out]);
        let cfg = GpuConfig::paper_default().with_compaction(mode);
        let r = simulate(&cfg, &launch, &mut img)?;
        if mode == EngineId::BASELINE {
            baseline = r.cycles;
        }
        println!(
            "{mode:>4}: {:>7} cycles ({:>5.1}% vs baseline), SIMD efficiency {:.1}%",
            r.cycles,
            100.0 * (1.0 - r.cycles as f64 / baseline as f64),
            100.0 * r.simd_efficiency()
        );
        // The functional result is identical regardless of mode.
        assert_eq!(
            img.read_f32(out + 4),
            img.read_f32(out + 12),
            "odd lanes agree"
        );
    }
    Ok(())
}
