//! Timing-level integration tests of the simulator: compaction speeds up
//! divergent kernels, never changes results, and never hurts coherent code.

use iwc_compaction::EngineId;
use iwc_isa::builder::KernelBuilder;
use iwc_isa::insn::CondOp;
use iwc_isa::reg::{FlagReg, Operand, Predicate};
use iwc_isa::{MemSpace, Program};
use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage, SimResult};

fn f0() -> Predicate {
    Predicate::normal(FlagReg::F0)
}

/// A coherent kernel: out[gid] = a[gid] * 3 + 1, no branches.
fn coherent_kernel() -> Program {
    let mut b = KernelBuilder::new("coherent", 16);
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(6),
        Operand::rud(6),
        Operand::scalar(3, 0, iwc_isa::DataType::Ud),
    );
    b.load(MemSpace::Global, Operand::rf(8), Operand::rud(6));
    b.mad(
        Operand::rf(10),
        Operand::rf(8),
        Operand::imm_f(3.0),
        Operand::imm_f(1.0),
    );
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(6),
        Operand::rud(6),
        Operand::scalar(3, 1, iwc_isa::DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(6), Operand::rf(10));
    b.finish().unwrap()
}

/// A heavily divergent kernel: lanes where gid % 16 < 2 do a long FP chain
/// (14/16 lanes idle → BCC-compressible after the first quad), mask pattern
/// chosen so BCC helps.
fn divergent_kernel(rounds: u32) -> Program {
    let mut b = KernelBuilder::new("divergent", 16);
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(15));
    b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(6), Operand::imm_ud(2));
    b.mov(Operand::rf(8), Operand::imm_f(1.5));
    b.if_(f0());
    for _ in 0..rounds {
        b.mad(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f(1.0001),
            Operand::imm_f(0.25),
        );
    }
    b.else_();
    b.mov(Operand::rf(8), Operand::imm_f(2.0));
    b.end_if();
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(6),
        Operand::rud(6),
        Operand::scalar(3, 0, iwc_isa::DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(6), Operand::rf(8));
    b.finish().unwrap()
}

fn run(kernel: Program, mode: EngineId, args: &[u32], img: &mut MemoryImage) -> SimResult {
    let cfg = GpuConfig::paper_default().with_compaction(mode);
    let launch = Launch::new(kernel, 256, 64).with_args(args);
    simulate(&cfg, &launch, img).expect("simulation completes")
}

#[test]
fn coherent_kernel_identical_across_modes() {
    let mut cycles = Vec::new();
    for mode in EngineId::CANONICAL {
        let mut img = MemoryImage::new(1 << 20);
        let a = img.alloc_f32(&(0..256).map(|i| i as f32).collect::<Vec<_>>());
        let out = img.alloc(256 * 4);
        let r = run(coherent_kernel(), mode, &[a, out], &mut img);
        assert!(
            r.simd_efficiency() > 0.99,
            "coherent kernel efficiency {}",
            r.simd_efficiency()
        );
        for i in 0..256u32 {
            assert_eq!(
                img.read_f32(out + 4 * i),
                i as f32 * 3.0 + 1.0,
                "gid {i} under {mode}"
            );
        }
        cycles.push(r.cycles);
    }
    // No compaction mode may change coherent timing (invariant 5 of DESIGN.md).
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "coherent cycles {cycles:?}"
    );
}

#[test]
fn divergent_kernel_results_mode_invariant() {
    let mut reference: Option<Vec<f32>> = None;
    for mode in EngineId::CANONICAL {
        let mut img = MemoryImage::new(1 << 20);
        let out = img.alloc(256 * 4);
        let _ = run(divergent_kernel(32), mode, &[out], &mut img);
        let vals = img.read_f32_slice(out, 256);
        match &reference {
            None => reference = Some(vals),
            Some(r) => assert_eq!(r, &vals, "functional mismatch under {mode}"),
        }
    }
}

#[test]
fn compaction_speeds_up_divergent_kernel() {
    let mut cycles = std::collections::HashMap::new();
    for mode in EngineId::CANONICAL {
        let mut img = MemoryImage::new(1 << 20);
        let out = img.alloc(256 * 4);
        let r = run(divergent_kernel(64), mode, &[out], &mut img);
        cycles.insert(mode, r.cycles);
    }
    let base = cycles[&EngineId::BASELINE];
    let bcc = cycles[&EngineId::BCC];
    let scc = cycles[&EngineId::SCC];
    assert!(bcc < base, "BCC {bcc} should beat baseline {base}");
    assert!(scc <= bcc, "SCC {scc} should not lose to BCC {bcc}");
    // The if-side has 2/16 lanes active over a long chain: BCC saves ~3 of
    // every 4 waves there. Expect a sizeable win.
    let gain = 1.0 - bcc as f64 / base as f64;
    assert!(gain > 0.25, "expected >25% gain, got {:.1}%", gain * 100.0);
}

#[test]
fn eu_cycle_accounting_is_mode_independent() {
    // The analytical EU-cycle breakdown depends only on the mask stream, so
    // every run reports the same per-mode EU cycles regardless of which mode
    // it timed.
    let mut per_mode = Vec::new();
    for mode in EngineId::CANONICAL {
        let mut img = MemoryImage::new(1 << 20);
        let out = img.alloc(256 * 4);
        let r = run(divergent_kernel(16), mode, &[out], &mut img);
        per_mode.push(r.compute_tally().cycles);
    }
    assert!(per_mode.windows(2).all(|w| w[0] == w[1]), "{per_mode:?}");
}

#[test]
fn memory_stream_is_mode_independent() {
    // Invariant 4: intra-warp compaction adds no memory divergence.
    let mut lines = Vec::new();
    for mode in EngineId::CANONICAL {
        let mut img = MemoryImage::new(1 << 20);
        let out = img.alloc(256 * 4);
        let r = run(divergent_kernel(8), mode, &[out], &mut img);
        lines.push((r.mem.loads, r.mem.stores, r.mem.lines_requested));
    }
    assert!(lines.windows(2).all(|w| w[0] == w[1]), "{lines:?}");
}

#[test]
fn dc2_speeds_up_bandwidth_bound_gather() {
    // Each lane gathers from a distinct cache line (16 lines per message);
    // with a perfect L3, the data cluster is the only bottleneck, so DC2
    // must be decisively faster than DC1.
    let mut b = KernelBuilder::new("gather64", 16);
    // addr = base + gid*64 (one line per lane)
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(6));
    b.add(
        Operand::rud(6),
        Operand::rud(6),
        Operand::scalar(3, 0, iwc_isa::DataType::Ud),
    );
    for dst in [8u8, 10, 12, 14] {
        b.load(MemSpace::Global, Operand::rf(dst), Operand::rud(6));
    }
    let p = b.finish().unwrap();
    let mut t = Vec::new();
    for bw in [1.0, 2.0] {
        let mut img = MemoryImage::new(1 << 22);
        let a = img.alloc(2048 * 64);
        let cfg = GpuConfig::paper_default()
            .with_dc_bandwidth(bw)
            .with_perfect_l3(true);
        let launch = Launch::new(p.clone(), 2048, 64).with_args(&[a]);
        let r = simulate(&cfg, &launch, &mut img).unwrap();
        t.push(r.cycles);
    }
    assert!(
        (t[1] as f64) < 0.75 * t[0] as f64,
        "DC2 ({}) should be well under DC1 ({})",
        t[1],
        t[0]
    );
}

#[test]
fn barrier_and_slm_reduction() {
    // Workgroup reduction: each thread stores its value to SLM, barrier,
    // thread 0's lanes read all values back and sum into out[wg].
    // Simplified: every lane writes gid to SLM[lid], after the barrier lane
    // reads SLM[wg_size-1-lid] and stores to out[gid] (a cross-thread swap
    // that fails without a working barrier).
    let mut b = KernelBuilder::new("swap", 16);
    // lid = gid - wg*wg_size = gid % 64 (wg_size 64)
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(63));
    b.shl(Operand::rud(8), Operand::rud(6), Operand::imm_ud(2)); // lid*4
    b.store(MemSpace::Slm, Operand::rud(8), Operand::rud(1)); // slm[lid] = gid
    b.barrier();
    // addr = (63-lid)*4
    b.sub(Operand::rud(10), Operand::imm_ud(63), Operand::rud(6));
    b.shl(Operand::rud(10), Operand::rud(10), Operand::imm_ud(2));
    b.load(MemSpace::Slm, Operand::rud(12), Operand::rud(10));
    // out[gid] = loaded
    b.shl(Operand::rud(14), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(14),
        Operand::rud(14),
        Operand::scalar(3, 0, iwc_isa::DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(14), Operand::rud(12));
    let p = b.finish().unwrap();

    let mut img = MemoryImage::new(1 << 20);
    let out = img.alloc(256 * 4);
    let launch = Launch::new(p, 256, 64).with_args(&[out]).with_slm(64 * 4);
    let r = simulate(&GpuConfig::paper_default(), &launch, &mut img).unwrap();
    assert!(r.cycles > 0);
    for gid in 0..256u32 {
        let wg = gid / 64;
        let lid = gid % 64;
        let want = wg * 64 + (63 - lid);
        assert_eq!(img.read_u32(out + 4 * gid), want, "gid {gid}");
    }
}

#[test]
fn ndrange_tail_channels_disabled() {
    // global_size not a multiple of wg or simd: tail lanes must not store.
    let mut b = KernelBuilder::new("tail", 16);
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(6),
        Operand::rud(6),
        Operand::scalar(3, 0, iwc_isa::DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(6), Operand::imm_ud(7));
    let p = b.finish().unwrap();
    let mut img = MemoryImage::new(1 << 16);
    let out = img.alloc(64 * 4);
    let launch = Launch::new(p, 37, 32).with_args(&[out]);
    let _ = simulate(&GpuConfig::paper_default(), &launch, &mut img).unwrap();
    for gid in 0..64u32 {
        let want = if gid < 37 { 7 } else { 0 };
        assert_eq!(img.read_u32(out + 4 * gid), want, "gid {gid}");
    }
}

#[test]
fn workgroup_too_large_is_rejected() {
    let p = coherent_kernel();
    let mut img = MemoryImage::new(1 << 16);
    let launch = Launch::new(p, 1024, 1024); // 64 threads per wg > 6
    let err = simulate(&GpuConfig::paper_default(), &launch, &mut img).unwrap_err();
    assert!(matches!(
        err,
        iwc_sim::SimulateError::WorkgroupTooLarge { .. }
    ));
}

#[test]
fn more_eus_run_faster() {
    let mut t = Vec::new();
    for eus in [1u32, 6] {
        let mut cfg = GpuConfig::paper_default();
        cfg.eus = eus;
        let mut img = MemoryImage::new(1 << 22);
        let out = img.alloc(4096 * 4);
        let launch = Launch::new(divergent_kernel(16), 4096, 64).with_args(&[out]);
        let r = simulate(&cfg, &launch, &mut img).unwrap();
        t.push(r.cycles);
    }
    assert!(t[1] < t[0], "6 EUs ({}) should beat 1 EU ({})", t[1], t[0]);
}
