//! Divergence micro-benchmarks (§5.2: Fig. 8 and Table 2).
//!
//! [`mask_pattern`] builds the balanced if/else micro-benchmark whose taken
//! mask is an arbitrary 16-bit pattern over `lane = gid & 15` — the Fig. 8
//! experiment (patterns FFFF, F0F0, 00FF, FF0F, AAAA).
//!
//! [`nested_branches`] builds the L1–L4 nested-branch micro-benchmark of
//! Table 2: level *k* branches on bit *k−1* of the lane id, so the leaf
//! paths execute with masks 5555/AAAA (L1), 1111/4444/8888/2222 (L2), the
//! eight two-bit masks (L3), and the sixteen one-bit masks (L4).

use crate::util::{emit_addr, gid, RegAlloc};
use crate::Built;
use iwc_isa::builder::KernelBuilder;
use iwc_isa::insn::CondOp;
use iwc_isa::reg::{FlagReg, Operand, Predicate};
use iwc_isa::MemSpace;
use iwc_sim::{Launch, MemoryImage};

fn f0() -> Predicate {
    Predicate::normal(FlagReg::F0)
}

/// Number of FP operations in each branch body.
pub const BODY_OPS: u32 = 32;

/// Loop trips of the measurement loop.
pub const TRIPS: u32 = 16;

fn emit_body(b: &mut KernelBuilder, acc: Operand, ops: u32) {
    for _ in 0..ops {
        b.mad(acc, acc, Operand::imm_f(1.0001), Operand::imm_f(0.5));
    }
}

/// The Fig. 8 micro-benchmark: a loop around a balanced if/else whose taken
/// channels are exactly `pattern` (over `lane = gid & 15`).
///
/// Args: 0 = out buffer.
pub fn mask_pattern(pattern: u16, scale: u32) -> Built {
    mask_pattern_width(pattern, 16, scale)
}

/// [`mask_pattern`] at an explicit SIMD width (8, 16 or 32); the pattern is
/// taken over `lane = gid mod width` using its low `width` bits.
pub fn mask_pattern_width(pattern: u16, simd: u32, scale: u32) -> Built {
    assert!(
        matches!(simd, 8 | 16 | 32),
        "SIMD width must be 8, 16 or 32"
    );
    let n = 256 * scale.max(1);
    let mut b = KernelBuilder::new(format!("maskpat-{pattern:04x}-s{simd}"), simd);
    let mut ra = RegAlloc::new(simd);
    let (lane, bit, trip, p) = (ra.vud(), ra.vud(), ra.vud(), ra.vud());
    let acc = ra.vf();
    // bit = (pattern >> lane) & 1
    b.and(lane, gid(), Operand::imm_ud(simd.min(16) - 1));
    b.shr(bit, Operand::imm_ud(u32::from(pattern)), lane);
    b.and(bit, bit, Operand::imm_ud(1));
    b.mov(acc, Operand::imm_f(1.0));
    b.mov(trip, Operand::imm_ud(0));
    b.do_();
    {
        b.cmp(CondOp::Ne, FlagReg::F0, bit, Operand::imm_ud(0));
        b.if_(f0());
        emit_body(&mut b, acc, BODY_OPS);
        b.else_();
        emit_body(&mut b, acc, BODY_OPS);
        b.end_if();
        b.add(trip, trip, Operand::imm_ud(1));
        b.cmp(CondOp::Lt, FlagReg::F0, trip, Operand::imm_ud(TRIPS));
    }
    b.while_(f0());
    emit_addr(&mut b, p, gid(), 0, 4);
    b.store(MemSpace::Global, p, acc);
    let program = b.finish().expect("valid kernel");

    let mut img = MemoryImage::new(8 * n + (1 << 16));
    let out = img.alloc(4 * n);
    let launch = Launch::new(program, n, simd * 4).with_args(&[out]);
    Built {
        name: format!("maskpat-{pattern:04X}-s{simd}"),
        launch,
        img,
        check: Some(Box::new(move |img| {
            // Both branch bodies are identical, so every lane computes the
            // same value; verify against a host replay (f32-narrowed mad
            // chain like the kernel's).
            let mut want = 1f32;
            for _ in 0..TRIPS * BODY_OPS {
                want = want * 1.0001 + 0.5;
            }
            for g in 0..n {
                let got = img.read_f32(out + 4 * g);
                if (got - want).abs() > 1e-3 * want.abs() {
                    return Err(format!("acc[{g}] = {got}, want {want}"));
                }
            }
            Ok(())
        })),
    }
}

/// The Fig. 8 pattern sweep, in presentation order.
pub const FIG8_PATTERNS: [u16; 5] = [0xFFFF, 0xF0F0, 0x00FF, 0xFF0F, 0xAAAA];

/// A dual-pipe divergence micro-benchmark: the branch bodies interleave
/// *independent* FPU (mad) and EM (inv) chains across four accumulators, so
/// a compressed instruction stream can demand more than one issue slot per
/// cycle — the §4.3 front-end-bandwidth stressor used by the
/// `ablation_frontend` harness.
///
/// Args: 0 = out buffer.
pub fn pipe_mix(pattern: u16, simd: u32, scale: u32) -> Built {
    assert!(
        matches!(simd, 8 | 16 | 32),
        "SIMD width must be 8, 16 or 32"
    );
    let n = 256 * scale.max(1);
    let mut b = KernelBuilder::new(format!("pipemix-{pattern:04x}-s{simd}"), simd);
    let mut ra = RegAlloc::new(simd);
    let (lane, bit, trip, p) = (ra.vud(), ra.vud(), ra.vud(), ra.vud());
    let accs: Vec<Operand> = (0..4).map(|_| ra.vf()).collect();
    b.and(lane, gid(), Operand::imm_ud(simd.min(16) - 1));
    b.shr(bit, Operand::imm_ud(u32::from(pattern)), lane);
    b.and(bit, bit, Operand::imm_ud(1));
    for &a in &accs {
        b.mov(a, Operand::imm_f(2.0));
    }
    b.mov(trip, Operand::imm_ud(0));
    let body = |b: &mut KernelBuilder| {
        for k in 0..16usize {
            let a = accs[k % 4];
            if k % 2 == 0 {
                b.mad(a, a, Operand::imm_f(0.999), Operand::imm_f(0.01));
            } else {
                // Self-inverse-ish EM op keeps values bounded.
                b.math(iwc_isa::Opcode::Rsqrt, a, a);
                b.mad(a, a, Operand::imm_f(0.5), Operand::imm_f(0.75));
            }
        }
    };
    b.do_();
    {
        b.cmp(CondOp::Ne, FlagReg::F0, bit, Operand::imm_ud(0));
        b.if_(f0());
        body(&mut b);
        b.else_();
        body(&mut b);
        b.end_if();
        b.add(trip, trip, Operand::imm_ud(1));
        b.cmp(CondOp::Lt, FlagReg::F0, trip, Operand::imm_ud(TRIPS));
    }
    b.while_(f0());
    b.add(accs[0], accs[0], accs[1]);
    b.add(accs[2], accs[2], accs[3]);
    b.add(accs[0], accs[0], accs[2]);
    emit_addr(&mut b, p, gid(), 0, 4);
    b.store(MemSpace::Global, p, accs[0]);
    let program = b.finish().expect("valid kernel");

    let mut img = MemoryImage::new(8 * n + (1 << 16));
    let out = img.alloc(4 * n);
    let launch = Launch::new(program, n, simd * 4).with_args(&[out]);
    Built {
        name: format!("pipemix-{pattern:04X}-s{simd}"),
        launch,
        img,
        check: Some(Box::new(move |img| {
            // Mirror the f32-narrowed computation.
            let mut accs = [2.0f32; 4];
            for _ in 0..TRIPS {
                for k in 0..16usize {
                    let a = &mut accs[k % 4];
                    if k % 2 == 0 {
                        *a = *a * 0.999 + 0.01;
                    } else {
                        *a = (1.0 / a.sqrt()) * 0.5 + 0.75;
                    }
                }
            }
            let want = accs[0] + accs[1] + accs[2] + accs[3];
            for g in 0..n {
                let got = img.read_f32(out + 4 * g);
                if (got - want).abs() > 1e-3 * want.abs() {
                    return Err(format!("acc[{g}] = {got}, want {want}"));
                }
            }
            Ok(())
        })),
    }
}

/// The Table 2 nested-branch micro-benchmark at nesting level `levels`
/// (1–4): a binary tree of if/else on lane-id bits with a body at each leaf.
///
/// Args: 0 = out buffer.
pub fn nested_branches(levels: u32, scale: u32) -> Built {
    assert!((1..=4).contains(&levels), "nesting level must be 1-4");
    let n = 256 * scale.max(1);
    let mut b = KernelBuilder::new(format!("nested-l{levels}"), 16);
    let mut ra = RegAlloc::new(16);
    let (lane, bit, trip, p) = (ra.vud(), ra.vud(), ra.vud(), ra.vud());
    let acc = ra.vf();
    b.and(lane, gid(), Operand::imm_ud(15));
    b.mov(acc, Operand::imm_f(1.0));
    b.mov(trip, Operand::imm_ud(0));

    // Recursive emission of the branch tree.
    fn tree(
        b: &mut KernelBuilder,
        lane: Operand,
        bit: Operand,
        acc: Operand,
        level: u32,
        levels: u32,
    ) {
        if level == levels {
            emit_body(b, acc, BODY_OPS / (1 << (levels - 1)).max(1));
            return;
        }
        b.and(bit, lane, Operand::imm_ud(1 << level));
        b.cmp(CondOp::Eq, FlagReg::F0, bit, Operand::imm_ud(0));
        b.if_(f0());
        tree(b, lane, bit, acc, level + 1, levels);
        b.else_();
        tree(b, lane, bit, acc, level + 1, levels);
        b.end_if();
    }

    b.do_();
    {
        tree(&mut b, lane, bit, acc, 0, levels);
        b.add(trip, trip, Operand::imm_ud(1));
        b.cmp(CondOp::Lt, FlagReg::F0, trip, Operand::imm_ud(TRIPS));
    }
    b.while_(f0());
    emit_addr(&mut b, p, gid(), 0, 4);
    b.store(MemSpace::Global, p, acc);
    let program = b.finish().expect("valid kernel");

    let mut img = MemoryImage::new(8 * n + (1 << 16));
    let out = img.alloc(4 * n);
    let launch = Launch::new(program, n, 64).with_args(&[out]);
    Built {
        name: format!("nested-L{levels}"),
        launch,
        img,
        check: Some(Box::new(move |img| {
            let body = BODY_OPS / (1u32 << (levels - 1)).max(1);
            let mut want = 1f32;
            for _ in 0..TRIPS * body {
                want = want * 1.0001 + 0.5;
            }
            for g in 0..n {
                let got = img.read_f32(out + 4 * g);
                if (got - want).abs() > 1e-3 * want.abs() {
                    return Err(format!("acc[{g}] = {got}, want {want}"));
                }
            }
            Ok(())
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_compaction::EngineId;
    use iwc_sim::GpuConfig;

    #[test]
    fn maskpat_full_mask_is_coherent() {
        let b = mask_pattern(0xFFFF, 1);
        let r = b
            .run_checked(&GpuConfig::paper_default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(r.simd_efficiency() > 0.95);
    }

    #[test]
    fn maskpat_aaaa_divergence() {
        let b = mask_pattern(0xAAAA, 1);
        let r = b
            .run_checked(&GpuConfig::paper_default())
            .unwrap_or_else(|e| panic!("{e}"));
        // Both sides of the branch run at half occupancy.
        assert!(r.simd_efficiency() < 0.7, "eff {:.3}", r.simd_efficiency());
        // SCC halves the branch-body cycles; BCC can't touch 0xAAAA/0x5555.
        let t = r.compute_tally();
        assert!(t.reduction_vs_ivb(EngineId::SCC) > 0.3);
        assert!(t.reduction_vs_ivb(EngineId::BCC) < 0.05);
    }

    #[test]
    fn fig8_pattern_relative_times_match_paper() {
        // Fig. 8 under the Ivy Bridge optimization: FFFF=1.0, F0F0=2.0,
        // 00FF=1.0, FF0F=1.5, AAAA=2.0 (relative if/else body cycles).
        let cfg = GpuConfig::single_eu(); // IVB mode is the default
        let cycles: Vec<f64> = FIG8_PATTERNS
            .iter()
            .map(|&pat| {
                let b = mask_pattern(pat, 1);
                b.run_checked(&cfg).unwrap_or_else(|e| panic!("{e}")).cycles as f64
            })
            .collect();
        let rel: Vec<f64> = cycles.iter().map(|&c| c / cycles[0]).collect();
        let want = [1.0, 2.0, 1.0, 1.5, 2.0];
        for ((&got, &want), pat) in rel.iter().zip(&want).zip(&FIG8_PATTERNS) {
            assert!(
                (got - want).abs() < 0.25,
                "pattern {pat:04X}: relative time {got:.2}, paper {want}"
            );
        }
    }

    #[test]
    fn nested_levels_valid() {
        for l in 1..=4 {
            let b = nested_branches(l, 1);
            let r = b
                .run_checked(&GpuConfig::paper_default())
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(r.cycles > 0, "L{l}");
        }
    }

    #[test]
    #[should_panic(expected = "nesting level must be 1-4")]
    fn nested_rejects_level_5() {
        let _ = nested_branches(5, 1);
    }
}
