//! Architectural thread state and the test-only reference interpreter.
//!
//! The functional layer is decoupled from timing: when the issue logic
//! decides an instruction issues, its decoded plan
//! ([`crate::plan`]) applies the full architectural effect at once
//! (register/flag/memory updates, SIMT stack transitions, PC update) and
//! reports what the timing layer needs: the resource the instruction
//! occupies. [`ThreadCtx`] is the state it works on.
//!
//! Under `cfg(test)` this module also holds the original
//! straight-from-the-ISA interpreter (`reference`) and a lockstep oracle
//! (`oracle`) that steps every plan against it, instruction by
//! instruction, over the workload catalog and directed kernels.

#[cfg(test)]
mod oracle;
#[cfg(test)]
pub(crate) mod reference;

use crate::regfile::RegFile;
use crate::simt::SimtStack;
use iwc_isa::mask::ExecMask;
use iwc_isa::reg::Predicate;

/// Architectural thread context (functional state only).
#[derive(Debug)]
pub struct ThreadCtx {
    /// Program counter (instruction index).
    pub pc: usize,
    /// Register file.
    pub regs: RegFile,
    /// SIMT reconvergence stack.
    pub simt: SimtStack,
}

impl ThreadCtx {
    /// Creates a context with the given dispatch mask, PC 0 and zeroed
    /// registers.
    pub fn new(dispatch_mask: ExecMask) -> Self {
        Self {
            pc: 0,
            regs: RegFile::new(),
            simt: SimtStack::new(dispatch_mask),
        }
    }
}

pub(crate) fn pred_bits(ctx: &ThreadCtx, pred: Predicate) -> ExecMask {
    let flag = ctx.regs.flag(pred.flag);
    ctx.simt.pred_mask(pred, flag)
}

#[cfg(test)]
mod tests {
    use super::oracle::lockstep;
    use super::reference::{Effect, Executed};
    use super::*;
    use crate::gpu::Launch;
    use crate::memimg::MemoryImage;
    use iwc_isa::builder::KernelBuilder;
    use iwc_isa::insn::{CondOp, MemSpace};
    use iwc_isa::program::Program;
    use iwc_isa::reg::{FlagReg, Operand};
    use iwc_isa::Scalar;

    /// Runs `p` as one SIMD16 thread (`r1` holds the lane's global id) from
    /// `mem` through the lockstep oracle, with `seed` applied to its
    /// registers after dispatch. Returns the final thread, the global image
    /// and the reference interpreter's effects.
    fn run(
        p: Program,
        mem: &MemoryImage,
        seed: impl Fn(&mut ThreadCtx),
    ) -> (ThreadCtx, MemoryImage, Vec<Executed>) {
        let launch = Launch::new(p, 16, 16).with_slm(1 << 12);
        let mut log = Vec::new();
        let mut out = lockstep(&launch, mem, seed, |e| log.push(e.clone()));
        let ctx = out.threads.pop().expect("one thread");
        (ctx, out.mem, log)
    }

    fn fresh() -> MemoryImage {
        MemoryImage::new(1 << 16)
    }

    #[test]
    fn straight_line_math() {
        let mut b = KernelBuilder::new("k", 16);
        b.mov(Operand::rf(4), Operand::imm_f(3.0));
        b.mad(
            Operand::rf(6),
            Operand::rf(4),
            Operand::rf(4),
            Operand::imm_f(1.0),
        );
        let (ctx, ..) = run(b.finish().unwrap(), &fresh(), |_| {});
        for lane in 0..16 {
            assert_eq!(ctx.regs.read_lane(&Operand::rf(6), lane), Scalar::F(10.0));
        }
    }

    #[test]
    fn divergent_if_else_writes_both_sides() {
        // Channels with gid < 8 get 1.0, others 2.0; gid in r1 as UD.
        let mut b = KernelBuilder::new("k", 16);
        b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(1), Operand::imm_ud(8));
        b.if_(Predicate::normal(FlagReg::F0));
        b.mov(Operand::rf(6), Operand::imm_f(1.0));
        b.else_();
        b.mov(Operand::rf(6), Operand::imm_f(2.0));
        b.end_if();
        let (ctx, ..) = run(b.finish().unwrap(), &fresh(), |_| {});
        for lane in 0..16 {
            let want = if lane < 8 { 1.0 } else { 2.0 };
            assert_eq!(
                ctx.regs.read_lane(&Operand::rf(6), lane),
                Scalar::F(want),
                "lane {lane}"
            );
        }
        assert!(ctx.simt.exec().is_full(), "reconverged");
    }

    #[test]
    fn loop_with_divergent_trip_counts() {
        // r4 = lane id; loop: r6 += 1; r4 -= 1; while (r4 > 0).
        // (SIMD16 32-bit operands span register pairs, so consecutive
        // operands must be two registers apart.)
        let mut b = KernelBuilder::new("k", 16);
        b.do_();
        b.add(Operand::rd(6), Operand::rd(6), Operand::imm_d(1));
        b.add(Operand::rd(4), Operand::rd(4), Operand::imm_d(-1));
        b.cmp(CondOp::Gt, FlagReg::F0, Operand::rd(4), Operand::imm_d(0));
        b.while_(Predicate::normal(FlagReg::F0));
        let (ctx, ..) = run(b.finish().unwrap(), &fresh(), |ctx| {
            for lane in 0..16 {
                ctx.regs
                    .write_lane(&Operand::rd(4), lane, Scalar::I(i64::from(lane) + 1));
            }
        });
        for lane in 0..16 {
            assert_eq!(
                ctx.regs.read_lane(&Operand::rd(6), lane),
                Scalar::I(i64::from(lane) + 1),
                "lane {lane} trip count"
            );
        }
    }

    #[test]
    fn gather_load_and_scatter_store() {
        let mut b = KernelBuilder::new("k", 16);
        // addr = 1024 + 4*lane(reversed): load, then store doubled to 2048+4*lane.
        b.load(MemSpace::Global, Operand::rf(6), Operand::rud(4));
        b.mul(Operand::rf(6), Operand::rf(6), Operand::imm_f(2.0));
        b.store(MemSpace::Global, Operand::rud(8), Operand::rf(6));
        let mut mem = fresh();
        for lane in 0..16u32 {
            mem.write_f32(1024 + 4 * lane, lane as f32);
        }
        let (_, mem, log) = run(b.finish().unwrap(), &mem, |ctx| {
            for lane in 0..16u32 {
                ctx.regs.write_lane(
                    &Operand::rud(4),
                    lane,
                    Scalar::U(u64::from(1024 + 4 * (15 - lane))),
                );
                ctx.regs.write_lane(
                    &Operand::rud(8),
                    lane,
                    Scalar::U(u64::from(2048 + 4 * lane)),
                );
            }
        });
        for lane in 0..16u32 {
            assert_eq!(
                mem.read_f32(2048 + 4 * lane),
                2.0 * (15 - lane) as f32,
                "lane {lane}"
            );
        }
        // The load reported 16 lane addresses.
        match &log[0].effect {
            Effect::Memory {
                is_store: false,
                lane_addrs,
                ..
            } => {
                assert_eq!(lane_addrs.len(), 16)
            }
            other => panic!("expected load effect, got {other:?}"),
        }
    }

    #[test]
    fn predicated_store_only_touches_enabled_lanes() {
        let mut b = KernelBuilder::new("k", 16);
        b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(1), Operand::imm_ud(4));
        b.pred(Predicate::normal(FlagReg::F0));
        b.store(MemSpace::Global, Operand::rud(4), Operand::rf(6));
        let (_, mem, _) = run(b.finish().unwrap(), &fresh(), |ctx| {
            for lane in 0..16u32 {
                ctx.regs
                    .write_lane(&Operand::rud(4), lane, Scalar::U(u64::from(512 + 4 * lane)));
                ctx.regs.write_lane(&Operand::rf(6), lane, Scalar::F(7.0));
            }
        });
        for lane in 0..16u32 {
            let want = if lane < 4 { 7.0 } else { 0.0 };
            assert_eq!(mem.read_f32(512 + 4 * lane), want, "lane {lane}");
        }
    }

    #[test]
    fn slm_roundtrip() {
        let mut b = KernelBuilder::new("k", 16);
        b.store(MemSpace::Slm, Operand::rud(4), Operand::rf(6));
        b.load(MemSpace::Slm, Operand::rf(8), Operand::rud(4));
        let (ctx, ..) = run(b.finish().unwrap(), &fresh(), |ctx| {
            for lane in 0..16u32 {
                ctx.regs
                    .write_lane(&Operand::rud(4), lane, Scalar::U(u64::from(4 * lane)));
                ctx.regs
                    .write_lane(&Operand::rf(6), lane, Scalar::F(f64::from(lane) * 1.5));
            }
        });
        for lane in 0..16 {
            assert_eq!(
                ctx.regs.read_lane(&Operand::rf(8), lane),
                Scalar::F(f64::from(lane) * 1.5)
            );
        }
    }

    #[test]
    fn sel_selects_per_lane() {
        let mut b = KernelBuilder::new("k", 16);
        b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(1), Operand::imm_ud(8));
        b.sel(
            FlagReg::F0,
            Operand::rf(6),
            Operand::imm_f(1.0),
            Operand::imm_f(-1.0),
        );
        let (ctx, ..) = run(b.finish().unwrap(), &fresh(), |_| {});
        for lane in 0..16 {
            let want = if lane < 8 { 1.0 } else { -1.0 };
            assert_eq!(
                ctx.regs.read_lane(&Operand::rf(6), lane),
                Scalar::F(want),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn zero_mask_region_is_skipped() {
        let mut b = KernelBuilder::new("k", 16);
        b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(1), Operand::imm_ud(0)); // never true
        b.pred(Predicate::normal(FlagReg::F0));
        b.mov(Operand::rf(8), Operand::imm_f(99.0));
        b.if_(Predicate::normal(FlagReg::F0));
        b.mov(Operand::rf(6), Operand::imm_f(99.0));
        b.end_if();
        let (ctx, _, log) = run(b.finish().unwrap(), &fresh(), |_| {});
        assert_eq!(
            ctx.regs.read_lane(&Operand::rf(6), 0),
            Scalar::F(0.0),
            "if side skipped"
        );
        // The predicated mov is skipped in place; the if jumped straight to
        // endif, so the mov inside never appears in the log.
        assert_eq!(log[1].effect, Effect::SkippedZeroMask, "predicated mov");
        assert_eq!(log.len(), 5, "cmp, skipped mov, if(jump), endif, eot");
    }
}
