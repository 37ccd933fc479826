//! Lockstep oracle: the decoded plans against the reference interpreter.
//!
//! [`lockstep`] dispatches a launch's threads exactly as the simulator does
//! and steps every one on twin states, one instruction at a time: the
//! reference interpreter on one side, the production plan path (the issue
//! stage's zero-mask skip, then [`execute_plan`]) on the other. Threads are
//! stepped round-robin within a workgroup and park at barriers until the
//! whole workgroup arrives. After every step the two sides must agree on
//! the next pc, the execution mask, the effect kind and every send lane
//! address; when a thread ends, on every GRF byte and both flags; when a
//! workgroup ends, on its SLM; and when the kernel ends, on global memory.
//!
//! Timing never enters here. The issue stage reads only a plan's static
//! timing facts, which [`timing_facts_match_instructions`] checks against
//! the ones derived from each [`Instruction`](iwc_isa::Instruction); the cycle-level behaviour
//! itself is pinned by the frozen `tests/catalog_golden.rs`.
//!
//! Catalog kernels arrive through the `iwc-workloads` dev-dependency, which
//! links the non-test build of this crate: only the [`iwc_isa::Program`]
//! crosses over as is, so each launch and memory image is rebuilt from its
//! public fields.

use super::reference::{execute_instruction, Effect, Executed};
use super::ThreadCtx;
use crate::gpu::{make_thread, Launch};
use crate::memimg::MemoryImage;
use crate::plan::{execute_plan, DecodedProgram, LaneScratch, PlanEffect};
use iwc_isa::builder::KernelBuilder;
use iwc_isa::insn::{CondOp, MemSpace, Opcode};
use iwc_isa::program::Program;
use iwc_isa::reg::{FlagReg, Operand, Predicate, GRF_BYTES, GRF_TOTAL_BYTES};
use iwc_isa::types::{DataType, Scalar};

/// Instruction steps one workgroup may take before it counts as hung.
const STEP_LIMIT: u64 = 50_000_000;

/// The state a lockstep run leaves behind, from the reference side (the
/// plan side was checked equal to it).
pub(crate) struct Outcome {
    /// Every thread's final context, in dispatch order.
    pub threads: Vec<ThreadCtx>,
    /// The global image.
    pub mem: MemoryImage,
}

/// One dispatched thread on both interpreters.
struct Twin {
    reference: ThreadCtx,
    plan: ThreadCtx,
    parked: bool,
    done: bool,
}

/// One side's memory: the global image and the current workgroup's SLM.
struct Side {
    mem: MemoryImage,
    slm: MemoryImage,
}

/// Runs `launch` from `img` on both interpreters in lockstep, panicking at
/// the first disagreement. `seed` edits every thread's registers after
/// dispatch (directed kernels preload operands this way); `on_step` sees
/// each reference step's effect, in step order.
pub(crate) fn lockstep(
    launch: &Launch,
    img: &MemoryImage,
    seed: impl Fn(&mut ThreadCtx),
    mut on_step: impl FnMut(&Executed),
) -> Outcome {
    let program = &launch.program;
    let plans = DecodedProgram::decode(program);
    let simd = program.simd_width();
    let mut scratch = LaneScratch::new();
    let slm = MemoryImage::new(launch.slm_bytes.max(64));
    let side = || Side {
        mem: img.clone(),
        slm: slm.clone(),
    };
    let (mut r, mut d) = (side(), side());
    let mut out = Outcome {
        threads: Vec::new(),
        mem: MemoryImage::new(0),
    };
    for wg in 0..launch.num_wgs() as usize {
        r.slm.clone_from(&slm);
        d.slm.clone_from(&slm);
        let mut twins: Vec<Twin> = (0..launch.threads_per_wg())
            .map(|wt| {
                let ctx = || {
                    let mut ctx = make_thread(launch, simd, wg, wt, 0).ctx;
                    seed(&mut ctx);
                    ctx
                };
                Twin {
                    reference: ctx(),
                    plan: ctx(),
                    parked: false,
                    done: false,
                }
            })
            .collect();
        let mut steps = 0u64;
        while twins.iter().any(|t| !t.done) {
            // The barrier releases once every live thread has arrived.
            if twins.iter().all(|t| t.done || t.parked) {
                twins.iter_mut().for_each(|t| t.parked = false);
            }
            for (wt, t) in twins.iter_mut().enumerate() {
                if t.done || t.parked {
                    continue;
                }
                let at = || format!("{} wg {wg} thread {wt}", program.name());
                let e = step(t, program, &plans, &mut r, &mut d, &mut scratch, &at);
                on_step(&e);
                match e.effect {
                    Effect::Barrier => t.parked = true,
                    Effect::Eot => {
                        t.done = true;
                        assert_same_thread(&t.reference, &t.plan, &at());
                    }
                    _ => {}
                }
                steps += 1;
                assert!(steps < STEP_LIMIT, "{}: did not terminate", at());
            }
        }
        assert_same_image(&r.slm, &d.slm, &format!("{} wg {wg} SLM", program.name()));
        out.threads.extend(twins.into_iter().map(|t| t.reference));
    }
    assert_same_image(&r.mem, &d.mem, &format!("{} global", program.name()));
    out.mem = r.mem;
    out
}

/// Steps one twin by one instruction on each side and checks the two steps
/// agree.
fn step(
    t: &mut Twin,
    program: &Program,
    plans: &DecodedProgram,
    r: &mut Side,
    d: &mut Side,
    scratch: &mut LaneScratch,
    at: &dyn Fn() -> String,
) -> Executed {
    let pc = t.reference.pc;
    assert_eq!(pc, t.plan.pc, "{}: pc", at());
    let e = execute_instruction(&mut t.reference, program, &mut r.mem, &mut r.slm);
    let plan = plans.plan(pc);
    let mask = plan.exec_mask(&t.plan);
    assert_eq!(mask, e.mask, "{} pc {pc}: execution mask", at());
    if plan.is_skipped(&t.plan) {
        t.plan.pc += 1;
        assert_eq!(e.effect, Effect::SkippedZeroMask, "{} pc {pc}: skip", at());
    } else {
        let got = execute_plan(&mut t.plan, plan, mask, &mut d.mem, &mut d.slm, scratch);
        assert_eq!(Some(got), kind(&e.effect), "{} pc {pc}: effect", at());
        if let Effect::Memory { lane_addrs, .. } = &e.effect {
            assert_eq!(
                lane_addrs.as_slice(),
                scratch.addrs(),
                "{} pc {pc}: lane addresses",
                at()
            );
        }
    }
    assert_eq!(t.reference.pc, t.plan.pc, "{} pc {pc}: next pc", at());
    e
}

/// The plan-path effect matching a reference effect (`None` for a skip,
/// which the plan path takes before execution).
fn kind(e: &Effect) -> Option<PlanEffect> {
    Some(match *e {
        Effect::Compute { pipe } => PlanEffect::Compute(pipe),
        Effect::Memory {
            space, is_store, ..
        } => PlanEffect::Memory { space, is_store },
        Effect::Fence => PlanEffect::Fence,
        Effect::Barrier => PlanEffect::Barrier,
        Effect::Eot => PlanEffect::Eot,
        Effect::ControlFlow => PlanEffect::ControlFlow,
        Effect::SkippedZeroMask => return None,
    })
}

fn assert_same_thread(a: &ThreadCtx, b: &ThreadCtx, at: &str) {
    for off in (0..GRF_TOTAL_BYTES).step_by(4) {
        assert_eq!(
            a.regs.load_u32(off),
            b.regs.load_u32(off),
            "{at}: r{} dword {} at eot",
            off / GRF_BYTES,
            off % GRF_BYTES / 4
        );
    }
    for f in [FlagReg::F0, FlagReg::F1] {
        assert_eq!(a.regs.flag(f), b.regs.flag(f), "{at}: {f:?} at eot");
    }
}

fn assert_same_image(a: &MemoryImage, b: &MemoryImage, what: &str) {
    assert_eq!(a.capacity(), b.capacity(), "{what}: capacity");
    let words = a.capacity() / 4 * 4;
    for addr in (0..words).step_by(4) {
        assert_eq!(a.read_u32(addr), b.read_u32(addr), "{what}: byte {addr:#x}");
    }
    for addr in words..a.capacity() {
        assert_eq!(
            a.read_scalar(addr, DataType::Ub),
            b.read_scalar(addr, DataType::Ub),
            "{what}: byte {addr:#x}"
        );
    }
}

/// A catalog workload's launch and image as this crate's types.
fn from_catalog(built: &iwc_workloads::Built) -> (Launch, MemoryImage) {
    let l = &built.launch;
    let launch = Launch::new(l.program.clone(), l.global_size, l.wg_size)
        .with_args(&l.args)
        .with_slm(l.slm_bytes);
    let cap = built.img.capacity();
    let mut img = MemoryImage::new(cap);
    let words = cap / 4 * 4;
    for addr in (0..words).step_by(4) {
        img.write_u32(addr, built.img.read_u32(addr));
    }
    for addr in words..cap {
        let b = built.img.read_scalar(addr, DataType::Ub);
        img.write_scalar(addr, DataType::Ub, b);
    }
    (launch, img)
}

fn catalog_lockstep(pick: impl Fn(&str) -> bool) -> usize {
    let mut n = 0;
    for entry in iwc_workloads::catalog()
        .into_iter()
        .filter(|e| pick(e.name))
    {
        let (launch, img) = from_catalog(&(entry.build)(1));
        lockstep(&launch, &img, |_| {}, |_| {});
        n += 1;
    }
    n
}

/// Coherent, branch-divergent and memory-divergent workloads.
#[test]
fn catalog_slice_agrees() {
    let n = catalog_lockstep(|name| ["VA", "Bsearch", "BFS"].contains(&name));
    assert_eq!(n, 3);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "every catalog kernel through both interpreters; run with cargo test --release"
)]
fn whole_catalog_agrees() {
    assert_eq!(catalog_lockstep(|_| true), iwc_workloads::catalog().len());
}

/// One thread of `p` from a 64 KiB image, `seed` applied after dispatch.
fn one_thread(p: Program, seed: impl Fn(&mut ThreadCtx)) {
    let w = p.simd_width();
    lockstep(
        &Launch::new(p, w, w),
        &MemoryImage::new(1 << 16),
        seed,
        |_| {},
    );
}

#[test]
fn fast_paths_match_reference_float() {
    let mut b = KernelBuilder::new("k", 16);
    b.mov(Operand::rf(4), Operand::imm_f(1.5));
    b.mad(
        Operand::rf(6),
        Operand::rf(4),
        Operand::rf(4),
        Operand::imm_f(0.25),
    );
    b.mul(
        Operand::rf(8),
        Operand::rf(6),
        Operand::scalar(4, 3, DataType::F),
    );
    one_thread(b.finish().unwrap(), |_| {});
}

#[test]
fn fast_paths_match_reference_int_and_divergence() {
    let mut b = KernelBuilder::new("k", 16);
    b.cmp(CondOp::Lt, FlagReg::F0, Operand::rud(1), Operand::imm_ud(9));
    b.if_(Predicate::normal(FlagReg::F0));
    b.add(Operand::rd(4), Operand::rd(4), Operand::imm_d(-3));
    b.else_();
    b.mul(Operand::rud(6), Operand::rud(1), Operand::imm_ud(7));
    b.end_if();
    one_thread(b.finish().unwrap(), |ctx| {
        for lane in 0..16 {
            ctx.regs
                .write_lane(&Operand::rd(4), lane, Scalar::I(i64::from(lane) * 5 - 17));
        }
    });
}

#[test]
fn generic_fallback_dtype_matches_reference() {
    // W (16-bit signed) has no fast path: exercises the generic lane
    // loop including sign-extension on read and narrowing on write.
    let w = |reg| Operand::reg(reg, DataType::W);
    let mut b = KernelBuilder::new("k", 16);
    b.op(Opcode::Add, w(4), &[w(4), w(6)]);
    one_thread(b.finish().unwrap(), |ctx| {
        for lane in 0..16 {
            ctx.regs
                .write_lane(&w(4), lane, Scalar::I(i64::from(lane) * 1000 - 30000));
            ctx.regs.write_lane(&w(6), lane, Scalar::I(-5000));
        }
    });
}

#[test]
fn aliasing_spans_match_reference() {
    // Sources overlapping the destination span from below and a
    // broadcast element inside it stay per-lane; a source above it
    // vectorizes. Under divergence, so the vectorized store's masked
    // blend is exercised.
    let mut b = KernelBuilder::new("k", 16);
    b.cmp(
        CondOp::Lt,
        FlagReg::F0,
        Operand::rud(1),
        Operand::imm_ud(11),
    );
    b.if_(Predicate::normal(FlagReg::F0));
    b.add(Operand::rf(4), Operand::rf(3), Operand::imm_f(1.0));
    b.mul(
        Operand::rf(8),
        Operand::rf(6),
        Operand::scalar(8, 1, DataType::F),
    );
    b.add(Operand::rf(10), Operand::rf(11), Operand::imm_f(0.5));
    b.end_if();
    one_thread(b.finish().unwrap(), |ctx| {
        for lane in 0..16 {
            for reg in [3u8, 4, 6, 8, 10, 11] {
                let v = f64::from(lane) * 0.75 + f64::from(reg);
                ctx.regs.write_lane(&Operand::rf(reg), lane, Scalar::F(v));
            }
        }
    });
}

#[test]
fn loads_and_stores_capture_addresses_in_scratch() {
    let mut b = KernelBuilder::new("k", 16);
    b.mad(
        Operand::rud(4),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::imm_ud(1024),
    );
    b.store(MemSpace::Global, Operand::rud(4), Operand::rud(1));
    b.load(MemSpace::Global, Operand::rud(6), Operand::rud(4));
    one_thread(b.finish().unwrap(), |_| {});
}

/// A directed kernel over `global` work-items in workgroups of `wg`,
/// with scalar arguments `args`.
fn directed(program: Program, global: u32, wg: u32, args: &[u32], img: &MemoryImage) {
    let launch = Launch::new(program, global, wg).with_args(args);
    lockstep(&launch, img, |_| {}, |_| {});
}

#[test]
fn directed_float_fast_path() {
    // mad/mul/min/frc/rsqrt on F data including negatives,
    // subnormal-ish magnitudes and a NaN-producing rsqrt(-x).
    let mut img = MemoryImage::new(1 << 16);
    let n = 64u32;
    let src: Vec<f32> = (0..n).map(|i| (i as f32 - 31.5) * 0.75e-3).collect();
    let a = img.alloc_f32(&src);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("directed_f", 16);
    let addr = Operand::rud(10);
    let x = Operand::rf(12);
    let y = Operand::rf(14);
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.load(MemSpace::Global, x, addr);
    b.mad(y, x, x, Operand::imm_f(0.125));
    b.mul(y, y, Operand::imm_f(-3.5));
    b.min(y, y, x);
    b.op(Opcode::Frc, Operand::rf(16), &[y]);
    b.math(Opcode::Rsqrt, Operand::rf(18), x);
    b.add(y, y, Operand::rf(18));
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 1, DataType::Ud),
    );
    b.store(MemSpace::Global, addr, y);
    directed(b.finish().unwrap(), n, 16, &[a, out], &img);
}

#[test]
fn directed_signed_fast_path() {
    // Signed D arithmetic with wrapping, shifts with oversized amounts,
    // and division by zero (defined as 0).
    let mut img = MemoryImage::new(1 << 16);
    let n = 64u32;
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("directed_d", 16);
    let x = Operand::rd(12);
    let y = Operand::rd(14);
    b.mov(x, Operand::rd(1));
    b.sub(x, x, Operand::imm_d(32));
    b.mul(y, x, Operand::imm_d(0x4000_0001));
    b.shl(y, y, Operand::imm_d(70)); // masked to 6 bits
    b.op(Opcode::Asr, y, &[y, Operand::imm_d(3)]);
    b.op(Opcode::Idiv, Operand::rd(16), &[y, x]); // hits x == 0
    b.add(y, y, Operand::rd(16));
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), y);
    directed(b.finish().unwrap(), n, 16, &[out], &img);
}

#[test]
fn directed_generic_fallback_uw() {
    // Uw (16-bit unsigned) has no specialized loop: the plan must route
    // it through the generic read_lane/eval/write_lane path with
    // identical narrowing.
    let mut img = MemoryImage::new(1 << 16);
    let n = 32u32;
    let out = img.alloc(n * 4);

    let w = |reg| Operand::reg(reg, DataType::Uw);
    let mut b = KernelBuilder::new("directed_uw", 8);
    b.op(Opcode::Mov, w(12), &[Operand::rud(1)]);
    b.op(Opcode::Mad, w(12), &[w(12), w(12), Operand::imm_ud(0xFFF7)]);
    b.op(Opcode::Mov, Operand::rud(14), &[w(12)]);
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), Operand::rud(14));
    directed(b.finish().unwrap(), n, 8, &[out], &img);
}

/// The static timing facts the issue stage reads from a plan, derived
/// straight from `insn` by the scoreboard's operand walk: the GRF
/// registers of every read operand then the destination, the predicate
/// and condition flags, the destination range, the GRF operand count, the
/// pipe, the data type and whether it ends the thread.
#[test]
fn timing_facts_match_instructions() {
    let reg_range = |op: &Operand, width| {
        op.grf_byte_range(width)
            .map(|(lo, hi)| ((lo / GRF_BYTES) as u8, ((hi - 1) / GRF_BYTES) as u8))
    };
    for entry in iwc_workloads::catalog() {
        let program = (entry.build)(1).launch.program;
        let plans = DecodedProgram::decode(&program);
        for (pc, insn) in program.insns().iter().enumerate() {
            let at = format!("{} pc {pc} ({insn})", entry.name);
            let plan = plans.plan(pc);
            let width = insn.exec_width;
            let dst = reg_range(&insn.dst, width);
            let reads: Vec<(u8, u8)> = insn
                .read_operands()
                .iter()
                .chain([&insn.dst])
                .filter_map(|op| reg_range(op, width))
                .collect();
            let pred = insn.pred.map(|p| p.flag.index());
            let cond = insn.cond_mod.map(|cm| cm.flag.index());
            let (plan_reads, plan_pred, plan_cond) = plan.scoreboard();
            assert_eq!(plan_reads, reads.as_slice(), "{at}: scoreboard reads");
            assert_eq!((plan_pred, plan_cond), (pred, cond), "{at}: flags");
            assert_eq!(plan.dst_range(), dst, "{at}: destination range");
            assert_eq!(plan.cond_flag(), cond, "{at}: condition flag");
            let grf_operands = insn
                .used_srcs()
                .iter()
                .chain([&insn.dst])
                .filter(|op| op.grf_reg().is_some())
                .count();
            assert_eq!(
                plan.n_grf_operands(),
                grf_operands as u64,
                "{at}: GRF operands"
            );
            assert_eq!(plan.pipe(), insn.op.pipe(), "{at}: pipe");
            assert_eq!(plan.dtype(), insn.dtype, "{at}: dtype");
            assert_eq!(plan.is_eot(), insn.op == Opcode::Eot, "{at}: eot");
        }
    }
}
