//! Decode-once execution plans: the simulator's functional interpreter.
//!
//! [`DecodedProgram`] lowers every static
//! [`Instruction`] of a validated
//! [`Program`] into a flat [`MicroPlan`] exactly once
//! per launch. A plan carries everything the per-issue hot path would
//! otherwise re-derive from the instruction:
//!
//! * a dense plan kind so issue dispatches on one enum discriminant
//!   instead of re-inspecting opcode + message + operand shapes;
//! * resolved GRF byte offsets and pre-converted immediates for the
//!   dtype-specialized lane loops (`F`/`D`/`Ud` run on raw register bytes
//!   with a pre-selected eval function pointer — no per-lane opcode match
//!   and no widened [`Scalar`] round-trip);
//! * the scoreboard plan: per-operand GRF register ranges and flag
//!   indices, precomputed so dependence checks never allocate the
//!   `read_operands()` vector;
//! * the predicate/flag plan and static classification (data vs control,
//!   pipe, EOT) used by zero-mask skipping and pipe arbitration.
//!
//! Operand shapes outside the specialized fast paths (mixed dtypes,
//! scalar destinations, sub-32-bit types, memory data movement) fall back
//! to the plain per-lane `read_lane`/`eval_alu`/`write_lane` sequence over
//! the widened [`Scalar`]. The test-only lockstep oracle (`exec::oracle`)
//! steps every plan against the straight-from-the-ISA reference
//! interpreter over the whole workload catalog and checks that the two
//! agree after every instruction.

use crate::exec::{pred_bits, ThreadCtx};
use crate::memimg::MemoryImage;
use iwc_isa::eval::{eval_alu, eval_cond};
use iwc_isa::insn::{CondMod, CondOp, Instruction, MemSpace, Opcode, Pipe, SendMessage};
use iwc_isa::mask::ExecMask;
use iwc_isa::program::Program;
use iwc_isa::reg::{FlagReg, Operand, Predicate, GRF_BYTES};
use iwc_isa::types::{DataType, Scalar};

type F3 = fn(f64, f64, f64) -> f64;
type I3 = fn(i64, i64, i64) -> i64;
type U3 = fn(u64, u64, u64) -> u64;

/// A whole-span ALU kernel: `(regs, srcs, dst_byte, mask_bits, width)`.
/// One monomorphized function evaluates every lane of the span with the
/// formula inlined — the per-lane loops inside are plain counted loops
/// over stack arrays, which the optimizer autovectorizes — and commits
/// results with a branchless masked blend so inactive lanes keep their
/// raw bits.
type SpanKern = fn(&mut crate::regfile::RegFile, &[Src32; 3], u32, u32, u32);

/// A whole-span `cmp` kernel: `(regs, srcs, dst_byte, mask_bits, width)`
/// → per-lane condition results as a bitmask over lanes `0..width`.
/// Writes the optional numeric destination itself (mask-blended) and
/// leaves the flag merge to the caller, which holds the flag id.
type CmpKern = fn(&mut crate::regfile::RegFile, &[Src32; 3], u32, u32, u32) -> u32;

/// A whole-span `sel` kernel: `(regs, srcs, dst_byte, mask_bits, width,
/// select_bits)`. Lane `i` takes `srcs[0]` when `select` bit `i` is set
/// and `srcs[1]` otherwise; the store is mask-blended like every span
/// kernel.
type SelKern = fn(&mut crate::regfile::RegFile, &[Src32; 3], u32, u32, u32, u32);

/// Destination sentinel for [`CmpKern`]: the `cmp` writes flags only.
const NO_DST: u32 = u32::MAX;

/// Widest possible span (SIMD32): fixed bound for the stack staging
/// arrays of the span kernels.
const MAX_LANES: usize = 32;

/// A source operand resolved at decode time for the 32-bit fast lane
/// loops. Immediates are pre-converted into the eval domain of the plan's
/// type class and stored as raw bits.
#[derive(Clone, Copy, Debug)]
enum Src32 {
    /// Per-lane vector: byte address = base + 4 × lane.
    Vec(u32),
    /// One GRF element broadcast to every lane (re-read per lane, because
    /// the destination may alias it).
    Broadcast(u32),
    /// Immediate, pre-converted at decode time.
    Imm(u64),
}

/// Decode-time view of a fast-path source before the immediate is
/// converted into a specific eval domain.
#[derive(Clone, Copy)]
enum RawSrc {
    Vec(u32),
    Broadcast(u32),
    Imm(Scalar),
}

/// The address operand of a send, resolved for raw-u32 reads when it is a
/// plain `Ud` vector register (the common case emitted by the kernel
/// builder).
#[derive(Clone, Copy, Debug)]
enum AddrPlan {
    /// `Ud` vector register: lane address = `load_u32(base + 4 × lane)`.
    VecUd(u32),
    /// Anything else: the reference `read_lane(..).as_u64() as u32` path.
    Generic(Operand),
}

impl AddrPlan {
    fn decode(op: &Operand) -> Self {
        match *op {
            Operand::Grf {
                reg,
                dtype: DataType::Ud,
            } => AddrPlan::VecUd(u32::from(reg) * GRF_BYTES),
            other => AddrPlan::Generic(other),
        }
    }

    #[inline]
    fn lane_addr(&self, regs: &crate::regfile::RegFile, lane: u32) -> u32 {
        match *self {
            AddrPlan::VecUd(base) => regs.load_u32(base + 4 * lane),
            AddrPlan::Generic(op) => regs.read_lane(&op, lane).as_u64() as u32,
        }
    }
}

/// What one decoded instruction does, as a dense enum the issue path can
/// branch on directly.
#[derive(Clone, Debug)]
enum PlanKind {
    /// 32-bit float ALU fast path (all register operands `F`).
    AluF {
        f: F3,
        srcs: [Src32; 3],
        dst: u32,
    },
    /// 32-bit signed ALU fast path (all register operands `D`).
    AluD {
        f: I3,
        srcs: [Src32; 3],
        dst: u32,
    },
    /// 32-bit unsigned ALU fast path (all register operands `Ud`).
    AluU {
        f: U3,
        srcs: [Src32; 3],
        dst: u32,
    },
    /// Vectorized whole-span ALU: the same formula as the per-lane fast
    /// paths, monomorphized over the full span with masked blend-stores.
    /// Selected at decode only when [`span_safe`] proves the precompute
    /// order is indistinguishable from the ascending per-lane order.
    AluVec {
        kern: SpanKern,
        srcs: [Src32; 3],
        dst: u32,
        width: u32,
    },
    /// Any other computation: reference `read_lane`/`eval_alu`/`write_lane`.
    AluGeneric {
        op: Opcode,
        n: u8,
        srcs: [Operand; 3],
        dst: Operand,
    },
    Cmp {
        cm: CondMod,
        a: Operand,
        b: Operand,
        dst: Operand,
    },
    /// Vectorized `cmp`: both sources on the 32-bit fast classes, flag
    /// results merged as one bitmask, optional numeric destination
    /// blend-stored by the kernel ([`NO_DST`] when null).
    CmpVec {
        kern: CmpKern,
        srcs: [Src32; 3],
        flag: FlagReg,
        dst: u32,
        width: u32,
    },
    Sel {
        a: Operand,
        b: Operand,
        dst: Operand,
    },
    /// Vectorized `sel`: both sources and the destination on the 32-bit
    /// fast classes; the selecting predicate is read at execute time and
    /// applied as a whole-span blend.
    SelVec {
        kern: SelKern,
        srcs: [Src32; 3],
        dst: u32,
        width: u32,
    },
    Load {
        space: MemSpace,
        addr: AddrPlan,
        mem_dtype: DataType,
        dst: Operand,
    },
    Store {
        space: MemSpace,
        addr: AddrPlan,
        mem_dtype: DataType,
        data: Operand,
    },
    Fence,
    If {
        jip: usize,
    },
    Else {
        jip: usize,
    },
    EndIf,
    Do,
    While {
        jip: usize,
    },
    Break,
    Continue,
    Jmpi {
        jip: usize,
    },
    Nop,
    Barrier,
    Eot,
}

/// The resource effect of one executed plan — [`Effect`](crate::Effect)
/// minus the allocated lane-address vector: addresses land in the caller's
/// [`LaneScratch`] instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanEffect {
    /// An FPU or EM computation over the mask.
    Compute(Pipe),
    /// A memory message; lane addresses are in the scratch buffer.
    Memory {
        /// Target space.
        space: MemSpace,
        /// True for stores.
        is_store: bool,
    },
    /// A memory fence.
    Fence,
    /// A workgroup barrier.
    Barrier,
    /// End of thread.
    Eot,
    /// Control flow resolved at issue.
    ControlFlow,
}

/// Reusable per-EU scratch for send lane addresses and their coalesced
/// line set: an inline array up to SIMD32, so the hot path never
/// allocates.
#[derive(Clone, Debug, Default)]
pub struct LaneScratch {
    pub(crate) addrs: [u32; 32],
    pub(crate) len: u8,
    pub(crate) lines: Vec<u64>,
}

impl LaneScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lane addresses captured by the last executed send.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs[..usize::from(self.len)]
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, a: u32) {
        self.addrs[usize::from(self.len)] = a;
        self.len += 1;
    }
}

/// One instruction lowered into its decode-once execution plan.
#[derive(Clone, Debug)]
pub struct MicroPlan {
    kind: PlanKind,
    /// Instruction predicate (branch condition, `sel` selector, or mask
    /// gate — interpretation depends on `kind`).
    pred: Option<Predicate>,
    /// True when the predicate gates the execution mask (everything except
    /// `sel` and branches).
    pred_gates_mask: bool,
    /// Scoreboard read plan: GRF register ranges (inclusive) of every read
    /// operand plus the destination, in `read_operands()` order.
    reads: [(u8, u8); 6],
    n_reads: u8,
    /// Destination GRF register range (None for null/immediate dst).
    dst_range: Option<(u8, u8)>,
    /// Flag register read by the predicate, if any.
    pred_flag: Option<u8>,
    /// Flag register written by the condition modifier, if any.
    cond_flag: Option<u8>,
    /// GRF operand count (sources + destination) for multi-cycle RF timing.
    n_grf_operands: u64,
    /// Execution pipe of the source opcode.
    pipe: Pipe,
    /// Execution data type of the source instruction.
    dtype: DataType,
    /// True for ALU/send instructions (zero-mask skippable).
    is_data: bool,
    /// True for `eot`.
    is_eot: bool,
}

impl MicroPlan {
    fn decode(insn: &Instruction) -> Self {
        let width = insn.exec_width;
        let mut reads = [(0u8, 0u8); 6];
        let mut n_reads = 0u8;
        for op in insn.read_operands() {
            if let Some(r) = reg_range(&op, width) {
                reads[usize::from(n_reads)] = r;
                n_reads += 1;
            }
        }
        let dst_range = reg_range(&insn.dst, width);
        if let Some(r) = dst_range {
            reads[usize::from(n_reads)] = r;
            n_reads += 1;
        }
        let n_grf_operands = grf_operand_count(insn);
        let pipe = insn.op.pipe();
        Self {
            kind: decode_kind(insn),
            pred: insn.pred,
            pred_gates_mask: insn.pred.is_some() && insn.op != Opcode::Sel && !insn.op.is_branch(),
            reads,
            n_reads,
            dst_range,
            pred_flag: insn.pred.map(|p| p.flag.index()),
            cond_flag: insn.cond_mod.map(|cm| cm.flag.index()),
            n_grf_operands,
            pipe,
            dtype: insn.dtype,
            is_data: pipe != Pipe::Control,
            is_eot: insn.op == Opcode::Eot,
        }
    }

    /// Execution pipe of the decoded instruction.
    pub fn pipe(&self) -> Pipe {
        self.pipe
    }

    /// Execution data type of the decoded instruction.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// True when the issue stage skips this plan for free in `ctx`: an
    /// ALU/send instruction whose execution mask is all-zero
    /// (jump-over-disabled-code).
    #[inline]
    pub(crate) fn is_skipped(&self, ctx: &ThreadCtx) -> bool {
        self.is_data && self.exec_mask(ctx).is_empty()
    }

    /// True for `eot`.
    pub(crate) fn is_eot(&self) -> bool {
        self.is_eot
    }

    /// Scoreboard read ranges, predicate flag, condition flag, and GRF
    /// operand count for the timing layer.
    pub(crate) fn scoreboard(&self) -> (&[(u8, u8)], Option<u8>, Option<u8>) {
        (
            &self.reads[..usize::from(self.n_reads)],
            self.pred_flag,
            self.cond_flag,
        )
    }

    pub(crate) fn dst_range(&self) -> Option<(u8, u8)> {
        self.dst_range
    }

    pub(crate) fn cond_flag(&self) -> Option<u8> {
        self.cond_flag
    }

    pub(crate) fn n_grf_operands(&self) -> u64 {
        self.n_grf_operands
    }

    /// The execution mask this plan would run under right now: the SIMT
    /// mask ANDed with the gating predicate. `sel` is special: its
    /// predicate *selects* operands instead of gating channels.
    #[inline]
    pub(crate) fn exec_mask(&self, ctx: &ThreadCtx) -> ExecMask {
        let base = ctx.simt.exec();
        if self.pred_gates_mask {
            base.and(pred_bits(ctx, self.pred.expect("gating predicate present")))
        } else {
            base
        }
    }
}

/// GRF operands (used sources plus destination) of `insn`: the register
/// accesses a single-ported file serializes under
/// [`RfTiming::MultiCycle`](crate::config::RfTiming::MultiCycle).
pub(crate) fn grf_operand_count(insn: &Instruction) -> u64 {
    (insn
        .used_srcs()
        .iter()
        .filter(|o| o.grf_reg().is_some())
        .count()
        + usize::from(insn.dst.grf_reg().is_some())) as u64
}

/// The GRF registers (inclusive) `op` touches at `width` channels.
pub(crate) fn reg_range(op: &Operand, width: u32) -> Option<(u8, u8)> {
    op.grf_byte_range(width)
        .map(|(lo, hi)| ((lo / GRF_BYTES) as u8, ((hi - 1) / GRF_BYTES) as u8))
}

fn decode_kind(insn: &Instruction) -> PlanKind {
    match insn.op {
        Opcode::If => PlanKind::If {
            jip: insn.jip.expect("resolved jip"),
        },
        Opcode::Else => PlanKind::Else {
            jip: insn.jip.expect("resolved jip"),
        },
        Opcode::EndIf => PlanKind::EndIf,
        Opcode::Do => PlanKind::Do,
        Opcode::While => PlanKind::While {
            jip: insn.jip.expect("resolved jip"),
        },
        Opcode::Break => PlanKind::Break,
        Opcode::Continue => PlanKind::Continue,
        Opcode::Jmpi => PlanKind::Jmpi {
            jip: insn.jip.expect("resolved jip"),
        },
        Opcode::Nop => PlanKind::Nop,
        Opcode::Barrier => PlanKind::Barrier,
        Opcode::Eot => PlanKind::Eot,
        Opcode::Send => match insn.msg.expect("send carries a message") {
            SendMessage::Fence => PlanKind::Fence,
            SendMessage::Load { space, addr, dtype } => PlanKind::Load {
                space,
                addr: AddrPlan::decode(&addr),
                mem_dtype: dtype,
                dst: insn.dst,
            },
            SendMessage::Store {
                space,
                addr,
                data,
                dtype,
            } => PlanKind::Store {
                space,
                addr: AddrPlan::decode(&addr),
                mem_dtype: dtype,
                data,
            },
        },
        Opcode::Cmp => {
            let cm = insn.cond_mod.expect("cmp carries a condition modifier");
            fast_cmp(insn, cm).unwrap_or(PlanKind::Cmp {
                cm,
                a: insn.srcs[0],
                b: insn.srcs[1],
                dst: insn.dst,
            })
        }
        Opcode::Sel => fast_sel(insn).unwrap_or(PlanKind::Sel {
            a: insn.srcs[0],
            b: insn.srcs[1],
            dst: insn.dst,
        }),
        op => decode_alu(insn, op),
    }
}

fn decode_alu(insn: &Instruction, op: Opcode) -> PlanKind {
    let n = op.src_count();
    if let Some(kind) = fast_alu(insn, n) {
        return kind;
    }
    PlanKind::AluGeneric {
        op,
        n: n as u8,
        srcs: insn.srcs,
        dst: insn.dst,
    }
}

/// Tries to lower a regular ALU instruction onto one of the raw-byte fast
/// paths. Eligibility: the destination is a plain vector register of the
/// execution type, every register source matches the execution type (so
/// decode/encode is a fixed 32-bit conversion), and the execution type is
/// `F`, `D` or `Ud`. Immediates of any type are fine — the reference
/// interpreter passes an immediate's payload through `as_f64`/`as_i64`/
/// `as_u64` at eval time regardless of its declared type, so converting at
/// decode time is bit-identical.
fn fast_alu(insn: &Instruction, n: usize) -> Option<PlanKind> {
    let want = insn.dtype;
    if !matches!(want, DataType::F | DataType::D | DataType::Ud) {
        return None;
    }
    let dst = match insn.dst {
        Operand::Grf { reg, dtype } if dtype == want => u32::from(reg) * GRF_BYTES,
        _ => return None,
    };
    let raw = fast_srcs(&insn.srcs[..n], want)?;
    let specialize = |imm: fn(Scalar) -> u64| specialize_srcs(&raw, imm);
    let width = insn.exec_width;
    match want {
        DataType::F => {
            let srcs = specialize(|v| v.as_f64().to_bits());
            if span_safe(&srcs, dst, width) {
                float_span(insn.op).map(|kern| PlanKind::AluVec {
                    kern,
                    srcs,
                    dst,
                    width,
                })
            } else {
                float_fn(insn.op).map(|f| PlanKind::AluF { f, srcs, dst })
            }
        }
        DataType::D => {
            let srcs = specialize(|v| v.as_i64() as u64);
            if span_safe(&srcs, dst, width) {
                signed_span(insn.op).map(|kern| PlanKind::AluVec {
                    kern,
                    srcs,
                    dst,
                    width,
                })
            } else {
                signed_fn(insn.op).map(|f| PlanKind::AluD { f, srcs, dst })
            }
        }
        DataType::Ud => {
            let srcs = specialize(Scalar::as_u64);
            if span_safe(&srcs, dst, width) {
                unsigned_span(insn.op).map(|kern| PlanKind::AluVec {
                    kern,
                    srcs,
                    dst,
                    width,
                })
            } else {
                unsigned_fn(insn.op).map(|f| PlanKind::AluU { f, srcs, dst })
            }
        }
        _ => unreachable!("fast classes checked above"),
    }
}

/// Lowers operand sources onto the decode-time fast classes: every
/// register source must match the execution type `want` (immediates of
/// any type are fine — see [`fast_alu`]). Unused trailing slots stay
/// `Imm(0)`.
fn fast_srcs(srcs: &[Operand], want: DataType) -> Option<[RawSrc; 3]> {
    let mut raw = [RawSrc::Imm(Scalar::U(0)); 3];
    for (i, s) in srcs.iter().enumerate() {
        raw[i] = match *s {
            Operand::Grf { reg, dtype } if dtype == want => RawSrc::Vec(u32::from(reg) * GRF_BYTES),
            Operand::GrfScalar { reg, sub, dtype } if dtype == want => {
                RawSrc::Broadcast(u32::from(reg) * GRF_BYTES + u32::from(sub) * dtype.size_bytes())
            }
            Operand::Imm { value, .. } => RawSrc::Imm(value),
            _ => return None,
        };
    }
    Some(raw)
}

/// Converts raw fast-class sources into one eval domain by applying `imm`
/// to each immediate payload.
fn specialize_srcs(raw: &[RawSrc; 3], imm: fn(Scalar) -> u64) -> [Src32; 3] {
    let mut srcs = [Src32::Imm(0); 3];
    for (dst, src) in srcs.iter_mut().zip(raw.iter()) {
        *dst = match *src {
            RawSrc::Vec(b) => Src32::Vec(b),
            RawSrc::Broadcast(b) => Src32::Broadcast(b),
            RawSrc::Imm(v) => Src32::Imm(imm(v)),
        };
    }
    srcs
}

/// Tries to lower a `cmp` onto the vectorized span path. Eligibility
/// mirrors [`fast_alu`] — both sources on the fast classes at an `F`/`D`/
/// `Ud` execution type — plus a destination that is either null (flags
/// only) or a plain vector register of the execution type. The condition
/// is baked into a monomorphized kernel; the per-class comparison domains
/// replicate [`eval_cond`] exactly (`as_f64`/`as_i64`/`as_u64`).
fn fast_cmp(insn: &Instruction, cm: CondMod) -> Option<PlanKind> {
    let want = insn.dtype;
    if !matches!(want, DataType::F | DataType::D | DataType::Ud) {
        return None;
    }
    let raw = fast_srcs(&insn.srcs[..2], want)?;
    let dst = match insn.dst {
        d if d.is_null() => NO_DST,
        Operand::Grf { reg, dtype } if dtype == want => u32::from(reg) * GRF_BYTES,
        _ => return None,
    };
    let width = insn.exec_width;
    let (srcs, kern) = match want {
        DataType::F => (
            specialize_srcs(&raw, |v| v.as_f64().to_bits()),
            float_cmp(cm.cond),
        ),
        DataType::D => (
            specialize_srcs(&raw, |v| v.as_i64() as u64),
            signed_cmp(cm.cond),
        ),
        DataType::Ud => (specialize_srcs(&raw, Scalar::as_u64), unsigned_cmp(cm.cond)),
        _ => unreachable!("fast classes checked above"),
    };
    let safe = if dst == NO_DST {
        span_srcs_in_bounds(&srcs, width)
    } else {
        span_safe(&srcs, dst, width)
    };
    if !safe {
        return None;
    }
    Some(PlanKind::CmpVec {
        kern,
        srcs,
        flag: cm.flag,
        dst,
        width,
    })
}

/// Tries to lower a `sel` onto the vectorized span path. Eligibility
/// mirrors [`fast_alu`]; the per-lane `read_lane`/`Mov`/`write_lane`
/// round trip is replicated by the span decode/encode conversions.
fn fast_sel(insn: &Instruction) -> Option<PlanKind> {
    let want = insn.dtype;
    if !matches!(want, DataType::F | DataType::D | DataType::Ud) {
        return None;
    }
    insn.pred?;
    let raw = fast_srcs(&insn.srcs[..2], want)?;
    let dst = match insn.dst {
        Operand::Grf { reg, dtype } if dtype == want => u32::from(reg) * GRF_BYTES,
        _ => return None,
    };
    let width = insn.exec_width;
    let (srcs, kern) = match want {
        DataType::F => (
            specialize_srcs(&raw, |v| v.as_f64().to_bits()),
            sel_span_f as SelKern,
        ),
        DataType::D => (
            specialize_srcs(&raw, |v| v.as_i64() as u64),
            sel_span_d as SelKern,
        ),
        DataType::Ud => (specialize_srcs(&raw, Scalar::as_u64), sel_span_u as SelKern),
        _ => unreachable!("fast classes checked above"),
    };
    if !span_safe(&srcs, dst, width) {
        return None;
    }
    Some(PlanKind::SelVec {
        kern,
        srcs,
        dst,
        width,
    })
}

/// Proves a span kernel bit-identical to the ascending per-lane loop.
///
/// The per-lane loop interleaves reads and writes lane by lane in
/// ascending order; a span kernel reads every source lane up front. The
/// two differ only when some lane's read would observe an earlier lane's
/// write:
///
/// * a vector source starting strictly below the destination but
///   overlapping it (lane `i` reads bytes an earlier lane already wrote);
///   starting at or above the destination is fine — those bytes are
///   written by the same or a later lane;
/// * a broadcast element inside the destination span (re-read per lane in
///   the scalar loop, exactly because it may alias the destination).
///
/// The kernel also reads source lanes under inactive mask bits (their
/// results are blended away), so every vector span — and the destination,
/// whose blend rewrites inactive lanes with their own old bytes — must lie
/// fully inside the register file.
fn span_safe(srcs: &[Src32; 3], dst: u32, width: u32) -> bool {
    use iwc_isa::reg::GRF_TOTAL_BYTES;
    let bytes = 4 * width;
    if dst + bytes > GRF_TOTAL_BYTES || width as usize > MAX_LANES {
        return false;
    }
    srcs.iter().all(|s| match *s {
        Src32::Vec(b) => b + bytes <= GRF_TOTAL_BYTES && !(b < dst && b + bytes > dst),
        Src32::Broadcast(a) => a + 4 <= GRF_TOTAL_BYTES && !(a + 4 > dst && a < dst + bytes),
        Src32::Imm(_) => true,
    })
}

/// Bounds-only variant of [`span_safe`] for kernels that write no GRF
/// destination (`cmp` with a null dst): no write can alias a source, but
/// inactive lanes are still read, so every span must lie fully inside the
/// register file.
fn span_srcs_in_bounds(srcs: &[Src32; 3], width: u32) -> bool {
    use iwc_isa::reg::GRF_TOTAL_BYTES;
    let bytes = 4 * width;
    if width as usize > MAX_LANES {
        return false;
    }
    srcs.iter().all(|s| match *s {
        Src32::Vec(b) => b + bytes <= GRF_TOTAL_BYTES,
        Src32::Broadcast(a) => a + 4 <= GRF_TOTAL_BYTES,
        Src32::Imm(_) => true,
    })
}

// The per-class eval tables replicate `iwc_isa::eval` formula-for-formula
// (including wrapping/shift-masking details); `sel` is excluded because it
// is predication, not arithmetic. Any opcode missing here falls back to
// the generic path, which calls `eval_alu` itself.
//
// Each formula list is written once and expanded twice: into the per-lane
// fn-pointer table (`*_fn`, used by the masked fallback paths) and into a
// table of whole-span kernels (`*_span`) where the formula is inlined into
// the span driver — one monomorphized loop body per opcode, so there is no
// per-lane indirect call and the compiler can autovectorize.

macro_rules! alu_tables {
    ($scalar:ident -> $sty:ty, $span:ident via $driver:ident {
        $($op:ident => $f:expr,)+
    }) => {
        fn $scalar(op: Opcode) -> Option<fn($sty, $sty, $sty) -> $sty> {
            Some(match op {
                $(Opcode::$op => $f,)+
                _ => return None,
            })
        }

        fn $span(op: Opcode) -> Option<SpanKern> {
            Some(match op {
                $(Opcode::$op => {
                    fn kern(
                        regs: &mut crate::regfile::RegFile,
                        srcs: &[Src32; 3],
                        dst: u32,
                        mask: u32,
                        width: u32,
                    ) {
                        $driver(regs, srcs, dst, mask, width, $f)
                    }
                    kern as SpanKern
                })+
                _ => return None,
            })
        }
    };
}

alu_tables!(float_fn -> f64, float_span via span_f {
    Mov => |a, _, _| a,
    Add => |a, b, _| a + b,
    Sub => |a, b, _| a - b,
    Mul => |a, b, _| a * b,
    Mad => |a, b, c| a * b + c,
    Min => |a: f64, b, _| a.min(b),
    Max => |a: f64, b, _| a.max(b),
    Abs => |a: f64, _, _| a.abs(),
    Frc => |a: f64, _, _| a - a.floor(),
    Rndd => |a: f64, _, _| a.floor(),
    Rndu => |a: f64, _, _| a.ceil(),
    Inv => |a, _, _| 1.0 / a,
    Log => |a: f64, _, _| a.log2(),
    Exp => |a: f64, _, _| a.exp2(),
    Sqrt => |a: f64, _, _| a.sqrt(),
    Rsqrt => |a: f64, _, _| 1.0 / a.sqrt(),
    Pow => |a: f64, b, _| a.powf(b),
    Sin => |a: f64, _, _| a.sin(),
    Cos => |a: f64, _, _| a.cos(),
    Fdiv => |a, b, _| a / b,
});

alu_tables!(signed_fn -> i64, signed_span via span_d {
    Mov => |a, _, _| a,
    Add => |a: i64, b, _| a.wrapping_add(b),
    Sub => |a: i64, b, _| a.wrapping_sub(b),
    Mul => |a: i64, b, _| a.wrapping_mul(b),
    Mad => |a: i64, b, c| a.wrapping_mul(b).wrapping_add(c),
    Min => |a: i64, b, _| a.min(b),
    Max => |a: i64, b, _| a.max(b),
    Abs => |a: i64, _, _| a.wrapping_abs(),
    Not => |a, _, _| !a,
    And => |a, b, _| a & b,
    Or => |a, b, _| a | b,
    Xor => |a, b, _| a ^ b,
    Shl => |a: i64, b, _| a.wrapping_shl(b as u32 & 63),
    Shr => |a: i64, b: i64, _| (a as u64).wrapping_shr(b as u32 & 63) as i64,
    Asr => |a: i64, b, _| a.wrapping_shr(b as u32 & 63),
    Idiv => |a: i64, b, _| a.checked_div(b).unwrap_or(0),
    Irem => |a: i64, b, _| a.checked_rem(b).unwrap_or(0),
});

alu_tables!(unsigned_fn -> u64, unsigned_span via span_u {
    Mov => |a, _, _| a,
    Add => |a: u64, b, _| a.wrapping_add(b),
    Sub => |a: u64, b, _| a.wrapping_sub(b),
    Mul => |a: u64, b, _| a.wrapping_mul(b),
    Mad => |a: u64, b, c| a.wrapping_mul(b).wrapping_add(c),
    Min => |a: u64, b, _| a.min(b),
    Max => |a: u64, b, _| a.max(b),
    Abs => |a, _, _| a,
    Not => |a, _, _| !a,
    And => |a, b, _| a & b,
    Or => |a, b, _| a | b,
    Xor => |a, b, _| a ^ b,
    Shl => |a: u64, b, _| a.wrapping_shl(b as u32 & 63),
    Shr => |a: u64, b, _| a.wrapping_shr(b as u32 & 63),
    Asr => |a: u64, b: u64, _| (a as i64).wrapping_shr(b as u32 & 63) as u64,
    Idiv => |a: u64, b, _| a.checked_div(b).unwrap_or(0),
    Irem => |a: u64, b, _| a.checked_rem(b).unwrap_or(0),
});

/// A [`Program`] lowered into per-instruction [`MicroPlan`]s, built once
/// per launch.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    plans: Box<[MicroPlan]>,
}

impl DecodedProgram {
    /// Decodes every instruction of `program`. O(instructions) — trivial
    /// next to any simulation that replays them. Wall time is charged to
    /// the `"decode"` phase of the current request span, if one is
    /// installed (a no-op everywhere outside the serve daemon).
    pub fn decode(program: &Program) -> Self {
        iwc_telemetry::span::time_phase("decode", || Self {
            plans: program.insns().iter().map(MicroPlan::decode).collect(),
        })
    }

    /// The plan at instruction index `pc`.
    #[inline]
    pub fn plan(&self, pc: usize) -> &MicroPlan {
        &self.plans[pc]
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no instruction was decoded (never for validated programs).
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[inline]
fn src_f(regs: &crate::regfile::RegFile, s: Src32, off: u32) -> f64 {
    match s {
        Src32::Vec(base) => f64::from(f32::from_bits(regs.load_u32(base + off))),
        Src32::Broadcast(addr) => f64::from(f32::from_bits(regs.load_u32(addr))),
        Src32::Imm(bits) => f64::from_bits(bits),
    }
}

#[inline]
fn src_i(regs: &crate::regfile::RegFile, s: Src32, off: u32) -> i64 {
    match s {
        Src32::Vec(base) => i64::from(regs.load_u32(base + off) as i32),
        Src32::Broadcast(addr) => i64::from(regs.load_u32(addr) as i32),
        Src32::Imm(bits) => bits as i64,
    }
}

#[inline]
fn src_u(regs: &crate::regfile::RegFile, s: Src32, off: u32) -> u64 {
    match s {
        Src32::Vec(base) => u64::from(regs.load_u32(base + off)),
        Src32::Broadcast(addr) => u64::from(regs.load_u32(addr)),
        Src32::Imm(bits) => bits,
    }
}

// Span-kernel machinery: stage every source into a stack array (one
// contiguous counted loop per source — vector sources become consecutive
// 32-bit loads, broadcasts and immediates become splats), evaluate the
// formula over lanes `0..width` unconditionally (inactive lanes compute on
// whatever bytes the register holds; every table formula is total, and
// those results are discarded by the blend), then commit with a branchless
// select against the destination's old bits. All addresses were
// bounds-proved by `span_safe` at decode time.

macro_rules! span_driver {
    ($driver:ident, $elem:ty, $fill:ident, $decode:expr, $imm:expr, $encode:expr) => {
        #[inline(always)]
        fn $fill(regs: &crate::regfile::RegFile, s: Src32, w: usize, out: &mut [$elem; MAX_LANES]) {
            match s {
                Src32::Vec(base) => {
                    for (i, slot) in out[..w].iter_mut().enumerate() {
                        *slot = $decode(regs.load_u32(base + 4 * i as u32));
                    }
                }
                Src32::Broadcast(addr) => out[..w].fill($decode(regs.load_u32(addr))),
                Src32::Imm(bits) => out[..w].fill($imm(bits)),
            }
        }

        #[inline(always)]
        fn $driver(
            regs: &mut crate::regfile::RegFile,
            srcs: &[Src32; 3],
            dst: u32,
            mask: u32,
            width: u32,
            f: impl Fn($elem, $elem, $elem) -> $elem,
        ) {
            let w = (width as usize).min(MAX_LANES);
            let mut a = [<$elem>::default(); MAX_LANES];
            let mut b = [<$elem>::default(); MAX_LANES];
            let mut c = [<$elem>::default(); MAX_LANES];
            $fill(regs, srcs[0], w, &mut a);
            $fill(regs, srcs[1], w, &mut b);
            $fill(regs, srcs[2], w, &mut c);
            let mut out = [0u32; MAX_LANES];
            for i in 0..w {
                out[i] = $encode(f(a[i], b[i], c[i]));
            }
            for (i, &v) in out[..w].iter().enumerate() {
                let off = dst + 4 * i as u32;
                let old = regs.load_u32(off);
                let v = if mask >> i & 1 != 0 { v } else { old };
                regs.store_u32(off, v);
            }
        }
    };
}

// The `$decode`/`$imm`/`$encode` conversions mirror `src_f`/`src_i`/
// `src_u` and the per-lane stores bit for bit: `$decode` widens a 32-bit
// register element, `$imm` reinterprets the full-width immediate payload
// pre-converted at decode time (f64 bits / i64 / u64 — never a 32-bit
// widening), `$encode` narrows the eval result back to raw 32-bit bits.

span_driver!(
    span_f,
    f64,
    fill_f,
    |bits: u32| f64::from(f32::from_bits(bits)),
    |bits: u64| f64::from_bits(bits),
    |r: f64| (r as f32).to_bits()
);
span_driver!(
    span_d,
    i64,
    fill_d,
    |bits: u32| i64::from(bits as i32),
    |bits: u64| bits as i64,
    |r: i64| r as u32
);
span_driver!(
    span_u,
    u64,
    fill_u,
    |bits: u32| u64::from(bits),
    |bits: u64| bits,
    |r: u64| r as u32
);

// `cmp` span machinery: stage both sources like the ALU drivers, fold the
// per-lane condition results into one bitmask (returned to the caller for
// the flag merge), and blend-store the optional numeric destination with
// the class's encoding of true (1.0f for `F`, 1 for `D`/`Ud`) — the same
// values the scalar arm writes through `write_lane`.

macro_rules! cmp_driver {
    ($driver:ident, $elem:ty, $fill:ident, $true_bits:expr) => {
        #[inline(always)]
        fn $driver(
            regs: &mut crate::regfile::RegFile,
            srcs: &[Src32; 3],
            dst: u32,
            mask: u32,
            width: u32,
            f: impl Fn($elem, $elem) -> bool,
        ) -> u32 {
            let w = (width as usize).min(MAX_LANES);
            let mut a = [<$elem>::default(); MAX_LANES];
            let mut b = [<$elem>::default(); MAX_LANES];
            $fill(regs, srcs[0], w, &mut a);
            $fill(regs, srcs[1], w, &mut b);
            let mut res = 0u32;
            for i in 0..w {
                res |= u32::from(f(a[i], b[i])) << i;
            }
            if dst != NO_DST {
                for i in 0..w {
                    let off = dst + 4 * i as u32;
                    let old = regs.load_u32(off);
                    let v = if res >> i & 1 != 0 { $true_bits } else { 0 };
                    let v = if mask >> i & 1 != 0 { v } else { old };
                    regs.store_u32(off, v);
                }
            }
            res
        }
    };
}

cmp_driver!(cmp_span_f, f64, fill_f, 1.0f32.to_bits());
cmp_driver!(cmp_span_d, i64, fill_d, 1);
cmp_driver!(cmp_span_u, u64, fill_u, 1);

/// Wraps one condition formula into a monomorphized [`CmpKern`].
macro_rules! cmp_kern {
    ($driver:ident, $f:expr) => {{
        fn kern(
            regs: &mut crate::regfile::RegFile,
            srcs: &[Src32; 3],
            dst: u32,
            mask: u32,
            width: u32,
        ) -> u32 {
            $driver(regs, srcs, dst, mask, width, $f)
        }
        kern as CmpKern
    }};
}

/// Expands the six [`CondOp`]s into span kernels over one comparison
/// domain — the same operator-per-condition table as [`eval_cond`].
macro_rules! cmp_tables {
    ($table:ident via $driver:ident, $sty:ty) => {
        fn $table(cond: CondOp) -> CmpKern {
            match cond {
                CondOp::Eq => cmp_kern!($driver, |x: $sty, y: $sty| x == y),
                CondOp::Ne => cmp_kern!($driver, |x: $sty, y: $sty| x != y),
                CondOp::Lt => cmp_kern!($driver, |x: $sty, y: $sty| x < y),
                CondOp::Le => cmp_kern!($driver, |x: $sty, y: $sty| x <= y),
                CondOp::Gt => cmp_kern!($driver, |x: $sty, y: $sty| x > y),
                CondOp::Ge => cmp_kern!($driver, |x: $sty, y: $sty| x >= y),
            }
        }
    };
}

cmp_tables!(float_cmp via cmp_span_f, f64);
cmp_tables!(signed_cmp via cmp_span_d, i64);
cmp_tables!(unsigned_cmp via cmp_span_u, u64);

// `sel` span machinery: stage both sources, pick per lane by the select
// bitmask (the instruction's predicate, resolved at execute time), and
// encode through the same decode/convert/encode chain as the scalar
// `read_lane`/`Mov`/`write_lane` round trip.

macro_rules! sel_driver {
    ($driver:ident, $elem:ty, $fill:ident, $encode:expr) => {
        fn $driver(
            regs: &mut crate::regfile::RegFile,
            srcs: &[Src32; 3],
            dst: u32,
            mask: u32,
            width: u32,
            select: u32,
        ) {
            let w = (width as usize).min(MAX_LANES);
            let mut a = [<$elem>::default(); MAX_LANES];
            let mut b = [<$elem>::default(); MAX_LANES];
            $fill(regs, srcs[0], w, &mut a);
            $fill(regs, srcs[1], w, &mut b);
            let mut out = [0u32; MAX_LANES];
            for i in 0..w {
                let v = if select >> i & 1 != 0 { a[i] } else { b[i] };
                out[i] = $encode(v);
            }
            for (i, &v) in out[..w].iter().enumerate() {
                let off = dst + 4 * i as u32;
                let old = regs.load_u32(off);
                let v = if mask >> i & 1 != 0 { v } else { old };
                regs.store_u32(off, v);
            }
        }
    };
}

sel_driver!(sel_span_f, f64, fill_f, |r: f64| (r as f32).to_bits());
sel_driver!(sel_span_d, i64, fill_d, |r: i64| r as u32);
sel_driver!(sel_span_u, u64, fill_u, |r: u64| r as u32);

/// Executes the plan at `ctx.pc` under the precomputed execution `mask`
/// (which must equal [`MicroPlan::exec_mask`] for the current context and
/// must be non-empty for data plans — zero-mask skipping happens before
/// issue, see [`MicroPlan::is_skipped`]): applies the instruction's full
/// architectural effect and reports the resource it occupies. Send lane
/// addresses land in `scratch`.
pub(crate) fn execute_plan(
    ctx: &mut ThreadCtx,
    plan: &MicroPlan,
    mask: ExecMask,
    mem: &mut MemoryImage,
    slm: &mut MemoryImage,
    scratch: &mut LaneScratch,
) -> PlanEffect {
    match plan.kind {
        PlanKind::AluF { f, srcs, dst } => {
            let mut bits = mask.bits();
            while bits != 0 {
                let off = 4 * bits.trailing_zeros();
                bits &= bits - 1;
                let r = f(
                    src_f(&ctx.regs, srcs[0], off),
                    src_f(&ctx.regs, srcs[1], off),
                    src_f(&ctx.regs, srcs[2], off),
                );
                ctx.regs.store_u32(dst + off, (r as f32).to_bits());
            }
            ctx.pc += 1;
            PlanEffect::Compute(plan.pipe)
        }
        PlanKind::AluD { f, srcs, dst } => {
            let mut bits = mask.bits();
            while bits != 0 {
                let off = 4 * bits.trailing_zeros();
                bits &= bits - 1;
                let r = f(
                    src_i(&ctx.regs, srcs[0], off),
                    src_i(&ctx.regs, srcs[1], off),
                    src_i(&ctx.regs, srcs[2], off),
                );
                ctx.regs.store_u32(dst + off, r as u32);
            }
            ctx.pc += 1;
            PlanEffect::Compute(plan.pipe)
        }
        PlanKind::AluU { f, srcs, dst } => {
            let mut bits = mask.bits();
            while bits != 0 {
                let off = 4 * bits.trailing_zeros();
                bits &= bits - 1;
                let r = f(
                    src_u(&ctx.regs, srcs[0], off),
                    src_u(&ctx.regs, srcs[1], off),
                    src_u(&ctx.regs, srcs[2], off),
                );
                ctx.regs.store_u32(dst + off, r as u32);
            }
            ctx.pc += 1;
            PlanEffect::Compute(plan.pipe)
        }
        PlanKind::AluVec {
            kern,
            srcs,
            dst,
            width,
        } => {
            kern(&mut ctx.regs, &srcs, dst, mask.bits(), width);
            ctx.pc += 1;
            PlanEffect::Compute(plan.pipe)
        }
        PlanKind::AluGeneric { op, n, srcs, dst } => {
            let n = usize::from(n);
            for lane in mask.iter_active() {
                let mut vals = [Scalar::U(0); 3];
                for (i, s) in srcs[..n].iter().enumerate() {
                    vals[i] = ctx.regs.read_lane(s, lane);
                }
                let v = eval_alu(op, plan.dtype, &vals[..n]);
                ctx.regs.write_lane(&dst, lane, v);
            }
            ctx.pc += 1;
            PlanEffect::Compute(plan.pipe)
        }
        PlanKind::Cmp { cm, a, b, dst } => {
            let is_float = plan.dtype.is_float();
            for lane in mask.iter_active() {
                let x = ctx.regs.read_lane(&a, lane);
                let y = ctx.regs.read_lane(&b, lane);
                let r = eval_cond(cm.cond, plan.dtype, x, y);
                ctx.regs.set_flag_channel(cm.flag, lane, r);
                if !dst.is_null() {
                    let v = if is_float {
                        Scalar::F(if r { 1.0 } else { 0.0 })
                    } else {
                        Scalar::U(u64::from(r))
                    };
                    ctx.regs.write_lane(&dst, lane, v);
                }
            }
            ctx.pc += 1;
            PlanEffect::Compute(Pipe::Fpu)
        }
        PlanKind::Sel { a, b, dst } => {
            let p = plan.pred.expect("sel requires a selecting predicate");
            let select = pred_bits(ctx, p);
            for lane in mask.iter_active() {
                let which = if select.channel(lane) { &a } else { &b };
                let v = ctx.regs.read_lane(which, lane);
                let v = eval_alu(Opcode::Mov, plan.dtype, &[v]);
                ctx.regs.write_lane(&dst, lane, v);
            }
            ctx.pc += 1;
            PlanEffect::Compute(Pipe::Fpu)
        }
        PlanKind::CmpVec {
            kern,
            srcs,
            flag,
            dst,
            width,
        } => {
            let m = mask.bits();
            let res = kern(&mut ctx.regs, &srcs, dst, m, width);
            let old = ctx.regs.flag(flag);
            ctx.regs.set_flag(flag, (old & !m) | (res & m));
            ctx.pc += 1;
            PlanEffect::Compute(Pipe::Fpu)
        }
        PlanKind::SelVec {
            kern,
            srcs,
            dst,
            width,
        } => {
            let p = plan.pred.expect("sel requires a selecting predicate");
            let select = pred_bits(ctx, p).bits();
            kern(&mut ctx.regs, &srcs, dst, mask.bits(), width, select);
            ctx.pc += 1;
            PlanEffect::Compute(Pipe::Fpu)
        }
        PlanKind::Load {
            space,
            addr,
            mem_dtype,
            dst,
        } => {
            scratch.clear();
            for lane in mask.iter_active() {
                let a = addr.lane_addr(&ctx.regs, lane);
                scratch.push(a);
                let img = if space == MemSpace::Slm {
                    &mut *slm
                } else {
                    &mut *mem
                };
                let v = img.read_scalar(a, mem_dtype);
                ctx.regs.write_lane(&dst, lane, v);
            }
            ctx.pc += 1;
            PlanEffect::Memory {
                space,
                is_store: false,
            }
        }
        PlanKind::Store {
            space,
            addr,
            mem_dtype,
            data,
        } => {
            scratch.clear();
            for lane in mask.iter_active() {
                let a = addr.lane_addr(&ctx.regs, lane);
                scratch.push(a);
                let v = ctx.regs.read_lane(&data, lane);
                let img = if space == MemSpace::Slm {
                    &mut *slm
                } else {
                    &mut *mem
                };
                img.write_scalar(a, mem_dtype, v);
            }
            ctx.pc += 1;
            PlanEffect::Memory {
                space,
                is_store: true,
            }
        }
        PlanKind::Fence => {
            ctx.pc += 1;
            PlanEffect::Fence
        }
        PlanKind::If { jip } => {
            let p = plan.pred.expect("if requires a predicate");
            let cond = pred_bits(ctx, p);
            let jump = ctx.simt.exec_if(cond, jip);
            ctx.pc = jump.unwrap_or(ctx.pc + 1);
            PlanEffect::ControlFlow
        }
        PlanKind::Else { jip } => {
            let jump = ctx.simt.exec_else(jip);
            ctx.pc = jump.unwrap_or(ctx.pc + 1);
            PlanEffect::ControlFlow
        }
        PlanKind::EndIf => {
            ctx.simt.exec_endif();
            ctx.pc += 1;
            PlanEffect::ControlFlow
        }
        PlanKind::Do => {
            ctx.simt.exec_do();
            ctx.pc += 1;
            PlanEffect::ControlFlow
        }
        PlanKind::While { jip } => {
            let p = plan.pred.expect("while requires a predicate");
            let cond = pred_bits(ctx, p);
            let jump = ctx.simt.exec_while(cond, jip);
            ctx.pc = jump.unwrap_or(ctx.pc + 1);
            PlanEffect::ControlFlow
        }
        PlanKind::Break => {
            let p = plan.pred.expect("break requires a predicate");
            ctx.simt.exec_break(pred_bits(ctx, p));
            ctx.pc += 1;
            PlanEffect::ControlFlow
        }
        PlanKind::Continue => {
            let p = plan.pred.expect("continue requires a predicate");
            ctx.simt.exec_continue(pred_bits(ctx, p));
            ctx.pc += 1;
            PlanEffect::ControlFlow
        }
        PlanKind::Jmpi { jip } => {
            ctx.pc = jip;
            PlanEffect::ControlFlow
        }
        PlanKind::Nop => {
            ctx.pc += 1;
            PlanEffect::ControlFlow
        }
        PlanKind::Barrier => {
            ctx.pc += 1;
            PlanEffect::Barrier
        }
        PlanKind::Eot => PlanEffect::Eot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_isa::builder::KernelBuilder;

    #[test]
    fn mixed_and_narrow_dtypes_fall_back() {
        // dst F but src D, and W (16-bit) throughout: no fast path.
        let w = |reg| Operand::reg(reg, DataType::W);
        let mut b = KernelBuilder::new("k", 8);
        b.op(Opcode::Mov, Operand::rf(4), &[Operand::rd(6)]);
        b.op(Opcode::Add, w(8), &[w(8), w(10)]);
        let p = b.finish().unwrap();
        let decoded = DecodedProgram::decode(&p);
        assert!(matches!(decoded.plan(0).kind, PlanKind::AluGeneric { .. }));
        assert!(matches!(decoded.plan(1).kind, PlanKind::AluGeneric { .. }));
    }

    #[test]
    fn fast_paths_selected_for_f_d_ud() {
        // In-place adds: a source starting AT the destination is span-safe
        // (each lane reads only its own offset), so all three vectorize.
        let mut b = KernelBuilder::new("k", 8);
        b.add(Operand::rf(4), Operand::rf(4), Operand::imm_f(1.0));
        b.add(Operand::rd(6), Operand::rd(6), Operand::imm_d(1));
        b.add(Operand::rud(8), Operand::rud(8), Operand::imm_ud(1));
        let p = b.finish().unwrap();
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.plan(0).kind, PlanKind::AluVec { .. }));
        assert!(matches!(d.plan(1).kind, PlanKind::AluVec { .. }));
        assert!(matches!(d.plan(2).kind, PlanKind::AluVec { .. }));
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn aliasing_spans_fall_back_to_per_lane() {
        // SIMD16 `F` spans cover two GRFs. A vector source one register
        // below the destination overlaps it from below (lane 8 reads what
        // lane 0 wrote), and a broadcast element inside the destination
        // span is re-read per lane — both must stay on the per-lane path.
        let mut b = KernelBuilder::new("k", 16);
        b.add(Operand::rf(4), Operand::rf(3), Operand::imm_f(1.0));
        b.mul(
            Operand::rf(8),
            Operand::rf(6),
            Operand::scalar(8, 1, DataType::F),
        );
        // Reading from strictly above the destination is safe: those bytes
        // are written by the same or a later lane in the scalar order too.
        b.add(Operand::rf(10), Operand::rf(11), Operand::imm_f(1.0));
        let p = b.finish().unwrap();
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.plan(0).kind, PlanKind::AluF { .. }));
        assert!(matches!(d.plan(1).kind, PlanKind::AluF { .. }));
        assert!(matches!(d.plan(2).kind, PlanKind::AluVec { .. }));
    }
}
