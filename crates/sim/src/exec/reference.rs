//! The reference interpreter: semantic ground truth for instruction
//! execution, compiled for tests only.
//!
//! This is the original straight-from-the-ISA interpreter. It re-inspects
//! the [`Instruction`] on every issue and routes every lane value through
//! the widened [`Scalar`](iwc_isa::Scalar) enum, which makes it easy to
//! audit against the ISA definition but slow. The simulator runs the
//! decode-once plans of [`crate::plan`]; this interpreter is the oracle
//! the lockstep test ([`super::oracle`]) steps them against.

use super::{pred_bits, ThreadCtx};
use crate::memimg::MemoryImage;
use iwc_isa::eval::{eval_alu, eval_cond};
use iwc_isa::insn::{Instruction, MemSpace, Opcode, Pipe, SendMessage};
use iwc_isa::mask::ExecMask;
use iwc_isa::program::Program;

/// The resource effect of one executed instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// An FPU or EM computation over the mask.
    Compute {
        /// Pipe occupied.
        pipe: Pipe,
    },
    /// A global or SLM memory message.
    Memory {
        /// Target space.
        space: MemSpace,
        /// True for stores.
        is_store: bool,
        /// Byte addresses of the active channels.
        lane_addrs: Vec<u32>,
    },
    /// A memory fence: the thread must wait for its outstanding accesses.
    Fence,
    /// A workgroup barrier.
    Barrier,
    /// End of thread.
    Eot,
    /// Control flow resolved at issue (if/else/endif/do/while/break/…/nop).
    ControlFlow,
    /// The instruction's execution mask was all-zero; it was skipped with no
    /// pipeline cost (jump-over-disabled-code).
    SkippedZeroMask,
}

/// Outcome of executing one instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Executed {
    /// Final execution mask the instruction ran under.
    pub mask: ExecMask,
    /// Resource effect for the timing layer.
    pub effect: Effect,
}

/// Computes the execution mask of `insn` in the current context: the SIMT
/// mask ANDed with the instruction predicate (if any). `sel` is special: its
/// predicate *selects* operands instead of gating channels.
pub fn exec_mask_of(ctx: &ThreadCtx, insn: &Instruction) -> ExecMask {
    let base = ctx.simt.exec();
    match insn.pred {
        Some(p) if insn.op != Opcode::Sel && !insn.op.is_branch() => base.and(pred_bits(ctx, p)),
        _ => base,
    }
}

fn ctl(mask: ExecMask) -> Executed {
    Executed {
        mask,
        effect: Effect::ControlFlow,
    }
}

/// Executes `insn` functionally, updating the thread context, global memory
/// and (for SLM messages) the workgroup's SLM image.
///
/// # Panics
///
/// Panics on malformed programs (e.g. `while` without predicate), which the
/// builder cannot produce.
pub fn execute_instruction(
    ctx: &mut ThreadCtx,
    program: &Program,
    mem: &mut MemoryImage,
    slm: &mut MemoryImage,
) -> Executed {
    let insn = &program.insns()[ctx.pc];
    let mask = exec_mask_of(ctx, insn);

    match insn.op {
        // ---- control flow ----
        Opcode::If => {
            let p = insn.pred.expect("if requires a predicate");
            let cond = pred_bits(ctx, p);
            let jump = ctx.simt.exec_if(cond, insn.jip.expect("resolved jip"));
            ctx.pc = jump.unwrap_or(ctx.pc + 1);
            return ctl(mask);
        }
        Opcode::Else => {
            let jump = ctx.simt.exec_else(insn.jip.expect("resolved jip"));
            ctx.pc = jump.unwrap_or(ctx.pc + 1);
            return ctl(mask);
        }
        Opcode::EndIf => {
            ctx.simt.exec_endif();
            ctx.pc += 1;
            return ctl(mask);
        }
        Opcode::Do => {
            ctx.simt.exec_do();
            ctx.pc += 1;
            return ctl(mask);
        }
        Opcode::While => {
            let p = insn.pred.expect("while requires a predicate");
            let cond = pred_bits(ctx, p);
            let jump = ctx.simt.exec_while(cond, insn.jip.expect("resolved jip"));
            ctx.pc = jump.unwrap_or(ctx.pc + 1);
            return ctl(mask);
        }
        Opcode::Break => {
            let p = insn.pred.expect("break requires a predicate");
            ctx.simt.exec_break(pred_bits(ctx, p));
            ctx.pc += 1;
            return ctl(mask);
        }
        Opcode::Continue => {
            let p = insn.pred.expect("continue requires a predicate");
            ctx.simt.exec_continue(pred_bits(ctx, p));
            ctx.pc += 1;
            return ctl(mask);
        }
        Opcode::Jmpi => {
            ctx.pc = insn.jip.expect("resolved jip");
            return ctl(mask);
        }
        Opcode::Nop => {
            ctx.pc += 1;
            return ctl(mask);
        }
        Opcode::Barrier => {
            ctx.pc += 1;
            return Executed {
                mask,
                effect: Effect::Barrier,
            };
        }
        Opcode::Eot => {
            return Executed {
                mask,
                effect: Effect::Eot,
            };
        }
        _ => {}
    }

    // ---- ALU / send: a zero mask is skipped outright ----
    if mask.is_empty() {
        ctx.pc += 1;
        return Executed {
            mask,
            effect: Effect::SkippedZeroMask,
        };
    }

    match insn.op {
        Opcode::Send => {
            let msg = insn.msg.expect("send carries a message");
            let executed = match msg {
                SendMessage::Fence => {
                    ctx.pc += 1;
                    return Executed {
                        mask,
                        effect: Effect::Fence,
                    };
                }
                SendMessage::Load { space, addr, dtype } => {
                    let mut lane_addrs = Vec::with_capacity(mask.active_channels() as usize);
                    for lane in mask.iter_active() {
                        let a = ctx.regs.read_lane(&addr, lane).as_u64() as u32;
                        lane_addrs.push(a);
                        let img = if space == MemSpace::Slm {
                            &mut *slm
                        } else {
                            &mut *mem
                        };
                        let v = img.read_scalar(a, dtype);
                        ctx.regs.write_lane(&insn.dst, lane, v);
                    }
                    Executed {
                        mask,
                        effect: Effect::Memory {
                            space,
                            is_store: false,
                            lane_addrs,
                        },
                    }
                }
                SendMessage::Store {
                    space,
                    addr,
                    data,
                    dtype,
                } => {
                    let mut lane_addrs = Vec::with_capacity(mask.active_channels() as usize);
                    for lane in mask.iter_active() {
                        let a = ctx.regs.read_lane(&addr, lane).as_u64() as u32;
                        lane_addrs.push(a);
                        let v = ctx.regs.read_lane(&data, lane);
                        let img = if space == MemSpace::Slm {
                            &mut *slm
                        } else {
                            &mut *mem
                        };
                        img.write_scalar(a, dtype, v);
                    }
                    Executed {
                        mask,
                        effect: Effect::Memory {
                            space,
                            is_store: true,
                            lane_addrs,
                        },
                    }
                }
            };
            ctx.pc += 1;
            executed
        }
        Opcode::Cmp => {
            let cm = insn.cond_mod.expect("cmp carries a condition modifier");
            for lane in mask.iter_active() {
                let a = ctx.regs.read_lane(&insn.srcs[0], lane);
                let b = ctx.regs.read_lane(&insn.srcs[1], lane);
                let r = eval_cond(cm.cond, insn.dtype, a, b);
                ctx.regs.set_flag_channel(cm.flag, lane, r);
                if !insn.dst.is_null() {
                    let v = if insn.dtype.is_float() {
                        iwc_isa::Scalar::F(if r { 1.0 } else { 0.0 })
                    } else {
                        iwc_isa::Scalar::U(u64::from(r))
                    };
                    ctx.regs.write_lane(&insn.dst, lane, v);
                }
            }
            ctx.pc += 1;
            Executed {
                mask,
                effect: Effect::Compute { pipe: Pipe::Fpu },
            }
        }
        Opcode::Sel => {
            let p = insn.pred.expect("sel requires a selecting predicate");
            let select = pred_bits(ctx, p);
            for lane in mask.iter_active() {
                let which = if select.channel(lane) {
                    &insn.srcs[0]
                } else {
                    &insn.srcs[1]
                };
                let v = ctx.regs.read_lane(which, lane);
                // Normalize through the ALU for type conversion.
                let v = eval_alu(Opcode::Mov, insn.dtype, &[v]);
                ctx.regs.write_lane(&insn.dst, lane, v);
            }
            ctx.pc += 1;
            Executed {
                mask,
                effect: Effect::Compute { pipe: Pipe::Fpu },
            }
        }
        op => {
            // Regular FPU/EM computation.
            let n = op.src_count();
            for lane in mask.iter_active() {
                let mut srcs = [iwc_isa::Scalar::U(0); 3];
                for (i, s) in insn.srcs[..n].iter().enumerate() {
                    srcs[i] = ctx.regs.read_lane(s, lane);
                }
                let v = eval_alu(op, insn.dtype, &srcs[..n]);
                ctx.regs.write_lane(&insn.dst, lane, v);
            }
            ctx.pc += 1;
            Executed {
                mask,
                effect: Effect::Compute { pipe: op.pipe() },
            }
        }
    }
}
