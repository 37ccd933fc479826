//! Differential fuzzing: randomly generated divergent kernels must produce
//! bit-identical memory under every compaction mode (compaction is a pure
//! timing optimization), and their cycle counts must respect the mode
//! ordering.

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::isa::{
    CondOp, DataType, FlagReg, KernelBuilder, MemSpace, Opcode, Operand, Predicate, Program,
};
use intra_warp_compaction::sim::{simulate, GpuConfig, Launch, MemoryImage};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    Alu {
        op_idx: u8,
        dst: u8,
        a: u8,
        b: u8,
    },
    Math {
        op_idx: u8,
        dst: u8,
        a: u8,
    },
    IfElse {
        bits: u16,
        then_ops: Vec<(u8, u8)>,
        else_ops: Vec<(u8, u8)>,
    },
    Loop {
        trips_reg_init: u8,
        body_ops: Vec<(u8, u8)>,
    },
}

/// Value registers r6..r20 (even = f32 vectors at SIMD16).
fn vreg(i: u8) -> Operand {
    Operand::rf(6 + 2 * (i % 8))
}

const ALU_OPS: [Opcode; 6] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Mad,
    Opcode::Min,
    Opcode::Max,
];
const MATH_OPS: [Opcode; 3] = [Opcode::Rsqrt, Opcode::Frc, Opcode::Abs];

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op_idx, dst, a, b)| Step::Alu { op_idx, dst, a, b }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(op_idx, dst, a)| Step::Math {
            op_idx,
            dst,
            a
        }),
        (
            any::<u16>(),
            prop::collection::vec((any::<u8>(), any::<u8>()), 1..5),
            prop::collection::vec((any::<u8>(), any::<u8>()), 1..5)
        )
            .prop_map(|(bits, then_ops, else_ops)| Step::IfElse {
                bits,
                then_ops,
                else_ops
            }),
        (
            1u8..5,
            prop::collection::vec((any::<u8>(), any::<u8>()), 1..4)
        )
            .prop_map(|(trips_reg_init, body_ops)| Step::Loop {
                trips_reg_init,
                body_ops
            }),
    ]
}

fn emit_safe_op(b: &mut KernelBuilder, dst: u8, a: u8) {
    // Keep values bounded: dst = frc(a) * 0.5 + 0.25 stays in [0.25, 0.75].
    b.op(Opcode::Frc, vreg(dst), &[vreg(a)]);
    b.mad(
        vreg(dst),
        vreg(dst),
        Operand::imm_f(0.5),
        Operand::imm_f(0.25),
    );
}

fn build_kernel(steps: &[Step]) -> Program {
    let mut b = KernelBuilder::new("fuzz", 16);
    // Init value registers from the lane id so lanes differ.
    b.and(Operand::rud(22), Operand::rud(1), Operand::imm_ud(15));
    for i in 0..8u8 {
        b.mov(vreg(i), Operand::rud(22));
        b.mad(
            vreg(i),
            vreg(i),
            Operand::imm_f(0.01),
            Operand::imm_f(0.1 + f32::from(i)),
        );
    }
    for step in steps {
        match step {
            Step::Alu {
                op_idx,
                dst,
                a,
                b: src_b,
            } => {
                let op = ALU_OPS[usize::from(op_idx % ALU_OPS.len() as u8)];
                if op == Opcode::Mad {
                    b.mad(vreg(*dst), vreg(*a), Operand::imm_f(0.5), vreg(*src_b));
                } else {
                    b.op(op, vreg(*dst), &[vreg(*a), vreg(*src_b)]);
                }
                // Renormalize to avoid overflow drift.
                emit_safe_op(&mut b, *dst, *dst);
            }
            Step::Math { op_idx, dst, a } => {
                let op = MATH_OPS[usize::from(op_idx % MATH_OPS.len() as u8)];
                b.op(Opcode::Abs, vreg(*dst), &[vreg(*a)]);
                b.add(vreg(*dst), vreg(*dst), Operand::imm_f(0.5)); // keep rsqrt domain safe
                b.op(op, vreg(*dst), &[vreg(*dst)]);
                emit_safe_op(&mut b, *dst, *dst);
            }
            Step::IfElse {
                bits,
                then_ops,
                else_ops,
            } => {
                // cond: lane-id bit pattern — deterministic divergence.
                b.shr(
                    Operand::rud(24),
                    Operand::imm_ud(u32::from(*bits)),
                    Operand::rud(22),
                );
                b.and(Operand::rud(24), Operand::rud(24), Operand::imm_ud(1));
                b.cmp(
                    CondOp::Ne,
                    FlagReg::F0,
                    Operand::rud(24),
                    Operand::imm_ud(0),
                );
                b.if_(Predicate::normal(FlagReg::F0));
                for (dst, a) in then_ops {
                    emit_safe_op(&mut b, *dst, *a);
                }
                b.else_();
                for (dst, a) in else_ops {
                    emit_safe_op(&mut b, *dst, *a);
                }
                b.end_if();
            }
            Step::Loop {
                trips_reg_init,
                body_ops,
            } => {
                // Per-lane trip count: 1 + (lane % trips_reg_init+1).
                b.op(
                    Opcode::Irem,
                    Operand::rud(26),
                    &[
                        Operand::rud(22),
                        Operand::imm_ud(u32::from(*trips_reg_init) + 1),
                    ],
                );
                b.add(Operand::rud(26), Operand::rud(26), Operand::imm_ud(1));
                b.do_();
                for (dst, a) in body_ops {
                    emit_safe_op(&mut b, *dst, *a);
                }
                b.add(
                    Operand::rud(26),
                    Operand::rud(26),
                    Operand::imm_ud(0xFFFF_FFFF),
                );
                b.cmp(
                    CondOp::Gt,
                    FlagReg::F0,
                    Operand::rud(26),
                    Operand::imm_ud(0),
                );
                b.while_(Predicate::normal(FlagReg::F0));
            }
        }
    }
    // Digest: out[gid] = sum of all value registers.
    let acc = Operand::rf(28);
    b.mov(acc, Operand::imm_f(0.0));
    for i in 0..8u8 {
        b.add(acc, acc, vreg(i));
    }
    b.shl(Operand::rud(30), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(30),
        Operand::rud(30),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(30), acc);
    b.finish().expect("generated kernel is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_mode_invariant(steps in prop::collection::vec(arb_step(), 1..8)) {
        let program = build_kernel(&steps);
        let mut reference: Option<(Vec<u32>, u64)> = None;
        for mode in EngineId::CANONICAL {
            let mut img = MemoryImage::new(1 << 16);
            let out = img.alloc(128 * 4);
            let launch = Launch::new(program.clone(), 128, 64).with_args(&[out]);
            let cfg = GpuConfig::paper_default().with_compaction(mode);
            let r = simulate(&cfg, &launch, &mut img).expect("fuzz kernel completes");
            let words = img.read_u32_slice(out, 128);
            match &reference {
                None => reference = Some((words, r.cycles)),
                Some((ref_words, base_cycles)) => {
                    prop_assert_eq!(ref_words, &words, "memory differs under {}", mode);
                    prop_assert!(
                        r.cycles <= *base_cycles,
                        "{} ({} cycles) slower than baseline ({})",
                        mode, r.cycles, base_cycles
                    );
                }
            }
        }
    }
}
