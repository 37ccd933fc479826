//! Quartile micro-op expansion (§4.1 of the paper).
//!
//! A SIMD16 macro instruction is treated internally as four quartile
//! micro-ops (`ADD.Q0` … `ADD.Q3`), each covering one quad of channels and a
//! 128-bit half of each operand register. BCC suppresses the issue of
//! micro-ops whose quad is fully disabled — along with their operand fetches
//! and write-backs, which is where the register-file energy savings come
//! from.

use crate::engine::EngineId;
use crate::scc::SccSchedule;
use iwc_isa::insn::Instruction;
use iwc_isa::mask::{ExecMask, QUAD};
use iwc_isa::reg::GRF_BYTES;
use serde::{Deserialize, Serialize};

/// Half of a 256-bit GRF register (the BCC register file of Fig. 5(b) is
/// addressable at this 128-bit granularity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegHalf {
    /// GRF register number.
    pub reg: u8,
    /// 0 = lower 128 bits (`.H0`), 1 = upper (`.H1`).
    pub half: u8,
}

/// One quartile micro-op of a macro instruction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Quartile index within the macro instruction (0-based).
    pub quartile: u8,
    /// 4-bit channel-enable mask within the quad.
    pub quad_mask: u8,
    /// Register halves fetched for the sources.
    pub src_fetches: Vec<RegHalf>,
    /// Register half written by the destination, if any.
    pub dst_writeback: Option<RegHalf>,
}

/// Expansion of one macro instruction into issued micro-ops, with
/// suppressed-fetch accounting.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Expansion {
    /// Micro-ops actually issued, in issue order.
    pub issued: Vec<MicroOp>,
    /// Number of quartile micro-ops suppressed relative to baseline.
    pub suppressed: u32,
    /// Operand-fetch register-half accesses saved relative to baseline.
    pub fetches_saved: u32,
    /// Write-back register-half accesses saved relative to baseline.
    pub writebacks_saved: u32,
}

fn reg_half_of(reg_opt: Option<u8>, width: u32, elem_bytes: u32, quartile: u32) -> Option<RegHalf> {
    let base = reg_opt?;
    // Byte offset of the quartile's first channel within the operand.
    let byte = quartile * QUAD * elem_bytes;
    let reg = base as u32 + byte / GRF_BYTES;
    let half = (byte % GRF_BYTES) / (GRF_BYTES / 2);
    // Quartiles that span less than a half register (narrow types at narrow
    // widths) still fetch the half they live in.
    let _ = width;
    Some(RegHalf {
        reg: reg as u8,
        half: half as u8,
    })
}

/// Expands `insn` executed under `mask` into quartile micro-ops according to
/// the compaction mode.
///
/// # Examples
///
/// The §4.1 worked example — `ADD(16) R12, R8, R10` with mask `0xF0F0`
/// suppresses `ADD.Q0` and `ADD.Q2` under BCC:
///
/// ```
/// use iwc_compaction::{expand, EngineId};
/// use iwc_isa::{DataType, ExecMask, Instruction, Opcode, Operand};
///
/// let insn = Instruction::alu(
///     Opcode::Add, 16, DataType::F,
///     Operand::rf(12), &[Operand::rf(8), Operand::rf(10)],
/// );
/// let e = expand(&insn, ExecMask::new(0xF0F0, 16), EngineId::BCC);
/// let quartiles: Vec<u8> = e.issued.iter().map(|m| m.quartile).collect();
/// assert_eq!(quartiles, vec![1, 3]);
/// assert_eq!(e.fetches_saved, 4); // two sources for each suppressed quartile
/// ```
///
/// * `Baseline` issues every quartile (even fully-disabled ones).
/// * `IvyBridge` suppresses the idle half of a half-idle SIMD16 instruction.
/// * `Bcc` suppresses every fully-disabled quartile.
/// * `Scc` issues ⌈active/4⌉ packed micro-ops; packed micro-ops fetch the
///   *full-width* operand once per source (the 512-bit latch of Fig. 5(c)),
///   so SCC saves execution cycles but not operand fetches (§4.2).
///
/// # Panics
///
/// Panics if the mask width differs from the instruction execution width.
pub fn expand(insn: &Instruction, mask: ExecMask, engine: EngineId) -> Expansion {
    engine.engine().expand(insn, mask)
}

/// Expands `insn` into the quartile micro-ops named by `issue_set` — the
/// shared body of the quartile-issue engines (baseline / IVB / BCC), which
/// differ only in which quartiles they issue.
pub(crate) fn expand_quartiles(insn: &Instruction, mask: ExecMask, issue_set: &[u32]) -> Expansion {
    assert_eq!(
        mask.width(),
        insn.exec_width,
        "mask width {} != instruction width {}",
        mask.width(),
        insn.exec_width
    );
    let elem = insn.dtype.size_bytes();
    let quads = mask.quad_count();
    let src_regs: Vec<Option<u8>> = insn.read_operands().iter().map(|o| o.grf_reg()).collect();
    let dst_reg = insn.dst.grf_reg();

    let issued: Vec<MicroOp> = issue_set
        .iter()
        .map(|&q| MicroOp {
            quartile: q as u8,
            quad_mask: mask.quad_bits(q),
            src_fetches: src_regs
                .iter()
                .filter_map(|&r| reg_half_of(r, insn.exec_width, elem, q))
                .collect(),
            dst_writeback: reg_half_of(dst_reg, insn.exec_width, elem, q),
        })
        .collect();
    let per_quartile_fetches = src_regs.iter().flatten().count() as u32;
    let suppressed = quads - issued.len() as u32;
    Expansion {
        suppressed,
        fetches_saved: suppressed * per_quartile_fetches,
        writebacks_saved: if dst_reg.is_some() { suppressed } else { 0 },
        issued,
    }
}

/// Expands `insn` into the packed micro-ops of a swizzle schedule — the
/// shared body of the swizzling engines (SCC and its limited-reach
/// variants). Packed micro-ops fetch the *full-width* operand once per
/// source (the 512-bit latch of Fig. 5(c)), charged to the first micro-op.
pub(crate) fn expand_scheduled(
    insn: &Instruction,
    mask: ExecMask,
    sched: &SccSchedule,
) -> Expansion {
    assert_eq!(
        mask.width(),
        insn.exec_width,
        "mask width {} != instruction width {}",
        mask.width(),
        insn.exec_width
    );
    let elem = insn.dtype.size_bytes();
    let quads = mask.quad_count();
    let src_regs: Vec<Option<u8>> = insn.read_operands().iter().map(|o| o.grf_reg()).collect();
    let dst_reg = insn.dst.grf_reg();

    let per_fetch: Vec<RegHalf> = src_regs
        .iter()
        .flat_map(|&r| {
            // A full-width operand fetch touches every half the operand
            // spans; it happens once per source for the whole macro op.
            r.map(|base| {
                let total_bytes = insn.exec_width * elem;
                let halves = total_bytes.div_ceil(GRF_BYTES / 2);
                (0..halves).map(move |h| RegHalf {
                    reg: (u32::from(base) + h / 2) as u8,
                    half: (h % 2) as u8,
                })
            })
        })
        .flatten()
        .collect();
    let mut issued = Vec::new();
    for (c, slots) in sched.cycles().iter().enumerate() {
        let quad_mask = slots.iter().enumerate().fold(0u8, |m, (n, s)| {
            if s.channel(n as u8).is_some() {
                m | 1 << n
            } else {
                m
            }
        });
        issued.push(MicroOp {
            quartile: c as u8,
            quad_mask,
            // Operand fetch cost is charged to the first micro-op; the
            // rest consume the latched full-width operand.
            src_fetches: if c == 0 {
                per_fetch.clone()
            } else {
                Vec::new()
            },
            dst_writeback: dst_reg.map(|base| RegHalf { reg: base, half: 0 }),
        });
    }
    let baseline_fetches = quads * src_regs.iter().flatten().count() as u32;
    let actual: u32 = issued.iter().map(|m| m.src_fetches.len() as u32).sum();
    let baseline_wb = if dst_reg.is_some() { quads } else { 0 };
    let actual_wb = issued.iter().filter(|m| m.dst_writeback.is_some()).count() as u32;
    Expansion {
        suppressed: quads.saturating_sub(issued.len() as u32),
        fetches_saved: baseline_fetches.saturating_sub(actual),
        writebacks_saved: baseline_wb.saturating_sub(actual_wb),
        issued,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_isa::insn::Opcode;
    use iwc_isa::reg::Operand;
    use iwc_isa::types::DataType;

    fn add16() -> Instruction {
        // The §4.1 example: ADD(16) R12, R8, R10 with mask 0xF0F0.
        Instruction::alu(
            Opcode::Add,
            16,
            DataType::F,
            Operand::rf(12),
            &[Operand::rf(8), Operand::rf(10)],
        )
    }

    #[test]
    fn paper_example_bcc_suppresses_q0_q2() {
        let e = expand(&add16(), ExecMask::new(0xF0F0, 16), EngineId::BCC);
        let quartiles: Vec<u8> = e.issued.iter().map(|m| m.quartile).collect();
        assert_eq!(quartiles, vec![1, 3], "ADD.Q0 and ADD.Q2 suppressed");
        assert_eq!(e.suppressed, 2);
        // Two sources per suppressed quartile = 4 fetches saved, 2 writebacks.
        assert_eq!(e.fetches_saved, 4);
        assert_eq!(e.writebacks_saved, 2);
    }

    #[test]
    fn paper_example_register_halves() {
        let e = expand(&add16(), ExecMask::new(0xF0F0, 16), EngineId::BCC);
        // ADD.Q1 accesses R12.H1, R8.H1, R10.H1; ADD.Q3 accesses R13.H1 etc.
        let q1 = &e.issued[0];
        assert_eq!(
            q1.src_fetches,
            vec![RegHalf { reg: 8, half: 1 }, RegHalf { reg: 10, half: 1 }]
        );
        assert_eq!(q1.dst_writeback, Some(RegHalf { reg: 12, half: 1 }));
        let q3 = &e.issued[1];
        assert_eq!(
            q3.src_fetches,
            vec![RegHalf { reg: 9, half: 1 }, RegHalf { reg: 11, half: 1 }]
        );
        assert_eq!(q3.dst_writeback, Some(RegHalf { reg: 13, half: 1 }));
    }

    #[test]
    fn baseline_issues_all_quartiles() {
        let e = expand(&add16(), ExecMask::new(0xF0F0, 16), EngineId::BASELINE);
        assert_eq!(e.issued.len(), 4);
        assert_eq!(e.suppressed, 0);
        assert_eq!(e.fetches_saved, 0);
    }

    #[test]
    fn ivb_suppresses_idle_half_only() {
        let e = expand(&add16(), ExecMask::new(0x00F0, 16), EngineId::IVY_BRIDGE);
        let quartiles: Vec<u8> = e.issued.iter().map(|m| m.quartile).collect();
        assert_eq!(quartiles, vec![0, 1]);
        // 0xF0F0 is not half-idle: nothing suppressed.
        let e = expand(&add16(), ExecMask::new(0xF0F0, 16), EngineId::IVY_BRIDGE);
        assert_eq!(e.issued.len(), 4);
    }

    #[test]
    fn bcc_all_disabled_issues_one_microop() {
        let e = expand(&add16(), ExecMask::none(16), EngineId::BCC);
        assert_eq!(e.issued.len(), 1);
        assert_eq!(e.issued[0].quad_mask, 0);
    }

    #[test]
    fn scc_packs_and_charges_single_fetch() {
        let e = expand(&add16(), ExecMask::new(0x1111, 16), EngineId::SCC);
        assert_eq!(e.issued.len(), 1, "4 channels pack into one cycle");
        assert_eq!(e.issued[0].quad_mask, 0xF);
        // Full-width fetch: 2 sources × 4 halves each = 8 half-fetches, vs
        // baseline 4 quartiles × 2 = 8: SCC saves cycles, not fetches (§4.2).
        assert_eq!(e.fetches_saved, 0);
        assert_eq!(e.suppressed, 3);
    }

    #[test]
    fn issued_count_matches_cycle_model() {
        use crate::cycles::waves;
        for bits in [0u32, 0x1, 0xF0F0, 0xAAAA, 0x00FF, 0xFFFF, 0x8001] {
            let m = ExecMask::new(bits, 16);
            for mode in EngineId::CANONICAL {
                let e = expand(&add16(), m, mode);
                assert_eq!(
                    e.issued.len() as u32,
                    waves(m, mode),
                    "mask {bits:#x} mode {mode}"
                );
            }
        }
    }
}
