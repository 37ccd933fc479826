//! Dynamic-energy model of cycle compression (§4.3).
//!
//! The paper discusses energy qualitatively: "BCC and SCC optimizations
//! offer dynamic energy reductions through opportunistic execution cycle
//! reductions. With a BCC optimized register file, one can expect to save
//! operand fetch energy in cases where BCC is effective" — while SCC's
//! full-width operand latch means it saves execution energy but *not* fetch
//! energy, and its crossbar and control logic add a modest overhead.
//!
//! This module turns those statements into a first-order per-instruction
//! energy model (arbitrary units, consistent with [`crate::rf::RfModel`])
//! so workloads can be compared across modes.

use crate::engine::EngineId;
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use serde::{Deserialize, Serialize};

/// Energy cost coefficients (arbitrary units).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of executing one 4-channel wave in the ALU.
    pub wave_exec: f64,
    /// Energy of routing one channel through the SCC crossbar.
    pub swizzle_per_channel: f64,
    /// Control-logic energy per instruction for computing SCC settings
    /// (BCC's control is simple enough to fold into decode).
    pub scc_control: f64,
    /// Number of source operands assumed per instruction (the paper's FMA
    /// example is 3r-1w; 2 is typical).
    pub srcs_per_insn: u32,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            wave_exec: 80.0,
            swizzle_per_channel: 6.0,
            scc_control: 10.0,
            srcs_per_insn: 2,
        }
    }
}

impl EnergyModel {
    /// Dynamic energy of one instruction with execution mask `mask` under
    /// `engine`: operand fetches + write-backs from the mode's register file
    /// organization, ALU wave execution, and (for SCC) crossbar + control
    /// overhead. The per-mode formulas live in the mode's [`crate::engine`]
    /// implementation; this method dispatches to the matching engine.
    ///
    /// # Examples
    ///
    /// ```
    /// use iwc_compaction::{EngineId, EnergyModel};
    /// use iwc_isa::{DataType, ExecMask};
    ///
    /// let e = EnergyModel::default();
    /// let sparse = ExecMask::new(0x000F, 16);
    /// // BCC suppresses 3 of 4 quartiles — execution AND fetch energy drop.
    /// let bcc = e.instruction_energy(sparse, DataType::F, EngineId::BCC);
    /// let base = e.instruction_energy(sparse, DataType::F, EngineId::BASELINE);
    /// assert!(bcc < base / 2.0);
    /// ```
    pub fn instruction_energy(&self, mask: ExecMask, dtype: DataType, engine: EngineId) -> f64 {
        engine.engine().energy(self, mask, dtype)
    }

    /// Total energy of a mask stream under `engine`.
    pub fn stream_energy<'a, I>(&self, stream: I, engine: EngineId) -> f64
    where
        I: IntoIterator<Item = &'a (ExecMask, DataType)>,
    {
        stream
            .into_iter()
            .map(|&(m, d)| self.instruction_energy(m, d, engine))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m16(bits: u32) -> ExecMask {
        ExecMask::new(bits, 16)
    }

    #[test]
    fn bcc_saves_energy_on_idle_quads() {
        let e = EnergyModel::default();
        let sparse = m16(0x000F);
        let bcc = e.instruction_energy(sparse, DataType::F, EngineId::BCC);
        let base = e.instruction_energy(sparse, DataType::F, EngineId::BASELINE);
        assert!(bcc < base * 0.5, "bcc {bcc:.1} vs baseline {base:.1}");
    }

    #[test]
    fn full_mask_bcc_energy_close_to_baseline() {
        let e = EnergyModel::default();
        let full = ExecMask::all(16);
        let bcc = e.instruction_energy(full, DataType::F, EngineId::BCC);
        let base = e.instruction_energy(full, DataType::F, EngineId::BASELINE);
        assert!(
            (bcc / base - 1.0).abs() < 0.1,
            "bcc {bcc:.1} vs baseline {base:.1}"
        );
    }

    #[test]
    fn scc_saves_execution_but_not_fetch() {
        let e = EnergyModel::default();
        let strided = m16(0xAAAA);
        let scc = e.instruction_energy(strided, DataType::F, EngineId::SCC);
        let base = e.instruction_energy(strided, DataType::F, EngineId::BASELINE);
        let bcc = e.instruction_energy(strided, DataType::F, EngineId::BCC);
        assert!(
            scc < base,
            "SCC should still win on 0xAAAA: {scc:.1} vs {base:.1}"
        );
        assert!(scc < bcc, "BCC can't compress 0xAAAA");
        // But SCC's saving is less than its 50% cycle saving would suggest
        // because the full-width fetch is not compressed.
        let cycle_ratio = 0.5;
        assert!(scc / base > cycle_ratio, "energy saves less than cycles");
    }

    #[test]
    fn wide_types_cost_double() {
        let e = EnergyModel::default();
        let m = m16(0xFFFF);
        let f = e.instruction_energy(m, DataType::F, EngineId::BASELINE);
        let df = e.instruction_energy(m, DataType::Df, EngineId::BASELINE);
        assert!(df > 1.8 * f);
    }

    #[test]
    fn stream_energy_sums() {
        let e = EnergyModel::default();
        let stream = vec![(m16(0xFFFF), DataType::F), (m16(0x000F), DataType::F)];
        let total = e.stream_energy(&stream, EngineId::BCC);
        let parts: f64 = stream
            .iter()
            .map(|&(m, d)| e.instruction_energy(m, d, EngineId::BCC))
            .sum();
        assert_eq!(total, parts);
    }
}
