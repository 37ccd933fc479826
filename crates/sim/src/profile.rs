//! Per-instruction and per-basic-block divergence profiles.
//!
//! When [`GpuConfig::profile_insns`](crate::GpuConfig::profile_insns) is
//! set, the issue path records every executed SIMD instruction against its
//! *static* program counter: execution count, an enabled-channel histogram,
//! a quad-occupancy histogram, and — for computation — the execution-cycle
//! cost under every canonical engine (via the memoized SCC schedule, so the
//! per-issue overhead is a table lookup). The result answers the question
//! the aggregate tallies cannot: *which* instructions (and which basic
//! blocks) would intra-warp compaction speed up.

use iwc_compaction::cycles::CycleBreakdown;
use iwc_compaction::EngineId;
use iwc_isa::mask::ExecMask;
use iwc_isa::program::Program;
use iwc_isa::types::DataType;
use iwc_telemetry::Pow2Hist;
use serde::{Deserialize, Serialize};

/// Divergence statistics of one static instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InsnStat {
    /// Times the instruction issued (any pipe).
    pub execs: u64,
    /// Times the instruction was skipped for free on an all-disabled mask.
    pub zero_skips: u64,
    /// Enabled channels per execution.
    pub channels: Pow2Hist,
    /// Occupied (≥1 enabled lane) quads per execution.
    pub quads: Pow2Hist,
    /// Accumulated execution-cycle cost under every canonical engine
    /// (computation instructions only; zero for sends and control flow).
    pub cycles: CycleBreakdown,
}

impl InsnStat {
    /// Cycles this instruction would save going from `from` to `to`
    /// (saturating at zero).
    pub fn savings(&self, from: EngineId, to: EngineId) -> u64 {
        self.cycles.get(from).saturating_sub(self.cycles.get(to))
    }

    /// Mean enabled channels per execution.
    pub fn mean_channels(&self) -> f64 {
        self.channels.mean()
    }

    /// Adds another instruction's samples (used when merging per-EU
    /// profiles of the same program).
    pub fn merge(&mut self, other: &InsnStat) {
        self.execs += other.execs;
        self.zero_skips += other.zero_skips;
        self.channels.merge(&other.channels);
        self.quads.merge(&other.quads);
        self.cycles.accumulate(other.cycles);
    }
}

/// Per-static-instruction divergence profile of one kernel run.
///
/// Indexed by program counter; the vector grows lazily to the highest
/// profiled pc, so an empty profile costs nothing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// One entry per static instruction, indexed by pc.
    pub insns: Vec<InsnStat>,
}

impl KernelProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    fn slot(&mut self, pc: usize) -> &mut InsnStat {
        if self.insns.len() <= pc {
            self.insns.resize_with(pc + 1, InsnStat::default);
        }
        &mut self.insns[pc]
    }

    /// Records one issued instruction at `pc`. `compute` selects whether
    /// the per-engine cycle model applies (FPU/EM pipes only).
    pub fn record(&mut self, pc: usize, mask: ExecMask, dtype: DataType, compute: bool) {
        let s = self.slot(pc);
        s.execs += 1;
        s.channels.record(u64::from(mask.active_channels()));
        s.quads.record(u64::from(mask.active_quads()));
        if compute {
            s.cycles.accumulate(CycleBreakdown::of(mask, dtype));
        }
    }

    /// Records one zero-mask skip at `pc`.
    pub fn record_skip(&mut self, pc: usize) {
        self.slot(pc).zero_skips += 1;
    }

    /// Merges another profile of the same program.
    pub fn merge(&mut self, other: &KernelProfile) {
        if self.insns.len() < other.insns.len() {
            self.insns.resize_with(other.insns.len(), InsnStat::default);
        }
        for (a, b) in self.insns.iter_mut().zip(other.insns.iter()) {
            a.merge(b);
        }
    }

    /// Program counters ranked by compaction-cycle savings (`from` → `to`),
    /// largest first, zero-savings entries dropped.
    pub fn hotspots(&self, from: EngineId, to: EngineId) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .insns
            .iter()
            .enumerate()
            .map(|(pc, s)| (pc, s.savings(from, to)))
            .filter(|&(_, saved)| saved > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Per-basic-block aggregate profile for `program`, in block order.
    pub fn by_block(&self, program: &Program) -> Vec<BlockStat> {
        program
            .basic_blocks()
            .into_iter()
            .map(|range| {
                let mut agg = InsnStat::default();
                for pc in range.clone() {
                    if let Some(s) = self.insns.get(pc) {
                        agg.merge(s);
                    }
                }
                BlockStat { range, stat: agg }
            })
            .collect()
    }
}

/// Aggregate divergence statistics of one basic block.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockStat {
    /// Instruction range of the block.
    pub range: std::ops::Range<usize>,
    /// Sum of the block's per-instruction statistics. `execs` counts
    /// instruction issues, not block entries.
    pub stat: InsnStat,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rank() {
        let mut p = KernelProfile::new();
        // pc 3: divergent (4/16 channels, saves cycles), executed twice.
        let sparse = ExecMask::new(0x1111, 16);
        p.record(3, sparse, DataType::F, true);
        p.record(3, sparse, DataType::F, true);
        // pc 1: full mask, incompressible.
        p.record(1, ExecMask::all(16), DataType::F, true);
        // pc 5: a send — no cycle model.
        p.record(5, sparse, DataType::F, false);
        p.record_skip(2);

        assert_eq!(p.insns[3].execs, 2);
        assert_eq!(p.insns[3].cycles.baseline, 8);
        assert_eq!(p.insns[3].cycles.scc, 2);
        assert_eq!(p.insns[2].zero_skips, 1);
        assert_eq!(p.insns[5].cycles, CycleBreakdown::default());
        assert_eq!(p.insns[3].mean_channels(), 4.0);

        let hot = p.hotspots(EngineId::BASELINE, EngineId::SCC);
        assert_eq!(hot.first(), Some(&(3, 6)));
        // Full-mask and non-compute pcs save nothing and are dropped.
        assert!(hot.iter().all(|&(pc, _)| pc == 3));
    }

    #[test]
    fn merge_grows_and_adds() {
        let mut a = KernelProfile::new();
        a.record(0, ExecMask::all(8), DataType::F, true);
        let mut b = KernelProfile::new();
        b.record(2, ExecMask::all(8), DataType::F, true);
        a.merge(&b);
        assert_eq!(a.insns.len(), 3);
        assert_eq!(a.insns[0].execs, 1);
        assert_eq!(a.insns[2].execs, 1);
    }

    #[test]
    fn block_aggregation() {
        use iwc_isa::{KernelBuilder, Operand};
        let mut kb = KernelBuilder::new("k", 8);
        kb.add(Operand::rud(6), Operand::rud(1), Operand::imm_ud(1));
        kb.add(Operand::rud(7), Operand::rud(6), Operand::imm_ud(2));
        let program = kb.finish().expect("valid kernel");

        let mut p = KernelProfile::new();
        for pc in 0..program.len() {
            p.record(pc, ExecMask::all(8), DataType::F, true);
        }
        let blocks = p.by_block(&program);
        assert_eq!(blocks.len(), program.basic_blocks().len());
        let total: u64 = blocks.iter().map(|b| b.stat.execs).sum();
        assert_eq!(total, program.len() as u64);
    }
}
