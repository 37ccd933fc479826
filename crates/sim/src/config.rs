//! Simulator configuration (Table 3 of the paper).

use iwc_compaction::EngineId;
use serde::{Deserialize, Serialize};

/// Cache geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Number of banks (parallel access ports).
    pub banks: u32,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets given the line size.
    pub fn sets(&self, line_bytes: u32) -> u32 {
        (self.size_bytes / line_bytes / self.ways).max(1)
    }
}

/// Memory-subsystem configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Cache line size in bytes (64 throughout the paper).
    pub line_bytes: u32,
    /// Shared local memory latency in cycles.
    pub slm_latency: u32,
    /// Number of SLM banks (4-byte interleaved).
    pub slm_banks: u32,
    /// GPU data cache (the paper's "L3").
    pub l3: CacheConfig,
    /// Last-level cache shared with the CPU cores.
    pub llc: CacheConfig,
    /// DRAM access latency in cycles (beyond LLC).
    pub dram_latency: u32,
    /// Peak data-cluster bandwidth in cache lines per cycle between the EUs
    /// and the L3 (the paper's DC1 = 1.0, DC2 = 2.0 study).
    pub dc_lines_per_cycle: f64,
    /// When true, every global access hits in L3 (the "perfect L3" model of
    /// Fig. 12).
    pub perfect_l3: bool,
}

/// Register-file operand-access timing (§4.3): how a single-ported file
/// provides multi-operand access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RfTiming {
    /// Operands are fetched over multiple cycles (e.g. four cycles for a
    /// 3-read-1-write FMA) — the fetch occupies the pipe ahead of execution.
    MultiCycle,
    /// Multiple parallel banks / a multi-pumped file deliver all operands in
    /// parallel with decode; no extra pipe occupancy ("for BCC and SCC which
    /// cause execution cycle reduction, multi-pumping and multi-banking are
    /// the preferred options").
    #[default]
    Pumped,
}

/// Which functional interpreter executes instructions.
///
/// Both backends are architecturally identical — the differential test in
/// `crates/sim/tests/decoded_equivalence.rs` proves byte-identical
/// [`SimResult`](crate::SimResult)s over the whole workload catalog — so
/// this knob only trades simulator wall-clock speed against auditability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecBackend {
    /// Resolve from the `IWC_EXEC` environment variable (`"reference"`
    /// selects the reference interpreter; anything else, or unset, selects
    /// the decoded plans). Read once per process.
    #[default]
    Auto,
    /// Decode-once micro-op plans with raw-byte lane loops
    /// ([`crate::plan`]): the fast path.
    Decoded,
    /// The original instruction-at-a-time interpreter
    /// ([`crate::exec::reference`]): the semantic oracle.
    Reference,
}

impl ExecBackend {
    /// Resolves `Auto` against the `IWC_EXEC` environment variable
    /// (cached after the first read; explicit variants are returned
    /// unchanged).
    pub fn resolve(self) -> ExecBackend {
        use std::sync::OnceLock;
        static FROM_ENV: OnceLock<ExecBackend> = OnceLock::new();
        match self {
            ExecBackend::Auto => {
                *FROM_ENV.get_or_init(|| match std::env::var("IWC_EXEC").as_deref() {
                    Ok("reference") => ExecBackend::Reference,
                    _ => ExecBackend::Decoded,
                })
            }
            explicit => explicit,
        }
    }
}

/// Full GPU configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of execution units.
    pub eus: u32,
    /// Hardware threads per EU.
    pub threads_per_eu: u32,
    /// Hardware ALU width in channels (4 for Ivy Bridge EUs).
    pub alu_width: u32,
    /// Instructions the front end can issue per cycle (1 = the paper's
    /// "two instructions every two cycles"). §4.3 notes that compression
    /// raises the required front-end bandwidth; this knob is the ablation.
    pub issue_per_cycle: u32,
    /// Register-file operand-access timing (§4.3).
    pub rf_timing: RfTiming,
    /// L1 instruction-cache latency in cycles on a miss (a group of EUs
    /// shares the I$, §2.3; 0 disables instruction-fetch modeling).
    pub icache_miss_latency: u32,
    /// L1 instruction-cache capacity in *instructions* (fully associative
    /// FIFO model; kernels larger than this thrash the front end).
    pub icache_insns: u32,
    /// Divergence optimization of the execution pipeline: a handle into the
    /// process-wide [`iwc_compaction::EngineRegistry`].
    pub compaction: EngineId,
    /// When true, every executed SIMD instruction's execution mask is
    /// recorded in the run statistics (the trace-capture hook of §5.1:
    /// "we have instrumented the functional model to obtain SIMD execution
    /// masks for every executed instruction").
    pub capture_masks: bool,
    /// When true, every issue event (cycle, thread, pipe, waves) is recorded
    /// for [`timeline`](crate::timeline) rendering. Debugging aid; off by
    /// default.
    pub record_issue_log: bool,
    /// When true, per-static-instruction divergence profiles (executions,
    /// enabled-channel and quad-occupancy histograms, per-engine cycle
    /// cost) are accumulated in [`EuStats`](crate::EuStats). Off by
    /// default: the hot issue path then takes a single predictable branch.
    pub profile_insns: bool,
    /// Functional interpreter selection (timing-neutral; see
    /// [`ExecBackend`]).
    pub exec: ExecBackend,
    /// FPU pipeline depth (issue-to-writeback latency beyond occupancy).
    pub fpu_latency: u32,
    /// Extended-math pipeline depth.
    pub em_latency: u32,
    /// Memory subsystem parameters.
    pub mem: MemConfig,
}

impl GpuConfig {
    /// The configuration of Table 3: 6 EUs × 6 threads, SLM 64 KB / 5 cyc,
    /// L3 128 KB / 64-way / 4 banks / 7 cyc, LLC 2 MB / 16-way / 8 banks /
    /// 10 cyc, issue 2 instructions every 2 cycles, DC1 bandwidth.
    pub fn paper_default() -> Self {
        Self {
            eus: 6,
            threads_per_eu: 6,
            alu_width: 4,
            issue_per_cycle: 1,
            rf_timing: RfTiming::Pumped,
            icache_miss_latency: 20,
            icache_insns: 4096,
            compaction: EngineId::IVY_BRIDGE,
            capture_masks: false,
            record_issue_log: false,
            profile_insns: false,
            exec: ExecBackend::Auto,
            // Issue-to-writeback depth beyond pipe occupancy. Gen EUs forward
            // results between dependent ALU ops, so the effective latency seen
            // by the scoreboard is short.
            fpu_latency: 2,
            em_latency: 6,
            mem: MemConfig {
                line_bytes: 64,
                slm_latency: 5,
                slm_banks: 16,
                l3: CacheConfig {
                    size_bytes: 128 << 10,
                    ways: 64,
                    banks: 4,
                    latency: 7,
                },
                llc: CacheConfig {
                    size_bytes: 2 << 20,
                    ways: 16,
                    banks: 8,
                    latency: 10,
                },
                dram_latency: 200,
                dc_lines_per_cycle: 1.0,
                perfect_l3: false,
            },
        }
    }

    /// Paper default with a different compaction engine — any registry
    /// [`EngineId`], so ablation engines slot in without new plumbing.
    pub fn with_compaction(mut self, engine: EngineId) -> Self {
        self.compaction = engine;
        self
    }

    /// Paper default with the DC2 (two lines per cycle) data cluster.
    pub fn with_dc_bandwidth(mut self, lines_per_cycle: f64) -> Self {
        self.mem.dc_lines_per_cycle = lines_per_cycle;
        self
    }

    /// Paper default with a perfect (infinite) L3.
    pub fn with_perfect_l3(mut self, perfect: bool) -> Self {
        self.mem.perfect_l3 = perfect;
        self
    }

    /// Paper default with issue-event recording for timeline rendering.
    pub fn with_issue_log(mut self, record: bool) -> Self {
        self.record_issue_log = record;
        self
    }

    /// Paper default with execution-mask capture enabled.
    pub fn with_mask_capture(mut self, capture: bool) -> Self {
        self.capture_masks = capture;
        self
    }

    /// Paper default with per-instruction divergence profiling enabled.
    pub fn with_insn_profile(mut self, profile: bool) -> Self {
        self.profile_insns = profile;
        self
    }

    /// Paper default with a wider front end (issue slots per cycle).
    pub fn with_issue_per_cycle(mut self, n: u32) -> Self {
        self.issue_per_cycle = n.max(1);
        self
    }

    /// Paper default with a different register-file timing option.
    pub fn with_rf_timing(mut self, timing: RfTiming) -> Self {
        self.rf_timing = timing;
        self
    }

    /// Paper default with an explicit functional-interpreter backend.
    pub fn with_exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Single-EU configuration for micro-benchmarks.
    pub fn single_eu() -> Self {
        let mut c = Self::paper_default();
        c.eus = 1;
        c
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table3() {
        let c = GpuConfig::paper_default();
        assert_eq!(c.eus, 6);
        assert_eq!(c.threads_per_eu, 6);
        assert_eq!(c.mem.slm_latency, 5);
        assert_eq!(c.mem.l3.size_bytes, 128 << 10);
        assert_eq!(c.mem.l3.ways, 64);
        assert_eq!(c.mem.l3.banks, 4);
        assert_eq!(c.mem.l3.latency, 7);
        assert_eq!(c.mem.llc.size_bytes, 2 << 20);
        assert_eq!(c.mem.llc.latency, 10);
        assert_eq!(c.mem.dc_lines_per_cycle, 1.0);
    }

    #[test]
    fn cache_sets() {
        let c = GpuConfig::paper_default().mem.l3;
        assert_eq!(c.sets(64), 32); // 128KB / 64B / 64 ways
    }

    #[test]
    fn builders_chain() {
        let c = GpuConfig::paper_default()
            .with_compaction(EngineId::SCC)
            .with_dc_bandwidth(2.0)
            .with_perfect_l3(true);
        assert_eq!(c.compaction, EngineId::SCC);
        assert_eq!(c.mem.dc_lines_per_cycle, 2.0);
        assert!(c.mem.perfect_l3);
    }
}
