//! Timing model of the memory subsystem (§2.3, Table 3).
//!
//! All EUs reach the GPU data cache ("L3") through a shared *data cluster*
//! whose peak bandwidth — one or two cache lines per cycle — is the DC1/DC2
//! knob of the paper's execution-time study (Fig. 11). L3 misses go to the
//! CPU-shared LLC and then DRAM. Shared local memory is a separate,
//! highly-banked structure with a fixed pipeline latency plus bank-conflict
//! serialization.

use crate::cache::Cache;
use crate::config::MemConfig;
use serde::{Deserialize, Serialize};

/// Aggregate memory statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    /// Gather-load messages processed.
    pub loads: u64,
    /// Scatter-store messages processed.
    pub stores: u64,
    /// Distinct cache lines requested by global messages (the memory
    /// divergence measure: lines per message).
    pub lines_requested: u64,
    /// L3 lookups that hit.
    pub l3_hits: u64,
    /// L3 lookups that missed.
    pub l3_misses: u64,
    /// LLC lookups that hit.
    pub llc_hits: u64,
    /// LLC lookups that missed (DRAM accesses).
    pub llc_misses: u64,
    /// SLM messages processed.
    pub slm_accesses: u64,
    /// Extra cycles serialized due to SLM bank conflicts.
    pub slm_conflict_cycles: u64,
}

impl MemStats {
    /// Field-wise difference `self - earlier`, used to report per-launch
    /// statistics when one [`MemSystem`] persists across kernel launches.
    pub fn delta(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            lines_requested: self.lines_requested - earlier.lines_requested,
            l3_hits: self.l3_hits - earlier.l3_hits,
            l3_misses: self.l3_misses - earlier.l3_misses,
            llc_hits: self.llc_hits - earlier.llc_hits,
            llc_misses: self.llc_misses - earlier.llc_misses,
            slm_accesses: self.slm_accesses - earlier.slm_accesses,
            slm_conflict_cycles: self.slm_conflict_cycles - earlier.slm_conflict_cycles,
        }
    }

    /// L3 hit rate of this (possibly delta) sample.
    pub fn l3_hit_rate(&self) -> f64 {
        let total = self.l3_hits + self.l3_misses;
        if total == 0 {
            1.0
        } else {
            self.l3_hits as f64 / total as f64
        }
    }

    /// Average distinct lines per global message (≥ 1 when any message was
    /// issued) — the paper's memory-divergence metric.
    pub fn lines_per_message(&self) -> f64 {
        let msgs = self.loads + self.stores;
        if msgs == 0 {
            0.0
        } else {
            self.lines_requested as f64 / msgs as f64
        }
    }
}

impl iwc_telemetry::Instrument for MemStats {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        let j = |name: &str| iwc_telemetry::join(prefix, name);
        snap.set_counter(&j("loads"), self.loads);
        snap.set_counter(&j("stores"), self.stores);
        snap.set_counter(&j("lines_requested"), self.lines_requested);
        snap.set_counter(&j("l3/hits"), self.l3_hits);
        snap.set_counter(&j("l3/misses"), self.l3_misses);
        snap.set_counter(&j("llc/hits"), self.llc_hits);
        snap.set_counter(&j("llc/misses"), self.llc_misses);
        snap.set_counter(&j("slm/accesses"), self.slm_accesses);
        snap.set_counter(&j("slm/conflict_cycles"), self.slm_conflict_cycles);
    }
}

/// The shared memory subsystem.
#[derive(Clone, Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l3: Cache,
    llc: Cache,
    /// Next free data-cluster slot, in cycles (fractional to support
    /// non-integer lines/cycle rates).
    dc_free_at: f64,
    l3_bank_free: Vec<u64>,
    llc_bank_free: Vec<u64>,
    slm_port_free: u64,
    /// Memory statistics.
    pub stats: MemStats,
}

impl MemSystem {
    /// Builds the subsystem from its configuration.
    pub fn new(cfg: MemConfig) -> Self {
        Self {
            l3: Cache::new(cfg.l3, cfg.line_bytes),
            llc: Cache::new(cfg.llc, cfg.line_bytes),
            dc_free_at: 0.0,
            l3_bank_free: vec![0; cfg.l3.banks as usize],
            llc_bank_free: vec![0; cfg.llc.banks as usize],
            slm_port_free: 0,
            stats: MemStats::default(),
            cfg,
        }
    }

    /// Converts per-channel byte addresses into the sorted set of distinct
    /// line addresses.
    pub fn coalesce(&self, addrs: &[u32]) -> Vec<u64> {
        let mut lines = Vec::new();
        self.coalesce_into(addrs, &mut lines);
        lines
    }

    /// [`coalesce`](Self::coalesce) into a caller-owned buffer, so the
    /// per-issue hot path can reuse one allocation across sends.
    pub fn coalesce_into(&self, addrs: &[u32], lines: &mut Vec<u64>) {
        lines.clear();
        lines.extend(
            addrs
                .iter()
                .map(|&a| u64::from(a) / u64::from(self.cfg.line_bytes)),
        );
        lines.sort_unstable();
        lines.dedup();
    }

    /// Issues a global-memory message for the given distinct `lines` at time
    /// `now`; returns the completion time.
    ///
    /// Each line occupies one data-cluster slot (serialized at the
    /// configured lines/cycle rate) and then traverses the hierarchy:
    /// L3 hit, LLC hit, or DRAM.
    pub fn global_access(&mut self, now: u64, lines: &[u64], is_store: bool) -> u64 {
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        self.stats.lines_requested += lines.len() as u64;
        let mut done = now;
        for &line in lines {
            // Data-cluster slot.
            let slot = self.dc_free_at.max(now as f64);
            self.dc_free_at = slot + 1.0 / self.cfg.dc_lines_per_cycle;
            // Saturating from here on: a vanishing bandwidth pushes the
            // slot to `u64::MAX`, which must stay a time past the cycle
            // limit instead of wrapping round to an early completion.
            let slot = slot.ceil() as u64;
            // L3 bank.
            let bank = (line % u64::from(self.cfg.l3.banks)) as usize;
            let l3_start = slot.max(self.l3_bank_free[bank]);
            self.l3_bank_free[bank] = l3_start.saturating_add(1);
            let l3_hit = self.cfg.perfect_l3 || self.l3.access(line);
            let mut ready = l3_start.saturating_add(u64::from(self.cfg.l3.latency));
            if l3_hit {
                self.stats.l3_hits += 1;
            } else {
                self.stats.l3_misses += 1;
                let lbank = (line % u64::from(self.cfg.llc.banks)) as usize;
                let llc_start = ready.max(self.llc_bank_free[lbank]);
                self.llc_bank_free[lbank] = llc_start.saturating_add(1);
                ready = llc_start.saturating_add(u64::from(self.cfg.llc.latency));
                if self.llc.access(line) {
                    self.stats.llc_hits += 1;
                } else {
                    self.stats.llc_misses += 1;
                    ready = ready.saturating_add(u64::from(self.cfg.dram_latency));
                }
            }
            done = done.max(ready);
        }
        done
    }

    /// Issues an SLM message for the given per-channel byte offsets at time
    /// `now`; returns the completion time (fixed latency plus bank-conflict
    /// serialization over 4-byte-interleaved banks).
    pub fn slm_access(&mut self, now: u64, addrs: &[u32]) -> u64 {
        self.stats.slm_accesses += 1;
        let banks = self.cfg.slm_banks;
        let mut per_bank = vec![0u32; banks as usize];
        let mut distinct: Vec<u32> = addrs.iter().map(|&a| a / 4).collect();
        distinct.sort_unstable();
        distinct.dedup(); // broadcast from one word is conflict-free
        for w in distinct {
            per_bank[(w % banks) as usize] += 1;
        }
        let conflict = per_bank.iter().copied().max().unwrap_or(0).max(1);
        self.stats.slm_conflict_cycles += u64::from(conflict - 1);
        // The SLM message port serializes messages: each occupies the port
        // for its conflict-serialized bank cycles.
        let start = self.slm_port_free.max(now);
        self.slm_port_free = start + u64::from(conflict);
        start + u64::from(self.cfg.slm_latency) + u64::from(conflict - 1)
    }

    /// Hit rate of the L3 tag store.
    pub fn l3_hit_rate(&self) -> f64 {
        self.l3.hit_rate()
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn memsys() -> MemSystem {
        MemSystem::new(GpuConfig::paper_default().mem)
    }

    #[test]
    fn coalesce_dedups_lines() {
        let m = memsys();
        // 16 consecutive f32 addresses = one 64B line.
        let addrs: Vec<u32> = (0..16).map(|i| 1024 + 4 * i).collect();
        assert_eq!(m.coalesce(&addrs), vec![16]);
        // Strided by 64B: 16 distinct lines.
        let addrs: Vec<u32> = (0..16).map(|i| 1024 + 64 * i).collect();
        assert_eq!(m.coalesce(&addrs).len(), 16);
    }

    #[test]
    fn first_access_goes_to_dram() {
        let mut m = memsys();
        let t = m.global_access(0, &[100], false);
        // DC slot 0 + L3 miss (7) + LLC miss (10) + DRAM (200).
        assert!(t >= 217, "cold access took {t}");
        assert_eq!(m.stats.l3_misses, 1);
        assert_eq!(m.stats.llc_misses, 1);
    }

    #[test]
    fn second_access_hits_l3() {
        let mut m = memsys();
        let _ = m.global_access(0, &[100], false);
        let t0 = 1000;
        let t = m.global_access(t0, &[100], false);
        assert_eq!(t, t0 + 7, "L3 hit latency");
        assert_eq!(m.stats.l3_hits, 1);
    }

    #[test]
    fn perfect_l3_always_hits() {
        let mut m = MemSystem::new(GpuConfig::paper_default().with_perfect_l3(true).mem);
        let t = m.global_access(0, &[1, 2, 3], false);
        assert!(
            t <= 3 + 7 + 2,
            "perfect L3 bounded by bank+latency, got {t}"
        );
        assert_eq!(m.stats.l3_misses, 0);
    }

    #[test]
    fn dc_bandwidth_serializes_lines() {
        let mut m = MemSystem::new(GpuConfig::paper_default().with_perfect_l3(true).mem);
        let lines: Vec<u64> = (0..16).collect();
        let t_dc1 = m.global_access(0, &lines, false);
        let mut m2 = MemSystem::new(
            GpuConfig::paper_default()
                .with_perfect_l3(true)
                .with_dc_bandwidth(2.0)
                .mem,
        );
        let t_dc2 = m2.global_access(0, &lines, false);
        assert!(t_dc2 < t_dc1, "DC2 ({t_dc2}) must beat DC1 ({t_dc1})");
    }

    #[test]
    fn vanishing_dc_bandwidth_saturates_instead_of_wrapping() {
        let mut m = MemSystem::new(GpuConfig::paper_default().with_dc_bandwidth(1e-300).mem);
        let first = m.global_access(0, &[1, 2], false);
        let second = m.global_access(0, &[3], false);
        assert!(
            first > 1 << 60,
            "two lines at 1e-300 lines/cycle took {first}"
        );
        assert_eq!(second, u64::MAX, "a saturated cluster must stay saturated");
    }

    #[test]
    fn slm_conflict_free_broadcast() {
        let mut m = memsys();
        // All channels read the same word: no conflict.
        let t = m.slm_access(10, &[128; 16]);
        assert_eq!(t, 15);
        assert_eq!(m.stats.slm_conflict_cycles, 0);
    }

    #[test]
    fn slm_bank_conflicts_serialize() {
        let mut m = memsys();
        // All channels hit bank 0 with distinct words: 16-way conflict.
        let addrs: Vec<u32> = (0..16u32).map(|i| i * 16 * 4).collect();
        let t = m.slm_access(0, &addrs);
        assert_eq!(t, 5 + 15);
        assert_eq!(m.stats.slm_conflict_cycles, 15);
    }

    #[test]
    fn slm_conflict_free_unit_stride() {
        let mut m = memsys();
        let addrs: Vec<u32> = (0..16u32).map(|i| i * 4).collect();
        assert_eq!(m.slm_access(0, &addrs), 5);
    }

    #[test]
    fn lines_per_message_metric() {
        let mut m = memsys();
        let _ = m.global_access(0, &[1], false);
        let _ = m.global_access(0, &[2, 3, 4], false);
        assert_eq!(m.stats.lines_per_message(), 2.0);
    }
}
