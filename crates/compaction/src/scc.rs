//! SCC control logic: computing swizzle and lane-enable settings.
//!
//! This module is a faithful Rust implementation of the C pseudo-code in
//! Fig. 6 of the paper, which derives, for each compressed execution cycle,
//! which (quad, lane) element feeds each of the four hardware ALU lanes and
//! whether it arrives *directly* (its home lane) or *swizzled* from a
//! different lane of its quad.
//!
//! The algorithm minimizes intra-quad lane swizzles: a hardware lane `n`
//! first drains its own queue of quads that have channel `n` active
//! (`a_ln_q[n]`); only when that queue is empty does it borrow ("swizzle
//! from") a *surplus* lane — one whose queue is longer than the optimal cycle
//! count. The worked example of Fig. 7 (mask `0xAAAA`) is reproduced in the
//! tests below.
//!
//! # Fast path
//!
//! Real hardware evaluates these settings between decode and issue, so the
//! simulator hits [`SccSchedule::compute`] once per executed instruction.
//! Two layers make that hit O(1):
//!
//! * the schedule itself is allocation-free — a fixed `[CycleSlots; 8]`
//!   array (8 = SIMD32 / 4 is the cycle-count ceiling), making
//!   [`SccSchedule`] `Copy`;
//! * schedules are memoized process-wide: widths ≤ 16 share a lazy
//!   65,536-entry table of [`OnceLock`]s, allocated in 256-entry chunks on
//!   first use (the schedule for a given bit pattern is width-independent
//!   — empty high quads contribute nothing), and SIMD32 masks go through a
//!   bounded per-thread cache.
//!
//! [`SccSchedule::compute_reference`] keeps the original literal
//! transcription of Fig. 6 (per-lane `VecDeque`s); the equivalence of the
//! two implementations is enforced exhaustively over all SIMD16 masks in
//! `crates/compaction/tests/scc_cache.rs`.

use iwc_isa::mask::{ExecMask, QUAD};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// What one hardware ALU lane executes in one compressed cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaneSlot {
    /// The lane is idle this cycle (no surplus work to fill it).
    Disabled,
    /// The lane executes channel `quad*4 + n` of the instruction, where `n`
    /// is this hardware lane — its home position; no swizzle needed.
    Direct {
        /// Source quad index.
        quad: u8,
    },
    /// The lane executes channel `quad*4 + from_lane`, routed across the
    /// intra-quad crossbar from position `from_lane` to this lane.
    Swizzled {
        /// Source quad index.
        quad: u8,
        /// Home lane position of the channel within its quad.
        from_lane: u8,
    },
}

impl LaneSlot {
    /// The absolute channel index this slot executes, if enabled.
    pub fn channel(self, hw_lane: u8) -> Option<u32> {
        match self {
            Self::Disabled => None,
            Self::Direct { quad } => Some(u32::from(quad) * QUAD + u32::from(hw_lane)),
            Self::Swizzled { quad, from_lane } => {
                Some(u32::from(quad) * QUAD + u32::from(from_lane))
            }
        }
    }

    /// True when the slot required the swizzle crossbar.
    pub fn is_swizzled(self) -> bool {
        matches!(self, Self::Swizzled { .. })
    }
}

/// One compressed execution cycle: the four ALU lane assignments.
pub type CycleSlots = [LaneSlot; QUAD as usize];

/// Upper bound on compressed cycles per instruction (SIMD32 / 4).
pub const MAX_SCC_CYCLES: usize = (iwc_isa::mask::MAX_WIDTH / QUAD) as usize;

/// Crossbar settings of one source quad for one cycle (Fig. 5(c)): which
/// bus positions this quad drives and from which of its four input lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuadSwizzle {
    /// Bit `n` set: this quad drives wired-OR bus position `n`.
    pub enables: u8,
    /// `select[n]`: quad-internal input lane routed to bus position `n`
    /// (meaningful only where the enable bit is set).
    pub select: [u8; QUAD as usize],
}

impl QuadSwizzle {
    /// Routes this quad's four input values onto a 4-slot bus (None where
    /// this quad does not drive).
    pub fn route<T: Copy>(&self, inputs: [T; QUAD as usize]) -> [Option<T>; QUAD as usize] {
        let mut out = [None; QUAD as usize];
        for (n, slot) in out.iter_mut().enumerate() {
            if self.enables >> n & 1 == 1 {
                *slot = Some(inputs[self.select[n] as usize]);
            }
        }
        out
    }
}

/// Per-cycle crossbar control for every source quad.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossbarControl {
    /// One swizzle setting per source quad of the instruction.
    pub per_quad: Vec<QuadSwizzle>,
}

impl CrossbarControl {
    /// Drives the wired-OR bus: applies every quad's routing to per-quad
    /// input data and combines the outputs. Panics (in debug) when two
    /// quads drive the same position — a schedule-invariant violation.
    pub fn drive_bus<T: Copy>(
        &self,
        quad_inputs: &[[T; QUAD as usize]],
    ) -> [Option<T>; QUAD as usize] {
        assert_eq!(
            quad_inputs.len(),
            self.per_quad.len(),
            "one input vector per quad"
        );
        let mut bus = [None; QUAD as usize];
        for (q, swz) in self.per_quad.iter().enumerate() {
            for (n, v) in swz.route(quad_inputs[q]).into_iter().enumerate() {
                if let Some(v) = v {
                    debug_assert!(bus[n].is_none(), "bus contention at position {n}");
                    bus[n] = Some(v);
                }
            }
        }
        bus
    }
}

/// The complete SCC schedule for one instruction's execution mask.
///
/// Allocation-free and `Copy`: cycles live in a fixed array sized for the
/// SIMD32 worst case, so memoized schedules are returned by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SccSchedule {
    mask: ExecMask,
    cycles: [CycleSlots; MAX_SCC_CYCLES],
    len: u8,
    swizzle_count: u8,
    bcc_like: bool,
}

/// The O(1) cost summary of an SCC schedule: what per-instruction
/// accounting ([`crate::CompactionTally::add`], the simulator's issue path)
/// actually needs, without touching the per-cycle lane assignments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SccCost {
    /// Compressed execution cycles (= `waves(mask, Scc)`).
    pub cycles: u8,
    /// Channels routed through the swizzle crossbar.
    pub swizzles: u8,
    /// True when empty-quad skipping sufficed (no swizzle hardware used).
    pub bcc_like: bool,
}

impl SccCost {
    /// The SCC cost for `mask`, served from the schedule memo tables.
    pub fn of(mask: ExecMask) -> Self {
        let s = SccSchedule::compute(mask);
        SccCost {
            cycles: s.len,
            swizzles: s.swizzle_count,
            bcc_like: s.bcc_like,
        }
    }
}

/// Entries per chunk of the SIMD16 schedule table.
const SIMD16_CHUNK: usize = 256;

/// Lazy process-wide table of schedules for all bit patterns of widths ≤ 16.
///
/// The Fig. 6 algorithm only looks at per-quad bit groups, and a quad with
/// no active channels contributes nothing to any queue, so the schedule for
/// a bit pattern is identical for every width ≤ 16; one 2^16-entry table
/// serves them all (the stored `mask` is fixed up on retrieval). The table
/// is 7 MiB in full, so it is split into 256-entry chunks allocated on
/// first use: a process pays for the mask ranges it executes.
static SIMD16_CHUNKS: [OnceLock<Box<[OnceLock<SccSchedule>]>>; (1 << 16) / SIMD16_CHUNK] =
    [const { OnceLock::new() }; (1 << 16) / SIMD16_CHUNK];

/// The table entry of a SIMD16 bit pattern.
fn simd16_entry(bits: u32) -> &'static OnceLock<SccSchedule> {
    let bits = bits as usize;
    let chunk = SIMD16_CHUNKS[bits / SIMD16_CHUNK]
        .get_or_init(|| (0..SIMD16_CHUNK).map(|_| OnceLock::new()).collect());
    &chunk[bits % SIMD16_CHUNK]
}

/// Bounded per-thread cache for SIMD32 schedules (2^32 bit patterns rule
/// out an exhaustive table). Cleared wholesale when full: real instruction
/// streams cycle through a small working set of masks, so a reset is rare
/// and the next few instructions simply repopulate it.
const SIMD32_CACHE_CAP: usize = 1 << 13;

thread_local! {
    static SIMD32_CACHE: RefCell<HashMap<u32, SccSchedule>> =
        RefCell::new(HashMap::with_capacity(1024));
}

impl SccSchedule {
    /// Computes the SCC settings for `mask` (Fig. 6 algorithm), served from
    /// the process-wide memo tables (see the module docs).
    ///
    /// An all-disabled mask yields a single fully-disabled cycle (the
    /// instruction still flows down the pipe).
    pub fn compute(mask: ExecMask) -> Self {
        if mask.width() <= 16 {
            let entry = simd16_entry(mask.bits())
                .get_or_init(|| Self::compute_uncached(ExecMask::new(mask.bits(), 16)));
            let mut s = *entry;
            s.mask = mask;
            s
        } else {
            SIMD32_CACHE.with(|cache| {
                let mut cache = cache.borrow_mut();
                if let Some(s) = cache.get(&mask.bits()) {
                    return *s;
                }
                let s = Self::compute_uncached(mask);
                if cache.len() >= SIMD32_CACHE_CAP {
                    cache.clear();
                }
                cache.insert(mask.bits(), s);
                s
            })
        }
    }

    /// Computes the SCC settings for `mask` without consulting the memo
    /// tables. Allocation-free: per-lane quad queues are fixed arrays.
    pub fn compute_uncached(mask: ExecMask) -> Self {
        let quad_count = mask.quad_count();
        // Optimal cycles: ceil(active lanes / 4), at least 1.
        let a_ln_cnt = mask.active_channels();
        let o_cyc_cnt = a_ln_cnt.div_ceil(QUAD).max(1);
        // Active quad count (the BCC cycle count).
        let a_q_cnt = mask.active_quads().max(1);

        let mut cycles = [[LaneSlot::Disabled; QUAD as usize]; MAX_SCC_CYCLES];

        if a_q_cnt == o_cyc_cnt {
            // "skip empty quads, BCC-like. Done" — no swizzling required:
            // iterate active quads in order, enabling each quad's own lanes.
            let mut len = 0u8;
            if mask.is_empty() {
                len = 1; // the single all-disabled cycle is already in place
            } else {
                for q in 0..quad_count {
                    let bits = mask.quad_bits(q);
                    if bits == 0 {
                        continue;
                    }
                    let slots = &mut cycles[len as usize];
                    for (n, slot) in slots.iter_mut().enumerate() {
                        if bits >> n & 1 == 1 {
                            *slot = LaneSlot::Direct { quad: q as u8 };
                        }
                    }
                    len += 1;
                }
            }
            return Self {
                mask,
                cycles,
                len,
                swizzle_count: 0,
                bcc_like: true,
            };
        }

        // a_ln_q[n]: queue of quads with lane n active, as a fixed ring-free
        // array (a lane sees each of the ≤ 8 quads at most once).
        let mut a_ln_q = [[0u8; MAX_SCC_CYCLES]; QUAD as usize];
        let mut q_len = [0u8; QUAD as usize];
        let mut q_head = [0u8; QUAD as usize];
        for q in 0..quad_count {
            let bits = mask.quad_bits(q);
            for n in 0..QUAD as usize {
                if bits >> n & 1 == 1 {
                    a_ln_q[n][q_len[n] as usize] = q as u8;
                    q_len[n] += 1;
                }
            }
        }

        // Initial setup: per-lane surplus over the optimal cycle count.
        let mut surplus = [0u32; QUAD as usize];
        let mut tot_surplus = 0u32;
        for n in 0..QUAD as usize {
            let len = u32::from(q_len[n]);
            if len > o_cyc_cnt {
                surplus[n] = len - o_cyc_cnt;
                tot_surplus += surplus[n];
            }
        }

        // Per cycle, fill each hardware lane: own queue first, then borrow
        // from a surplus lane via the crossbar.
        let mut swizzle_count = 0u8;
        for slots in cycles.iter_mut().take(o_cyc_cnt as usize) {
            for n in 0..QUAD as usize {
                if q_head[n] < q_len[n] {
                    slots[n] = LaneSlot::Direct {
                        quad: a_ln_q[n][q_head[n] as usize],
                    };
                    q_head[n] += 1;
                } else if tot_surplus != 0 {
                    // Find a surplus lane m and steal its front element.
                    if let Some(m) =
                        (0..QUAD as usize).find(|&m| surplus[m] > 0 && q_head[m] < q_len[m])
                    {
                        let q = a_ln_q[m][q_head[m] as usize];
                        q_head[m] += 1;
                        slots[n] = LaneSlot::Swizzled {
                            quad: q,
                            from_lane: m as u8,
                        };
                        surplus[m] -= 1;
                        tot_surplus -= 1;
                        swizzle_count += 1;
                    }
                }
                // else: no surplus, lane not filled (stays Disabled).
            }
        }
        Self {
            mask,
            cycles,
            len: o_cyc_cnt as u8,
            swizzle_count,
            bcc_like: false,
        }
    }

    /// The original literal transcription of the Fig. 6 pseudo-code
    /// (per-lane `VecDeque` queues, heap-allocated cycle list). Kept as the
    /// reference implementation the fast path is tested against.
    pub fn compute_reference(mask: ExecMask) -> Self {
        let quad_count = mask.quad_count();
        let a_ln_cnt = mask.active_channels();
        let o_cyc_cnt = a_ln_cnt.div_ceil(QUAD).max(1);
        let a_q_cnt = mask.active_quads().max(1);

        // a_ln_q[n]: queue of quads with lane n active.
        let mut a_ln_q: [VecDeque<u8>; QUAD as usize] = Default::default();
        for q in 0..quad_count {
            let bits = mask.quad_bits(q);
            for n in 0..QUAD {
                if bits >> n & 1 == 1 {
                    a_ln_q[n as usize].push_back(q as u8);
                }
            }
        }

        if a_q_cnt == o_cyc_cnt {
            let mut cycles = Vec::with_capacity(o_cyc_cnt as usize);
            if mask.is_empty() {
                cycles.push([LaneSlot::Disabled; QUAD as usize]);
            } else {
                for q in 0..quad_count {
                    let bits = mask.quad_bits(q);
                    if bits == 0 {
                        continue;
                    }
                    let mut slots = [LaneSlot::Disabled; QUAD as usize];
                    for (n, slot) in slots.iter_mut().enumerate() {
                        if bits >> n & 1 == 1 {
                            *slot = LaneSlot::Direct { quad: q as u8 };
                        }
                    }
                    cycles.push(slots);
                }
            }
            return Self::from_cycle_list(mask, &cycles, 0, true);
        }

        let mut surplus = [0u32; QUAD as usize];
        let mut tot_surplus = 0u32;
        for n in 0..QUAD as usize {
            let len = a_ln_q[n].len() as u32;
            if len > o_cyc_cnt {
                surplus[n] = len - o_cyc_cnt;
                tot_surplus += surplus[n];
            }
        }

        let mut cycles = Vec::with_capacity(o_cyc_cnt as usize);
        let mut swizzle_count = 0u32;
        for _c in 0..o_cyc_cnt {
            let mut slots = [LaneSlot::Disabled; QUAD as usize];
            for n in 0..QUAD as usize {
                if let Some(q) = a_ln_q[n].pop_front() {
                    slots[n] = LaneSlot::Direct { quad: q };
                } else if tot_surplus != 0 {
                    if let Some(m) =
                        (0..QUAD as usize).find(|&m| surplus[m] > 0 && !a_ln_q[m].is_empty())
                    {
                        let q = a_ln_q[m].pop_front().expect("surplus lane has work");
                        slots[n] = LaneSlot::Swizzled {
                            quad: q,
                            from_lane: m as u8,
                        };
                        surplus[m] -= 1;
                        tot_surplus -= 1;
                        swizzle_count += 1;
                    }
                }
            }
            cycles.push(slots);
        }
        Self::from_cycle_list(mask, &cycles, swizzle_count, false)
    }

    /// Builds a schedule from an explicit cycle list — the constructor the
    /// engine layer's alternative schedulers (e.g. distance-limited
    /// swizzling) use. Callers are responsible for the issue invariants;
    /// [`Self::validate_issue`] checks them.
    pub(crate) fn from_cycle_list(
        mask: ExecMask,
        list: &[CycleSlots],
        swizzles: u32,
        bcc_like: bool,
    ) -> Self {
        let mut cycles = [[LaneSlot::Disabled; QUAD as usize]; MAX_SCC_CYCLES];
        cycles[..list.len()].copy_from_slice(list);
        Self {
            mask,
            cycles,
            len: u8::try_from(list.len()).expect("cycle count fits the fixed array"),
            swizzle_count: u8::try_from(swizzles).expect("at most one swizzle per channel"),
            bcc_like,
        }
    }

    /// The mask the schedule was computed for.
    pub fn mask(&self) -> ExecMask {
        self.mask
    }

    /// Number of compressed execution cycles (= `waves(mask, Scc)`).
    pub fn cycle_count(&self) -> u32 {
        u32::from(self.len)
    }

    /// Per-cycle lane assignments.
    pub fn cycles(&self) -> &[CycleSlots] {
        &self.cycles[..self.len as usize]
    }

    /// Number of channels routed through the swizzle crossbar.
    pub fn swizzle_count(&self) -> u32 {
        u32::from(self.swizzle_count)
    }

    /// True when empty-quad skipping sufficed and no swizzle was needed
    /// (the "BCC-like" early exit of Fig. 6).
    pub fn is_bcc_like(&self) -> bool {
        self.bcc_like
    }

    /// The channels issued in cycle `c`, in hardware-lane order.
    pub fn issued_channels(&self, c: usize) -> Vec<Option<u32>> {
        self.cycles()[c]
            .iter()
            .enumerate()
            .map(|(n, s)| s.channel(n as u8))
            .collect()
    }

    /// The inverse permutation needed at write-back: for each compressed
    /// cycle, maps hardware lane `n` back to the channel's home lane within
    /// its quad (`(quad, home_lane)` pairs). Unswizzle settings are "simply
    /// the inverse permutation of the operand swizzle settings" (§4.2).
    pub fn unswizzle(&self, c: usize) -> Vec<Option<(u8, u8)>> {
        self.cycles()[c]
            .iter()
            .enumerate()
            .map(|(n, s)| match *s {
                LaneSlot::Disabled => None,
                LaneSlot::Direct { quad } => Some((quad, n as u8)),
                LaneSlot::Swizzled { quad, from_lane } => Some((quad, from_lane)),
            })
            .collect()
    }

    /// Hardware control words for the Fig. 5(c) operand datapath: in each
    /// compressed cycle, every source quad owns a 4-lane crossbar whose
    /// outputs load a wired-OR bus feeding the ALU. `per_quad[q].select[n]`
    /// names the quad-internal input lane that quad `q` drives onto bus
    /// position `n` when `per_quad[q].enables` has bit `n` set. By
    /// construction, at most one quad drives each bus position per cycle.
    pub fn crossbar_controls(&self) -> Vec<CrossbarControl> {
        let quads = self.mask.quad_count() as usize;
        self.cycles()
            .iter()
            .map(|slots| {
                let mut per_quad = vec![QuadSwizzle::default(); quads];
                for (n, slot) in slots.iter().enumerate() {
                    let (quad, from_lane) = match *slot {
                        LaneSlot::Disabled => continue,
                        LaneSlot::Direct { quad } => (quad, n as u8),
                        LaneSlot::Swizzled { quad, from_lane } => (quad, from_lane),
                    };
                    let q = &mut per_quad[quad as usize];
                    q.enables |= 1 << n;
                    q.select[n] = from_lane;
                }
                CrossbarControl { per_quad }
            })
            .collect()
    }

    /// Validates the issue invariants every schedule must satisfy,
    /// regardless of how it was produced:
    ///
    /// 1. every active channel of the mask is issued exactly once;
    /// 2. no disabled channel is ever issued.
    ///
    /// Distance-limited swizzle schedules (the engine layer's `SccLimited`)
    /// satisfy these but may legitimately exceed the ⌈active/4⌉ cycle
    /// optimum; use [`Self::validate`] when optimality is also required.
    ///
    /// Returns an error string describing the first violation.
    pub fn validate_issue(&self) -> Result<(), String> {
        let mut seen = vec![0u32; self.mask.width() as usize];
        for (c, slots) in self.cycles().iter().enumerate() {
            for (n, slot) in slots.iter().enumerate() {
                if let Some(ch) = slot.channel(n as u8) {
                    if ch >= self.mask.width() {
                        return Err(format!("cycle {c}: channel {ch} out of range"));
                    }
                    if !self.mask.channel(ch) {
                        return Err(format!("cycle {c}: disabled channel {ch} issued"));
                    }
                    seen[ch as usize] += 1;
                }
            }
        }
        for (ch, &count) in seen.iter().enumerate() {
            let expected = u32::from(self.mask.channel(ch as u32));
            if count != expected {
                return Err(format!(
                    "channel {ch} issued {count} times, expected {expected}"
                ));
            }
        }
        // Trailing (unused) slots of the fixed array must stay all-disabled
        // so structural equality between schedules remains meaningful.
        for (c, slots) in self.cycles[self.len as usize..].iter().enumerate() {
            if slots.iter().any(|s| !matches!(s, LaneSlot::Disabled)) {
                return Err(format!(
                    "unused cycle slot {} not disabled",
                    self.len as usize + c
                ));
            }
        }
        Ok(())
    }

    /// Validates the full schedule invariants: [`Self::validate_issue`] plus
    /// cycle-count optimality — the cycle count equals ⌈active/4⌉ (or 1 for
    /// an empty mask).
    ///
    /// Returns an error string describing the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_issue()?;
        let want = self.mask.active_channels().div_ceil(QUAD).max(1);
        if self.cycle_count() != want {
            return Err(format!(
                "cycle count {} != optimal {want}",
                self.cycle_count()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for SccSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SCC schedule for mask {} ({} cycles):",
            self.mask,
            self.cycle_count()
        )?;
        for (c, slots) in self.cycles().iter().enumerate() {
            write!(f, "  cycle {c}:")?;
            for (n, s) in slots.iter().enumerate() {
                match s {
                    LaneSlot::Disabled => write!(f, " [----]")?,
                    LaneSlot::Direct { quad } => write!(f, " [Q{quad}.L{n}]")?,
                    LaneSlot::Swizzled { quad, from_lane } => {
                        write!(f, " [Q{quad}.L{from_lane}>{n}]")?
                    }
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m16(bits: u32) -> ExecMask {
        ExecMask::new(bits, 16)
    }

    /// The worked example of Fig. 7: mask 0xAAAA (odd channels active).
    #[test]
    fn figure7_example() {
        let s = SccSchedule::compute(m16(0xAAAA));
        assert_eq!(s.cycle_count(), 2);
        assert!(!s.is_bcc_like());
        s.validate().unwrap();

        // Cycle 0: Q0.L1→L0, Q1.L1 direct, Q2.L1→L2, Q0.L3 direct.
        assert_eq!(
            s.cycles()[0],
            [
                LaneSlot::Swizzled {
                    quad: 0,
                    from_lane: 1
                },
                LaneSlot::Direct { quad: 1 },
                LaneSlot::Swizzled {
                    quad: 2,
                    from_lane: 1
                },
                LaneSlot::Direct { quad: 0 },
            ]
        );
        // Cycle 1: Q1.L3→L0, Q3.L1 direct, Q2.L3→L2, Q3.L3 direct.
        assert_eq!(
            s.cycles()[1],
            [
                LaneSlot::Swizzled {
                    quad: 1,
                    from_lane: 3
                },
                LaneSlot::Direct { quad: 3 },
                LaneSlot::Swizzled {
                    quad: 2,
                    from_lane: 3
                },
                LaneSlot::Direct { quad: 3 },
            ]
        );
        assert_eq!(s.swizzle_count(), 4);
    }

    #[test]
    fn figure7_issued_channels() {
        let s = SccSchedule::compute(m16(0xAAAA));
        // Cycle 0 issues channels 1 (Q0.L1), 5 (Q1.L1), 9 (Q2.L1), 3 (Q0.L3).
        assert_eq!(
            s.issued_channels(0),
            vec![Some(1), Some(5), Some(9), Some(3)]
        );
        assert_eq!(
            s.issued_channels(1),
            vec![Some(7), Some(13), Some(11), Some(15)]
        );
    }

    #[test]
    fn bcc_like_early_exit() {
        // 0xF00F: 2 active quads, 8 active channels → optimal = 2 = active
        // quads: no swizzling needed.
        let s = SccSchedule::compute(m16(0xF00F));
        assert!(s.is_bcc_like());
        assert_eq!(s.cycle_count(), 2);
        assert_eq!(s.swizzle_count(), 0);
        s.validate().unwrap();
        assert_eq!(
            s.issued_channels(0),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
        assert_eq!(
            s.issued_channels(1),
            vec![Some(12), Some(13), Some(14), Some(15)]
        );
    }

    #[test]
    fn full_mask_identity_schedule() {
        let s = SccSchedule::compute(ExecMask::all(16));
        assert_eq!(s.cycle_count(), 4);
        assert!(s.is_bcc_like());
        s.validate().unwrap();
    }

    #[test]
    fn empty_mask_one_disabled_cycle() {
        let s = SccSchedule::compute(ExecMask::none(16));
        assert_eq!(s.cycle_count(), 1);
        assert_eq!(s.cycles()[0], [LaneSlot::Disabled; 4]);
        s.validate().unwrap();
    }

    #[test]
    fn single_channel_masks() {
        for ch in 0..16 {
            let s = SccSchedule::compute(ExecMask::none(16).with_channel(ch, true));
            assert_eq!(s.cycle_count(), 1, "channel {ch}");
            s.validate().unwrap();
        }
    }

    #[test]
    fn strided_0x1111_packs_into_one_cycle() {
        // One active channel per quad, all in lane 0: lane 0 has 4 queued
        // quads, optimal is 1 cycle → 3 channels must swizzle to lanes 1-3.
        let s = SccSchedule::compute(m16(0x1111));
        assert_eq!(s.cycle_count(), 1);
        assert_eq!(s.swizzle_count(), 3);
        s.validate().unwrap();
        let issued: Vec<_> = s.issued_channels(0).into_iter().flatten().collect();
        let mut sorted = issued.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 4, 8, 12]);
    }

    #[test]
    fn uneven_mask_leaves_disabled_slots() {
        // 5 active channels → 2 cycles, 3 disabled slots in the second.
        let s = SccSchedule::compute(m16(0b11111));
        assert_eq!(s.cycle_count(), 2);
        s.validate().unwrap();
        let disabled: usize = s
            .cycles()
            .iter()
            .flat_map(|c| c.iter())
            .filter(|s| matches!(s, LaneSlot::Disabled))
            .count();
        assert_eq!(disabled, 3);
    }

    #[test]
    fn unswizzle_is_inverse() {
        let s = SccSchedule::compute(m16(0xAAAA));
        for c in 0..s.cycle_count() as usize {
            let issued = s.issued_channels(c);
            let un = s.unswizzle(c);
            for (n, (ch, back)) in issued.iter().zip(un.iter()).enumerate() {
                match (ch, back) {
                    (Some(ch), Some((quad, lane))) => {
                        assert_eq!(
                            u32::from(*quad) * 4 + u32::from(*lane),
                            *ch,
                            "cycle {c} hw lane {n}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("mismatched slot {other:?}"),
                }
            }
        }
    }

    #[test]
    fn crossbar_controls_route_correct_channels() {
        // Tag every channel with its absolute index; the bus must carry
        // exactly the channels the schedule says it issues.
        for bits in [0xAAAAu32, 0x1111, 0xF0F0, 0x8421, 0x001F, 0xFFFF] {
            let mask = m16(bits);
            let sched = SccSchedule::compute(mask);
            let controls = sched.crossbar_controls();
            assert_eq!(controls.len(), sched.cycle_count() as usize);
            let quad_inputs: Vec<[u32; 4]> = (0..mask.quad_count())
                .map(|q| [q * 4, q * 4 + 1, q * 4 + 2, q * 4 + 3])
                .collect();
            for (c, ctrl) in controls.iter().enumerate() {
                let bus = ctrl.drive_bus(&quad_inputs);
                let want = sched.issued_channels(c);
                for (n, (got, want)) in bus.iter().zip(want.iter()).enumerate() {
                    assert_eq!(got, want, "mask {bits:#06x} cycle {c} position {n}");
                }
            }
        }
    }

    #[test]
    fn bcc_like_controls_are_identity() {
        let sched = SccSchedule::compute(m16(0xF00F));
        for ctrl in sched.crossbar_controls() {
            for swz in &ctrl.per_quad {
                for n in 0..4usize {
                    if swz.enables >> n & 1 == 1 {
                        assert_eq!(swz.select[n], n as u8, "no swizzle needed");
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_simd8_validation() {
        for bits in 0..=0xFFu32 {
            let s = SccSchedule::compute(ExecMask::new(bits, 8));
            s.validate()
                .unwrap_or_else(|e| panic!("mask {bits:#x}: {e}"));
        }
    }

    #[test]
    fn schedule_matches_waves_model() {
        use crate::cycles::waves;
        use crate::engine::EngineId;
        for bits in (0..=0xFFFFu32).step_by(37) {
            let m = m16(bits);
            let s = SccSchedule::compute(m);
            assert_eq!(s.cycle_count(), waves(m, EngineId::SCC), "mask {bits:#x}");
        }
    }

    #[test]
    fn memoized_schedule_carries_caller_mask_and_width() {
        // The ≤16 table is shared across widths; the returned schedule must
        // still report the caller's mask.
        let m8 = ExecMask::new(0x2D, 8);
        let s8 = SccSchedule::compute(m8);
        assert_eq!(s8.mask(), m8);
        s8.validate().unwrap();
        let m16 = ExecMask::new(0x2D, 16);
        let s16 = SccSchedule::compute(m16);
        assert_eq!(s16.mask(), m16);
        assert_eq!(s8.cycles(), s16.cycles(), "width-independent schedule");
    }

    #[test]
    fn cost_matches_schedule() {
        for bits in (0..=0xFFFFu32).step_by(97) {
            let m = m16(bits);
            let cost = SccCost::of(m);
            let s = SccSchedule::compute_reference(m);
            assert_eq!(u32::from(cost.cycles), s.cycle_count(), "mask {bits:#x}");
            assert_eq!(
                u32::from(cost.swizzles),
                s.swizzle_count(),
                "mask {bits:#x}"
            );
            assert_eq!(cost.bcc_like, s.is_bcc_like(), "mask {bits:#x}");
        }
    }

    #[test]
    fn simd32_cached_equals_uncached() {
        // Hit the per-thread SIMD32 cache twice to cover both paths.
        for bits in [0xDEAD_BEEFu32, 0x0000_0001, 0xFFFF_FFFF, 0x8080_8080] {
            let m = ExecMask::new(bits, 32);
            let first = SccSchedule::compute(m);
            let second = SccSchedule::compute(m);
            assert_eq!(first, second);
            assert_eq!(first, SccSchedule::compute_uncached(m), "mask {bits:#010x}");
            first.validate().unwrap();
        }
    }
}
