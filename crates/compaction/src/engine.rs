//! The pluggable compaction-engine layer.
//!
//! Every divergence-optimization design point the repo evaluates — the four
//! modes of the paper plus ablation variants — is expressed as one object
//! implementing [`CompactionEngine`]: the cycle count an instruction takes,
//! the micro-op issue set it expands to, the swizzle/unswizzle schedule it
//! programs into the operand crossbar, and the dynamic energy it charges.
//! The simulator, trace analyzer and benches name design points only by
//! [`EngineId`] handles into the process-wide [`EngineRegistry`], so a new
//! design point is added by writing one `impl CompactionEngine` and
//! registering it — no simulator or harness changes.
//!
//! # The canonical ordering
//!
//! The registry seeds itself with the paper's four configurations in
//! weakest-to-strongest order — `base`, `ivb`, `bcc`, `scc` — and
//! [`EngineId::CANONICAL`] / [`EngineRegistry::canonical`] own that ordering
//! as the documented source of truth for every mode sweep (tables iterate
//! it, reports column-order by it). The four canonical engines are unit
//! structs behind a static array, so resolving a canonical id never takes
//! the registry lock.
//!
//! # Distance-limited swizzling ([`SccLimited`])
//!
//! §4.3 of the paper notes the SCC operand crossbar is the dominant
//! hardware cost. [`SccLimited`] models a cheaper network in which a
//! hardware lane `n` may only borrow work from source lane `m` when
//! `|m − n| ≤ k`; `k = 0` degenerates to BCC-style quad skipping, `k = 3`
//! restores the full crossbar (and provably matches [`EngineId::SCC`]
//! cycle counts). It exists to prove the engine layer is extensible — it is
//! surfaced only through the registry and the `ablation_swizzle`
//! experiment, with zero changes to the simulator or trace crates.

use crate::energy::EnergyModel;
use crate::microop::{expand_quartiles, expand_scheduled, Expansion};
use crate::rf::{RfModel, RfOrganization};
use crate::scc::{LaneSlot, SccSchedule, MAX_SCC_CYCLES};
use iwc_isa::insn::Instruction;
use iwc_isa::mask::{ExecMask, QUAD};
use iwc_isa::types::DataType;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// One divergence-optimization design point: everything the pipeline model
/// needs to know about how an execution mask turns into issued work.
///
/// Implementations must be pure functions of the mask (plus the engine's own
/// configuration): the simulator assumes calling an engine twice with the
/// same mask yields the same answer.
pub trait CompactionEngine: Send + Sync + fmt::Debug {
    /// Short, unique label used in reports and registry lookups
    /// (`base`, `ivb`, `bcc`, `scc`, `scc-k1`, …).
    fn label(&self) -> &str;

    /// Execution cycles (ALU waves) for one instruction with execution mask
    /// `mask` at the `dtype` datapath granularity.
    fn cycles(&self, mask: ExecMask, dtype: DataType) -> u32;

    /// Quartile micro-op expansion of `insn` under `mask`: the issue set,
    /// with suppressed-fetch/write-back accounting relative to baseline.
    fn expand(&self, insn: &Instruction, mask: ExecMask) -> Expansion;

    /// The operand swizzle/unswizzle schedule this engine programs into the
    /// crossbar, when it compacts by swizzling; `None` for engines that
    /// only skip or issue in place.
    fn schedule(&self, _mask: ExecMask) -> Option<SccSchedule> {
        None
    }

    /// Dynamic energy of one instruction under `model` (arbitrary units,
    /// consistent with [`RfModel`]).
    fn energy(&self, model: &EnergyModel, mask: ExecMask, dtype: DataType) -> f64;
}

// ---------------------------------------------------------------------------
// The four standard engines (the paper's configurations).
// ---------------------------------------------------------------------------

/// Shared fetch + write-back + execution energy of the quartile-issue
/// engines (baseline / IVB / BCC): `w` issued quartiles each fetch every
/// source half and write the destination half from register file `org`.
fn quartile_energy(model: &EnergyModel, w: f64, org: RfOrganization) -> f64 {
    let rf = RfModel::new(org);
    let accesses = w * f64::from(model.srcs_per_insn + 1);
    w * model.wave_exec + accesses * rf.access_energy(128)
}

/// No cycle compression: every wave issues, enabled or not.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineEngine;

impl CompactionEngine for BaselineEngine {
    fn label(&self) -> &str {
        "base"
    }

    fn cycles(&self, mask: ExecMask, dtype: DataType) -> u32 {
        mask.width().div_ceil(dtype.elements_per_wave())
    }

    fn expand(&self, insn: &Instruction, mask: ExecMask) -> Expansion {
        let issue_set: Vec<u32> = (0..mask.quad_count()).collect();
        expand_quartiles(insn, mask, &issue_set)
    }

    fn energy(&self, model: &EnergyModel, mask: ExecMask, dtype: DataType) -> f64 {
        quartile_energy(
            model,
            f64::from(self.cycles(mask, dtype)),
            RfOrganization::Baseline,
        )
    }
}

/// The limited half-width optimization present in real Ivy Bridge hardware
/// (Fig. 8): a SIMD16 instruction whose upper or lower eight channels are
/// all disabled executes as SIMD8.
#[derive(Clone, Copy, Debug, Default)]
pub struct IvyBridgeEngine;

impl IvyBridgeEngine {
    fn half_idle(mask: ExecMask) -> bool {
        mask.width() == 16 && (mask.upper_half_idle() || mask.lower_half_idle())
    }
}

impl CompactionEngine for IvyBridgeEngine {
    fn label(&self) -> &str {
        "ivb"
    }

    fn cycles(&self, mask: ExecMask, dtype: DataType) -> u32 {
        let g = dtype.elements_per_wave();
        let width = mask.width();
        if Self::half_idle(mask) {
            (width / 2).div_ceil(g)
        } else {
            width.div_ceil(g)
        }
    }

    fn expand(&self, insn: &Instruction, mask: ExecMask) -> Expansion {
        let quads = mask.quad_count();
        let issue_set: Vec<u32> = if mask.width() == 16 && mask.upper_half_idle() {
            (0..quads / 2).collect()
        } else if mask.width() == 16 && mask.lower_half_idle() {
            (quads / 2..quads).collect()
        } else {
            (0..quads).collect()
        };
        expand_quartiles(insn, mask, &issue_set)
    }

    fn energy(&self, model: &EnergyModel, mask: ExecMask, dtype: DataType) -> f64 {
        quartile_energy(
            model,
            f64::from(self.cycles(mask, dtype)),
            RfOrganization::Baseline,
        )
    }
}

/// Basic cycle compression: any aligned all-disabled group is skipped along
/// with its operand fetches and write-back.
#[derive(Clone, Copy, Debug, Default)]
pub struct BccEngine;

impl CompactionEngine for BccEngine {
    fn label(&self) -> &str {
        "bcc"
    }

    fn cycles(&self, mask: ExecMask, dtype: DataType) -> u32 {
        mask.active_groups(dtype.elements_per_wave()).max(1)
    }

    fn expand(&self, insn: &Instruction, mask: ExecMask) -> Expansion {
        let active: Vec<u32> = (0..mask.quad_count())
            .filter(|&q| mask.quad_active(q))
            .collect();
        let issue_set = if active.is_empty() { vec![0] } else { active };
        expand_quartiles(insn, mask, &issue_set)
    }

    fn energy(&self, model: &EnergyModel, mask: ExecMask, dtype: DataType) -> f64 {
        quartile_energy(
            model,
            f64::from(self.cycles(mask, dtype)),
            RfOrganization::Bcc,
        )
    }
}

/// Swizzled cycle compression: channels are permuted through the operand
/// crossbar so enabled channels pack into ⌈active/4⌉ waves.
#[derive(Clone, Copy, Debug, Default)]
pub struct SccEngine;

/// Energy of a swizzling engine (§4.3): full-width operand fetch once per
/// source (the 512-bit latch), per-wave write-backs, crossbar routing, and
/// the settings-computation control logic.
fn swizzled_energy(model: &EnergyModel, mask: ExecMask, w: f64, pump: f64, swizzles: u32) -> f64 {
    let rf = RfModel::new(RfOrganization::Scc);
    let fetch = f64::from(model.srcs_per_insn) * rf.access_energy(mask.quad_count() * 128) * pump;
    let wb = w * rf.access_energy(128);
    let crossbar = f64::from(swizzles) * model.swizzle_per_channel;
    w * model.wave_exec + fetch + wb + crossbar + model.scc_control
}

impl CompactionEngine for SccEngine {
    fn label(&self) -> &str {
        "scc"
    }

    fn cycles(&self, mask: ExecMask, dtype: DataType) -> u32 {
        mask.active_channels()
            .div_ceil(dtype.elements_per_wave())
            .max(1)
    }

    fn expand(&self, insn: &Instruction, mask: ExecMask) -> Expansion {
        expand_scheduled(insn, mask, &SccSchedule::compute(mask))
    }

    fn schedule(&self, mask: ExecMask) -> Option<SccSchedule> {
        Some(SccSchedule::compute(mask))
    }

    fn energy(&self, model: &EnergyModel, mask: ExecMask, dtype: DataType) -> f64 {
        let sched = SccSchedule::compute(mask);
        swizzled_energy(
            model,
            mask,
            f64::from(self.cycles(mask, dtype)),
            dtype.alu_slots() as f64,
            sched.swizzle_count(),
        )
    }
}

/// The paper's four engines in [`EngineId::CANONICAL`] order: canonical
/// ids resolve here without touching the registry.
static CANONICAL_ENGINES: [&dyn CompactionEngine; 4] =
    [&BaselineEngine, &IvyBridgeEngine, &BccEngine, &SccEngine];

// ---------------------------------------------------------------------------
// SccLimited: the §4.3 distance-bounded swizzle network.
// ---------------------------------------------------------------------------

/// SCC with a distance-limited swizzle network: hardware lane `n` may only
/// borrow a channel whose home lane `m` satisfies `|m − n| ≤ k`.
///
/// The scheduler is a greedy two-pass variant of the Fig. 6 algorithm. Each
/// cycle: (1) every lane with work in its own queue issues it directly;
/// (2) every still-idle lane borrows the front element of the *longest*
/// remaining queue within its reach (ties to the lowest lane). Every
/// non-empty queue shrinks each cycle, so the schedule always terminates in
/// at most `max queue length ≤ 8` cycles, and for `k ≥ 3` (full crossbar)
/// each cycle issues `min(4, remaining)` channels — exactly the
/// ⌈active/4⌉ optimum of [`SccEngine`].
#[derive(Clone, Debug)]
pub struct SccLimited {
    k: u8,
    label: String,
}

impl SccLimited {
    /// A limited-swizzle engine with lane reach `k` (0 ≤ k; `k ≥ 3` is a
    /// full crossbar). Label: `scc-k<k>`.
    pub fn new(k: u8) -> Self {
        Self {
            k,
            label: format!("scc-k{k}"),
        }
    }

    /// Registers a reach-`k` engine in the global registry (idempotent) and
    /// returns its handle.
    pub fn register(k: u8) -> EngineId {
        EngineRegistry::global().register(Box::new(Self::new(k)))
    }

    /// The lane reach of the swizzle network.
    pub fn reach(&self) -> u8 {
        self.k
    }

    /// Computes the distance-limited schedule for `mask`.
    ///
    /// Limited schedules satisfy the issue invariants
    /// ([`SccSchedule::validate_issue`]) but may legitimately exceed the
    /// ⌈active/4⌉ optimum when the reach is too short to rebalance lanes.
    pub fn limited_schedule(&self, mask: ExecMask) -> SccSchedule {
        let a_ln_cnt = mask.active_channels();
        let o_cyc_cnt = a_ln_cnt.div_ceil(QUAD).max(1);
        if mask.active_quads().max(1) == o_cyc_cnt {
            // Skipping empty quads already meets the optimum: the BCC-like
            // direct schedule needs no swizzles and is valid for any reach.
            return SccSchedule::compute(mask);
        }

        // a_ln_q[n]: queue of quads with lane n active (fixed arrays; a lane
        // sees each of the ≤ 8 quads at most once).
        let mut a_ln_q = [[0u8; MAX_SCC_CYCLES]; QUAD as usize];
        let mut q_len = [0u8; QUAD as usize];
        let mut q_head = [0u8; QUAD as usize];
        for q in 0..mask.quad_count() {
            let bits = mask.quad_bits(q);
            for n in 0..QUAD as usize {
                if bits >> n & 1 == 1 {
                    a_ln_q[n][q_len[n] as usize] = q as u8;
                    q_len[n] += 1;
                }
            }
        }

        let mut cycles = [[LaneSlot::Disabled; QUAD as usize]; MAX_SCC_CYCLES];
        let mut len = 0usize;
        let mut swizzles = 0u32;
        while (0..QUAD as usize).any(|n| q_head[n] < q_len[n]) {
            let slots = &mut cycles[len];
            // Pass 1: every lane with its own work issues directly, so every
            // non-empty queue shrinks and the loop provably terminates.
            for n in 0..QUAD as usize {
                if q_head[n] < q_len[n] {
                    slots[n] = LaneSlot::Direct {
                        quad: a_ln_q[n][q_head[n] as usize],
                    };
                    q_head[n] += 1;
                }
            }
            // Pass 2: idle lanes borrow from the longest queue in reach.
            for (n, slot) in slots.iter_mut().enumerate() {
                if !matches!(slot, LaneSlot::Disabled) {
                    continue;
                }
                let mut best: Option<usize> = None;
                for m in 0..QUAD as usize {
                    if m == n || (m as i32 - n as i32).unsigned_abs() > u32::from(self.k) {
                        continue;
                    }
                    let rem = q_len[m] - q_head[m];
                    if rem > 0 && best.is_none_or(|b| rem > q_len[b] - q_head[b]) {
                        best = Some(m);
                    }
                }
                if let Some(m) = best {
                    *slot = LaneSlot::Swizzled {
                        quad: a_ln_q[m][q_head[m] as usize],
                        from_lane: m as u8,
                    };
                    q_head[m] += 1;
                    swizzles += 1;
                }
            }
            len += 1;
        }
        SccSchedule::from_cycle_list(mask, &cycles[..len.max(1)], swizzles, false)
    }
}

impl CompactionEngine for SccLimited {
    fn label(&self) -> &str {
        &self.label
    }

    fn cycles(&self, mask: ExecMask, dtype: DataType) -> u32 {
        let g = dtype.elements_per_wave();
        let sched = self.limited_schedule(mask);
        if g >= QUAD {
            // Wider-than-32-bit groups consume g/4 schedule cycles at a time
            // (for k ≥ 3 this reduces to ⌈active/g⌉, matching SccEngine).
            sched.cycle_count().div_ceil(g / QUAD).max(1)
        } else {
            // 64-bit types double-pump each scheduled wave's issued channels.
            sched
                .cycles()
                .iter()
                .map(|slots| {
                    let issued = slots
                        .iter()
                        .enumerate()
                        .filter(|(n, s)| s.channel(*n as u8).is_some())
                        .count() as u32;
                    issued.div_ceil(g).max(1)
                })
                .sum()
        }
    }

    fn expand(&self, insn: &Instruction, mask: ExecMask) -> Expansion {
        expand_scheduled(insn, mask, &self.limited_schedule(mask))
    }

    fn schedule(&self, mask: ExecMask) -> Option<SccSchedule> {
        Some(self.limited_schedule(mask))
    }

    fn energy(&self, model: &EnergyModel, mask: ExecMask, dtype: DataType) -> f64 {
        let sched = self.limited_schedule(mask);
        swizzled_energy(
            model,
            mask,
            f64::from(self.cycles(mask, dtype)),
            dtype.alu_slots() as f64,
            sched.swizzle_count(),
        )
    }
}

// ---------------------------------------------------------------------------
// EngineId + the process-wide registry.
// ---------------------------------------------------------------------------

/// A cheap, `Copy` handle to an engine in the process-wide
/// [`EngineRegistry`] — what configuration structs store and sweeps iterate
/// over. `Display`s as the engine label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EngineId(u16);

impl EngineId {
    /// [`BaselineEngine`] (`base`).
    pub const BASELINE: EngineId = EngineId(0);
    /// [`IvyBridgeEngine`] (`ivb`) — the paper's reporting baseline.
    pub const IVY_BRIDGE: EngineId = EngineId(1);
    /// [`BccEngine`] (`bcc`).
    pub const BCC: EngineId = EngineId(2);
    /// [`SccEngine`] (`scc`).
    pub const SCC: EngineId = EngineId(3);

    /// The canonical mode ordering, weakest to strongest — the documented
    /// source of truth for every four-mode sweep and report column order.
    pub const CANONICAL: [EngineId; 4] = [Self::BASELINE, Self::IVY_BRIDGE, Self::BCC, Self::SCC];

    /// Resolves the handle: canonical ids index a static array, others
    /// read the global registry.
    ///
    /// # Panics
    ///
    /// Panics when the id was never issued by the registry.
    pub fn engine(self) -> &'static dyn CompactionEngine {
        match CANONICAL_ENGINES.get(self.index()) {
            Some(&engine) => engine,
            None => EngineRegistry::global().get(self),
        }
    }

    /// True for the paper's four engines ([`EngineId::CANONICAL`]).
    pub fn is_canonical(self) -> bool {
        self.index() < CANONICAL_ENGINES.len()
    }

    /// The engine's report label.
    pub fn label(self) -> String {
        self.engine().label().to_owned()
    }

    /// Registry slot index (stable for the process lifetime).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl Default for EngineId {
    /// The paper's reporting baseline.
    fn default() -> Self {
        Self::IVY_BRIDGE
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.engine().label())
    }
}

/// The process-wide engine registry.
///
/// Seeded with the four standard engines in [`EngineId::CANONICAL`] order;
/// ablation engines are appended at runtime via [`EngineRegistry::register`]
/// (idempotent per label). Ids are slot indices and remain valid for the
/// process lifetime — engines are never removed, so each registered engine
/// is leaked once and handed out as a `&'static` reference.
#[derive(Debug)]
pub struct EngineRegistry {
    engines: RwLock<Vec<&'static dyn CompactionEngine>>,
}

impl EngineRegistry {
    /// The global registry.
    pub fn global() -> &'static EngineRegistry {
        static GLOBAL: OnceLock<EngineRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| EngineRegistry {
            engines: RwLock::new(CANONICAL_ENGINES.to_vec()),
        })
    }

    /// Registers `engine`, returning its handle. Registering a label twice
    /// returns the existing handle (the new object is dropped), so
    /// experiments can re-register their engines freely; only a new label
    /// leaks its engine.
    pub fn register(&self, engine: Box<dyn CompactionEngine>) -> EngineId {
        let mut engines = self.engines.write().expect("engine registry poisoned");
        if let Some(i) = engines.iter().position(|e| e.label() == engine.label()) {
            return EngineId(i as u16);
        }
        engines.push(Box::leak(engine));
        EngineId((engines.len() - 1) as u16)
    }

    /// Resolves a handle.
    ///
    /// # Panics
    ///
    /// Panics when `id` was never issued by this registry.
    pub fn get(&self, id: EngineId) -> &'static dyn CompactionEngine {
        self.engines.read().expect("engine registry poisoned")[id.index()]
    }

    /// Looks an engine up by label.
    pub fn find(&self, label: &str) -> Option<EngineId> {
        self.engines
            .read()
            .expect("engine registry poisoned")
            .iter()
            .position(|e| e.label() == label)
            .map(|i| EngineId(i as u16))
    }

    /// The canonical four-mode ordering (see [`EngineId::CANONICAL`]).
    pub fn canonical(&self) -> [EngineId; 4] {
        EngineId::CANONICAL
    }

    /// Handles of every registered engine, in registration order.
    pub fn ids(&self) -> Vec<EngineId> {
        (0..self.len()).map(|i| EngineId(i as u16)).collect()
    }

    /// Labels of every registered engine, in registration order.
    pub fn labels(&self) -> Vec<String> {
        self.engines
            .read()
            .expect("engine registry poisoned")
            .iter()
            .map(|e| e.label().to_owned())
            .collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.engines.read().expect("engine registry poisoned").len()
    }

    /// Always false: the registry is seeded with the standard engines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m16(bits: u32) -> ExecMask {
        ExecMask::new(bits, 16)
    }

    #[test]
    fn canonical_ids_resolve_to_the_registry_seed() {
        let reg = EngineRegistry::global();
        assert_eq!(reg.canonical(), EngineId::CANONICAL);
        let labels: Vec<String> = EngineId::CANONICAL.iter().map(|id| id.label()).collect();
        assert_eq!(labels, ["base", "ivb", "bcc", "scc"]);
        for id in EngineId::CANONICAL {
            assert!(id.is_canonical());
            // The static fast path and the registry hand out the same object.
            assert!(std::ptr::addr_eq(id.engine(), reg.get(id)), "{id}");
        }
    }

    #[test]
    fn registry_register_is_idempotent() {
        let a = SccLimited::register(2);
        let b = SccLimited::register(2);
        assert_eq!(a, b);
        assert_eq!(EngineRegistry::global().find("scc-k2"), Some(a));
        assert!(a.index() >= 4, "appended after the canonical four");
        assert!(!a.is_canonical());
        assert!(std::ptr::addr_eq(a.engine(), b.engine()), "leaked once");
    }

    #[test]
    fn find_resolves_canonical_labels() {
        let reg = EngineRegistry::global();
        assert_eq!(reg.find("base"), Some(EngineId::BASELINE));
        assert_eq!(reg.find("ivb"), Some(EngineId::IVY_BRIDGE));
        assert_eq!(reg.find("bcc"), Some(EngineId::BCC));
        assert_eq!(reg.find("scc"), Some(EngineId::SCC));
        assert_eq!(reg.find("nope"), None);
        assert!(!reg.is_empty());
    }

    #[test]
    fn engine_id_default_and_display() {
        assert_eq!(EngineId::default(), EngineId::IVY_BRIDGE);
        assert_eq!(EngineId::SCC.to_string(), "scc");
    }

    #[test]
    fn limited_full_reach_matches_scc() {
        let full = SccLimited::new(3);
        for bits in (0..=0xFFFFu32).step_by(61) {
            let m = m16(bits);
            assert_eq!(
                full.cycles(m, DataType::F),
                SccEngine.cycles(m, DataType::F),
                "mask {bits:#x}"
            );
            full.limited_schedule(m)
                .validate()
                .unwrap_or_else(|e| panic!("mask {bits:#x}: {e}"));
        }
    }

    #[test]
    fn limited_zero_reach_within_bcc() {
        let none = SccLimited::new(0);
        for bits in (0..=0xFFFFu32).step_by(61) {
            let m = m16(bits);
            let k0 = none.cycles(m, DataType::F);
            assert!(
                k0 <= BccEngine.cycles(m, DataType::F),
                "mask {bits:#x}: k=0 worse than BCC"
            );
            assert!(
                k0 >= SccEngine.cycles(m, DataType::F),
                "mask {bits:#x}: k=0 beats full SCC"
            );
            none.limited_schedule(m)
                .validate_issue()
                .unwrap_or_else(|e| panic!("mask {bits:#x}: {e}"));
        }
    }

    #[test]
    fn limited_strided_masks() {
        // 0x1111: all work lives in lane 0. k=0 must serialize (4 cycles,
        // no swizzles); k=1 reaches lane 1 only (3 cycles); k=3 packs to 1.
        let m = m16(0x1111);
        assert_eq!(SccLimited::new(0).cycles(m, DataType::F), 4);
        assert_eq!(SccLimited::new(0).limited_schedule(m).swizzle_count(), 0);
        assert_eq!(SccLimited::new(1).cycles(m, DataType::F), 2);
        assert_eq!(SccLimited::new(3).cycles(m, DataType::F), 1);
    }

    #[test]
    fn limited_empty_mask_one_cycle() {
        for k in 0..=3 {
            let e = SccLimited::new(k);
            let m = ExecMask::none(16);
            assert_eq!(e.cycles(m, DataType::F), 1);
            let s = e.limited_schedule(m);
            assert_eq!(s.cycle_count(), 1);
            s.validate().unwrap();
        }
    }
}
