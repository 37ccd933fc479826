//! Execution-unit timing model.
//!
//! Each EU holds up to `threads_per_eu` hardware threads. Every two cycles
//! the thread arbiter issues up to two instructions from distinct ready
//! threads (§2.2). Issued computation occupies the 4-wide FPU or EM pipe for
//! the number of waves given by the active compaction mode — this is where
//! BCC/SCC turn saved waves into time. A per-thread, per-register scoreboard
//! enforces data dependences; `send` results block their destination until
//! the memory subsystem reports completion.

use crate::config::GpuConfig;
use crate::exec::ThreadCtx;
use crate::memimg::MemoryImage;
use crate::memsys::MemSystem;
use crate::plan::{execute_plan, DecodedProgram, LaneScratch, MicroPlan, PlanEffect};
use iwc_compaction::{CompactionEngine, CompactionTally};
use iwc_isa::insn::{MemSpace, Pipe};
use iwc_isa::mask::ExecMask;
use iwc_telemetry::Instrument;
use serde::{Deserialize, Serialize};

/// Per-EU statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EuStats {
    /// Instructions issued (consuming an issue slot).
    pub issued: u64,
    /// Zero-mask instructions skipped at no cost.
    pub skipped_zero_mask: u64,
    /// ALU waves actually issued to the FPU pipe under the active mode.
    pub fpu_waves: u64,
    /// ALU waves actually issued to the EM pipe under the active mode.
    pub em_waves: u64,
    /// Send messages issued.
    pub sends: u64,
    /// L1 instruction-cache misses.
    pub icache_misses: u64,
    /// Thread-cycle stall attribution.
    pub stalls: StallStats,
    /// Total cycles this EU was clocked during the launch (every EU sees
    /// every launch cycle, including idle tail cycles).
    pub eu_cycles: u64,
    /// Cycles in which this EU issued at least one instruction.
    pub issue_cycles: u64,
    /// Per-cause attribution of every non-issuing EU cycle. Invariant:
    /// `issue_cycles + stall_causes.total() == eu_cycles` (checked at the
    /// end of every launch in debug builds).
    pub stall_causes: StallBreakdown,
    /// Issue events for timeline rendering (when
    /// [`GpuConfig::record_issue_log`] is set).
    pub issue_log: Vec<IssueEvent>,
    /// Contiguous non-issuing spans with their attributed [`StallCause`]
    /// (when [`GpuConfig::record_issue_log`] is set) — the interval form of
    /// [`stall_causes`](Self::stall_causes), for trace export.
    pub stall_log: Vec<StallSpan>,
    /// Compaction accounting over computation instructions (cycle models
    /// for every mode, evaluated on the executed mask stream).
    pub compute_tally: CompactionTally,
    /// Mask accounting over all SIMD instructions (compute + send), used
    /// for SIMD efficiency and the utilization breakdown.
    pub simd_tally: CompactionTally,
    /// Captured execution masks of every issued SIMD instruction, in issue
    /// order, when [`GpuConfig::capture_masks`] is set: `(bits, width)`.
    pub mask_trace: Vec<(u32, u8)>,
    /// Per-static-instruction divergence profile, populated when
    /// [`GpuConfig::profile_insns`] is set (empty otherwise).
    pub insn_profile: crate::profile::KernelProfile,
}

/// One resident hardware thread.
#[derive(Debug)]
pub struct HwThread {
    /// Architectural state.
    pub ctx: ThreadCtx,
    /// Global workgroup index.
    pub wg: usize,
    /// Thread index within the workgroup.
    pub wg_thread: u32,
    /// Index of the workgroup's SLM image, resolved at placement time so
    /// the arbiter never does a per-thread map lookup.
    pub slm_slot: usize,
    /// Per-GRF-register writeback completion times.
    reg_busy: Box<[u64]>,
    /// Bit `r` set while register `r`'s pending writeback comes from a
    /// memory load (cleared when a compute result overwrites it).
    reg_from_mem: u128,
    /// Per-flag-register writeback completion times.
    flag_busy: [u64; 2],
    /// Completion time of the latest outstanding memory access.
    pub last_mem_done: u64,
}

impl HwThread {
    /// Creates a resident thread from its architectural context. `slm_slot`
    /// indexes the workgroup's SLM image in the launch's image table.
    pub fn new(ctx: ThreadCtx, wg: usize, wg_thread: u32, slm_slot: usize) -> Self {
        Self {
            ctx,
            wg,
            wg_thread,
            slm_slot,
            reg_busy: vec![0u64; 128].into_boxed_slice(),
            reg_from_mem: 0,
            flag_busy: [0, 0],
            last_mem_done: 0,
        }
    }

    /// Earliest time the scoreboard allows `plan` to issue, and whether the
    /// binding (latest) dependence is a memory load still in flight. Reads
    /// the plan's precomputed register ranges — no operand re-derivation,
    /// no allocation.
    fn deps_ready_at_plan(&self, plan: &MicroPlan) -> (u64, bool) {
        let mut at = 0u64;
        let mut from_mem = false;
        let (reads, pred_flag, cond_flag) = plan.scoreboard();
        // Branch-free: the times are data the predictor cannot learn. A
        // later writer takes over the provenance; a tie with a pending
        // writer adds its own.
        for &(lo, hi) in reads {
            for r in lo..=hi {
                let busy = self.reg_busy[usize::from(r)];
                let mem = self.reg_from_mem >> r & 1 == 1;
                let later = busy > at;
                from_mem = (later & mem) | (!later & (from_mem | (busy == at) & (busy > 0) & mem));
                at = at.max(busy);
            }
        }
        for f in [pred_flag, cond_flag].into_iter().flatten() {
            let busy = self.flag_busy[usize::from(f)];
            from_mem &= busy <= at;
            at = at.max(busy);
        }
        (at, from_mem)
    }

    /// Marks the registers in `range` busy until `until`. The writer at
    /// issue time always owns the new maximum (its own scoreboard check
    /// drained earlier writers), so the provenance bit tracks the latest
    /// writer.
    fn mark_range(&mut self, range: Option<(u8, u8)>, until: u64, from_mem: bool) {
        if let Some((lo, hi)) = range {
            for r in lo..=hi {
                self.reg_busy[usize::from(r)] = self.reg_busy[usize::from(r)].max(until);
                if from_mem {
                    self.reg_from_mem |= 1u128 << r;
                } else {
                    self.reg_from_mem &= !(1u128 << r);
                }
            }
        }
    }
}

/// One recorded issue event (for timeline rendering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueEvent {
    /// Cycle of issue.
    pub cycle: u64,
    /// Issuing EU (kept through aggregation so exporters can rebuild
    /// per-EU tracks from the merged log).
    pub eu: u32,
    /// EU thread slot.
    pub thread: u8,
    /// Pipe occupied (`Fpu`, `Em`, `Send`, or `Control` for front-end-only
    /// instructions).
    pub pipe: Pipe,
    /// Pipe-occupancy cycles (0 for control/send).
    pub waves: u32,
}

/// Legacy per-pass stall events: every arbitration pass counts one event
/// per blocked thread it visits, by the first check that blocked it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StallStats {
    /// Fence/fetch release waits.
    pub stalled: u64,
    /// Scoreboard dependences (incl. memory loads in flight).
    pub scoreboard: u64,
    /// Instruction-cache misses.
    pub ifetch: u64,
    /// Execution-pipe occupancy.
    pub pipe_busy: u64,
    /// End-of-thread memory drains.
    pub mem_drain: u64,
}

impl StallStats {
    /// Merges another sample.
    pub fn merge(&mut self, other: &StallStats) {
        self.stalled += other.stalled;
        self.scoreboard += other.scoreboard;
        self.ifetch += other.ifetch;
        self.pipe_busy += other.pipe_busy;
        self.mem_drain += other.mem_drain;
    }

    /// Total stall events.
    pub fn total(&self) -> u64 {
        self.stalled + self.scoreboard + self.ifetch + self.pipe_busy + self.mem_drain
    }
}

/// Root cause of one non-issuing EU cycle.
///
/// Unlike [`StallStats`] — which counts per-thread *issue-attempt*
/// failures and can blame several threads in one cycle — a `StallCause`
/// charges each EU cycle in which nothing issued to exactly **one** cause,
/// so the per-EU invariant `issue_cycles + Σ causes == eu_cycles` holds
/// (with the default single-issue front end, `Σ causes == cycles −
/// issued`). The blamed cause is that of the thread that becomes ready
/// soonest — the binding constraint on forward progress — with ties going
/// to the earliest thread in arbitration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Instruction delivery: I$ miss latency (cold front end).
    FrontEnd,
    /// A register/flag dependence on an in-flight *compute* result.
    ScoreboardDep,
    /// Waiting on the memory subsystem: a load still in flight into a
    /// source register, a fence draining stores, or an `eot` drain.
    MemLatency,
    /// The target execution pipe is still busy with earlier waves — the
    /// cycles intra-warp compaction compresses.
    PipeBusy,
    /// The send queue refused a message. Structurally zero in this model
    /// (sends never backpressure the issue stage; see DESIGN.md §7), kept
    /// so exported schemas cover the full taxonomy.
    SendQueueFull,
    /// Every resident thread is parked at a workgroup barrier.
    Barrier,
    /// No thread is resident (dispatch tail / launch drained).
    Drained,
}

impl StallCause {
    /// All causes, in reporting order.
    pub const ALL: [StallCause; 7] = [
        StallCause::FrontEnd,
        StallCause::ScoreboardDep,
        StallCause::MemLatency,
        StallCause::PipeBusy,
        StallCause::SendQueueFull,
        StallCause::Barrier,
        StallCause::Drained,
    ];

    /// Stable snake_case label (used as the telemetry metric name suffix).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::FrontEnd => "front_end",
            StallCause::ScoreboardDep => "scoreboard_dep",
            StallCause::MemLatency => "mem_latency",
            StallCause::PipeBusy => "pipe_busy",
            StallCause::SendQueueFull => "send_queue_full",
            StallCause::Barrier => "barrier",
            StallCause::Drained => "drained",
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles charged to each [`StallCause`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Cycles lost to instruction delivery.
    pub front_end: u64,
    /// Cycles lost to compute-result dependences.
    pub scoreboard_dep: u64,
    /// Cycles lost waiting on memory (loads, fences, eot drains).
    pub mem_latency: u64,
    /// Cycles lost to execution-pipe occupancy.
    pub pipe_busy: u64,
    /// Cycles lost to send-queue backpressure (structurally zero here).
    pub send_queue_full: u64,
    /// Cycles every resident thread sat at a barrier.
    pub barrier: u64,
    /// Cycles with no resident thread.
    pub drained: u64,
}

impl StallBreakdown {
    /// Charges `n` cycles to `cause`.
    pub fn charge(&mut self, cause: StallCause, n: u64) {
        *self.slot_mut(cause) += n;
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::FrontEnd => self.front_end,
            StallCause::ScoreboardDep => self.scoreboard_dep,
            StallCause::MemLatency => self.mem_latency,
            StallCause::PipeBusy => self.pipe_busy,
            StallCause::SendQueueFull => self.send_queue_full,
            StallCause::Barrier => self.barrier,
            StallCause::Drained => self.drained,
        }
    }

    fn slot_mut(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::FrontEnd => &mut self.front_end,
            StallCause::ScoreboardDep => &mut self.scoreboard_dep,
            StallCause::MemLatency => &mut self.mem_latency,
            StallCause::PipeBusy => &mut self.pipe_busy,
            StallCause::SendQueueFull => &mut self.send_queue_full,
            StallCause::Barrier => &mut self.barrier,
            StallCause::Drained => &mut self.drained,
        }
    }

    /// Adds another breakdown.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for cause in StallCause::ALL {
            self.charge(cause, other.get(cause));
        }
    }

    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        StallCause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// `(cause, cycles)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

/// One contiguous span of non-issuing EU cycles charged to a single
/// [`StallCause`] — the interval form of [`StallBreakdown`], recorded only
/// when [`GpuConfig::record_issue_log`] is set. Exporters turn these into
/// Perfetto async stall tracks alongside the issue slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpan {
    /// EU the span belongs to.
    pub eu: u32,
    /// First cycle of the span.
    pub start: u64,
    /// Length in cycles (≥ 1; consecutive same-cause cycles coalesce).
    pub len: u64,
    /// The attributed root cause.
    pub cause: StallCause,
}

impl Instrument for StallBreakdown {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        for (cause, cycles) in self.iter() {
            snap.set_counter(&iwc_telemetry::join(prefix, cause.label()), cycles);
        }
    }
}

impl Instrument for EuStats {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        let j = |name: &str| iwc_telemetry::join(prefix, name);
        snap.set_counter(&j("issued"), self.issued);
        snap.set_counter(&j("skipped_zero_mask"), self.skipped_zero_mask);
        snap.set_counter(&j("fpu_waves"), self.fpu_waves);
        snap.set_counter(&j("em_waves"), self.em_waves);
        snap.set_counter(&j("sends"), self.sends);
        snap.set_counter(&j("icache_misses"), self.icache_misses);
        snap.set_counter(&j("cycles"), self.eu_cycles);
        snap.set_counter(&j("issue_cycles"), self.issue_cycles);
        // Legacy per-thread issue-attempt failure counts.
        snap.set_counter(&j("stall_events/fence"), self.stalls.stalled);
        snap.set_counter(&j("stall_events/scoreboard"), self.stalls.scoreboard);
        snap.set_counter(&j("stall_events/ifetch"), self.stalls.ifetch);
        snap.set_counter(&j("stall_events/pipe_busy"), self.stalls.pipe_busy);
        snap.set_counter(&j("stall_events/mem_drain"), self.stalls.mem_drain);
        // Per-cycle root-cause attribution.
        self.stall_causes.publish(&j("stall"), snap);
        self.compute_tally.publish(&j("compute"), snap);
        self.simd_tally.publish(&j("simd"), snap);
        if !self.insn_profile.is_empty() {
            let mut channels = iwc_telemetry::Pow2Hist::new();
            let mut quads = iwc_telemetry::Pow2Hist::new();
            for s in &self.insn_profile.insns {
                channels.merge(&s.channels);
                quads.merge(&s.quads);
            }
            snap.set_hist(&j("profile/channels"), channels);
            snap.set_hist(&j("profile/quads"), quads);
        }
    }
}

/// Outcome of one [`Eu::arbitrate`] pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArbResult {
    /// Instructions issued this cycle (0..=`cfg.issue_per_cycle`).
    pub issued: u32,
    /// Earliest future time at which some blocked thread becomes ready
    /// (`None` when all blocked threads wait on barriers or none is
    /// resident). Only computed when nothing issued.
    pub hint: Option<u64>,
    /// Root cause blocking the EU, when nothing issued: the cause of the
    /// soonest-ready thread, else [`StallCause::Barrier`] if any thread is
    /// parked, else [`StallCause::Drained`]. `None` when something issued.
    pub blocked: Option<StallCause>,
}

/// Packed issue state of an EU's slots, one structure-of-arrays over the
/// slots. It holds everything an arbitration pass reads about a thread
/// between two of its issues, so a pass never touches [`HwThread`] state
/// unless it issues.
///
/// Each thread's next instruction is pre-evaluated (see [`prepare`]) only
/// when its verdict can change — when it is placed and right after it
/// issues — because nothing else moves it: the zero-mask skip, the
/// scoreboard and the memory-drain time all depend on the thread's own
/// state alone. What other threads change — the FPU/EM
/// pipe-free times and the I$ contents — is read live at pass time.
#[derive(Debug)]
struct SlotState {
    /// Slot holds a thread.
    occupied: u64,
    /// Slot's thread was placed and is not yet pre-evaluated.
    unprepared: u64,
    /// Slot's thread is parked at a workgroup barrier.
    barrier: u64,
    /// Slot's next instruction targets the FPU pipe.
    fpu: u64,
    /// Slot's next instruction targets the EM pipe.
    em: u64,
    /// Slot's next instruction is `eot`.
    eot: u64,
    /// Slot's release time was armed by a fence (a memory wait), not by an
    /// instruction-fetch miss.
    fence: u64,
    /// Slot's binding scoreboard dependence is a load in flight.
    sb_mem: u64,
    /// Slot count.
    n: usize,
    /// Per-slot words, one array of `n` per field (see [`Word`]), in one
    /// allocation so a pass touches a few adjacent cache lines.
    words: Box<[u64]>,
}

/// The per-slot arrays of [`SlotState::words`].
#[derive(Clone, Copy)]
enum Word {
    /// Fence or fetch release time: the thread may not issue before it.
    StallUntil,
    /// Scoreboard-ready time of the next instruction.
    SbReady,
    /// Completion of the thread's latest memory access (the `eot` drain).
    Drain,
    /// Program counter of the next instruction (probed in the I$ at
    /// attempt time: the FIFO fill order is visible in timing).
    Pc,
}

impl SlotState {
    fn new(n: usize) -> Self {
        Self {
            occupied: 0,
            unprepared: 0,
            barrier: 0,
            fpu: 0,
            em: 0,
            eot: 0,
            fence: 0,
            sb_mem: 0,
            n,
            words: vec![0; 4 * n].into(),
        }
    }

    #[inline]
    fn get(&self, w: Word, i: usize) -> u64 {
        self.words[w as usize * self.n + i]
    }

    #[inline]
    fn set(&mut self, w: Word, i: usize, v: u64) {
        self.words[w as usize * self.n + i] = v;
    }

    /// Every slot's release time and scoreboard-ready time (the first two
    /// word arrays).
    fn fixed_waits(&self) -> (&[u64], &[u64]) {
        self.words[..2 * self.n].split_at(self.n)
    }

    /// The release time of slot `i` and its cause.
    fn stall(&self, i: usize) -> (u64, StallCause) {
        let cause = if self.fence >> i & 1 != 0 {
            StallCause::MemLatency
        } else {
            StallCause::FrontEnd
        };
        (self.get(Word::StallUntil, i), cause)
    }

    /// Arms slot `i`'s release time; `fence` tells a memory wait from an
    /// instruction-fetch miss.
    fn set_stall(&mut self, i: usize, until: u64, fence: bool) {
        self.set(Word::StallUntil, i, until);
        set_bit(&mut self.fence, i, fence);
    }
}

/// Sets or clears bit `i` of `m`.
#[inline]
fn set_bit(m: &mut u64, i: usize, on: bool) {
    *m = if on { *m | 1 << i } else { *m & !(1 << i) };
}

/// The verdict of an arbitration pass that issued nothing. Until `wake`
/// (the soonest blocked thread's ready time) a fresh pass would re-derive
/// exactly the same hint, cause and per-pass stall counts: every blocked
/// thread's wait is a fixed time for a thread that does not issue, the
/// pipe-free times only move when this EU issues, and the I$ only changes
/// on a miss (a pass that evicted keeps no verdict). Placing a thread or
/// releasing a barrier discards it.
#[derive(Clone, Copy, Debug)]
struct Idle {
    wake: u64,
    hint: Option<u64>,
    cause: StallCause,
    /// Per-pass stall counts of a repeated pass: an I$ miss is charged as
    /// `ifetch` on the pass that starts it and as a fence wait after.
    steady: StallStats,
}

/// One execution unit.
#[derive(Debug)]
pub struct Eu {
    /// EU index.
    pub id: u32,
    /// Resident threads (None = free slot).
    slots: Vec<Option<HwThread>>,
    /// Packed per-slot issue state.
    st: SlotState,
    /// Occupied-slot count, maintained at place/retire so the dispatch
    /// and completion checks in the scheduler loop are O(1) per cycle.
    resident: u32,
    fpu_free: u64,
    em_free: u64,
    arb_ptr: usize,
    /// Instruction addresses resident in the L1 I$ (FIFO of PCs,
    /// capacity `cfg.icache_insns`).
    icache: std::collections::VecDeque<usize>,
    /// Dense residency flags for `icache`, indexed by PC (PCs are small
    /// program offsets, so a byte vector beats hashing on the issue path).
    icache_set: Vec<u8>,
    /// Reusable lane-address/line scratch for the send path.
    scratch: LaneScratch,
    /// One-entry memo for the per-issue compaction tallies: loop bodies
    /// re-present the same mask, so the four cycle models are evaluated
    /// once per distinct mask instead of twice per issue.
    tally_memo: iwc_compaction::TallyMemo,
    /// Cached verdict of the last pass if it issued nothing.
    idle: Option<Idle>,
    /// Statistics.
    pub stats: EuStats,
}

/// Instruction-fetch check: returns the extra stall (cycles) before the
/// instruction at `pc` can issue, filling the FIFO I$ on a miss (which
/// sets `evicted` when the FIFO was full).
fn ifetch_check(
    icache: &mut std::collections::VecDeque<usize>,
    icache_set: &mut Vec<u8>,
    misses: &mut u64,
    evicted: &mut bool,
    pc: usize,
    cfg: &GpuConfig,
) -> u64 {
    if cfg.icache_miss_latency == 0 || cfg.icache_insns == 0 {
        return 0;
    }
    if icache_set.get(pc).is_some_and(|&r| r != 0) {
        return 0;
    }
    *misses += 1;
    if icache.len() as u32 >= cfg.icache_insns {
        if let Some(old) = icache.pop_front() {
            icache_set[old] = 0;
            *evicted = true;
        }
    }
    icache.push_back(pc);
    if pc >= icache_set.len() {
        icache_set.resize(pc + 1, 0);
    }
    icache_set[pc] = 1;
    u64::from(cfg.icache_miss_latency)
}

/// The cold half of issue bookkeeping: per-instruction profiling, the
/// issue log, and mask capture. Outlined (and never inlined) so the
/// default configuration's hot path carries a single predictable
/// `recording` branch and zero recording code.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn record_issue_event(
    stats: &mut EuStats,
    cfg: &GpuConfig,
    engine: &dyn CompactionEngine,
    eu: u32,
    thread: u8,
    now: u64,
    pc: usize,
    mask: ExecMask,
    plan: &MicroPlan,
    effect: PlanEffect,
) {
    if cfg.profile_insns {
        let compute = matches!(effect, PlanEffect::Compute(_));
        stats.insn_profile.record(pc, mask, plan.dtype(), compute);
    }
    if cfg.record_issue_log {
        let pipe = plan.pipe();
        let waves = if pipe == Pipe::Fpu || pipe == Pipe::Em {
            engine.cycles(mask, plan.dtype())
        } else {
            0
        };
        stats.issue_log.push(IssueEvent {
            cycle: now,
            eu,
            thread,
            pipe,
            waves,
        });
    }
    if cfg.capture_masks && matches!(effect, PlanEffect::Compute(_) | PlanEffect::Memory { .. }) {
        stats.mask_trace.push((mask.bits(), mask.width() as u8));
    }
}

/// The slots of mask `m` in rotation order from slot `p`: `p`, `p + 1`,
/// …, then wrapping round to `0`, …, `p - 1`.
fn rotation(m: u64, p: usize) -> Rotation {
    let first = u64::MAX << p;
    Rotation {
        lap: m & first,
        next_lap: m & !first,
    }
}

/// Iterator of [`rotation`]: the slots left in this lap, then the next.
struct Rotation {
    lap: u64,
    next_lap: u64,
}

impl Iterator for Rotation {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.lap == 0 {
            self.lap = std::mem::take(&mut self.next_lap);
            if self.lap == 0 {
                return None;
            }
        }
        let i = self.lap.trailing_zeros() as usize;
        self.lap &= self.lap - 1;
        Some(i)
    }
}

/// The slots a pass starting at slot `p` visits before slot `i`.
fn before(p: usize, i: usize) -> u64 {
    let below = |x: usize| (1u64 << x) - 1;
    if i >= p {
        below(i) & !below(p)
    } else {
        !below(p) | below(i)
    }
}

/// Set bits of a slot mask. Masks hold a few bits, so clearing them one
/// at a time beats a software popcount (the baseline x86-64 target has no
/// `popcnt` instruction).
fn ones(mut m: u64) -> u64 {
    let mut n = 0;
    while m != 0 {
        m &= m - 1;
        n += 1;
    }
    n
}

/// Counts one zero-mask skip at `pc`, guarding against runaway skipping.
fn note_skip(stats: &mut EuStats, cfg: &GpuConfig, pc: usize, guard: &mut usize, len: usize) {
    stats.skipped_zero_mask += 1;
    if cfg.profile_insns {
        stats.insn_profile.record_skip(pc);
    }
    *guard += 1;
    assert!(*guard <= len * 2, "runaway zero-mask skipping");
}

/// Pre-evaluates the next instruction of `t`, resident in slot `i`: skips
/// zero-mask ALU/send instructions for free (jump-over), then records the
/// scoreboard-ready time and its cause, target pipe, and `eot` drain time
/// in the packed state.
fn prepare(
    t: &mut HwThread,
    i: usize,
    st: &mut SlotState,
    stats: &mut EuStats,
    cfg: &GpuConfig,
    plans: &DecodedProgram,
) {
    let mut guard = 0usize;
    let plan = loop {
        let plan = plans.plan(t.ctx.pc);
        if !plan.is_skipped(&t.ctx) {
            break plan;
        }
        note_skip(stats, cfg, t.ctx.pc, &mut guard, plans.len());
        t.ctx.pc += 1;
    };
    let (ready, from_mem) = t.deps_ready_at_plan(plan);
    let pipe = plan.pipe();
    set_bit(&mut st.fpu, i, pipe == Pipe::Fpu);
    set_bit(&mut st.em, i, pipe == Pipe::Em);
    set_bit(&mut st.eot, i, plan.is_eot());
    set_bit(&mut st.sb_mem, i, from_mem);
    st.set(Word::SbReady, i, ready);
    st.set(Word::Drain, i, t.last_mem_done);
    st.set(Word::Pc, i, t.ctx.pc as u64);
}

impl Eu {
    /// Creates an EU with `threads` empty slots.
    pub fn new(id: u32, threads: u32) -> Self {
        assert!(threads <= 64, "slot bitmasks hold at most 64 slots");
        Self {
            id,
            slots: (0..threads).map(|_| None).collect(),
            st: SlotState::new(threads as usize),
            resident: 0,
            fpu_free: 0,
            em_free: 0,
            arb_ptr: 0,
            icache: std::collections::VecDeque::new(),
            icache_set: Vec::new(),
            scratch: LaneScratch::new(),
            tally_memo: iwc_compaction::TallyMemo::default(),
            idle: None,
            stats: EuStats::default(),
        }
    }

    /// Number of free thread slots.
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.resident as usize
    }

    /// True when no thread is resident.
    pub fn is_idle(&self) -> bool {
        self.resident == 0
    }

    /// Places a thread into the lowest free slot.
    ///
    /// # Panics
    ///
    /// Panics when no slot is free.
    pub fn place(&mut self, t: HwThread) {
        let slot = (!self.st.occupied).trailing_zeros() as usize;
        assert!(slot < self.slots.len(), "free slot");
        self.slots[slot] = Some(t);
        let bit = 1u64 << slot;
        self.st.occupied |= bit;
        self.st.unprepared |= bit;
        self.st.barrier &= !bit;
        self.st.set_stall(slot, 0, false);
        self.resident += 1;
        self.idle = None;
    }

    /// Releases every thread of workgroup `wg` parked at a barrier on this
    /// EU.
    pub(crate) fn release_barrier(&mut self, wg: usize) {
        let mut bits = self.st.barrier;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.slots[i].as_ref().is_some_and(|t| t.wg == wg) {
                self.st.barrier &= !(1 << i);
                self.idle = None;
            }
        }
    }

    /// One arbitration pass (invoked every visited cycle): issues up to
    /// `cfg.issue_per_cycle` instructions from distinct ready threads,
    /// rotating priority from the slot after the last issuer. The default
    /// of 1 is the paper's "two instructions every two cycles" bandwidth at
    /// single-cycle granularity.
    ///
    /// A pass visits the slots in rotation order until the issue budget is
    /// spent. A thread is blocked, in check order, by a barrier, a fence or
    /// fetch release, its scoreboard, an I$ miss (probed now), a busy
    /// target pipe, or an `eot` memory drain; every blocked thread visited
    /// counts one legacy `stall_events/*` event. The first ready thread in
    /// rotation order issues. Threads of workgroups that retire are pushed
    /// onto `finished`. Issue runs the launch's decoded [`MicroPlan`]s.
    ///
    /// An EU whose last pass issued nothing replays that verdict in O(1)
    /// until its soonest blocked thread is ready.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn arbitrate(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        engine: &dyn CompactionEngine,
        plans: &DecodedProgram,
        mem: &mut MemSystem,
        img: &mut MemoryImage,
        slms: &mut [MemoryImage],
        barrier_arrivals: &mut Vec<usize>,
        finished: &mut Vec<usize>,
    ) -> ArbResult {
        if let Some(idle) = &self.idle {
            if now < idle.wake {
                self.stats.stalls.merge(&idle.steady);
                return ArbResult {
                    issued: 0,
                    hint: idle.hint,
                    blocked: Some(idle.cause),
                };
            }
        }
        self.pass(
            now,
            cfg,
            engine,
            plans,
            mem,
            img,
            slms,
            barrier_arrivals,
            finished,
        )
    }

    /// A fresh arbitration pass (see [`arbitrate`](Self::arbitrate)).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn pass(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        engine: &dyn CompactionEngine,
        plans: &DecodedProgram,
        mem: &mut MemSystem,
        img: &mut MemoryImage,
        slms: &mut [MemoryImage],
        barrier_arrivals: &mut Vec<usize>,
        finished: &mut Vec<usize>,
    ) -> ArbResult {
        while self.st.unprepared != 0 {
            let i = self.st.unprepared.trailing_zeros() as usize;
            self.st.unprepared &= !(1 << i);
            let t = self.slots[i].as_mut().expect("placed thread");
            prepare(t, i, &mut self.st, &mut self.stats, cfg, plans);
        }

        // Fixed waits: a fence/fetch release, then the scoreboard. Judged
        // for every slot at once, without branching on the times.
        let live = self.st.occupied & !self.st.barrier;
        let (mut stalled, mut sb) = (0u64, 0u64);
        let (release, ready) = self.st.fixed_waits();
        for (i, (&r, &q)) in release.iter().zip(ready).enumerate() {
            let held = u64::from(r > now);
            stalled |= held << i;
            sb |= (u64::from(q > now) & !held) << i;
        }
        stalled &= live;
        sb &= live;

        // Waits other threads move, read live: the target pipe's free time
        // and, for `eot`, the memory drain.
        let cand = live & !(stalled | sb);
        let mut pipe_held = self.pipe_held(now);
        let mut drain_held = 0u64;
        let mut eots = self.st.eot & cand;
        while eots != 0 {
            let i = eots.trailing_zeros() as usize;
            eots &= eots - 1;
            drain_held |= u64::from(self.st.get(Word::Drain, i) > now) << i;
        }

        // The candidates in rotation order: probe the I$, then issue the
        // first whose pipe and drain waits are over.
        let n = self.slots.len();
        let p = self.arb_ptr;
        let (mut ifetch, mut pipe, mut drain) = (0u64, 0u64, 0u64);
        let mut issued = 0u32;
        let mut visited = u64::MAX; // slots the pass visited
        let mut evicted = false;
        for i in rotation(cand, p) {
            let b = 1u64 << i;
            let pc = self.st.get(Word::Pc, i) as usize;
            let fetch = ifetch_check(
                &mut self.icache,
                &mut self.icache_set,
                &mut self.stats.icache_misses,
                &mut evicted,
                pc,
                cfg,
            );
            if fetch > 0 {
                self.st.set_stall(i, now + fetch, false);
                ifetch |= b;
                continue;
            }
            if (pipe_held | drain_held) & b != 0 {
                pipe |= pipe_held & b;
                drain |= drain_held & b;
                continue;
            }
            self.issue(
                i,
                now,
                cfg,
                engine,
                plans,
                mem,
                img,
                slms,
                barrier_arrivals,
                finished,
            );
            issued += 1;
            self.arb_ptr = if i + 1 == n { 0 } else { i + 1 };
            if issued >= cfg.issue_per_cycle {
                visited = before(p, i);
                break;
            }
            pipe_held = self.pipe_held(now); // the issue may have booked a pipe
        }

        let pass = StallStats {
            stalled: ones(stalled & visited),
            scoreboard: ones(sb & visited),
            ifetch: ones(ifetch),
            pipe_busy: ones(pipe),
            mem_drain: ones(drain),
        };
        self.stats.stalls.merge(&pass);
        if issued > 0 {
            self.idle = None;
            return ArbResult {
                issued,
                hint: None,
                blocked: None,
            };
        }

        // Nothing issued: every live thread is blocked. The hint is the
        // soonest ready time; the blamed cause is that thread's, ties going
        // to the first in rotation order.
        let mut soonest: Option<(u64, StallCause)> = None;
        for i in rotation(live, p) {
            let b = 1u64 << i;
            let (until, cause) = if (stalled | ifetch) & b != 0 {
                self.st.stall(i)
            } else if sb & b != 0 {
                let cause = if self.st.sb_mem & b != 0 {
                    StallCause::MemLatency
                } else {
                    StallCause::ScoreboardDep
                };
                (self.st.get(Word::SbReady, i), cause)
            } else if pipe & b != 0 {
                let free = if self.st.fpu & b != 0 {
                    self.fpu_free
                } else {
                    self.em_free
                };
                (free, StallCause::PipeBusy)
            } else {
                (self.st.get(Word::Drain, i), StallCause::MemLatency)
            };
            if soonest.is_none_or(|(best, _)| until < best) {
                soonest = Some((until, cause));
            }
        }
        let hint = soonest.map(|(at, _)| at);
        let cause = match soonest {
            Some((_, cause)) => cause,
            None if self.st.occupied & self.st.barrier != 0 => StallCause::Barrier,
            None => StallCause::Drained,
        };
        // An eviction this pass may have removed the next pc of a slot that
        // probed before it, so a repeat pass could miss where this one hit:
        // no verdict to replay then.
        self.idle = (!evicted).then_some(Idle {
            wake: hint.unwrap_or(u64::MAX),
            hint,
            cause,
            steady: StallStats {
                stalled: pass.stalled + pass.ifetch,
                ifetch: 0,
                ..pass
            },
        });
        ArbResult {
            issued: 0,
            hint,
            blocked: Some(cause),
        }
    }

    /// Slots whose next instruction's pipe is still busy at `now`.
    fn pipe_held(&self, now: u64) -> u64 {
        let all_if = |c: bool| 0u64.wrapping_sub(u64::from(c));
        (self.st.fpu & all_if(self.fpu_free > now)) | (self.st.em & all_if(self.em_free > now))
    }

    /// Issues the next instruction of the thread in slot `i`, which passed
    /// every check at `now`, and pre-evaluates the one after it.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        i: usize,
        now: u64,
        cfg: &GpuConfig,
        engine: &dyn CompactionEngine,
        plans: &DecodedProgram,
        mem: &mut MemSystem,
        img: &mut MemoryImage,
        slms: &mut [MemoryImage],
        barrier_arrivals: &mut Vec<usize>,
        finished: &mut Vec<usize>,
    ) {
        let Self {
            id,
            slots,
            st,
            resident,
            fpu_free,
            em_free,
            scratch,
            tally_memo,
            stats,
            ..
        } = self;
        let t = slots[i].as_mut().expect("thread present");
        let slm = &mut slms[t.slm_slot];
        let pc = st.get(Word::Pc, i) as usize;
        let plan = plans.plan(pc);
        let mask = plan.exec_mask(&t.ctx);
        let effect = execute_plan(&mut t.ctx, plan, mask, img, slm, scratch);
        stats.issued += 1;
        if cfg.profile_insns || cfg.record_issue_log || cfg.capture_masks {
            record_issue_event(
                stats, cfg, engine, *id, i as u8, now, pc, mask, plan, effect,
            );
        }

        match effect {
            PlanEffect::Compute(pipe) => {
                let mut waves = u64::from(engine.cycles(mask, plan.dtype()));
                if cfg.rf_timing == crate::config::RfTiming::MultiCycle {
                    // A single-ported file serializes one register-half
                    // access per operand ahead of execution (§4.3 option 1).
                    waves += plan.n_grf_operands();
                }
                let (pipe_free, depth) = match pipe {
                    Pipe::Fpu => (&mut *fpu_free, cfg.fpu_latency),
                    Pipe::Em => (&mut *em_free, cfg.em_latency),
                    _ => unreachable!("compute on non-ALU pipe"),
                };
                *pipe_free = now + waves;
                let writeback = now + waves + u64::from(depth);
                t.mark_range(plan.dst_range(), writeback, false);
                if let Some(f) = plan.cond_flag() {
                    t.flag_busy[usize::from(f)] = writeback;
                }
                match pipe {
                    Pipe::Fpu => stats.fpu_waves += waves,
                    Pipe::Em => stats.em_waves += waves,
                    _ => {}
                }
                let d = tally_memo.delta(mask, plan.dtype());
                stats.compute_tally.add_delta(&d);
                stats.simd_tally.add_delta(&d);
            }
            PlanEffect::Memory { space, is_store } => {
                stats.sends += 1;
                let d = tally_memo.delta(mask, plan.dtype());
                stats.simd_tally.add_delta(&d);
                let done = match space {
                    MemSpace::Global => {
                        let addrs = &scratch.addrs[..usize::from(scratch.len)];
                        mem.coalesce_into(addrs, &mut scratch.lines);
                        mem.global_access(now, &scratch.lines, is_store)
                    }
                    MemSpace::Slm => mem.slm_access(now, scratch.addrs()),
                };
                t.last_mem_done = t.last_mem_done.max(done);
                if !is_store {
                    t.mark_range(plan.dst_range(), done, true);
                }
            }
            PlanEffect::Fence => {
                st.set_stall(i, t.last_mem_done, true);
            }
            PlanEffect::Barrier => {
                st.barrier |= 1 << i;
                barrier_arrivals.push(t.wg);
            }
            PlanEffect::Eot => {
                finished.push(t.wg);
                slots[i] = None;
                st.occupied &= !(1 << i);
                *resident -= 1;
                return;
            }
            PlanEffect::ControlFlow => {}
        }
        prepare(t, i, st, stats, cfg, plans);
    }
}
