//! Multi-EU GPU: workgroup dispatch, barriers, and the simulation loop.

use crate::config::{ExecBackend, GpuConfig};
use crate::eu::{Eu, EuStats, HwThread, StallCause, StallSpan};
use crate::exec::ThreadCtx;
use crate::memimg::MemoryImage;
use crate::memsys::{MemStats, MemSystem};
use crate::plan::DecodedProgram;
use iwc_compaction::{CompactionTally, EngineId};
use iwc_isa::mask::ExecMask;
use iwc_isa::program::Program;
use iwc_isa::reg::Operand;
use iwc_isa::types::Scalar;
use iwc_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A kernel launch (the NDRange of OpenCL, flattened to one dimension).
#[derive(Clone, Debug)]
pub struct Launch {
    /// The kernel program.
    pub program: Program,
    /// Total number of work-items.
    pub global_size: u32,
    /// Work-items per workgroup.
    pub wg_size: u32,
    /// Scalar kernel arguments (available to the kernel in `r3`/`r4`).
    pub args: Vec<u32>,
    /// Shared-local-memory bytes per workgroup.
    pub slm_bytes: u32,
}

impl Launch {
    /// Creates a launch with no arguments and no SLM.
    pub fn new(program: Program, global_size: u32, wg_size: u32) -> Self {
        Self {
            program,
            global_size,
            wg_size,
            args: Vec::new(),
            slm_bytes: 0,
        }
    }

    /// Adds scalar arguments.
    pub fn with_args(mut self, args: &[u32]) -> Self {
        self.args = args.to_vec();
        self
    }

    /// Requests SLM per workgroup.
    pub fn with_slm(mut self, bytes: u32) -> Self {
        self.slm_bytes = bytes;
        self
    }

    /// Number of workgroups.
    pub fn num_wgs(&self) -> u32 {
        self.global_size.div_ceil(self.wg_size)
    }

    /// EU threads per workgroup.
    pub fn threads_per_wg(&self) -> u32 {
        self.wg_size.div_ceil(self.program.simd_width())
    }
}

/// Aggregate result of one simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Wall-clock cycles until the last thread retired.
    pub cycles: u64,
    /// Aggregated EU statistics.
    pub eu: EuStats,
    /// Memory-subsystem statistics.
    pub mem: MemStats,
    /// L3 hit rate at the end of the run.
    pub l3_hit_rate: f64,
    /// Compaction engine the run used (`Display`s as its label).
    pub mode: EngineId,
    /// Uniform metric snapshot of the run: every typed statistic above,
    /// published under hierarchical names (`eu/…`, `mem/…`, `sim/cycles`).
    pub telemetry: TelemetrySnapshot,
}

impl SimResult {
    /// Kernel SIMD efficiency (Fig. 3 metric), over all SIMD instructions.
    pub fn simd_efficiency(&self) -> f64 {
        self.eu.simd_tally.simd_efficiency()
    }

    /// EU execution cycles under the run's mask stream for the canonical
    /// engine `engine` (evaluated analytically from the executed masks, as
    /// the paper does).
    ///
    /// # Panics
    ///
    /// Panics when `engine` is not one of [`EngineId::CANONICAL`].
    pub fn eu_cycles(&self, engine: EngineId) -> u64 {
        self.eu.compute_tally.cycles.get(engine)
    }

    /// Compaction accounting over the executed computation masks.
    pub fn compute_tally(&self) -> &CompactionTally {
        &self.eu.compute_tally
    }

    /// Average data-cluster throughput in lines per cycle.
    pub fn dc_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mem.lines_requested as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} cycles, {} issued ({} skipped), eff {:.1}%, L3 {:.1}%, DC {:.2} lines/cyc",
            self.mode,
            self.cycles,
            self.eu.issued,
            self.eu.skipped_zero_mask,
            100.0 * self.simd_efficiency(),
            100.0 * self.l3_hit_rate,
            self.dc_throughput()
        )
    }
}

#[derive(Debug, Default)]
struct WgState {
    resident: u32,
    done: u32,
    at_barrier: u32,
}

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimulateError {
    /// A workgroup needs more threads than one EU provides.
    WorkgroupTooLarge {
        /// Threads required by one workgroup.
        needed: u32,
        /// Threads available per EU.
        available: u32,
    },
    /// The run exceeded the cycle safety limit.
    CycleLimit(u64),
    /// No thread could make progress (e.g. a barrier some threads never
    /// reach).
    Deadlock {
        /// Cycle at which progress stopped.
        at: u64,
    },
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkgroupTooLarge { needed, available } => write!(
                f,
                "workgroup needs {needed} threads but an EU has only {available}"
            ),
            Self::CycleLimit(c) => write!(f, "exceeded cycle limit at {c}"),
            Self::Deadlock { at } => write!(f, "no thread can make progress at cycle {at}"),
        }
    }
}

impl std::error::Error for SimulateError {}

/// Index of issue cycles in the per-EU cycle accounts, after the
/// [`StallCause`] discriminants.
const ISSUED: usize = StallCause::ALL.len();

/// Cycle safety limit for one simulation.
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// A persistent GPU device: keeps its memory subsystem (cache contents,
/// bank/cluster timing state) and clock across kernel launches, like the
/// command-streamer execution model of §2.1 where the driver enqueues
/// successive kernels against a warm device.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    mem: MemSystem,
    clock: u64,
}

impl Gpu {
    /// Creates a cold device.
    pub fn new(cfg: GpuConfig) -> Self {
        Self {
            mem: MemSystem::new(cfg.mem),
            cfg,
            clock: 0,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Total cycles elapsed on the device clock across all launches.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Runs one kernel launch to completion against `img`, continuing the
    /// device clock and reusing warm caches. The returned [`SimResult`]
    /// reports per-launch deltas (cycles, memory statistics).
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError`] when the launch cannot be placed or does
    /// not make progress.
    pub fn run(
        &mut self,
        launch: &Launch,
        img: &mut MemoryImage,
    ) -> Result<SimResult, SimulateError> {
        run_launch(&self.cfg, &mut self.mem, &mut self.clock, launch, img, None)
    }

    /// Like [`Gpu::run`], but reuses a program already lowered with
    /// [`DecodedProgram::decode`] instead of decoding inside the launch —
    /// the serve path's cache-friendly entry point (decode once, run the
    /// same kernel many times across sessions and engine sweeps).
    ///
    /// Under [`ExecBackend::Reference`] the pre-decoded plans are unused
    /// (that backend interprets the raw [`Program`]); results are identical
    /// either way, which the serve integration tests enforce.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError`] when the launch cannot be placed or does
    /// not make progress.
    ///
    /// # Panics
    ///
    /// Panics when `decoded` was not produced from `launch.program` (length
    /// mismatch — the cheap structural check; callers key caches by content
    /// hash, which subsumes it).
    pub fn run_decoded(
        &mut self,
        launch: &Launch,
        img: &mut MemoryImage,
        decoded: &DecodedProgram,
    ) -> Result<SimResult, SimulateError> {
        assert_eq!(
            decoded.len(),
            launch.program.len(),
            "decoded plans do not match the launched program"
        );
        run_launch(
            &self.cfg,
            &mut self.mem,
            &mut self.clock,
            launch,
            img,
            Some(decoded),
        )
    }

    /// Sweeps one launch across several compaction engines: each engine
    /// runs on a fresh cold device against its own copy of `img`, so
    /// results are independent and ordered like `engines`. This is the
    /// evaluation harness's unit of work — one (workload × config) cell
    /// expanded over the mode axis.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimulateError`] encountered, abandoning the
    /// remaining modes.
    pub fn run_modes(
        cfg: &GpuConfig,
        launch: &Launch,
        img: &MemoryImage,
        engines: &[EngineId],
    ) -> Result<Vec<SimResult>, SimulateError> {
        // One scratch image serves every mode: `clone_from` resets it in
        // place between runs, so an N-mode sweep costs one allocation
        // instead of N image clones.
        let mut scratch: Option<MemoryImage> = None;
        engines
            .iter()
            .map(|&engine| {
                let mut cfg = *cfg;
                cfg.compaction = engine;
                let run_img = match scratch.as_mut() {
                    Some(s) => {
                        s.clone_from(img);
                        s
                    }
                    None => scratch.insert(img.clone()),
                };
                simulate(&cfg, launch, run_img)
            })
            .collect()
    }
}

/// Runs `launch` on a *cold* GPU with configuration `cfg` against global
/// memory `img` (one-shot convenience over [`Gpu`]).
///
/// Functional results are visible in `img` after the call; the returned
/// [`SimResult`] carries the timing and compaction statistics.
///
/// # Errors
///
/// Returns [`SimulateError`] when the launch cannot be placed or does not
/// make progress.
pub fn simulate(
    cfg: &GpuConfig,
    launch: &Launch,
    img: &mut MemoryImage,
) -> Result<SimResult, SimulateError> {
    Gpu::new(*cfg).run(launch, img)
}

/// [`simulate`] with a pre-decoded program (one-shot convenience over
/// [`Gpu::run_decoded`]): a cold device, but no per-launch decode.
///
/// # Errors
///
/// Returns [`SimulateError`] when the launch cannot be placed or does not
/// make progress.
///
/// # Panics
///
/// Panics when `decoded` was not produced from `launch.program`.
pub fn simulate_decoded(
    cfg: &GpuConfig,
    launch: &Launch,
    img: &mut MemoryImage,
    decoded: &DecodedProgram,
) -> Result<SimResult, SimulateError> {
    Gpu::new(*cfg).run_decoded(launch, img, decoded)
}

/// Charges the whole launch to the `"simulate"` phase of the current
/// request span (a no-op outside the serve daemon) and delegates to
/// [`run_launch_inner`]. Span timing is wall-clock side-band state only —
/// it never touches the result or its telemetry snapshot, so served runs
/// stay byte-identical to direct ones.
fn run_launch(
    cfg: &GpuConfig,
    mem: &mut MemSystem,
    clock: &mut u64,
    launch: &Launch,
    img: &mut MemoryImage,
    predecoded: Option<&DecodedProgram>,
) -> Result<SimResult, SimulateError> {
    iwc_telemetry::span::time_phase("simulate", || {
        run_launch_inner(cfg, mem, clock, launch, img, predecoded)
    })
}

fn run_launch_inner(
    cfg: &GpuConfig,
    mem: &mut MemSystem,
    clock: &mut u64,
    launch: &Launch,
    img: &mut MemoryImage,
    predecoded: Option<&DecodedProgram>,
) -> Result<SimResult, SimulateError> {
    let simd = launch.program.simd_width();
    let wg_threads = launch.threads_per_wg();
    if wg_threads > cfg.threads_per_eu {
        return Err(SimulateError::WorkgroupTooLarge {
            needed: wg_threads,
            available: cfg.threads_per_eu,
        });
    }
    let num_wgs = launch.num_wgs() as usize;
    // Resolve the compaction engine once per launch; the per-cycle issue
    // path sees only the trait object, never the registry.
    let engine = cfg.compaction.engine();
    // Resolve the execution backend once per launch and pre-decode the
    // program into micro-op plans for the fast interpreter — unless the
    // caller already holds the plans (the serve path's session cache).
    let decoded_local: Option<DecodedProgram>;
    let decoded: Option<&DecodedProgram> = match cfg.exec.resolve() {
        ExecBackend::Reference => None,
        _ => match predecoded {
            Some(d) => Some(d),
            None => {
                decoded_local = Some(DecodedProgram::decode(&launch.program));
                decoded_local.as_ref()
            }
        },
    };

    let mut eus: Vec<Eu> = (0..cfg.eus)
        .map(|i| Eu::new(i, cfg.threads_per_eu))
        .collect();
    let mem_before = mem.stats;
    let start = *clock;
    // One SLM image per workgroup, indexed by `slm_slot`.
    let mut slms: Vec<MemoryImage> = Vec::new();
    // Dense per-workgroup barrier/retirement state (wg ids are assigned
    // sequentially at dispatch).
    let mut wg_state: Vec<WgState> = (0..num_wgs).map(|_| WgState::default()).collect();
    let mut next_wg = 0usize;
    let mut now = start;
    // Per EU, the cause blocking it this visited cycle (`None`: it issued).
    let mut blocked: Vec<Option<StallCause>> = vec![None; eus.len()];
    // Per EU, cycles charged to each `StallCause` (by discriminant) and, in
    // the last entry, issue cycles: one indexed add per EU per visited
    // cycle, folded into the stats when the launch ends.
    let mut charged: Vec<[u64; ISSUED + 1]> = vec![[0; ISSUED + 1]; eus.len()];
    // Workgroups with a barrier arrival / a retired thread this cycle — the
    // only candidates for a barrier release.
    let mut arrivals: Vec<usize> = Vec::new();
    let mut finished: Vec<usize> = Vec::new();
    let mut dispatch = true;

    // One loop visits every cycle in which some EU can make progress. An
    // EU whose every thread is blocked answers from its cached verdict in
    // O(1) until its soonest thread is ready; when no EU issues, time jumps
    // straight to the soonest such cycle over all EUs.
    loop {
        // ---- dispatch pending workgroups ----
        // Slots only free up when a thread retires, so after a dispatch
        // pass nothing more fits until one has.
        if dispatch && next_wg < num_wgs {
            for eu in eus.iter_mut() {
                while next_wg < num_wgs && eu.free_slots() >= wg_threads as usize {
                    let wg = next_wg;
                    next_wg += 1;
                    let slm_slot = slms.len();
                    slms.push(MemoryImage::new(launch.slm_bytes.max(64)));
                    wg_state[wg].resident = wg_threads;
                    for wt in 0..wg_threads {
                        eu.place(make_thread(launch, simd, wg, wt, slm_slot));
                    }
                }
            }
        }

        // ---- arbitration (one instruction per EU per cycle) ----
        let mut any_issued = false;
        let mut next_ready: Option<u64> = None;
        arrivals.clear();
        finished.clear();
        for (eu, b) in eus.iter_mut().zip(blocked.iter_mut()) {
            let arb = eu.arbitrate(
                now,
                cfg,
                engine,
                &launch.program,
                decoded,
                mem,
                img,
                &mut slms,
                &mut arrivals,
                &mut finished,
            );
            any_issued |= arb.issued > 0;
            if let Some(h) = arb.hint {
                next_ready = Some(next_ready.map_or(h, |m| m.min(h)));
            }
            *b = arb.blocked;
        }

        dispatch = !finished.is_empty();

        // ---- barrier bookkeeping ----
        // A workgroup can only become releasable on one of this cycle's
        // events (a barrier arrival or a thread retiring while siblings
        // wait), so only those workgroups are checked — no full scan.
        for &wg in &finished {
            wg_state[wg].done += 1;
        }
        for &wg in &arrivals {
            wg_state[wg].at_barrier += 1;
        }
        let mut released = false;
        for &wg in finished.iter().chain(&arrivals) {
            let st = &mut wg_state[wg];
            if st.at_barrier > 0 && st.at_barrier + st.done == st.resident {
                st.at_barrier = 0;
                for eu in eus.iter_mut() {
                    eu.release_barrier(wg);
                }
                released = true;
            }
        }

        // ---- completion / time advance ----
        if next_wg == num_wgs && eus.iter().all(Eu::is_idle) {
            break;
        }
        let delta = if any_issued || released {
            1
        } else {
            match next_ready {
                Some(h) => (now + 1).max(h) - now,
                None => return Err(SimulateError::Deadlock { at: now }),
            }
        };
        // Stall attribution: every EU sees every launch cycle; a cycle (or
        // jumped span of cycles) with no issue is charged to exactly one
        // cause per EU. Jumps only happen when no EU issued, so the whole
        // span carries the pre-jump blocking cause.
        for (acc, b) in charged.iter_mut().zip(&blocked) {
            acc[b.map_or(ISSUED, |cause| cause as usize)] += delta;
        }
        if cfg.record_issue_log {
            for (eu, b) in eus.iter_mut().zip(&blocked) {
                let Some(cause) = *b else { continue };
                // Interval form for trace export: extend the open span
                // when the cause continues, else start a new one.
                match eu.stats.stall_log.last_mut() {
                    Some(s) if s.cause == cause && s.start + s.len == now => s.len += delta,
                    _ => eu.stats.stall_log.push(StallSpan {
                        eu: eu.id,
                        start: now,
                        len: delta,
                        cause,
                    }),
                }
            }
        }
        now += delta;
        if now - start > MAX_CYCLES {
            return Err(SimulateError::CycleLimit(now - start));
        }
    }
    *clock = now;
    for (eu, acc) in eus.iter_mut().zip(&charged) {
        eu.stats.eu_cycles = now - start;
        eu.stats.issue_cycles = acc[ISSUED];
        for cause in StallCause::ALL {
            eu.stats.stall_causes.charge(cause, acc[cause as usize]);
        }
    }

    // ---- aggregate statistics ----
    let mut agg = EuStats::default();
    for eu in &eus {
        debug_assert_eq!(
            eu.stats.issue_cycles + eu.stats.stall_causes.total(),
            eu.stats.eu_cycles,
            "stall attribution must cover every non-issuing EU cycle (EU {})",
            eu.id
        );
        agg.issued += eu.stats.issued;
        agg.skipped_zero_mask += eu.stats.skipped_zero_mask;
        agg.fpu_waves += eu.stats.fpu_waves;
        agg.em_waves += eu.stats.em_waves;
        agg.sends += eu.stats.sends;
        agg.icache_misses += eu.stats.icache_misses;
        agg.stalls.merge(&eu.stats.stalls);
        agg.eu_cycles += eu.stats.eu_cycles;
        agg.issue_cycles += eu.stats.issue_cycles;
        agg.stall_causes.merge(&eu.stats.stall_causes);
        agg.issue_log.extend_from_slice(&eu.stats.issue_log);
        agg.stall_log.extend_from_slice(&eu.stats.stall_log);
        agg.compute_tally.merge(&eu.stats.compute_tally);
        agg.simd_tally.merge(&eu.stats.simd_tally);
        agg.mask_trace.extend_from_slice(&eu.stats.mask_trace);
        agg.insn_profile.merge(&eu.stats.insn_profile);
    }
    let mem_delta = mem.stats.delta(&mem_before);
    // The uniform snapshot every result carries: one publish pass over the
    // typed stats at end of run (a few dozen BTreeMap inserts — negligible
    // next to the simulation itself, so it is unconditional).
    let mut telemetry = TelemetrySnapshot::new();
    telemetry.set_counter("sim/cycles", now - start);
    telemetry.publish("eu", &agg);
    telemetry.publish("mem", &mem_delta);
    Ok(SimResult {
        cycles: now - start,
        eu: agg,
        l3_hit_rate: mem_delta.l3_hit_rate(),
        mem: mem_delta,
        mode: cfg.compaction,
        telemetry,
    })
}

/// First GRF register holding kernel arguments for a given SIMD width:
/// r3 for SIMD16 and below (global ids occupy r1-r2), r5 for SIMD32
/// (global ids occupy r1-r4). Kernels must read their arguments from the
/// matching register (`iwc-workloads` exposes helpers).
pub fn arg_base_reg(simd_width: u32) -> u8 {
    if simd_width > 16 {
        5
    } else {
        3
    }
}

/// Builds the architectural state of one dispatched thread, including the
/// r0 header, per-channel global ids starting at r1, and kernel arguments
/// at [`arg_base_reg`] (see the crate docs for the dispatch ABI).
fn make_thread(launch: &Launch, simd: u32, wg: usize, wg_thread: u32, slm_slot: usize) -> HwThread {
    // Dispatch mask: channels beyond the workgroup or global size are off.
    let mut mask = ExecMask::none(simd);
    for ch in 0..simd {
        let lid = wg_thread * simd + ch;
        let gid = wg as u32 * launch.wg_size + lid;
        if lid < launch.wg_size && gid < launch.global_size {
            mask = mask.with_channel(ch, true);
        }
    }
    let mut ctx = ThreadCtx::new(mask);
    let r0 = Operand::rud(0);
    let header = [
        wg as u32,
        wg_thread,
        wg as u32 * launch.threads_per_wg() + wg_thread,
        launch.num_wgs(),
        simd,
        launch.wg_size,
        launch.global_size,
        0,
    ];
    for (i, v) in header.iter().enumerate() {
        ctx.regs.write_lane(&r0, i as u32, Scalar::U(u64::from(*v)));
    }
    let r1 = Operand::rud(1);
    for ch in 0..simd {
        let gid = wg as u32 * launch.wg_size + wg_thread * simd + ch;
        ctx.regs.write_lane(&r1, ch, Scalar::U(u64::from(gid)));
    }
    let args_reg = Operand::rud(arg_base_reg(simd));
    for (i, &a) in launch.args.iter().enumerate().take(16) {
        ctx.regs
            .write_lane(&args_reg, i as u32, Scalar::U(u64::from(a)));
    }
    HwThread::new(ctx, wg, wg_thread, slm_slot)
}
