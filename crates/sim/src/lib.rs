//! # iwc-sim
//!
//! A cycle-level simulator of an Ivy Bridge-style GPU (the "GPGenSim"
//! equivalent of §5.1 in *"SIMD Divergence Optimization through Intra-Warp
//! Compaction"*, ISCA 2013). The model follows §2 of the paper:
//!
//! * multithreaded EUs (6 threads each by default) issuing up to two
//!   instructions from distinct threads every two cycles ([`eu`]);
//! * 4-wide FPU and extended-math pipes executing variable-width SIMD
//!   instructions over multiple waves — the waves compressed by the
//!   BCC/SCC/Ivy Bridge optimizations of `iwc-compaction`;
//! * per-thread SIMT reconvergence stacks for divergent control flow
//!   ([`simt`]);
//! * a shared memory subsystem: banked SLM, L3 data cache, LLC, DRAM,
//!   reached through a bandwidth-limited data cluster (DC1/DC2) ([`memsys`]);
//! * workgroup dispatch with barrier support ([`gpu`]).
//!
//! The functional model (the decoded micro-op plans of [`plan`] over the
//! thread state of [`exec`]) executes the full ISA, so kernel results are
//! bit-exact regardless of the timing configuration — compaction is a pure
//! timing optimization, which the integration tests assert.
//!
//! # Dispatch ABI
//!
//! Dispatched threads receive:
//!
//! | Register | Contents |
//! |---|---|
//! | `r0.0-7` (UD) | wg id, thread-in-wg, global thread id, #wgs, SIMD width, wg size, global size, 0 |
//! | `r1`.. (UD) | per-channel global work-item id (r1-r2 at SIMD16, r1-r4 at SIMD32) |
//! | [`arg_base_reg`].. (UD) | up to 16 scalar kernel arguments (r3-r4 at SIMD16, r5-r6 at SIMD32) |
//!
//! Channels past the workgroup or NDRange tail are dispatched disabled.
//!
//! # Examples
//!
//! ```
//! use iwc_isa::{KernelBuilder, MemSpace, Operand};
//! use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage};
//!
//! // out[gid] = 2 * gid, computed on the GPU.
//! let mut b = KernelBuilder::new("double", 8);
//! b.mul(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
//! b.mad(Operand::rud(7), Operand::rud(1), Operand::imm_ud(4), Operand::scalar(3, 0, iwc_isa::DataType::Ud));
//! b.store(MemSpace::Global, Operand::rud(7), Operand::rud(6));
//! let program = b.finish()?;
//!
//! let mut img = MemoryImage::new(1 << 16);
//! let out = img.alloc(64 * 4);
//! let launch = Launch::new(program, 64, 16).with_args(&[out]);
//! let result = simulate(&GpuConfig::paper_default(), &launch, &mut img)?;
//! assert_eq!(img.read_u32(out + 4 * 10), 20);
//! assert!(result.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod eu;
pub mod exec;
pub mod gpu;
pub mod memimg;
pub mod memsys;
pub mod plan;
pub mod profile;
pub mod regfile;
pub mod simt;
pub mod timeline;

pub use config::{CacheConfig, GpuConfig, MemConfig, RfTiming};
pub use eu::{
    Eu, EuStats, HwThread, IssueEvent, StallBreakdown, StallCause, StallSpan, StallStats,
};
pub use exec::ThreadCtx;
pub use gpu::{arg_base_reg, simulate, simulate_decoded, Gpu, Launch, SimResult, SimulateError};
pub use memimg::MemoryImage;
pub use memsys::{MemStats, MemSystem};
pub use plan::{DecodedProgram, LaneScratch, MicroPlan, PlanEffect};
pub use profile::{BlockStat, InsnStat, KernelProfile};
pub use regfile::RegFile;
pub use simt::SimtStack;
