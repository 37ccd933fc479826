//! Edge-case integration tests of the simulator: dual-pipe overlap, SLM
//! bank-conflict timing, barrier semantics across workgroups, scoreboard
//! hazards, and failure paths.

use iwc_isa::builder::KernelBuilder;
use iwc_isa::insn::{CondOp, Opcode};
use iwc_isa::reg::{FlagReg, Operand, Predicate};
use iwc_isa::{DataType, MemSpace};
use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage};

fn cfg1() -> GpuConfig {
    GpuConfig::single_eu()
}

/// Independent FPU and EM chains overlap: the mixed kernel is faster than
/// the sum of the two pipes run back to back.
#[test]
fn fpu_and_em_pipes_overlap() {
    let build = |fpu_ops: u32, em_ops: u32| {
        let mut b = KernelBuilder::new("mix", 16);
        b.mov(Operand::rf(6), Operand::imm_f(1.5));
        b.mov(Operand::rf(8), Operand::imm_f(2.5));
        for _ in 0..fpu_ops {
            b.mad(
                Operand::rf(6),
                Operand::rf(6),
                Operand::imm_f(1.0),
                Operand::imm_f(0.0),
            );
        }
        for _ in 0..em_ops {
            b.math(Opcode::Rsqrt, Operand::rf(8), Operand::rf(8));
        }
        b.finish().unwrap()
    };
    let run = |fpu: u32, em: u32| {
        let mut img = MemoryImage::new(1 << 12);
        simulate(&cfg1(), &Launch::new(build(fpu, em), 16, 16), &mut img)
            .unwrap()
            .cycles
    };
    let both = run(64, 64);
    let fpu_only = run(64, 0);
    let em_only = run(0, 64);
    assert!(
        both < fpu_only + em_only,
        "mixed {both} should beat serial {fpu_only}+{em_only}"
    );
}

/// SLM bank conflicts serialize: a 16-way conflicted access pattern is
/// slower than a unit-stride one.
#[test]
fn slm_bank_conflicts_cost_time() {
    let build = |stride_words: u32| {
        let mut b = KernelBuilder::new("slm", 16);
        // addr = lane * stride * 4
        b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(15));
        b.mul(
            Operand::rud(6),
            Operand::rud(6),
            Operand::imm_ud(stride_words * 4),
        );
        b.mov(Operand::rf(8), Operand::imm_f(1.0));
        for _ in 0..32 {
            b.store(MemSpace::Slm, Operand::rud(6), Operand::rf(8));
            b.load(MemSpace::Slm, Operand::rf(10), Operand::rud(6));
        }
        b.finish().unwrap()
    };
    let run = |stride: u32| {
        let mut img = MemoryImage::new(1 << 12);
        let launch = Launch::new(build(stride), 16, 16).with_slm(16 << 10);
        // Disable instruction-fetch modeling: this test isolates SLM timing
        // (a straight-line kernel would otherwise be I$-cold-start bound).
        let mut cfg = cfg1();
        cfg.icache_miss_latency = 0;
        simulate(&cfg, &launch, &mut img).unwrap().cycles
    };
    let unit = run(1); // 16 distinct banks
    let conflicted = run(16); // all lanes hit bank 0
    assert!(
        conflicted > unit + 100,
        "conflicted ({conflicted}) should clearly exceed unit-stride ({unit})"
    );
}

/// Two workgroups with barriers run independently: a barrier in one group
/// never blocks the other (they just share issue slots).
#[test]
fn barriers_are_per_workgroup() {
    let mut b = KernelBuilder::new("bar", 16);
    b.mov(Operand::rf(6), Operand::imm_f(1.0));
    b.barrier();
    b.add(Operand::rf(6), Operand::rf(6), Operand::imm_f(1.0));
    b.barrier();
    // out[gid] = 2.0
    b.shl(Operand::rud(8), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(8),
        Operand::rud(8),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(8), Operand::rf(6));
    let p = b.finish().unwrap();
    let mut img = MemoryImage::new(1 << 16);
    let out = img.alloc(256 * 4);
    // 4 workgroups of 64 on a single EU: they must time-share and all finish.
    let launch = Launch::new(p, 256, 64).with_args(&[out]);
    let r = simulate(&cfg1(), &launch, &mut img).unwrap();
    assert!(r.cycles > 0);
    for g in 0..256u32 {
        assert_eq!(img.read_f32(out + 4 * g), 2.0, "gid {g}");
    }
}

/// RAW hazard through the scoreboard: a dependent chain is slower than an
/// independent one of the same length.
#[test]
fn scoreboard_enforces_raw_latency() {
    let dependent = {
        let mut b = KernelBuilder::new("dep", 16);
        b.mov(Operand::rf(6), Operand::imm_f(1.0));
        for _ in 0..64 {
            b.mad(
                Operand::rf(6),
                Operand::rf(6),
                Operand::imm_f(1.0),
                Operand::imm_f(0.0),
            );
        }
        b.finish().unwrap()
    };
    let independent = {
        let mut b = KernelBuilder::new("indep", 16);
        for i in 0..4u8 {
            b.mov(Operand::rf(6 + 2 * i), Operand::imm_f(1.0));
        }
        for k in 0..64u8 {
            let r = Operand::rf(6 + 2 * (k % 4));
            b.mad(r, r, Operand::imm_f(1.0), Operand::imm_f(0.0));
        }
        b.finish().unwrap()
    };
    let run = |p: iwc_isa::Program| {
        let mut img = MemoryImage::new(1 << 12);
        simulate(&cfg1(), &Launch::new(p, 16, 16), &mut img)
            .unwrap()
            .cycles
    };
    let dep = run(dependent);
    let indep = run(independent);
    assert!(
        dep > indep,
        "dependent chain ({dep}) must be slower than independent ({indep})"
    );
}

/// A single thread exercising deep control-flow nesting completes and
/// reconverges (stress for the SIMT stack in the full pipeline).
#[test]
fn deep_nesting_reconverges() {
    let mut b = KernelBuilder::new("deep", 16);
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(15));
    b.mov(Operand::rf(8), Operand::imm_f(0.0));
    for bit in 0..4 {
        b.and(Operand::rud(10), Operand::rud(6), Operand::imm_ud(1 << bit));
        b.cmp(
            CondOp::Ne,
            FlagReg::F0,
            Operand::rud(10),
            Operand::imm_ud(0),
        );
        b.if_(Predicate::normal(FlagReg::F0));
        b.add(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f((1 << bit) as f32),
        );
    }
    for _ in 0..4 {
        b.end_if();
    }
    // out[gid] = sum of set bits = lane id (only lanes whose ALL tested bits
    // are set reach the innermost add, so expect the nested-sum semantics).
    b.shl(Operand::rud(12), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(12),
        Operand::rud(12),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(12), Operand::rf(8));
    let p = b.finish().unwrap();
    let mut img = MemoryImage::new(1 << 12);
    let out = img.alloc(16 * 4);
    let launch = Launch::new(p, 16, 16).with_args(&[out]);
    simulate(&cfg1(), &launch, &mut img).unwrap();
    for lane in 0..16u32 {
        // Nested structure: bit k's add only runs for lanes inside all
        // enclosing if-regions, i.e. lanes with bits 0..=k all set.
        let mut want = 0f32;
        for bit in 0..4 {
            if (0..=bit).all(|b| lane >> b & 1 == 1) {
                want += (1 << bit) as f32;
            }
        }
        assert_eq!(img.read_f32(out + 4 * lane), want, "lane {lane}");
    }
}

/// Issue-width knob: a wider front end is never slower.
#[test]
fn wider_frontend_not_slower() {
    let built = {
        let mut b = KernelBuilder::new("wide", 16);
        b.mov(Operand::rf(6), Operand::imm_f(1.0));
        b.mov(Operand::rf(8), Operand::imm_f(2.0));
        for k in 0..32u8 {
            if k % 2 == 0 {
                b.mad(
                    Operand::rf(6),
                    Operand::rf(6),
                    Operand::imm_f(1.0),
                    Operand::imm_f(0.0),
                );
            } else {
                b.math(Opcode::Rsqrt, Operand::rf(8), Operand::rf(8));
            }
        }
        b.finish().unwrap()
    };
    let run = |issue: u32| {
        let mut img = MemoryImage::new(1 << 12);
        let cfg = GpuConfig::single_eu().with_issue_per_cycle(issue);
        simulate(&cfg, &Launch::new(built.clone(), 96, 48), &mut img)
            .unwrap()
            .cycles
    };
    assert!(run(2) <= run(1));
}

/// SIMD32 kernels dispatch with a shifted argument base (r5) so global ids
/// in r1-r4 don't collide with arguments.
#[test]
fn simd32_dispatch_abi() {
    let mut b = KernelBuilder::new("wide32", 32);
    // out[gid] = gid * 3 (args at r5 for SIMD32).
    b.mul(Operand::rud(8), Operand::rud(1), Operand::imm_ud(3));
    b.shl(Operand::rud(12), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(12),
        Operand::rud(12),
        Operand::scalar(iwc_sim::arg_base_reg(32), 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(12), Operand::rud(8));
    let p = b.finish().unwrap();
    let mut img = MemoryImage::new(1 << 16);
    let out = img.alloc(128 * 4);
    let launch = Launch::new(p, 128, 64).with_args(&[out]);
    let r = simulate(&GpuConfig::paper_default(), &launch, &mut img).unwrap();
    assert!(r.cycles > 0);
    for gid in 0..128u32 {
        assert_eq!(img.read_u32(out + 4 * gid), gid * 3, "gid {gid}");
    }
    // SIMD32 instructions occupy 8 waves in the tally.
    assert_eq!(r.eu.simd_tally.cycles.baseline % 8, 0);
}

/// A persistent device keeps its caches warm across launches: re-running
/// the same read-heavy kernel on a `Gpu` is faster the second time, while
/// two cold `simulate` calls are identical.
#[test]
fn warm_caches_across_launches() {
    let mut b = KernelBuilder::new("reader", 16);
    b.shl(Operand::rud(6), Operand::rud(1), Operand::imm_ud(2));
    b.add(
        Operand::rud(6),
        Operand::rud(6),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.load(MemSpace::Global, Operand::rf(8), Operand::rud(6));
    b.mad(
        Operand::rf(8),
        Operand::rf(8),
        Operand::imm_f(2.0),
        Operand::imm_f(1.0),
    );
    b.store(MemSpace::Global, Operand::rud(6), Operand::rf(8));
    let p = b.finish().unwrap();

    let mut img = MemoryImage::new(1 << 16);
    let buf = img.alloc(1024 * 4);
    let launch = Launch::new(p, 1024, 64).with_args(&[buf]);

    let mut gpu = iwc_sim::Gpu::new(GpuConfig::paper_default());
    let first = gpu.run(&launch, &mut img).unwrap();
    let second = gpu.run(&launch, &mut img).unwrap();
    assert!(
        second.cycles < first.cycles,
        "warm launch ({}) should beat cold launch ({})",
        second.cycles,
        first.cycles
    );
    assert!(second.l3_hit_rate > first.l3_hit_rate);
    assert_eq!(
        gpu.clock(),
        first.cycles + second.cycles,
        "device clock accumulates"
    );
    // Functional effect applied twice: buf[i] = ((i*? ) ...) — value is
    // 2*(2*0+1)+1 = 3 for initial zeroes.
    assert_eq!(img.read_f32(buf), 3.0);
}

/// Instruction-cache modeling: a kernel larger than the I$ capacity thrashes
/// the front end and runs slower than under a capacious I$.
#[test]
fn icache_capacity_matters() {
    // A loop whose body (130+ instructions) exceeds a tiny I$: trips after
    // the first hit in a capacious I$ but thrash a FIFO window of 8.
    let mut b = KernelBuilder::new("istream", 16);
    b.mov(Operand::rf(6), Operand::imm_f(1.0));
    b.mov(Operand::rud(10), Operand::imm_ud(0));
    b.do_();
    for _ in 0..128 {
        b.mad(
            Operand::rf(6),
            Operand::rf(6),
            Operand::imm_f(1.0),
            Operand::imm_f(0.0),
        );
    }
    b.add(Operand::rud(10), Operand::rud(10), Operand::imm_ud(1));
    b.cmp(
        CondOp::Lt,
        FlagReg::F0,
        Operand::rud(10),
        Operand::imm_ud(4),
    );
    b.while_(Predicate::normal(FlagReg::F0));
    let p = b.finish().unwrap();
    let run = |icache_insns: u32| {
        let mut cfg = cfg1();
        cfg.icache_insns = icache_insns;
        let mut img = MemoryImage::new(1 << 12);
        simulate(&cfg, &Launch::new(p.clone(), 16, 16), &mut img).unwrap()
    };
    let big = run(4096);
    let tiny = run(8);
    assert!(
        tiny.cycles > big.cycles,
        "tiny I$ ({}) should be slower than big I$ ({})",
        tiny.cycles,
        big.cycles
    );
    assert!(tiny.eu.icache_misses > big.eu.icache_misses);
}

/// §4.3 register-file timing options: the multi-cycle single-ported file is
/// slower than the pumped/banked organization, and compaction still helps
/// under both.
#[test]
fn rf_timing_options() {
    use iwc_compaction::EngineId;
    use iwc_sim::RfTiming;
    let mut b = KernelBuilder::new("rf", 16);
    b.and(Operand::rud(6), Operand::rud(1), Operand::imm_ud(3));
    b.cmp(CondOp::Eq, FlagReg::F0, Operand::rud(6), Operand::imm_ud(0));
    b.mov(Operand::rf(8), Operand::imm_f(1.0));
    b.if_(Predicate::normal(FlagReg::F0));
    for _ in 0..32 {
        b.mad(
            Operand::rf(8),
            Operand::rf(8),
            Operand::imm_f(1.0),
            Operand::imm_f(0.0),
        );
    }
    b.end_if();
    let p = b.finish().unwrap();
    let run = |timing: RfTiming, mode: EngineId| {
        let cfg = cfg1().with_rf_timing(timing).with_compaction(mode);
        let mut img = MemoryImage::new(1 << 12);
        simulate(&cfg, &Launch::new(p.clone(), 96, 48), &mut img)
            .unwrap()
            .cycles
    };
    let multi_ivb = run(RfTiming::MultiCycle, EngineId::IVY_BRIDGE);
    let pumped_ivb = run(RfTiming::Pumped, EngineId::IVY_BRIDGE);
    assert!(
        multi_ivb > pumped_ivb,
        "multi-cycle RF ({multi_ivb}) vs pumped ({pumped_ivb})"
    );
    let multi_scc = run(RfTiming::MultiCycle, EngineId::SCC);
    let pumped_scc = run(RfTiming::Pumped, EngineId::SCC);
    assert!(multi_scc < multi_ivb, "SCC helps under multi-cycle RF");
    assert!(pumped_scc < pumped_ivb, "SCC helps under pumped RF");
}

/// `Gpu::run_modes` reuses one scratch memory image across the mode sweep;
/// every mode must still see pristine inputs and match an independent
/// fresh-image run exactly. The kernel overwrites its input in place, so
/// any state leaking from one mode's run into the next would change both
/// the functional output and the timing of later modes.
#[test]
fn run_modes_scratch_image_matches_independent_runs() {
    use iwc_compaction::EngineId;
    let mut b = KernelBuilder::new("inplace", 16);
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.load(MemSpace::Global, Operand::rud(12), Operand::rud(10));
    b.mad(
        Operand::rud(12),
        Operand::rud(12),
        Operand::imm_ud(3),
        Operand::imm_ud(1),
    );
    b.store(MemSpace::Global, Operand::rud(10), Operand::rud(12));
    let p = b.finish().unwrap();

    let mut img = MemoryImage::new(1 << 14);
    let buf = img.alloc(64 * 4);
    for i in 0..64 {
        img.write_u32(buf + 4 * i, i * 7 + 3);
    }
    let launch = Launch::new(p, 64, 16).with_args(&[buf]);
    let cfg = GpuConfig::paper_default();
    let swept = iwc_sim::Gpu::run_modes(&cfg, &launch, &img, &EngineId::CANONICAL).unwrap();
    assert_eq!(swept.len(), EngineId::CANONICAL.len());
    for (r, engine) in swept.iter().zip(EngineId::CANONICAL) {
        let mut fresh = img.clone();
        let solo = simulate(&cfg.with_compaction(engine), &launch, &mut fresh).unwrap();
        assert_eq!(r, &solo, "mode {engine} diverged from an independent run");
        for k in 0..64 {
            assert_eq!(
                fresh.read_u32(buf + 4 * k),
                (k * 7 + 3) * 3 + 1,
                "functional output wrong at index {k} under {engine}"
            );
        }
    }
}

/// A vanishing data-cluster bandwidth must end in the cycle limit, never
/// in a shorter run: each line's slot saturates instead of wrapping round
/// to an early completion.
#[test]
fn vanishing_dc_bandwidth_hits_the_cycle_limit() {
    let entries = iwc_workloads::catalog();
    let va = entries.iter().find(|e| e.name == "VA").expect("VA");
    let built = (va.build)(1);
    for bw in [1e-300, 1e-12] {
        let mut img = built.img.clone();
        let cfg = GpuConfig::paper_default().with_dc_bandwidth(bw);
        match simulate(&cfg, &built.launch, &mut img) {
            Err(iwc_sim::SimulateError::CycleLimit(_)) => {}
            other => panic!("dc_bandwidth {bw}: want CycleLimit, got {other:?}"),
        }
    }
}
