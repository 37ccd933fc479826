//! Criterion benchmarks of the simulator and trace analyzer throughput:
//! one divergent kernel simulated under each canonical engine, an
//! ALU-bound straight-line kernel that isolates per-instruction
//! interpreter cost from the memory-system model, and trace analysis over
//! the synthetic corpus.
//!
//! `simulate/alu_chain/plain` vs `.../recording` bounds the cost of the
//! outlined recording path: the default (flags-off) path carries a single
//! predictable branch, so the plain number must not regress when
//! recording features evolve.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_compaction::EngineId;
use iwc_isa::{DataType, KernelBuilder, MemSpace, Opcode, Operand};
use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage};
use iwc_trace::{analyze, corpus};
use iwc_workloads::{micro, rodinia};

fn bench_simulate_modes(c: &mut Criterion) {
    let built = micro::mask_pattern(0xAAAA, 1);
    let mut g = c.benchmark_group("simulate/maskpat_aaaa");
    g.sample_size(10);
    for engine in EngineId::CANONICAL {
        let cfg = GpuConfig::paper_default().with_compaction(engine);
        g.bench_function(&engine.label(), |b| {
            b.iter(|| built.run(black_box(&cfg)).expect("simulation completes"))
        });
    }
    g.finish();
}

fn bench_simulate_divergent_kernel(c: &mut Criterion) {
    let built = rodinia::particle_filter(1);
    let cfg = GpuConfig::paper_default();
    let mut g = c.benchmark_group("simulate/particle_filter");
    g.sample_size(10);
    g.bench_function("ivb", |b| {
        b.iter(|| built.run(black_box(&cfg)).expect("runs"))
    });
    g.finish();
}

/// Straight-line kernel of `n` dependent ALU ops per lane (F fast path),
/// bracketed by one load and one store so results stay observable.
fn alu_chain(n: u32) -> (Launch, MemoryImage) {
    let mut img = MemoryImage::new(1 << 16);
    let lanes = 256u32;
    let src: Vec<f32> = (0..lanes).map(|i| 1.0 + i as f32 * 1.0e-3).collect();
    let a = img.alloc_f32(&src);
    let out = img.alloc(lanes * 4);

    let mut b = KernelBuilder::new("alu_chain", 16);
    let addr = Operand::rud(10);
    let x = Operand::rf(12);
    let y = Operand::rf(14);
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.load(MemSpace::Global, x, addr);
    b.mov(y, x);
    for i in 0..n {
        match i % 4 {
            0 => b.mad(y, y, x, Operand::imm_f(0.5)),
            1 => b.mul(y, y, Operand::imm_f(0.999)),
            2 => b.add(y, y, Operand::imm_f(-0.125)),
            _ => b.min(y, y, Operand::imm_f(1.0e6)),
        };
    }
    b.op(Opcode::Frc, y, &[y]);
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 1, DataType::Ud),
    );
    b.store(MemSpace::Global, addr, y);
    let launch = Launch::new(b.finish().expect("valid kernel"), lanes, 16).with_args(&[a, out]);
    (launch, img)
}

fn bench_alu_chain(c: &mut Criterion) {
    let (launch, img) = alu_chain(512);
    let mut g = c.benchmark_group("simulate/alu_chain");
    g.sample_size(20);
    let cases = [
        ("plain", GpuConfig::paper_default()),
        (
            "recording",
            GpuConfig::paper_default()
                .with_mask_capture(true)
                .with_issue_log(true)
                .with_insn_profile(true),
        ),
    ];
    for (name, cfg) in cases {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = img.clone();
                simulate(black_box(&cfg), black_box(&launch), &mut m).expect("runs")
            })
        });
    }
    g.finish();
}

fn bench_trace_analysis(c: &mut Criterion) {
    let trace = corpus()[0].generate(50_000);
    c.bench_function("trace/analyze_50k", |b| {
        b.iter(|| analyze(black_box(&trace)))
    });
    c.bench_function("trace/generate_10k", |b| {
        let p = &corpus()[0];
        b.iter(|| p.generate(black_box(10_000)))
    });
}

criterion_group!(
    benches,
    bench_simulate_modes,
    bench_simulate_divergent_kernel,
    bench_alu_chain,
    bench_trace_analysis
);
criterion_main!(benches);
