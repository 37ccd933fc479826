//! Criterion benchmarks of the simulator and trace analyzer throughput:
//! one divergent kernel simulated under each canonical engine, and trace
//! analysis over the synthetic corpus.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
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
    bench_trace_analysis
);
criterion_main!(benches);
