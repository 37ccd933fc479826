//! Criterion micro-benchmarks of the compaction control logic: the cycle
//! models and the SCC swizzle-settings algorithm (which real hardware must
//! evaluate between decode and issue, §2.2).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_compaction::{execution_cycles, expand, CompactionTally, EngineId, SccSchedule};
use iwc_isa::insn::{Instruction, Opcode};
use iwc_isa::reg::Operand;
use iwc_isa::{DataType, ExecMask};

fn masks() -> Vec<ExecMask> {
    // A representative mix: full, half-idle, quad patterns, strided, sparse.
    [
        0xFFFFu32, 0x00FF, 0xF0F0, 0xAAAA, 0x1111, 0x8421, 0x0001, 0x7F3F,
    ]
    .iter()
    .map(|&b| ExecMask::new(b, 16))
    .collect()
}

/// A recorded mask stream from the divergent trace corpus — the workload the
/// schedule memo actually sees in the simulator's per-instruction path.
fn recorded_stream(len: usize) -> Vec<(ExecMask, DataType)> {
    let trace = iwc_trace::corpus()[0].generate(len);
    trace.records.iter().map(|r| (r.mask(), r.dtype)).collect()
}

fn bench_cycle_models(c: &mut Criterion) {
    let ms = masks();
    let mut g = c.benchmark_group("cycle_model");
    for engine in EngineId::CANONICAL {
        g.bench_function(&engine.label(), |b| {
            b.iter(|| {
                let mut total = 0u32;
                for &m in &ms {
                    total += execution_cycles(black_box(m), DataType::F, engine);
                }
                total
            })
        });
    }
    g.finish();
}

fn bench_scc_schedule(c: &mut Criterion) {
    let ms = masks();
    c.bench_function("scc_schedule/mixed8", |b| {
        b.iter(|| {
            let mut cycles = 0u32;
            for &m in &ms {
                cycles += SccSchedule::compute(black_box(m)).cycle_count();
            }
            cycles
        })
    });
    c.bench_function("scc_schedule/worst_case_aaaa", |b| {
        let m = ExecMask::new(0xAAAA, 16);
        b.iter(|| SccSchedule::compute(black_box(m)))
    });
}

fn bench_microop_expansion(c: &mut Criterion) {
    let insn = Instruction::alu(
        Opcode::Add,
        16,
        DataType::F,
        Operand::rf(12),
        &[Operand::rf(8), Operand::rf(10)],
    );
    let m = ExecMask::new(0xF0F0, 16);
    let mut g = c.benchmark_group("microop_expand");
    for engine in EngineId::CANONICAL {
        g.bench_function(&engine.label(), |b| {
            b.iter(|| expand(black_box(&insn), black_box(m), engine))
        });
    }
    g.finish();
}

/// Cached vs uncached vs reference schedule construction over a recorded
/// mask stream: the memo turns the Fig. 6 algorithm into a table lookup on
/// repeated masks, which is the common case in real traces.
fn bench_schedule_cache(c: &mut Criterion) {
    let stream = recorded_stream(4096);
    let mut g = c.benchmark_group("scc_schedule_stream");
    g.bench_function("cached", |b| {
        // Warm the memo once so the steady-state lookup path is measured.
        for &(m, _) in &stream {
            SccSchedule::compute(m);
        }
        b.iter(|| {
            let mut cycles = 0u32;
            for &(m, _) in &stream {
                cycles += SccSchedule::compute(black_box(m)).cycle_count();
            }
            cycles
        })
    });
    g.bench_function("uncached", |b| {
        b.iter(|| {
            let mut cycles = 0u32;
            for &(m, _) in &stream {
                cycles += SccSchedule::compute_uncached(black_box(m)).cycle_count();
            }
            cycles
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut cycles = 0u32;
            for &(m, _) in &stream {
                cycles += SccSchedule::compute_reference(black_box(m)).cycle_count();
            }
            cycles
        })
    });
    g.finish();
}

/// `CompactionTally::add` throughput on the same recorded stream — the
/// simulator's per-instruction accounting path, O(1) per mask once the
/// schedule memo is warm.
fn bench_tally_add(c: &mut Criterion) {
    let stream = recorded_stream(4096);
    c.bench_function("tally_add/recorded_stream", |b| {
        b.iter(|| {
            let mut tally = CompactionTally::new();
            for &(m, dt) in &stream {
                tally.add(black_box(m), dt);
            }
            tally
        })
    });
}

criterion_group!(
    benches,
    bench_cycle_models,
    bench_scc_schedule,
    bench_schedule_cache,
    bench_tally_add,
    bench_microop_expansion
);
criterion_main!(benches);
