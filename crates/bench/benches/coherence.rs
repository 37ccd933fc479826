//! Criterion benchmarks of the trace-analysis hot path: the per-record
//! memoized charge `analyze` runs, against the run fold and the
//! unmemoized per-record tally.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_compaction::{CompactionTally, EngineId, EngineTally, TallyMemo};
use iwc_trace::{analyze, corpus, for_each_run, SliceSource, Trace};

/// Per-record reference without a memo: the four cycle models and the
/// swizzle cost evaluated for every record.
fn tally_scalar(trace: &Trace) -> CompactionTally {
    let mut tally = CompactionTally::new();
    for r in &trace.records {
        tally.add(r.mask(), r.dtype);
    }
    tally
}

/// The analyzer's core: every record charged once through the
/// analyzer-sized memo.
fn tally_charge(trace: &Trace, memo: &mut TallyMemo) -> CompactionTally {
    let mut tally = CompactionTally::new();
    for r in &trace.records {
        memo.charge(&mut tally, r.mask(), r.dtype);
    }
    tally
}

/// The run fold engine sweeps use: fold maximal runs, charge each
/// multiplicatively over the four canonical engines.
fn tally_runs(trace: &Trace) -> EngineTally {
    let mut tally = EngineTally::new(&EngineId::CANONICAL);
    for_each_run(&mut SliceSource::from(trace), |r, n| {
        tally.add_run(r.mask(), r.dtype, n);
    })
    .expect("slice sources cannot fail");
    tally
}

fn bench_tally_charge_vs_runs(c: &mut Criterion) {
    let trace = corpus()[0].generate(50_000);
    let mut memo = TallyMemo::with_ways(TallyMemo::ANALYZER_WAYS);
    let mut g = c.benchmark_group("coherence/tally_50k");
    g.bench_function("scalar", |b| b.iter(|| tally_scalar(black_box(&trace))));
    g.bench_function("charge", |b| {
        b.iter(|| tally_charge(black_box(&trace), &mut memo))
    });
    g.bench_function("runs", |b| b.iter(|| tally_runs(black_box(&trace))));
    g.bench_function("analyze", |b| b.iter(|| analyze(black_box(&trace))));
    g.finish();
}

criterion_group!(benches, bench_tally_charge_vs_runs);
criterion_main!(benches);
