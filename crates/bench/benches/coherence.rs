//! Criterion benchmarks of the trace-analysis hot path: the per-record
//! memoized charge `analyze` runs, against the unmemoized per-record
//! tally.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iwc_compaction::{CompactionTally, TallyMemo};
use iwc_trace::{analyze, corpus, Trace};

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

fn bench_tally_charge(c: &mut Criterion) {
    let trace = corpus()[0].generate(50_000);
    let mut memo = TallyMemo::with_ways(TallyMemo::ANALYZER_WAYS);
    let mut g = c.benchmark_group("coherence/tally_50k");
    g.bench_function("scalar", |b| b.iter(|| tally_scalar(black_box(&trace))));
    g.bench_function("charge", |b| {
        b.iter(|| tally_charge(black_box(&trace), &mut memo))
    });
    g.bench_function("analyze", |b| b.iter(|| analyze(black_box(&trace))));
    g.finish();
}

criterion_group!(benches, bench_tally_charge);
criterion_main!(benches);
