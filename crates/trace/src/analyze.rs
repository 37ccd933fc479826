//! Trace analysis: cycle compaction benefit from a mask stream.
//!
//! The paper's trace-based methodology (§5.1): given the execution masks of
//! every executed instruction, evaluate each under the Baseline / Ivy Bridge
//! / BCC / SCC cycle models and report savings. This is a pure function of
//! the trace — the same arithmetic the simulator applies online.

use crate::format::{Trace, TraceIoError, TraceRecord};
use crate::pack::CorpusPack;
use crate::source::{for_each_run, SliceSource, TraceSource};
use iwc_compaction::{
    CompactionMode, CompactionTally, EngineId, EngineTally, TallyMemo, UtilBucket,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Analysis result of one trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Workload name.
    pub name: String,
    /// Full compaction accounting.
    pub tally: CompactionTally,
    /// Number of maximal `(mask, dtype)` runs in the record stream, as
    /// [`for_each_run`] groups them — `instructions / runs` is the mean
    /// run length, which says how well an RLE pack compresses the trace.
    /// Reports serialized before this field existed deserialize to 0.
    #[serde(default)]
    pub runs: u64,
}

impl TraceReport {
    /// SIMD efficiency of the trace (Fig. 3).
    pub fn simd_efficiency(&self) -> f64 {
        self.tally.simd_efficiency()
    }

    /// Coherent/divergent classification at the paper's 95 % threshold.
    pub fn is_coherent(&self) -> bool {
        self.tally.is_coherent()
    }

    /// EU-cycle reduction of the engine over the Ivy Bridge baseline
    /// (Fig. 10). Accepts a [`CompactionMode`] or the [`EngineId`] of one of
    /// the four canonical engines; for ablation engines use
    /// [`analyze_engines`], which accounts arbitrary engine sets.
    ///
    /// # Panics
    ///
    /// Panics when the engine is not one of the paper's four modes.
    pub fn reduction(&self, engine: impl Into<EngineId>) -> f64 {
        let id: EngineId = engine.into();
        let mode = id.mode().unwrap_or_else(|| {
            panic!("TraceReport accounts the four canonical modes only; use analyze_engines")
        });
        self.tally.reduction_vs_ivb(mode)
    }

    /// Additional SCC benefit beyond BCC, in absolute percentage points of
    /// the Ivy Bridge cycle count (the stacked segment of Fig. 10).
    pub fn scc_extra(&self) -> f64 {
        self.reduction(CompactionMode::Scc) - self.reduction(CompactionMode::Bcc)
    }

    /// Utilization-bucket fractions (Fig. 9).
    pub fn buckets(&self) -> [(UtilBucket, f64); 7] {
        self.tally.bucket_fractions()
    }
}

/// Analyzes a streaming source chunk by chunk — the core entry point;
/// peak memory is O(chunk) whatever the trace length.
///
/// Every record is charged once through a [`TallyMemo`], so the four cycle
/// models and the SCC swizzle cost are evaluated once per *distinct mask
/// in the working set*; a memo hit adds the slot's nine byte fields to the
/// tally. The memo is transparent, so the result is exactly the
/// per-record [`CompactionTally::add`] accounting — the differential tests
/// pin the equivalence. Runs are counted in the same pass, one compare
/// per record, and equal [`for_each_run`]'s count.
///
/// # Errors
///
/// Propagates stream failures (unreadable or malformed sources).
pub fn analyze_source(src: &mut dyn TraceSource) -> Result<TraceReport, TraceIoError> {
    // Divergence traces carry tens of thousands of distinct masks with a
    // mean run length near 1 on the synthetic corpus, so the memo decides
    // whether the cycle models are evaluated per record or per distinct
    // mask. One analyzer-sized memo per thread, reused across traces:
    // keys are (mask, dtype) alone, so cross-trace reuse is sound (the
    // memo is transparent by contract), and the 1 MiB table is paid once
    // per worker instead of zeroed per trace.
    thread_local! {
        static MEMO: std::cell::RefCell<TallyMemo> =
            std::cell::RefCell::new(TallyMemo::with_ways(TallyMemo::ANALYZER_WAYS));
    }
    let name = src.name().to_owned();
    let mut tally = CompactionTally::new();
    let mut runs = 0u64;
    // Width 0 is never a legal record, so the first record opens a run.
    let mut prev = TraceRecord {
        bits: 0,
        width: 0,
        dtype: iwc_isa::types::DataType::F,
    };
    MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        while let Some(chunk) = src.next_chunk()? {
            for &r in chunk {
                runs += u64::from(r != prev);
                prev = r;
                memo.charge(&mut tally, r.mask(), r.dtype);
            }
        }
        Ok::<_, TraceIoError>(())
    })?;
    Ok(TraceReport { name, tally, runs })
}

/// Analyzes a materialized trace (adapter over [`analyze_source`]).
pub fn analyze(trace: &Trace) -> TraceReport {
    analyze_source(&mut SliceSource::from(trace)).expect("slice sources cannot fail")
}

/// Analysis of one trace under an arbitrary set of compaction engines —
/// the engine-generic counterpart of [`TraceReport`], used by ablation
/// sweeps that include non-canonical engines (e.g. distance-limited
/// swizzle networks).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineReport {
    /// Workload name.
    pub name: String,
    /// Per-engine cycle accounting.
    pub tally: EngineTally,
}

/// Analyzes a streaming source under the given engines, chunk by chunk.
///
/// # Errors
///
/// Propagates stream failures (unreadable or malformed sources).
pub fn analyze_source_engines(
    src: &mut dyn TraceSource,
    ids: &[EngineId],
) -> Result<EngineReport, TraceIoError> {
    let name = src.name().to_owned();
    let mut tally = EngineTally::new(ids);
    for_each_run(src, |r, n| {
        tally.add_run(r.mask(), r.dtype, n);
    })?;
    Ok(EngineReport { name, tally })
}

/// Analyzes a materialized trace under the given engines (adapter over
/// [`analyze_source_engines`]).
pub fn analyze_engines(trace: &Trace, ids: &[EngineId]) -> EngineReport {
    analyze_source_engines(&mut SliceSource::from(trace), ids).expect("slice sources cannot fail")
}

/// Deterministic order-preserving fan-out over `n` independent shards:
/// workers claim indices off a shared atomic counter and deposit results
/// into per-index slots, so the output order matches the input order
/// whatever the thread count. Each shard is a pure function of its index
/// — the thread count changes only the wall clock, never the results.
fn fanout<R, F>(n: usize, threads: usize, run_one: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let pool = threads.max(1).min(n);
    if pool <= 1 {
        return (0..n).map(&run_one).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..pool {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let report = run_one(i);
                *slots[i].lock().expect("report slot poisoned") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("report slot poisoned")
                .expect("every shard ran")
        })
        .collect()
}

/// Deterministic order-preserving fan-out over a corpus: each profile is
/// generated and reduced to a report on a scoped worker pool.
fn corpus_fanout<R, F>(profiles: &[crate::synth::Profile], threads: usize, analyze_one: F) -> Vec<R>
where
    R: Send,
    F: Fn(&crate::synth::Profile) -> R + Sync,
{
    fanout(profiles.len(), threads, |i| analyze_one(&profiles[i]))
}

/// Generates and analyzes every profile of a corpus on a scoped worker
/// pool, returning reports in corpus order regardless of the thread count
/// (`threads` is clamped to at least 1; pass 1 for a serial sweep).
///
/// Each (profile, generate, analyze) triple is independent — synthesis is
/// seeded per profile — so this is a plain deterministic fan-out, the
/// trace-corpus counterpart of the simulator harness's cell runner.
pub fn analyze_corpus(
    profiles: &[crate::synth::Profile],
    len: usize,
    threads: usize,
) -> Vec<TraceReport> {
    corpus_fanout(profiles, threads, |p| {
        analyze_source(&mut p.source(len)).expect("synthesis cannot fail")
    })
}

/// [`analyze_corpus`] under an arbitrary engine set: the same deterministic
/// fan-out, but every instruction is accounted by each engine in `ids`.
pub fn analyze_corpus_engines(
    profiles: &[crate::synth::Profile],
    len: usize,
    threads: usize,
    ids: &[EngineId],
) -> Vec<EngineReport> {
    corpus_fanout(profiles, threads, |p| {
        analyze_source_engines(&mut p.source(len), ids).expect("synthesis cannot fail")
    })
}

/// Sharded streaming analysis of a pack file: every worker opens its own
/// handle on `path` and streams whole traces, so peak memory is
/// O(threads × chunk) and results are in pack order whatever the thread
/// count (each trace is a pure function of its payload — the PR 4
/// commutative-merge design extended to disk).
///
/// # Errors
///
/// Propagates the first open or stream failure, including per-trace
/// content-hash mismatches.
pub fn analyze_pack_file(path: &Path, threads: usize) -> Result<Vec<TraceReport>, TraceIoError> {
    analyze_pack_file_with(path, threads, |src| analyze_source(src))
}

/// [`analyze_pack_file`] under an arbitrary engine set.
///
/// # Errors
///
/// Propagates the first open or stream failure.
pub fn analyze_pack_file_engines(
    path: &Path,
    threads: usize,
    ids: &[EngineId],
) -> Result<Vec<EngineReport>, TraceIoError> {
    analyze_pack_file_with(path, threads, |src| analyze_source_engines(src, ids))
}

fn analyze_pack_file_with<R, F>(
    path: &Path,
    threads: usize,
    analyze_one: F,
) -> Result<Vec<R>, TraceIoError>
where
    R: Send,
    F: Fn(&mut dyn TraceSource) -> Result<R, TraceIoError> + Sync,
{
    // One open up front surfaces header/index errors before any worker
    // spawns and fixes the shard count.
    let mut first = CorpusPack::open_path(path)?;
    let n = first.len();
    let pool = threads.max(1).min(n.max(1));
    if pool <= 1 {
        return (0..n).map(|i| analyze_one(&mut first.stream(i)?)).collect();
    }
    drop(first);
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, TraceIoError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..pool {
            s.spawn(|| {
                // One handle per worker: the index is tiny next to the
                // payload, and seeks never contend across handles.
                let mut pack = match CorpusPack::open_path(path) {
                    Ok(p) => p,
                    Err(e) => {
                        // Park the failure on the next unclaimed shard;
                        // peers still drain the rest.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if let Some(slot) = slots.get(i) {
                            *slot.lock().expect("report slot poisoned") = Some(Err(e));
                        }
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let report = pack.stream(i).and_then(|mut src| analyze_one(&mut src));
                    *slots[i].lock().expect("report slot poisoned") = Some(report);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("report slot poisoned")
                .unwrap_or_else(|| {
                    Err(TraceIoError::Malformed(
                        "pack shard never ran (worker failed to open the pack)".into(),
                    ))
                })
        })
        .collect()
}

/// Aggregate telemetry snapshot of a corpus analysis: every report's
/// compaction tally merged and published under `corpus/…` — the trace-side
/// counterpart of the snapshot every simulator result carries (DESIGN.md
/// §7.1). Merging tallies commutes, so the snapshot is identical whatever
/// thread count produced the reports.
pub fn corpus_snapshot(reports: &[TraceReport]) -> iwc_telemetry::TelemetrySnapshot {
    let mut total = CompactionTally::new();
    let mut runs = 0u64;
    for r in reports {
        total.merge(&r.tally);
        runs += r.runs;
    }
    let mut snap = iwc_telemetry::TelemetrySnapshot::new();
    snap.set_counter("corpus/traces", reports.len() as u64);
    snap.publish("corpus", &total);
    // Run-length coherence of the analyzed streams: records / runs is the
    // mean run length, i.e. how far an RLE pack collapses the payload.
    snap.set_counter("trace/rle/runs", runs);
    snap.set_counter("trace/rle/records", total.instructions);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_isa::mask::ExecMask;
    use iwc_isa::types::DataType;

    #[test]
    fn report_reductions() {
        let mut t = Trace::new("t");
        // Two instructions: 0xF0F0 (bcc halves it) and full.
        t.push(ExecMask::new(0xF0F0, 16), DataType::F);
        t.push(ExecMask::all(16), DataType::F);
        let r = analyze(&t);
        // ivb = 4 + 4 = 8; bcc = 2 + 4 = 6 → 25% reduction.
        assert_eq!(r.reduction(CompactionMode::Bcc), 0.25);
        assert_eq!(r.scc_extra(), 0.0);
        assert_eq!(r.simd_efficiency(), 0.75);
        assert!(!r.is_coherent());
    }

    #[test]
    fn scc_extra_on_strided() {
        let mut t = Trace::new("t");
        t.push(ExecMask::new(0xAAAA, 16), DataType::F);
        let r = analyze(&t);
        assert_eq!(r.reduction(CompactionMode::Bcc), 0.0);
        assert_eq!(r.reduction(CompactionMode::Scc), 0.5);
        assert_eq!(r.scc_extra(), 0.5);
    }

    #[test]
    fn empty_trace_is_coherent() {
        let r = analyze(&Trace::new("empty"));
        assert!(r.is_coherent());
        assert_eq!(r.reduction(CompactionMode::Scc), 0.0);
    }

    #[test]
    fn corpus_snapshot_sums_the_tallies() {
        let profiles = crate::synth::corpus();
        let reports = analyze_corpus(&profiles, 200, 1);
        let snap = corpus_snapshot(&reports);
        assert_eq!(snap.counter("corpus/traces"), Some(reports.len() as u64));
        let total: u64 = reports.iter().map(|r| r.tally.instructions).sum();
        assert_eq!(snap.counter("corpus/instructions"), Some(total));
        let runs: u64 = reports.iter().map(|r| r.runs).sum();
        assert_eq!(snap.counter("trace/rle/runs"), Some(runs));
        assert_eq!(snap.counter("trace/rle/records"), Some(total));
        assert!(runs > 0 && runs <= total, "runs partition the records");
    }

    #[test]
    fn memo_analysis_matches_scalar_reference() {
        // The memoized charge must be value-identical to per-record
        // accounting on every corpus profile: the memo is exact, not
        // approximate.
        let profiles = crate::synth::corpus();
        for p in &profiles {
            let fast = analyze_source(&mut p.source(300)).unwrap();
            let mut scalar = CompactionTally::new();
            let mut records = 0u64;
            let mut src = p.source(300);
            while let Some(chunk) = src.next_chunk().unwrap() {
                for r in chunk {
                    scalar.add(r.mask(), r.dtype);
                    records += 1;
                }
            }
            assert_eq!(fast.tally, scalar, "{}", p.name);
            assert_eq!(fast.tally.instructions, records, "{}", p.name);
        }
    }

    #[test]
    fn corpus_analysis_thread_count_invariant() {
        let profiles = crate::synth::corpus();
        let serial = analyze_corpus(&profiles, 400, 1);
        let parallel = analyze_corpus(&profiles, 400, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), profiles.len());
        for (report, profile) in serial.iter().zip(&profiles) {
            assert_eq!(report.name, profile.name);
        }
    }
}
