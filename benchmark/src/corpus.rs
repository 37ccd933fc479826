//! `trace_corpus`: fresh analysis of the 600-trace `.iwcc` corpus pack.
//! Set-up writes the pack (RLE payloads, as `iwc corpusbench` does); each
//! pass opens it, streams and analyzes every trace on one thread, renders
//! the report and stores it in the results cache.

use crate::metrics::{median, min, percentile};
use crate::span::{LayerTable, Recorder};
use crate::util::{ms_since, Scratch, SplitMix64, Tally};
use crate::{Measured, Opts, Traced};
use iwc_compaction::EngineId;
use iwc_trace::synth::{DEFAULT_EXPANDED_TRACES, DEFAULT_TRACE_LEN};
use iwc_trace::{
    analyze_pack_file, analyze_source, expanded_corpus, CorpusPack, PackEntry, PackWriter, Profile,
    ResultsCache, TraceIoError, TraceRecord, TraceReport, TraceSource,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pack writes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Traces re-synthesized and re-analyzed from their profiles to check the
/// pack path's reports.
const SAMPLED: usize = 16;

/// Passes per run, at least, so each trace has several times to take the
/// best of.
const MIN_PASSES: usize = 3;

/// Passes in each half of the traced run.
const TRACED_PASSES: usize = 2;

/// Results-cache fingerprint of the stored report.
const FINGERPRINT: &str = "iwc-benchmark/trace_corpus/v1";

/// The first `count` profiles of the expanded corpus, every profile seed
/// offset by `seed`.
pub fn profiles(count: usize, seed: u64) -> Vec<Profile> {
    expanded_corpus(count)
        .into_iter()
        .take(count)
        .map(|mut p| {
            p.seed = p.seed.wrapping_add(seed);
            p
        })
        .collect()
}

/// Writes `profiles` at `len` records each into an RLE pack at `path`;
/// returns the index as written.
pub fn write_pack(
    path: &Path,
    profiles: &[Profile],
    len: usize,
    rec: &mut Recorder,
) -> Result<Vec<PackEntry>, String> {
    rec.time("trace.pack_write", |_| {
        let io = |e: std::io::Error| format!("pack {}: {e}", path.display());
        let pack = |e: TraceIoError| format!("pack {}: {e}", path.display());
        let file = File::create(path).map_err(io)?;
        let mut w = PackWriter::new(BufWriter::new(file)).map_err(pack)?;
        w.set_rle(true);
        for p in profiles {
            w.add_source(&mut p.source(len)).map_err(pack)?;
        }
        let entries = w.entries().to_vec();
        w.finish().map_err(pack)?;
        Ok(entries)
    })
}

/// A [`TraceSource`] that times each chunk pull as `trace.stream`.
struct Timed<'r, S> {
    inner: S,
    rec: &'r mut Recorder,
}

impl<S: TraceSource> TraceSource for Timed<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceIoError> {
        let idx = self.rec.enter("trace.stream");
        let out = self.inner.next_chunk();
        self.rec.exit(idx);
        out
    }
}

/// The stored report: one line per trace, as `iwc corpusbench` prints it.
fn render(reports: &[TraceReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let _ = writeln!(
            out,
            "{:<32} eff {:>5.1}%  bcc {:>5.1}%  scc {:>5.1}%",
            r.name,
            100.0 * r.simd_efficiency(),
            100.0 * r.reduction(EngineId::BCC),
            100.0 * r.reduction(EngineId::SCC),
        );
    }
    out
}

/// The written pack plus what checking and storing its analysis needs.
struct Corpus {
    path: PathBuf,
    entries: Vec<PackEntry>,
    /// Reports of the sampled traces, analyzed straight from synthesis.
    expected: BTreeMap<usize, TraceReport>,
    cache: ResultsCache,
    key: u64,
}

impl Corpus {
    /// Set-up: write the pack.
    fn setup(scratch: &Path, seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let path = scratch.join("corpus.iwcc");
        let profiles = profiles(DEFAULT_EXPANDED_TRACES, seed);
        let entries = write_pack(&path, &profiles, DEFAULT_TRACE_LEN, rec)?;
        Ok(Self {
            path,
            entries,
            expected: BTreeMap::new(),
            cache: ResultsCache::new(scratch.join("cache")),
            key: 0,
        })
    }

    /// Check data, outside the timed set-up: the sampled traces' reports
    /// from re-synthesis, and the results-cache key.
    fn prepare_checks(&mut self, seed: u64) -> Result<(), String> {
        let profiles = profiles(DEFAULT_EXPANDED_TRACES, seed);
        let mut rng = SplitMix64::new(seed, 0x5a3);
        while self.expected.len() < SAMPLED.min(profiles.len()) {
            let i = rng.below(profiles.len());
            let report = analyze_source(&mut profiles[i].source(DEFAULT_TRACE_LEN))
                .map_err(|e| format!("synthesis of {}: {e}", profiles[i].name))?;
            self.expected.insert(i, report);
        }
        let pack = CorpusPack::open_path(&self.path).map_err(|e| e.to_string())?;
        let labels: Vec<String> = EngineId::CANONICAL.iter().map(|e| e.label()).collect();
        self.key = ResultsCache::key(pack.content_hash(), &labels, FINGERPRINT);
        Ok(())
    }

    fn verify(&self, i: usize, report: &Result<TraceReport, TraceIoError>) -> Result<(), String> {
        let entry = &self.entries[i];
        let r = report
            .as_ref()
            .map_err(|e| format!("trace {}: {e}", entry.name))?;
        if r.name != entry.name || r.tally.instructions != entry.records {
            return Err(format!(
                "trace {}: analyzed {} records of {:?}, wrote {}",
                entry.name, r.tally.instructions, r.name, entry.records
            ));
        }
        match self.expected.get(&i) {
            Some(want) if want != r => Err(format!(
                "trace {}: pack report differs from re-synthesis",
                entry.name
            )),
            _ => Ok(()),
        }
    }

    /// One pass: open, analyze every trace, render, store. Appends each
    /// trace's time to `trace_ms[trace]` and returns the reports in pack
    /// order (failed traces left out).
    fn pass(
        &self,
        rec: &mut Recorder,
        tally: &mut Tally,
        trace_ms: &mut [Vec<f64>],
    ) -> Vec<TraceReport> {
        let mut pack = match rec.time("trace.pack_open", |_| CorpusPack::open_path(&self.path)) {
            Ok(p) => p,
            Err(e) => {
                tally.record(Err(format!("open {}: {e}", self.path.display())));
                return Vec::new();
            }
        };
        let mut reports = Vec::with_capacity(pack.len());
        let n = pack.len();
        for (i, times) in trace_ms.iter_mut().enumerate().take(n) {
            rec.set_op(i as u64);
            let started = Instant::now();
            let report = match rec.time("trace.stream", |_| pack.stream(i)) {
                Ok(src) => rec.time("trace.fold", |rec| {
                    analyze_source(&mut Timed { inner: src, rec })
                }),
                Err(e) => Err(e),
            };
            times.push(ms_since(started));
            tally.record(rec.time("bench.verify", |_| self.verify(i, &report)));
            if let Ok(r) = report {
                reports.push(r);
            }
        }
        rec.set_op(pack.len() as u64);
        let payload = rec.time("bench.render", |_| render(&reports));
        tally.record(rec.time("trace.store", |_| {
            self.cache
                .store(self.key, &payload)
                .map(drop)
                .map_err(|e| format!("results cache store: {e}"))
        }));
        reports
    }
}

/// Untraced run: `SETUP_REPS` pack writes, then whole passes until
/// `opts.seconds` have elapsed and `MIN_PASSES` are done. Each trace's time
/// is its best pass, and so is the rest of a pass (open, render, store);
/// throughput is the traces over the sum of those best times, so a burst
/// of host contention costs one trace one pass, not a whole pass.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let scratch = Scratch::create("corpus")?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        corpus = Some(Corpus::setup(
            scratch.path(),
            opts.seed,
            &mut Recorder::off(),
        )?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut corpus = corpus.expect("SETUP_REPS > 0");
    // Flush the pack to disk before timing, so its writeback does not
    // compete with the passes.
    File::open(&corpus.path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", corpus.path.display()))?;
    corpus.prepare_checks(opts.seed)?;

    let mut tally = Tally::default();
    let mut trace_ms = vec![Vec::new(); corpus.entries.len()];
    let mut rest_ms = Vec::new();
    let started = Instant::now();
    while rest_ms.len() < MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        corpus.pass(&mut Recorder::off(), &mut tally, &mut trace_ms);
        let traces: f64 = trace_ms.iter().filter_map(|t| t.last()).sum();
        rest_ms.push((ms_since(t) - traces).max(0.0));
    }
    let latencies_ms: Vec<f64> = trace_ms.iter().map(|t| min(t)).collect();
    let pass_ms = latencies_ms.iter().sum::<f64>() + min(&rest_ms);
    Ok(Measured {
        setup_s: median(&setups),
        work_per_s: latencies_ms.len() as f64 / (pass_ms / 1e3),
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        latencies_ms,
        tally,
        notes: vec![format!(
            "{} traces x {} records, {} passes; each trace's time and the per-pass rest are their best pass",
            corpus.entries.len(),
            DEFAULT_TRACE_LEN,
            rest_ms.len()
        )],
    })
}

/// Traced run: a pack write plus `TRACED_PASSES` passes, untraced, traced,
/// and untraced again (the overhead baseline is the untraced mean). The
/// traced run's reports are also checked against `analyze_pack_file`, so
/// the per-trace loop provably does what that entry point does.
pub fn traced(opts: &Opts) -> Result<Traced, String> {
    let scratch = Scratch::create("corpus-traced")?;
    let mut tally = Tally::default();
    let run = |rec: &mut Recorder, tally: &mut Tally| {
        rec.time("trace_corpus", |rec| {
            let mut corpus = Corpus::setup(scratch.path(), opts.seed, rec)?;
            rec.time("bench.prepare_checks", |_| corpus.prepare_checks(opts.seed))?;
            let mut reports = Vec::new();
            for _ in 0..TRACED_PASSES {
                reports = corpus.pass(rec, tally, &mut vec![Vec::new(); corpus.entries.len()]);
            }
            Ok::<_, String>((corpus, reports))
        })
    };

    let untraced = |tally: &mut Tally| {
        let started = Instant::now();
        run(&mut Recorder::off(), tally).map(|_| ms_since(started))
    };

    let before_ms = untraced(&mut tally)?;
    let mut rec = Recorder::new(true, Instant::now());
    let (corpus, reports) = run(&mut rec, &mut tally)?;
    let untraced_ms = (before_ms + untraced(&mut tally)?) / 2.0;
    tally.record(match analyze_pack_file(&corpus.path, 1) {
        Ok(direct) if direct == reports => Ok(()),
        Ok(_) => Err("per-trace loop disagrees with analyze_pack_file".to_string()),
        Err(e) => Err(format!("analyze_pack_file: {e}")),
    });

    let threads = vec![("main".to_string(), rec.into_spans())];
    let table = LayerTable::from_threads(threads.iter().map(|t| t.1.as_slice()));
    let passes = TRACED_PASSES as f64;
    let records: u64 = reports.iter().map(|r| r.tally.instructions).sum();
    let runs: u64 = reports.iter().map(|r| r.runs).sum();
    let bytes: u64 = corpus.entries.iter().map(|e| e.payload_bytes).sum();
    let mut values = BTreeMap::new();
    values.insert("trace.records", records as f64 * passes);
    values.insert("trace.runs", runs as f64 * passes);
    values.insert(
        "trace.mean_run_len",
        if runs == 0 {
            0.0
        } else {
            records as f64 / runs as f64
        },
    );
    values.insert("trace.bytes_read", bytes as f64 * passes);
    Ok(Traced {
        threads,
        table,
        untraced_ms,
        values,
        tally,
        notes: vec![format!(
            "one pack write plus {TRACED_PASSES} passes over {} traces; untraced before and after",
            corpus.entries.len()
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_offsets_every_profile() {
        let base = profiles(30, 0);
        let shifted = profiles(30, 5);
        assert_eq!(base.len(), 30);
        for (a, b) in base.iter().zip(&shifted) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed + 5, b.seed);
        }
    }

    #[test]
    fn pack_pass_matches_resynthesis() {
        let scratch = Scratch::create("test-corpus").unwrap();
        let path = scratch.path().join("t.iwcc");
        let ps = profiles(4, 9);
        let entries = write_pack(&path, &ps, 3000, &mut Recorder::off()).unwrap();
        assert_eq!(entries.len(), 4);
        let mut corpus = Corpus {
            path: path.clone(),
            entries,
            expected: BTreeMap::new(),
            cache: ResultsCache::new(scratch.path().join("cache")),
            key: 1,
        };
        for (i, p) in ps.iter().enumerate() {
            corpus
                .expected
                .insert(i, analyze_source(&mut p.source(3000)).unwrap());
        }
        let mut tally = Tally::default();
        let mut rec = Recorder::new(true, Instant::now());
        let reports = corpus.pass(&mut rec, &mut tally, &mut vec![Vec::new(); 4]);
        assert_eq!(
            (tally.attempted, tally.failed),
            (5, 0),
            "{:?}",
            tally.failures
        );
        assert_eq!(reports, analyze_pack_file(&path, 1).unwrap());
        let spans = rec.into_spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "trace.stream" && s.parent.is_some()));

        // A report that disagrees with re-synthesis is a failed operation.
        corpus.expected.insert(0, corpus.expected[&1].clone());
        let mut tally = Tally::default();
        corpus.pass(&mut Recorder::off(), &mut tally, &mut vec![Vec::new(); 4]);
        assert_eq!(tally.failed, 1);
    }
}
