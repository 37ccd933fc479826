//! Differential test of the corpus analyzer against per-record accounting
//! on streams the synthetic corpus never produces.
//!
//! The synthetic corpus is dtype `F` at SIMD8/16 only, so it cannot show
//! that the analyzer's memo keys, packs and replays every dtype and width
//! correctly. These traces mix all eleven dtypes with SIMD1/4/8/16/32
//! masks, and include runs longer than [`CHUNK_RECORDS`] that straddle
//! chunk boundaries. Over plain and RLE packs alike, `analyze_source` must
//! equal [`CompactionTally::add`] per record, and its run count must equal
//! [`for_each_run`]'s.

use iwc_compaction::CompactionTally;
use iwc_isa::{DataType, ExecMask};
use iwc_trace::pack::{write_pack_file, write_pack_file_rle, CorpusPack};
use iwc_trace::{
    analyze_pack_file, analyze_source, for_each_run, SliceSource, Trace, CHUNK_RECORDS,
};
use std::path::PathBuf;

/// Widths the trace wire format accepts.
const WIDTHS: [u32; 5] = [1, 4, 8, 16, 32];

/// xorshift64: a fixed pseudo-random stream, so the traces are the same
/// on every run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// A trace of `runs` runs with random mask, width, dtype and length
/// (mostly short, some longer than a chunk).
fn mixed(name: &str, seed: u64, runs: usize) -> Trace {
    let mut rng = XorShift(seed);
    let mut t = Trace::new(name);
    for _ in 0..runs {
        let width = rng.pick(&WIDTHS);
        let mask = ExecMask::new(rng.next() as u32, width);
        let dtype = rng.pick(&DataType::ALL);
        let len = match rng.next() % 16 {
            0 => CHUNK_RECORDS + (rng.next() % 3000) as usize,
            1..=4 => 2 + (rng.next() % 40) as usize,
            _ => 1,
        };
        for _ in 0..len {
            t.push(mask, dtype);
        }
    }
    t
}

/// Runs placed to straddle chunk boundaries: a lead-in that ends just
/// short of a boundary, then runs longer than a chunk, then run-length-1
/// alternation between records that differ in one key field only (dtype,
/// then width, then mask).
fn straddling() -> Trace {
    let mut t = Trace::new("straddling");
    for _ in 0..CHUNK_RECORDS - 3 {
        t.push(ExecMask::new(0x1, 1), DataType::B);
    }
    for _ in 0..2 * CHUNK_RECORDS + 7 {
        t.push(ExecMask::all(32), DataType::Df);
    }
    for _ in 0..CHUNK_RECORDS + 1 {
        t.push(ExecMask::new(0b0110, 4), DataType::Uw);
    }
    for _ in 0..CHUNK_RECORDS {
        t.push(ExecMask::new(0xF0F0, 16), DataType::Hf);
        t.push(ExecMask::new(0xF0F0, 16), DataType::W);
        t.push(ExecMask::new(0xF0F0, 32), DataType::W);
        t.push(ExecMask::new(0xF0F1, 32), DataType::W);
    }
    t
}

/// Per-record reference: the tally every record added once, unmemoized,
/// and the run count of the run fold.
fn reference(t: &Trace) -> (CompactionTally, u64) {
    let mut tally = CompactionTally::new();
    for r in &t.records {
        tally.add(r.mask(), r.dtype);
    }
    let runs = for_each_run(&mut SliceSource::from(t), |_, _| {}).unwrap();
    (tally, runs)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "iwc-analyzer-diff-{tag}-{}.iwcc",
        std::process::id()
    ))
}

#[test]
fn analyzer_matches_per_record_accounting_on_mixed_packs() {
    let mut traces = vec![straddling()];
    traces.extend((0..6).map(|i| mixed(&format!("mixed-{i}"), 0x9E37_79B9 + i, 400)));
    traces.push(Trace::new("empty"));
    let expected: Vec<_> = traces.iter().map(reference).collect();

    // Every width and dtype is actually exercised.
    for w in WIDTHS {
        assert!(
            traces
                .iter()
                .flat_map(|t| &t.records)
                .any(|r| u32::from(r.width) == w),
            "width {w} missing from the traces"
        );
    }
    for d in DataType::ALL {
        assert!(
            traces.iter().flat_map(|t| &t.records).any(|r| r.dtype == d),
            "dtype {d:?} missing from the traces"
        );
    }

    // Straight from memory.
    for (t, (tally, runs)) in traces.iter().zip(&expected) {
        let report = analyze_source(&mut SliceSource::from(t)).unwrap();
        assert_eq!(&report.tally, tally, "{}: tally from a slice", t.name);
        assert_eq!(report.runs, *runs, "{}: runs from a slice", t.name);
    }

    // Through plain and RLE packs, one trace at a time and sharded.
    for rle in [false, true] {
        let path = tmp_path(if rle { "rle" } else { "plain" });
        if rle {
            write_pack_file_rle(&path, &traces).unwrap();
        } else {
            write_pack_file(&path, &traces).unwrap();
        }
        let mut pack = CorpusPack::open_path(&path).unwrap();
        for (i, (t, (tally, runs))) in traces.iter().zip(&expected).enumerate() {
            let report = analyze_source(&mut pack.stream(i).unwrap()).unwrap();
            assert_eq!(&report.tally, tally, "{} (rle {rle}): tally", t.name);
            assert_eq!(report.runs, *runs, "{} (rle {rle}): runs", t.name);
        }
        for threads in [1, 3] {
            let reports = analyze_pack_file(&path, threads).unwrap();
            for (report, (tally, runs)) in reports.iter().zip(&expected) {
                assert_eq!(
                    &report.tally, tally,
                    "{} (rle {rle}, {threads} threads)",
                    report.name
                );
                assert_eq!(
                    report.runs, *runs,
                    "{} (rle {rle}, {threads} threads)",
                    report.name
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
