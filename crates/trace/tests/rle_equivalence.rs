//! RLE-vs-plain differential goldens for the `.iwcc` pack format.
//!
//! The run-length payload encoding is a pure compression: for the same
//! traces, an RLE pack and a plain pack must stream byte-identical
//! records, carry identical per-trace and whole-pack content hashes, and
//! produce equal analysis reports at any shard count — on the full
//! 600-trace expanded corpus and on adversarial streams built to stress
//! the codec (runs straddling chunk boundaries, pure run-length-1
//! alternation, one trace-sized run).

use iwc_isa::{DataType, ExecMask};
use iwc_trace::pack::{write_pack_file, write_pack_file_rle, CorpusPack};
use iwc_trace::synth::DEFAULT_EXPANDED_TRACES;
use iwc_trace::{analyze_pack_file, expanded_corpus, Trace, TraceRecord, CHUNK_RECORDS};
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iwc-rle-eq-{tag}-{}.iwcc", std::process::id()))
}

/// Writes `traces` both ways and asserts the packs are interchangeable
/// everywhere except on-disk size.
fn assert_rle_equivalent(traces: &[Trace], tag: &str) {
    let plain_path = tmp_path(&format!("{tag}-plain"));
    let rle_path = tmp_path(&format!("{tag}-rle"));
    let plain_entries = write_pack_file(&plain_path, traces).unwrap();
    let rle_entries = write_pack_file_rle(&rle_path, traces).unwrap();

    for (p, r) in plain_entries.iter().zip(&rle_entries) {
        assert_eq!(p.name, r.name);
        assert_eq!(p.records, r.records);
        assert_eq!(
            p.content_hash, r.content_hash,
            "{tag}/{}: hash is payload-encoding-independent",
            p.name
        );
    }

    let mut plain = CorpusPack::open_path(&plain_path).unwrap();
    let mut rle = CorpusPack::open_path(&rle_path).unwrap();
    assert_eq!(
        plain.content_hash(),
        rle.content_hash(),
        "{tag}: pack hash is payload-encoding-independent"
    );
    for i in 0..plain.len() {
        assert_eq!(
            plain.read_trace(i).unwrap(),
            rle.read_trace(i).unwrap(),
            "{tag}: trace {i} must stream back byte-identically"
        );
    }

    // Analysis (which consumes the streams run-by-run) cannot tell the
    // encodings apart, at any shard count.
    let on_plain = analyze_pack_file(&plain_path, 2).unwrap();
    let on_rle = analyze_pack_file(&rle_path, 2).unwrap();
    assert_eq!(on_plain, on_rle, "{tag}: analysis reports diverged");
    assert_eq!(
        analyze_pack_file(&rle_path, 1).unwrap(),
        analyze_pack_file(&rle_path, 4).unwrap(),
        "{tag}: RLE pack analysis is shard-invariant"
    );

    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&rle_path);
}

#[test]
fn rle_matches_plain_on_the_full_expanded_corpus() {
    // Trace length kept moderate so the debug-mode run stays quick; the
    // codec path is identical at any length.
    let traces: Vec<Trace> = expanded_corpus(DEFAULT_EXPANDED_TRACES)
        .iter()
        .map(|p| p.generate(400))
        .collect();
    assert_eq!(traces.len(), DEFAULT_EXPANDED_TRACES);
    assert_rle_equivalent(&traces, "corpus");

    // The synthetic corpus masks run coherently: RLE must actually pay.
    let plain_path = tmp_path("corpus-size-plain");
    let rle_path = tmp_path("corpus-size-rle");
    write_pack_file(&plain_path, &traces).unwrap();
    write_pack_file_rle(&rle_path, &traces).unwrap();
    let plain_len = std::fs::metadata(&plain_path).unwrap().len();
    let rle_len = std::fs::metadata(&rle_path).unwrap().len();
    assert!(
        rle_len < plain_len,
        "RLE pack ({rle_len} B) should beat plain ({plain_len} B) on a coherent corpus"
    );
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&rle_path);
}

#[test]
fn rle_matches_plain_on_adversarial_streams() {
    let full = |dtype| TraceRecord::new(ExecMask::all(16), dtype);
    let lane = |bits: u32| TraceRecord::new(ExecMask::new(bits, 16), DataType::F);

    // Runs engineered to straddle the streaming chunk boundary: a run
    // ending exactly at CHUNK_RECORDS, one crossing it by a single
    // record, and one spanning several whole chunks.
    let straddle = Trace {
        name: "straddle".into(),
        records: std::iter::repeat_n(full(DataType::F), CHUNK_RECORDS)
            .chain(std::iter::repeat_n(full(DataType::D), CHUNK_RECORDS + 1))
            .chain(std::iter::repeat_n(lane(0x00ff), 3 * CHUNK_RECORDS - 1))
            .collect(),
    };
    // Pure alternation: every run has length 1, the RLE worst case (the
    // encoding must not inflate records into counted items).
    let alternating = Trace {
        name: "alternating".into(),
        records: (0..2 * CHUNK_RECORDS)
            .map(|i| lane(if i % 2 == 0 { 0x5555 } else { 0xaaaa }))
            .collect(),
    };
    // One giant run: the whole trace is a single RLE item.
    let giant = Trace {
        name: "giant".into(),
        records: vec![full(DataType::F); 4 * CHUNK_RECORDS + 7],
    };
    let empty = Trace {
        name: "empty".into(),
        records: vec![],
    };
    let one = Trace {
        name: "one".into(),
        records: vec![lane(1)],
    };

    let traces = vec![straddle, alternating, giant, empty, one];
    assert_rle_equivalent(&traces, "adversarial");
}
