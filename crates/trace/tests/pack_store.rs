//! Pack-format robustness and streaming-equivalence goldens (ISSUE 8).
//!
//! Robustness: every way a `.iwcc` file can be damaged — truncation,
//! corrupted magic/version, an index pointing past EOF, a record-count
//! mismatch, a flipped payload byte — must surface as
//! `TraceIoError::Malformed`, never a panic or a silent short read.
//!
//! Equivalence: streaming analysis over an expanded ≥400-trace pack is
//! byte-identical to the in-memory slice path, thread-count-invariant at
//! 1/2/4 shards, and the text (`IWCT`) ↔ pack round trip preserves the
//! analysis reports of the full base corpus exactly.

use iwc_trace::pack::{CorpusPack, PackWriter, PACK_HEADER_BYTES};
use iwc_trace::{analyze, analyze_pack_file, expanded_corpus, trace_hash, Trace, TraceIoError};
use std::io::Cursor;
use std::path::PathBuf;

fn sample_traces() -> Vec<Trace> {
    iwc_trace::corpus()
        .iter()
        .take(3)
        .map(|p| p.generate(700))
        .collect()
}

fn pack_bytes(traces: &[Trace]) -> Vec<u8> {
    let mut w = PackWriter::new(Cursor::new(Vec::new())).unwrap();
    for t in traces {
        w.add_trace(t).unwrap();
    }
    w.finish().unwrap().into_inner()
}

fn open_err(bytes: Vec<u8>) -> TraceIoError {
    CorpusPack::open(Cursor::new(bytes))
        .err()
        .expect("must fail")
}

/// Reads every trace of an opened pack to the end, returning the first
/// stream error.
fn drain(bytes: Vec<u8>) -> Result<Vec<Trace>, TraceIoError> {
    let mut pack = CorpusPack::open(Cursor::new(bytes))?;
    (0..pack.len()).map(|i| pack.read_trace(i)).collect()
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iwc-pack-test-{tag}-{}.iwcc", std::process::id()))
}

#[test]
fn truncated_header_is_malformed() {
    let bytes = pack_bytes(&sample_traces());
    for cut in [0, 3, 7, 15, PACK_HEADER_BYTES as usize - 1] {
        let e = open_err(bytes[..cut].to_vec());
        assert!(matches!(e, TraceIoError::Malformed(_)), "cut {cut}: {e}");
    }
}

#[test]
fn truncated_index_and_payload_are_malformed() {
    let bytes = pack_bytes(&sample_traces());
    // Any truncation of the body leaves either the index short (open
    // fails) or the payload short of the index offset (open's range
    // validation fails) — never a silent short read.
    for cut in [
        bytes.len() - 1,
        bytes.len() - 20,
        bytes.len() / 2,
        PACK_HEADER_BYTES as usize + 5,
    ] {
        let e = open_err(bytes[..cut].to_vec());
        assert!(matches!(e, TraceIoError::Malformed(_)), "cut {cut}: {e}");
    }
}

#[test]
fn corrupted_magic_and_version_are_malformed() {
    let good = pack_bytes(&sample_traces());
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(matches!(open_err(bad_magic), TraceIoError::Malformed(_)));

    let mut bad_version = good;
    bad_version[4] = 99;
    let e = open_err(bad_version);
    assert!(matches!(e, TraceIoError::Malformed(_)));
    assert!(e.to_string().contains("version"), "{e}");
}

#[test]
fn index_offset_past_eof_is_malformed() {
    let mut bytes = pack_bytes(&sample_traces());
    let huge = (bytes.len() as u64 + 1000).to_le_bytes();
    bytes[16..24].copy_from_slice(&huge);
    let e = open_err(bytes);
    assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
}

#[test]
fn entry_payload_past_index_is_malformed() {
    let traces = sample_traces();
    let mut bytes = pack_bytes(&traces);
    // Inflate the first entry's record count so its payload range runs
    // past the payload section (a record-count mismatch).
    let index_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let name_len = u32::from_le_bytes(bytes[index_offset..index_offset + 4].try_into().unwrap());
    let count_at = index_offset + 4 + name_len as usize;
    let fake = (traces[0].len() as u64 + 1_000_000).to_le_bytes();
    bytes[count_at..count_at + 8].copy_from_slice(&fake);
    let e = open_err(bytes);
    assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
}

#[test]
fn record_count_mismatch_is_malformed() {
    let traces = sample_traces();
    let mut bytes = pack_bytes(&traces);
    // Shrink the first entry's record count by one: ranges stay valid, so
    // the lie is only detectable by hashing — the streamed payload no
    // longer matches the index hash.
    let index_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let name_len = u32::from_le_bytes(bytes[index_offset..index_offset + 4].try_into().unwrap());
    let count_at = index_offset + 4 + name_len as usize;
    let fake = (traces[0].len() as u64 - 1).to_le_bytes();
    bytes[count_at..count_at + 8].copy_from_slice(&fake);
    let e = drain(bytes).expect_err("must fail");
    assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
    assert!(e.to_string().contains("hash"), "{e}");
}

#[test]
fn payload_corruption_is_a_hash_mismatch() {
    let mut bytes = pack_bytes(&sample_traces());
    // Flip mask bits of a record in the middle of the first trace: the
    // record still parses, so only hash verification can catch it.
    let at = PACK_HEADER_BYTES as usize + 6 * 100;
    bytes[at] ^= 0x55;
    let e = drain(bytes).expect_err("must fail");
    assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
    assert!(e.to_string().contains("hash mismatch"), "{e}");
}

#[test]
fn payload_corruption_to_invalid_width_is_malformed() {
    let mut bytes = pack_bytes(&sample_traces());
    // Corrupt a width byte (record offset 4) to an invalid lane count.
    let at = PACK_HEADER_BYTES as usize + 6 * 50 + 4;
    bytes[at] = 3;
    let e = drain(bytes).expect_err("must fail");
    assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
}

#[test]
fn garbage_and_iwct_files_are_rejected() {
    assert!(matches!(open_err(vec![]), TraceIoError::Malformed(_)));
    assert!(matches!(
        open_err(b"complete garbage, not a pack at all".to_vec()),
        TraceIoError::Malformed(_)
    ));
    // A single-trace IWCT file is not a pack.
    let mut iwct = Vec::new();
    sample_traces()[0].write_to(&mut iwct).unwrap();
    assert!(matches!(open_err(iwct), TraceIoError::Malformed(_)));
}

#[test]
fn text_pack_round_trip_preserves_reports_on_the_full_corpus() {
    // Golden: IWCT bytes → pack → stream back → byte-identical traces and
    // analysis reports for every base-corpus profile.
    let traces: Vec<Trace> = iwc_trace::corpus()
        .iter()
        .map(|p| p.generate(1500))
        .collect();

    let mut w = PackWriter::new(Cursor::new(Vec::new())).unwrap();
    for t in &traces {
        // Route through the IWCT text encoding first, as `iwc pack` does.
        let mut iwct = Vec::new();
        t.write_to(&mut iwct).unwrap();
        let decoded = Trace::read_from(&iwct[..]).unwrap();
        w.add_trace(&decoded).unwrap();
    }
    let bytes = w.finish().unwrap().into_inner();

    let mut pack = CorpusPack::open(Cursor::new(bytes)).unwrap();
    assert_eq!(pack.len(), traces.len());
    for (i, t) in traces.iter().enumerate() {
        assert_eq!(pack.entries()[i].content_hash, trace_hash(t));
        let back = pack.read_trace(i).unwrap();
        assert_eq!(&back, t, "trace {i} must round-trip byte-identically");
        assert_eq!(
            analyze(&back),
            analyze(t),
            "analysis of {} must survive the round trip",
            t.name
        );
    }
}

#[test]
fn expanded_pack_streaming_matches_in_memory_and_is_shard_invariant() {
    // Acceptance: ≥400-trace expanded pack, streamed analysis ==
    // in-memory analysis (full catalog × canonical engines), invariant
    // at 1/2/4 shards. Trace length is kept small so the debug-mode test
    // stays fast; the record path is identical at any length.
    let profiles = expanded_corpus(420);
    let len = 600;
    let traces: Vec<Trace> = profiles.iter().map(|p| p.generate(len)).collect();

    let path = tmp_path("equivalence");
    iwc_trace::pack::write_pack_file(&path, &traces).unwrap();

    let in_memory: Vec<_> = traces.iter().map(analyze).collect();
    let streamed = analyze_pack_file(&path, 2).unwrap();
    assert_eq!(streamed, in_memory, "streaming must match the slice path");

    let one = analyze_pack_file(&path, 1).unwrap();
    let two = analyze_pack_file(&path, 2).unwrap();
    let four = analyze_pack_file(&path, 4).unwrap();
    assert_eq!(one, two, "1 vs 2 shards");
    assert_eq!(two, four, "2 vs 4 shards");
    assert_eq!(one.len(), profiles.len());
    for (report, profile) in one.iter().zip(&profiles) {
        assert_eq!(report.name, profile.name, "pack order preserved");
    }

    // The corpus snapshot built from sharded results matches the serial
    // one — the commutative-merge invariant extended to disk.
    let snap1 = iwc_trace::corpus_snapshot(&one);
    let snap4 = iwc_trace::corpus_snapshot(&four);
    assert_eq!(snap1.to_json(), snap4.to_json());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn pack_file_content_hash_is_reproducible() {
    let traces: Vec<Trace> = expanded_corpus(30)
        .iter()
        .map(|p| p.generate(300))
        .collect();
    let a = tmp_path("hash-a");
    let b = tmp_path("hash-b");
    iwc_trace::pack::write_pack_file(&a, &traces).unwrap();
    iwc_trace::pack::write_pack_file(&b, &traces).unwrap();
    let ha = CorpusPack::open_path(&a).unwrap().content_hash();
    let hb = CorpusPack::open_path(&b).unwrap().content_hash();
    assert_eq!(ha, hb, "same corpus, same pack hash");
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "pack files are byte-reproducible"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}
