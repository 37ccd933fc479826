//! Streaming trace sources: bounded-memory record streams.
//!
//! Every analysis path in this crate consumes a [`TraceSource`] — a
//! chunked pull iterator of [`TraceRecord`]s with a known length hint —
//! instead of a materialized `Vec<TraceRecord>`. Peak memory is O(chunk)
//! whatever the trace length, which is what lets the corpus grow toward
//! the paper's ~600-trace scale (ROADMAP item 5) without the analyzer's
//! footprint growing with it.
//!
//! Implementations:
//!
//! * [`SliceSource`] — adapter over an in-memory record slice (the legacy
//!   `analyze(&Trace)` entry points are thin wrappers over this);
//! * [`crate::synth::SynthSource`] — records synthesized on the fly from a
//!   [`crate::synth::Profile`], never holding more than one chunk;
//! * [`crate::pack::PackTraceReader`] — sequential chunked reads of one
//!   trace out of a `.iwcc` corpus pack, with content-hash verification.

use crate::format::{TraceIoError, TraceRecord};

/// Records per chunk handed out by the streaming sources. Small enough
/// that a per-worker chunk buffer is cache-friendly (24 KiB at 6 bytes of
/// wire format, 32 KiB resident), large enough to amortize per-chunk
/// dispatch.
pub const CHUNK_RECORDS: usize = 4096;

/// A pull stream of trace records, consumed chunk by chunk.
///
/// Contract: `next_chunk` yields non-empty record slices until the stream
/// is exhausted, then `None` forever. Implementations validate lazily —
/// a malformed byte stream (bad record, hash mismatch, short read)
/// surfaces as [`TraceIoError::Malformed`] from `next_chunk`, never as a
/// panic or a silently truncated stream.
pub trait TraceSource {
    /// The trace's name.
    fn name(&self) -> &str;

    /// Total records this source will yield, when known up front. Streams
    /// of known length report `Some` so analyzers can pre-account; the
    /// value is a hint, not a contract — the stream is authoritative.
    fn len_hint(&self) -> Option<u64>;

    /// The next chunk of records, `None` once exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the underlying stream is unreadable
    /// or malformed.
    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceIoError>;
}

/// [`TraceSource`] over an in-memory record slice — the adapter that keeps
/// the slice-based `analyze` entry points alive on top of the streaming
/// core. Yields the slice in [`CHUNK_RECORDS`]-sized chunks so code paths
/// downstream see the same chunking whatever the source.
pub struct SliceSource<'a> {
    name: &'a str,
    records: &'a [TraceRecord],
    at: usize,
}

impl<'a> SliceSource<'a> {
    /// A source over `records` named `name`.
    pub fn new(name: &'a str, records: &'a [TraceRecord]) -> Self {
        Self {
            name,
            records,
            at: 0,
        }
    }
}

impl<'a> From<&'a crate::format::Trace> for SliceSource<'a> {
    fn from(t: &'a crate::format::Trace) -> Self {
        Self::new(&t.name, &t.records)
    }
}

impl TraceSource for SliceSource<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }

    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceIoError> {
        if self.at >= self.records.len() {
            return Ok(None);
        }
        let end = (self.at + CHUNK_RECORDS).min(self.records.len());
        let chunk = &self.records[self.at..end];
        self.at = end;
        Ok(Some(chunk))
    }
}

/// Folds a source into maximal runs of identical records, invoking
/// `f(record, count)` once per run and returning the number of runs.
///
/// Divergence arrives in runs — a loop body re-presents the same
/// `(mask, dtype)` for thousands of consecutive records — and every tally
/// is an integer sum, so the engine-generic analyzers charge each run
/// multiplicatively in O(1) instead of per record (the corpus analyzer,
/// whose traces average 1.25 records a run, charges per record instead;
/// see [`crate::analyze_source`]). Runs span chunk
/// boundaries: a run that straddles `next_chunk` calls is reported once,
/// with its full count, so the grouping is a pure function of the record
/// stream and independent of [`CHUNK_RECORDS`].
///
/// # Errors
///
/// Propagates stream errors from the source.
pub fn for_each_run<F>(src: &mut dyn TraceSource, mut f: F) -> Result<u64, TraceIoError>
where
    F: FnMut(TraceRecord, u64),
{
    let mut runs = 0u64;
    let mut pending: Option<(TraceRecord, u64)> = None;
    while let Some(chunk) = src.next_chunk()? {
        let mut i = 0;
        while i < chunk.len() {
            let rec = chunk[i];
            let mut j = i + 1;
            while j < chunk.len() && chunk[j] == rec {
                j += 1;
            }
            let n = (j - i) as u64;
            match pending {
                Some((p, c)) if p == rec => pending = Some((p, c + n)),
                Some((p, c)) => {
                    f(p, c);
                    runs += 1;
                    pending = Some((rec, n));
                }
                None => pending = Some((rec, n)),
            }
            i = j;
        }
    }
    if let Some((p, c)) = pending {
        f(p, c);
        runs += 1;
    }
    Ok(runs)
}

/// Drains a source into a materialized [`crate::format::Trace`] — the
/// inverse adapter, used by `iwc unpack` and the round-trip tests.
///
/// # Errors
///
/// Propagates stream errors from the source.
pub fn collect(src: &mut dyn TraceSource) -> Result<crate::format::Trace, TraceIoError> {
    let mut t = crate::format::Trace::new(src.name());
    if let Some(n) = src.len_hint() {
        t.records
            .reserve(usize::try_from(n).unwrap_or(0).min(1 << 24));
    }
    while let Some(chunk) = src.next_chunk()? {
        t.records.extend_from_slice(chunk);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Trace;
    use iwc_isa::mask::ExecMask;
    use iwc_isa::types::DataType;

    #[test]
    fn slice_source_chunks_and_roundtrips() {
        let mut t = Trace::new("s");
        for i in 0..(CHUNK_RECORDS + 17) {
            t.push(ExecMask::new(1 + (i as u32 % 0xFFFF), 16), DataType::F);
        }
        let mut src = SliceSource::from(&t);
        assert_eq!(src.name(), "s");
        assert_eq!(src.len_hint(), Some(t.len() as u64));

        let first = src.next_chunk().unwrap().expect("first chunk");
        assert_eq!(first.len(), CHUNK_RECORDS);
        let second = src.next_chunk().unwrap().expect("second chunk");
        assert_eq!(second.len(), 17);
        assert!(src.next_chunk().unwrap().is_none());
        assert!(src.next_chunk().unwrap().is_none(), "None is sticky");

        let back = collect(&mut SliceSource::from(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_slice_yields_nothing() {
        let t = Trace::new("empty");
        let mut src = SliceSource::from(&t);
        assert!(src.next_chunk().unwrap().is_none());
        assert_eq!(src.len_hint(), Some(0));
    }

    #[test]
    fn runs_group_identical_records_across_chunks() {
        let mut t = Trace::new("runs");
        // A run that straddles the first chunk boundary, then a lone record,
        // then a short tail run.
        for _ in 0..(CHUNK_RECORDS + 10) {
            t.push(ExecMask::all(16), DataType::F);
        }
        t.push(ExecMask::new(0x00FF, 16), DataType::F);
        for _ in 0..3 {
            t.push(ExecMask::all(16), DataType::Df);
        }
        let mut seen = Vec::new();
        let runs = for_each_run(&mut SliceSource::from(&t), |r, n| {
            seen.push((r.bits, r.dtype, n));
        })
        .unwrap();
        assert_eq!(runs, 3);
        assert_eq!(
            seen,
            vec![
                (0xFFFF, DataType::F, (CHUNK_RECORDS + 10) as u64),
                (0x00FF, DataType::F, 1),
                (0xFFFF, DataType::Df, 3),
            ]
        );
    }

    #[test]
    fn runs_of_empty_source_are_empty() {
        let t = Trace::new("empty");
        let runs = for_each_run(&mut SliceSource::from(&t), |_, _| {
            panic!("no runs in an empty stream")
        })
        .unwrap();
        assert_eq!(runs, 0);
    }

    #[test]
    fn run_length_one_everywhere_degrades_to_per_record() {
        let mut t = Trace::new("alt");
        for i in 0..37u32 {
            // Alternate masks so every run has length exactly 1.
            t.push(ExecMask::new(1 + (i % 2), 16), DataType::F);
        }
        let mut total = 0u64;
        let runs = for_each_run(&mut SliceSource::from(&t), |_, n| {
            assert_eq!(n, 1);
            total += n;
        })
        .unwrap();
        assert_eq!(runs, 37);
        assert_eq!(total, 37);
    }
}
