//! `.iwcc` corpus packs: many traces in one content-indexed container.
//!
//! A pack turns corpus size from a memory limit into a disk/bandwidth
//! problem: the payload is the raw `IWCT` record wire format (6 bytes per
//! instruction, no per-trace framing), and a trailing index carries each
//! trace's name, record count, FNV-1a content hash, and payload offset —
//! enough for both sequential chunked streaming and random access by
//! index without touching the payload.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic "IWCC"
//!      4     4  version (u32 LE, currently 2; 1 still readable)
//!      8     8  trace count (u64 LE)
//!     16     8  index offset (u64 LE, from file start)
//!     24     …  payload: per-trace runs of 6-byte IWCT records,
//!               or the RLE item encoding for flagged entries
//!  index     …  per trace: name len (u32 LE) | name (UTF-8)
//!               | record count (u64 LE) | content hash (u64 LE)
//!               | payload offset (u64 LE)
//!               | v2 only: flags (u32 LE) | payload bytes (u64 LE)
//! ```
//!
//! ## RLE payload encoding (version 2, per-entry flag bit 0)
//!
//! Execution masks arrive in long runs of identical records, so a
//! version-2 entry may carry a run-length-encoded payload: a sequence of
//! *items*, where a plain item is the 6-byte record wire format and a
//! flagged item (bit 7 of the width byte — never set by a legal width —
//! masked off before decoding) is the 6-byte record followed by a u32 LE
//! repeat count `n ≥ 2`, standing for `n` consecutive copies. Runs never
//! expand (10 bytes encode ≥ 2 records), the decoded stream hashes
//! identically to the plain encoding, and the index-derived pack content
//! hash is unchanged — so RLE re-packs of the same traces hit the same
//! results-cache keys. The writer encodes RLE only when asked
//! ([`PackWriter::set_rle`]); version-1 packs and unflagged entries use
//! the plain fixed-stride payload unchanged.
//!
//! Every read-side failure — truncation, bad magic/version, an index or
//! payload range past EOF, an unknown width/dtype, a malformed RLE item
//! (repeat below 2, run past the record count, trailing or truncated
//! payload bytes), or a content-hash mismatch — surfaces as
//! [`TraceIoError::Malformed`]; the reader never panics and never
//! silently truncates a stream. Each record is hashed as it is decoded
//! and the hash checked at end of stream, so verification costs no extra
//! pass.

use crate::format::{
    record_from_wire, record_to_wire, Trace, TraceIoError, TraceRecord, RECORD_WIRE_BYTES,
};
use crate::hash::{Fnv1a, RecordHasher};
use crate::source::{TraceSource, CHUNK_RECORDS};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of the pack container.
pub const PACK_MAGIC: [u8; 4] = *b"IWCC";
/// Current pack format version. Version-1 packs (no per-entry flags or
/// payload byte counts, plain payloads only) remain readable.
pub const PACK_VERSION: u32 = 2;
/// Oldest pack format version [`CorpusPack::open`] accepts.
pub const PACK_VERSION_MIN: u32 = 1;
/// Byte length of the fixed pack header.
pub const PACK_HEADER_BYTES: u64 = 24;
/// Conventional file extension of pack files.
pub const PACK_EXTENSION: &str = "iwcc";

/// Entry flag bit: the payload is run-length encoded (module docs).
pub const PACK_FLAG_RLE: u32 = 1;
/// All entry flag bits a version-2 reader understands.
const PACK_FLAGS_KNOWN: u32 = PACK_FLAG_RLE;
/// Bit 7 of the wire width byte marks an RLE item carrying a repeat
/// count; legal widths (1–32) never set it.
const RLE_WIDTH_FLAG: u8 = 0x80;
/// Byte length of a flagged RLE item: a record plus its u32 repeat count.
const RLE_ITEM_BYTES: usize = RECORD_WIRE_BYTES + 4;

/// Upper bound on trace names, matching the `IWCT` reader.
const MAX_NAME_BYTES: usize = 4096;

/// One trace's index entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackEntry {
    /// Trace name (not necessarily unique within a pack).
    pub name: String,
    /// Number of records in the payload run.
    pub records: u64,
    /// FNV-1a content hash of the record stream ([`crate::hash`]).
    pub content_hash: u64,
    /// Payload offset of the first record, from file start.
    pub offset: u64,
    /// Entry flags ([`PACK_FLAG_RLE`]); always 0 in version-1 packs.
    pub flags: u32,
    /// Encoded payload byte length. Equals `records * 6` for plain
    /// entries; at most that for RLE entries.
    pub payload_bytes: u64,
}

impl PackEntry {
    /// Byte length of the encoded payload run.
    pub fn byte_len(&self) -> u64 {
        self.payload_bytes
    }

    /// True when the payload is run-length encoded.
    pub fn is_rle(&self) -> bool {
        self.flags & PACK_FLAG_RLE != 0
    }
}

/// Appends one run to an RLE payload buffer: a plain 6-byte item for a
/// lone record, a width-flagged item plus u32 repeat count otherwise,
/// splitting runs longer than `u32::MAX`.
fn emit_run(wire: &mut Vec<u8>, rec: &TraceRecord, mut n: u64) {
    while n > 0 {
        if n == 1 {
            wire.extend_from_slice(&record_to_wire(rec));
            return;
        }
        let take = n.min(u64::from(u32::MAX));
        let mut item = record_to_wire(rec);
        item[4] |= RLE_WIDTH_FLAG;
        wire.extend_from_slice(&item);
        wire.extend_from_slice(&(take as u32).to_le_bytes());
        n -= take;
    }
}

fn read_exact_or_malformed<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &str,
) -> Result<(), TraceIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceIoError::Malformed(format!("truncated pack: short read in {what}"))
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Streaming pack writer: traces are appended one chunk at a time and the
/// index plus final header land in [`PackWriter::finish`]. Peak memory is
/// O(chunk) plus the index.
pub struct PackWriter<W: Write + Seek> {
    w: W,
    at: u64,
    rle: bool,
    entries: Vec<PackEntry>,
}

impl<W: Write + Seek> PackWriter<W> {
    /// Starts a pack on `w`, writing a placeholder header (patched by
    /// [`PackWriter::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn new(mut w: W) -> Result<Self, TraceIoError> {
        w.write_all(&PACK_MAGIC)?;
        w.write_all(&PACK_VERSION.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        Ok(Self {
            w,
            at: PACK_HEADER_BYTES,
            rle: false,
            entries: Vec::new(),
        })
    }

    /// Selects the payload encoding for subsequently added traces: `true`
    /// run-length encodes mask runs (module docs), `false` (the default)
    /// writes the plain fixed-stride record stream. Content hashes — and
    /// so results-cache keys — are identical either way.
    pub fn set_rle(&mut self, rle: bool) {
        self.rle = rle;
    }

    /// Streams one trace out of `src` into the payload section, hashing
    /// records on the way through.
    ///
    /// # Errors
    ///
    /// Propagates source and writer failures; rejects oversized names.
    pub fn add_source(&mut self, src: &mut dyn TraceSource) -> Result<&PackEntry, TraceIoError> {
        let name = src.name().to_owned();
        if name.len() > MAX_NAME_BYTES {
            return Err(TraceIoError::Malformed(format!(
                "trace name of {} bytes exceeds the {MAX_NAME_BYTES}-byte cap",
                name.len()
            )));
        }
        let offset = self.at;
        let mut hasher = RecordHasher::new();
        let mut records = 0u64;
        let mut wire = Vec::with_capacity(CHUNK_RECORDS * RECORD_WIRE_BYTES);
        // A run straddling chunk boundaries must land as one item, so the
        // open run is carried across chunks and flushed at end of stream.
        let mut pending: Option<(TraceRecord, u64)> = None;
        while let Some(chunk) = src.next_chunk()? {
            hasher.push_all(chunk);
            records += chunk.len() as u64;
            wire.clear();
            if self.rle {
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
                            emit_run(&mut wire, &p, c);
                            pending = Some((rec, n));
                        }
                        None => pending = Some((rec, n)),
                    }
                    i = j;
                }
            } else {
                for r in chunk {
                    wire.extend_from_slice(&record_to_wire(r));
                }
            }
            self.w.write_all(&wire)?;
            self.at += wire.len() as u64;
        }
        if let Some((p, c)) = pending {
            wire.clear();
            emit_run(&mut wire, &p, c);
            self.w.write_all(&wire)?;
            self.at += wire.len() as u64;
        }
        self.entries.push(PackEntry {
            name,
            records,
            content_hash: hasher.finish(),
            offset,
            flags: if self.rle { PACK_FLAG_RLE } else { 0 },
            payload_bytes: self.at - offset,
        });
        Ok(self.entries.last().expect("just pushed"))
    }

    /// Appends a materialized trace (adapter over [`PackWriter::add_source`]).
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn add_trace(&mut self, trace: &Trace) -> Result<&PackEntry, TraceIoError> {
        self.add_source(&mut crate::source::SliceSource::from(trace))
    }

    /// Entries written so far.
    pub fn entries(&self) -> &[PackEntry] {
        &self.entries
    }

    /// Writes the index, patches the header, and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        let index_offset = self.at;
        for e in &self.entries {
            let name = e.name.as_bytes();
            self.w.write_all(&(name.len() as u32).to_le_bytes())?;
            self.w.write_all(name)?;
            self.w.write_all(&e.records.to_le_bytes())?;
            self.w.write_all(&e.content_hash.to_le_bytes())?;
            self.w.write_all(&e.offset.to_le_bytes())?;
            self.w.write_all(&e.flags.to_le_bytes())?;
            self.w.write_all(&e.payload_bytes.to_le_bytes())?;
        }
        self.w.seek(SeekFrom::Start(8))?;
        self.w
            .write_all(&(self.entries.len() as u64).to_le_bytes())?;
        self.w.write_all(&index_offset.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// An open pack: parsed, validated index over a seekable byte stream.
pub struct CorpusPack<R: Read + Seek> {
    r: R,
    entries: Vec<PackEntry>,
}

impl CorpusPack<BufReader<File>> {
    /// Opens and validates a pack file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] when the file is unreadable and
    /// [`TraceIoError::Malformed`] when its contents are not a valid pack.
    pub fn open_path(path: &Path) -> Result<Self, TraceIoError> {
        Self::open(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> CorpusPack<R> {
    /// Opens a pack over `r`, reading and validating the header and index.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Malformed`] on truncation, bad
    /// magic/version, or index/payload ranges that fall outside the file.
    pub fn open(mut r: R) -> Result<Self, TraceIoError> {
        let end = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; PACK_HEADER_BYTES as usize];
        read_exact_or_malformed(&mut r, &mut header, "header")?;
        if header[0..4] != PACK_MAGIC {
            return Err(TraceIoError::Malformed("bad pack magic".into()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if !(PACK_VERSION_MIN..=PACK_VERSION).contains(&version) {
            return Err(TraceIoError::Malformed(format!(
                "unsupported pack version {version} (expected {PACK_VERSION_MIN}..={PACK_VERSION})"
            )));
        }
        let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let index_offset = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if index_offset < PACK_HEADER_BYTES || index_offset > end {
            return Err(TraceIoError::Malformed(format!(
                "index offset {index_offset} outside file of {end} bytes"
            )));
        }
        // Names can legally be empty, so the only hard per-entry floor is
        // the fixed fields plus the name length — enough to reject counts
        // that cannot possibly fit before EOF. Version 2 appends a u32
        // flags word and a u64 payload byte count to each entry.
        let entry_fixed = if version >= 2 { 36usize } else { 24 };
        let floor = count.saturating_mul(entry_fixed as u64 + 4);
        if floor > end - index_offset {
            return Err(TraceIoError::Malformed(format!(
                "index of {count} traces cannot fit in {} bytes",
                end - index_offset
            )));
        }
        r.seek(SeekFrom::Start(index_offset))?;
        let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
        for i in 0..count {
            let mut len4 = [0u8; 4];
            read_exact_or_malformed(&mut r, &mut len4, "index entry")?;
            let name_len = u32::from_le_bytes(len4) as usize;
            if name_len > MAX_NAME_BYTES {
                return Err(TraceIoError::Malformed(format!(
                    "index entry {i}: unreasonable name length {name_len}"
                )));
            }
            let mut name = vec![0u8; name_len];
            read_exact_or_malformed(&mut r, &mut name, "index entry name")?;
            let name = String::from_utf8(name).map_err(|_| {
                TraceIoError::Malformed(format!("index entry {i}: name is not UTF-8"))
            })?;
            let mut fields = [0u8; 36];
            read_exact_or_malformed(&mut r, &mut fields[..entry_fixed], "index entry fields")?;
            let records = u64::from_le_bytes(fields[0..8].try_into().expect("8 bytes"));
            let content_hash = u64::from_le_bytes(fields[8..16].try_into().expect("8 bytes"));
            let offset = u64::from_le_bytes(fields[16..24].try_into().expect("8 bytes"));
            let (flags, payload_bytes) = if version >= 2 {
                (
                    u32::from_le_bytes(fields[24..28].try_into().expect("4 bytes")),
                    u64::from_le_bytes(fields[28..36].try_into().expect("8 bytes")),
                )
            } else {
                (0, records * RECORD_WIRE_BYTES as u64)
            };
            if flags & !PACK_FLAGS_KNOWN != 0 {
                return Err(TraceIoError::Malformed(format!(
                    "index entry {i} ({name}): unknown entry flags {flags:#x}"
                )));
            }
            let entry = PackEntry {
                name,
                records,
                content_hash,
                offset,
                flags,
                payload_bytes,
            };
            let plain_bytes = records.saturating_mul(RECORD_WIRE_BYTES as u64);
            if entry.is_rle() && payload_bytes > plain_bytes {
                return Err(TraceIoError::Malformed(format!(
                    "index entry {i} ({}): RLE payload of {payload_bytes} bytes exceeds \
                     the plain encoding of {records} records",
                    entry.name
                )));
            }
            // A plain reader consumes records*6 bytes whatever the index
            // claims, so bound the larger of the two; a record-count lie
            // within bounds is left for hash verification to catch.
            let reach = if entry.is_rle() {
                payload_bytes
            } else {
                plain_bytes.max(payload_bytes)
            };
            if offset < PACK_HEADER_BYTES || offset > index_offset || reach > index_offset - offset
            {
                return Err(TraceIoError::Malformed(format!(
                    "index entry {i} ({}): payload range {offset}+{} outside payload section",
                    entry.name,
                    entry.byte_len()
                )));
            }
            entries.push(entry);
        }
        Ok(Self { r, entries })
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the pack holds no traces.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The index.
    pub fn entries(&self) -> &[PackEntry] {
        &self.entries
    }

    /// Index of the first trace named `name`, if any.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Content hash of the whole pack: FNV-1a over every entry's name,
    /// record count, and content hash, in index order. Derived from the
    /// index alone — O(index), no payload pass — and stable across
    /// re-packs of the same traces. This is the cache key component the
    /// content-addressed results cache uses ([`crate::store`]).
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for e in &self.entries {
            h.write(e.name.as_bytes());
            h.write(&[0xff]);
            h.write(&e.records.to_le_bytes());
            h.write(&e.content_hash.to_le_bytes());
        }
        h.finish()
    }

    /// A streaming reader over trace `index`, verifying the content hash
    /// as the stream drains.
    ///
    /// # Errors
    ///
    /// Propagates seek failures.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds (the index is caller-visible
    /// via [`CorpusPack::entries`]).
    pub fn stream(&mut self, index: usize) -> Result<PackTraceReader<'_, R>, TraceIoError> {
        let entry = self.entries[index].clone();
        self.r.seek(SeekFrom::Start(entry.offset))?;
        let payload_left = entry.payload_bytes;
        Ok(PackTraceReader {
            r: &mut self.r,
            entry,
            yielded: 0,
            verified: false,
            hasher: RecordHasher::new(),
            buf: Vec::new(),
            payload_left,
            stash: Vec::new(),
            stash_pos: 0,
            pending: None,
        })
    }

    /// Materializes trace `index` (adapter over [`CorpusPack::stream`]).
    ///
    /// # Errors
    ///
    /// Propagates stream failures, including hash mismatches.
    pub fn read_trace(&mut self, index: usize) -> Result<Trace, TraceIoError> {
        crate::source::collect(&mut self.stream(index)?)
    }
}

/// [`TraceSource`] over one pack entry's payload run. Chunks are decoded
/// through the shared `IWCT` record validation, and each record is hashed
/// as it is decoded (each copy of an RLE run as it is expanded); the final
/// `None` is withheld until the computed hash matches the index (mismatch
/// → [`TraceIoError::Malformed`]).
pub struct PackTraceReader<'a, R: Read + Seek> {
    r: &'a mut R,
    entry: PackEntry,
    /// Records already yielded.
    yielded: u64,
    verified: bool,
    hasher: RecordHasher,
    buf: Vec<TraceRecord>,
    /// Encoded payload bytes not yet pulled into the stash (RLE path).
    payload_left: u64,
    /// Raw payload bytes awaiting item decode (RLE path); items may
    /// straddle refills, so parsed bytes advance `stash_pos` and the
    /// remainder compacts forward.
    stash: Vec<u8>,
    stash_pos: usize,
    /// A decoded run not yet fully expanded into yielded chunks.
    pending: Option<(TraceRecord, u64)>,
}

/// Appends as many of `n` copies of `rec` as the chunk has room for to
/// `buf`, hashing each copy; returns the copies left over, if any.
fn expand_run(
    buf: &mut Vec<TraceRecord>,
    hasher: &mut RecordHasher,
    rec: TraceRecord,
    n: u64,
) -> Option<(TraceRecord, u64)> {
    let take = n.min((CHUNK_RECORDS - buf.len()) as u64);
    for _ in 0..take {
        hasher.push(&rec);
    }
    buf.resize(buf.len() + take as usize, rec);
    (n > take).then_some((rec, n - take))
}

/// Stash refill granularity for RLE payloads, matching the plain path's
/// per-chunk read size.
const STASH_BYTES: usize = CHUNK_RECORDS * RECORD_WIRE_BYTES;

impl<R: Read + Seek> PackTraceReader<'_, R> {
    fn records_left(&self) -> u64 {
        self.entry.records - self.yielded
    }

    /// Ensures at least `need` un-parsed stash bytes, refilling from the
    /// payload as required. `Ok(false)` means the payload is cleanly
    /// exhausted (zero bytes left); a partial item left over is malformed.
    fn fill_stash(&mut self, need: usize) -> Result<bool, TraceIoError> {
        loop {
            let avail = self.stash.len() - self.stash_pos;
            if avail >= need {
                return Ok(true);
            }
            if self.payload_left == 0 {
                if avail == 0 {
                    return Ok(false);
                }
                return Err(TraceIoError::Malformed(format!(
                    "trace '{}': truncated RLE item at end of payload",
                    self.entry.name
                )));
            }
            self.stash.drain(..self.stash_pos);
            self.stash_pos = 0;
            let want = (STASH_BYTES - self.stash.len()).min(self.payload_left as usize);
            let start = self.stash.len();
            self.stash.resize(start + want, 0);
            read_exact_or_malformed(self.r, &mut self.stash[start..], "trace payload")?;
            self.payload_left -= want as u64;
        }
    }

    /// Decodes RLE items into `buf` until the chunk is full or the payload
    /// runs dry, carrying partially expanded runs in `pending`. Every
    /// record is hashed as it lands in `buf`, each copy of a run included.
    /// The hash state rides in a local so its chain stays in a register;
    /// an error abandons the stream, and the state with it.
    fn next_chunk_rle(&mut self) -> Result<(), TraceIoError> {
        let mut hasher = self.hasher;
        while self.buf.len() < CHUNK_RECORDS {
            if let Some((rec, n)) = self.pending.take() {
                self.pending = expand_run(&mut self.buf, &mut hasher, rec, n);
                continue;
            }
            // Stash at least one whole item, then decode every whole item
            // the stash holds in one tight pass.
            if !self.fill_stash(RECORD_WIRE_BYTES)? {
                break;
            }
            if self.stash[self.stash_pos + 4] & RLE_WIDTH_FLAG != 0
                && !self.fill_stash(RLE_ITEM_BYTES)?
            {
                unreachable!("fill_stash cannot report clean EOF with bytes stashed");
            }
            self.decode_stashed(&mut hasher)?;
        }
        self.hasher = hasher;
        Ok(())
    }

    /// Decodes the whole items at the front of the stash into `buf`,
    /// stopping when the chunk is full, a run is left `pending`, or the
    /// next item straddles the end of the stash.
    fn decode_stashed(&mut self, hasher: &mut RecordHasher) -> Result<(), TraceIoError> {
        let name = &self.entry.name;
        let records = self.entry.records;
        let stash = &self.stash[self.stash_pos..];
        let buf = &mut self.buf;
        // No run is pending here: one left over ends the caller's loop.
        let mut already = self.yielded + buf.len() as u64;
        let mut pos = 0;
        let decoded = loop {
            if buf.len() >= CHUNK_RECORDS {
                break Ok(());
            }
            let Some(head) = stash.get(pos..pos + RECORD_WIRE_BYTES) else {
                break Ok(());
            };
            let mut head: [u8; RECORD_WIRE_BYTES] = head.try_into().expect("exact slice");
            if head[4] & RLE_WIDTH_FLAG == 0 {
                if already >= records {
                    break Err(TraceIoError::Malformed(format!(
                        "trace '{name}': payload continues past the record count {records}"
                    )));
                }
                let rec = match record_from_wire(&head) {
                    Ok(rec) => rec,
                    Err(e) => break Err(e),
                };
                hasher.push(&rec);
                buf.push(rec);
                already += 1;
                pos += RECORD_WIRE_BYTES;
                continue;
            }
            let Some(count) = stash.get(pos + RECORD_WIRE_BYTES..pos + RLE_ITEM_BYTES) else {
                break Ok(());
            };
            let count = u64::from(u32::from_le_bytes(count.try_into().expect("exact slice")));
            head[4] &= !RLE_WIDTH_FLAG;
            let rec = match record_from_wire(&head) {
                Ok(rec) => rec,
                Err(e) => break Err(e),
            };
            if count < 2 {
                break Err(TraceIoError::Malformed(format!(
                    "trace '{name}': RLE repeat count {count} below 2"
                )));
            }
            if count > records - already {
                break Err(TraceIoError::Malformed(format!(
                    "trace '{name}': RLE run of {count} records overruns the \
                     record count {records}"
                )));
            }
            pos += RLE_ITEM_BYTES;
            already += count;
            if let Some(left) = expand_run(buf, hasher, rec, count) {
                self.pending = Some(left);
                break Ok(());
            }
        };
        self.stash_pos += pos;
        decoded
    }
}

impl<R: Read + Seek> TraceSource for PackTraceReader<'_, R> {
    fn name(&self) -> &str {
        &self.entry.name
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.entry.records)
    }

    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceIoError> {
        let left = self.records_left();
        if left == 0 {
            if !self.verified {
                if self.entry.is_rle()
                    && (self.payload_left > 0 || self.stash.len() > self.stash_pos)
                {
                    return Err(TraceIoError::Malformed(format!(
                        "trace '{}': trailing payload bytes after {} records",
                        self.entry.name, self.entry.records
                    )));
                }
                self.verified = true;
                if self.hasher.finish() != self.entry.content_hash {
                    return Err(TraceIoError::Malformed(format!(
                        "content hash mismatch for trace '{}': index says {:#018x}, payload hashes to {:#018x}",
                        self.entry.name,
                        self.entry.content_hash,
                        self.hasher.finish()
                    )));
                }
            }
            return Ok(None);
        }
        if self.entry.is_rle() {
            self.buf.clear();
            self.next_chunk_rle()?;
            if self.buf.is_empty() {
                return Err(TraceIoError::Malformed(format!(
                    "trace '{}': payload exhausted after {} of {} records",
                    self.entry.name, self.yielded, self.entry.records
                )));
            }
        } else {
            let take = left.min(CHUNK_RECORDS as u64) as usize;
            // The stash is otherwise unused on the plain path; reuse it as
            // the wire buffer so steady-state chunking never allocates
            // (stash_pos stays 0, and the RLE trailing-bytes check at EOF
            // is gated on is_rle).
            self.stash.resize(take * RECORD_WIRE_BYTES, 0);
            read_exact_or_malformed(self.r, &mut self.stash, "trace payload")?;
            self.buf.clear();
            self.buf.reserve(take);
            let mut hasher = self.hasher;
            for rec in self.stash.chunks_exact(RECORD_WIRE_BYTES) {
                let rec: &[u8; RECORD_WIRE_BYTES] = rec.try_into().expect("exact chunks");
                let rec = record_from_wire(rec)?;
                hasher.push(&rec);
                self.buf.push(rec);
            }
            self.hasher = hasher;
        }
        self.yielded += self.buf.len() as u64;
        Ok(Some(&self.buf))
    }
}

/// Writes `traces` into a pack file at `path` (parent directories
/// created), returning the entries written.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_pack_file<'a>(
    path: &Path,
    traces: impl IntoIterator<Item = &'a Trace>,
) -> Result<Vec<PackEntry>, TraceIoError> {
    write_pack_file_with(path, traces, false)
}

/// [`write_pack_file`] with run-length-encoded payloads (module docs):
/// same traces, same content hashes, smaller file when masks run
/// coherently.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_pack_file_rle<'a>(
    path: &Path,
    traces: impl IntoIterator<Item = &'a Trace>,
) -> Result<Vec<PackEntry>, TraceIoError> {
    write_pack_file_with(path, traces, true)
}

fn write_pack_file_with<'a>(
    path: &Path,
    traces: impl IntoIterator<Item = &'a Trace>,
    rle: bool,
) -> Result<Vec<PackEntry>, TraceIoError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut w = PackWriter::new(BufWriter::new(File::create(path)?))?;
    w.set_rle(rle);
    for t in traces {
        w.add_trace(t)?;
    }
    let entries = w.entries().to_vec();
    w.finish()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_isa::mask::ExecMask;
    use iwc_isa::types::DataType;
    use std::io::Cursor;

    fn sample(name: &str, n: usize, seed: u32) -> Trace {
        let mut t = Trace::new(name);
        for i in 0..n {
            let bits = 1 + (seed.wrapping_mul(0x9E37).wrapping_add(i as u32) % 0xFFFF);
            t.push(ExecMask::new(bits, 16), DataType::F);
        }
        t
    }

    fn pack_bytes(traces: &[Trace]) -> Vec<u8> {
        pack_bytes_with(traces, false)
    }

    fn pack_bytes_with(traces: &[Trace], rle: bool) -> Vec<u8> {
        let mut w = PackWriter::new(Cursor::new(Vec::new())).unwrap();
        w.set_rle(rle);
        for t in traces {
            w.add_trace(t).unwrap();
        }
        w.finish().unwrap().into_inner()
    }

    /// Hand-rolled version-1 pack (24-byte index entries, plain payload)
    /// — the on-disk format every pre-RLE pack in the wild uses.
    fn v1_pack_bytes(traces: &[Trace]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&PACK_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(traces.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // index offset, patched
        let mut offsets = Vec::new();
        for t in traces {
            offsets.push(bytes.len() as u64);
            for r in &t.records {
                bytes.extend_from_slice(&record_to_wire(r));
            }
        }
        let index_offset = bytes.len() as u64;
        for (t, &offset) in traces.iter().zip(&offsets) {
            bytes.extend_from_slice(&(t.name.len() as u32).to_le_bytes());
            bytes.extend_from_slice(t.name.as_bytes());
            bytes.extend_from_slice(&(t.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crate::hash::trace_hash(t).to_le_bytes());
            bytes.extend_from_slice(&offset.to_le_bytes());
        }
        bytes[16..24].copy_from_slice(&index_offset.to_le_bytes());
        bytes
    }

    #[test]
    fn roundtrip_multiple_traces() {
        let traces = vec![
            sample("a", CHUNK_RECORDS + 5, 1),
            sample("b", 17, 2),
            Trace::new("empty"),
        ];
        let bytes = pack_bytes(&traces);
        let mut pack = CorpusPack::open(Cursor::new(bytes)).unwrap();
        assert_eq!(pack.len(), 3);
        assert_eq!(pack.find("b"), Some(1));
        assert_eq!(pack.find("missing"), None);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(pack.entries()[i].records, t.len() as u64);
            assert_eq!(pack.entries()[i].content_hash, crate::hash::trace_hash(t));
            assert_eq!(&pack.read_trace(i).unwrap(), t);
        }
        // Random access is order-independent.
        assert_eq!(pack.read_trace(1).unwrap(), traces[1]);
        assert_eq!(pack.read_trace(0).unwrap(), traces[0]);
    }

    #[test]
    fn stream_chunks_and_len_hint() {
        let t = sample("chunky", 2 * CHUNK_RECORDS + 3, 7);
        let bytes = pack_bytes(std::slice::from_ref(&t));
        let mut pack = CorpusPack::open(Cursor::new(bytes)).unwrap();
        let mut src = pack.stream(0).unwrap();
        assert_eq!(src.name(), "chunky");
        assert_eq!(src.len_hint(), Some(t.len() as u64));
        let mut seen = 0usize;
        while let Some(chunk) = src.next_chunk().unwrap() {
            assert!(chunk.len() <= CHUNK_RECORDS);
            seen += chunk.len();
        }
        assert_eq!(seen, t.len());
        assert!(src.next_chunk().unwrap().is_none(), "None is sticky");
    }

    #[test]
    fn content_hash_is_index_derived_and_name_sensitive() {
        let a = pack_bytes(&[sample("x", 100, 3)]);
        let b = pack_bytes(&[sample("x", 100, 3)]);
        let c = pack_bytes(&[sample("y", 100, 3)]);
        let hash = |bytes: Vec<u8>| CorpusPack::open(Cursor::new(bytes)).unwrap().content_hash();
        assert_eq!(hash(a.clone()), hash(b));
        assert_ne!(hash(a), hash(c), "pack hash covers trace names");
    }

    #[test]
    fn empty_pack_roundtrips() {
        let bytes = pack_bytes(&[]);
        assert_eq!(bytes.len() as u64, PACK_HEADER_BYTES);
        let pack = CorpusPack::open(Cursor::new(bytes)).unwrap();
        assert!(pack.is_empty());
    }

    /// A coherent trace: long identical-mask runs with scattered breaks,
    /// exercising run carries across chunk boundaries.
    fn runny(name: &str, runs: &[(u32, DataType, usize)]) -> Trace {
        let mut t = Trace::new(name);
        for &(bits, dtype, n) in runs {
            for _ in 0..n {
                t.push(ExecMask::new(bits, 16), dtype);
            }
        }
        t
    }

    #[test]
    fn rle_roundtrips_and_matches_plain_hashes() {
        let traces = vec![
            runny(
                "coherent",
                &[
                    (0xFFFF, DataType::F, 3 * CHUNK_RECORDS + 11),
                    (0x00FF, DataType::F, 1),
                    (0xFFFF, DataType::Df, 2),
                    (0x0001, DataType::Uw, CHUNK_RECORDS),
                ],
            ),
            sample("incoherent", CHUNK_RECORDS + 9, 5),
            runny("giant", &[(0xAAAA, DataType::F, 5 * CHUNK_RECORDS)]),
            Trace::new("empty"),
        ];
        let plain = pack_bytes(&traces);
        let rle = pack_bytes_with(&traces, true);
        assert!(
            rle.len() < plain.len(),
            "RLE pack ({}) should undercut plain ({}) on a coherent corpus",
            rle.len(),
            plain.len()
        );

        let mut p = CorpusPack::open(Cursor::new(plain)).unwrap();
        let mut r = CorpusPack::open(Cursor::new(rle)).unwrap();
        assert_eq!(
            p.content_hash(),
            r.content_hash(),
            "pack hash is payload-encoding independent"
        );
        for (i, t) in traces.iter().enumerate() {
            assert!(r.entries()[i].is_rle());
            assert_eq!(r.entries()[i].content_hash, p.entries()[i].content_hash);
            assert!(r.entries()[i].byte_len() <= p.entries()[i].byte_len());
            assert_eq!(&r.read_trace(i).unwrap(), t);
            assert_eq!(&p.read_trace(i).unwrap(), t);
        }
    }

    #[test]
    fn rle_streams_in_chunk_sized_slices() {
        let t = runny("mono", &[(0xFFFF, DataType::F, 2 * CHUNK_RECORDS + 3)]);
        let bytes = pack_bytes_with(std::slice::from_ref(&t), true);
        // A single run compresses to one 10-byte item.
        let mut pack = CorpusPack::open(Cursor::new(bytes)).unwrap();
        assert_eq!(pack.entries()[0].byte_len(), RLE_ITEM_BYTES as u64);
        let mut src = pack.stream(0).unwrap();
        let mut sizes = Vec::new();
        while let Some(chunk) = src.next_chunk().unwrap() {
            sizes.push(chunk.len());
        }
        assert_eq!(sizes, vec![CHUNK_RECORDS, CHUNK_RECORDS, 3]);
    }

    #[test]
    fn rle_rejects_corrupt_items() {
        let t = runny("mono", &[(0xFFFF, DataType::F, 100)]);
        let base = pack_bytes_with(std::slice::from_ref(&t), true);

        // Repeat count below 2.
        let mut low = base.clone();
        low[PACK_HEADER_BYTES as usize + RECORD_WIRE_BYTES..][..4]
            .copy_from_slice(&1u32.to_le_bytes());
        let err = CorpusPack::open(Cursor::new(low))
            .unwrap()
            .read_trace(0)
            .expect_err("count below 2");
        assert!(err.to_string().contains("below 2"), "{err}");

        // Run overrunning the record count.
        let mut over = base.clone();
        over[PACK_HEADER_BYTES as usize + RECORD_WIRE_BYTES..][..4]
            .copy_from_slice(&101u32.to_le_bytes());
        let err = CorpusPack::open(Cursor::new(over))
            .unwrap()
            .read_trace(0)
            .expect_err("overrun");
        assert!(err.to_string().contains("overruns"), "{err}");

        // Run undershooting the record count: payload dries up early.
        let mut under = base;
        under[PACK_HEADER_BYTES as usize + RECORD_WIRE_BYTES..][..4]
            .copy_from_slice(&99u32.to_le_bytes());
        let err = CorpusPack::open(Cursor::new(under))
            .unwrap()
            .read_trace(0)
            .expect_err("undershoot");
        assert!(err.to_string().contains("payload exhausted"), "{err}");
    }

    #[test]
    fn version_1_packs_stay_readable() {
        let traces = vec![sample("legacy-a", CHUNK_RECORDS + 5, 1), sample("b", 17, 2)];
        let v1 = v1_pack_bytes(&traces);
        let v2 = pack_bytes(&traces);
        assert_ne!(v1, v2, "the formats differ on disk");
        let mut old = CorpusPack::open(Cursor::new(v1)).unwrap();
        let new = CorpusPack::open(Cursor::new(v2)).unwrap();
        assert_eq!(
            old.content_hash(),
            new.content_hash(),
            "pack hash is version independent"
        );
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(old.entries()[i].flags, 0);
            assert_eq!(old.entries()[i].byte_len(), (t.len() * 6) as u64);
            assert_eq!(&old.read_trace(i).unwrap(), t);
        }
    }
}
