//! Stable content hashing for execution-mask traces.
//!
//! The corpus pack format ([`crate::pack`]) and the content-addressed
//! results cache ([`crate::store`]) both key on the *content* of a record
//! stream, so the canonical trace hash lives here, next to the format it
//! hashes. `iwc_workloads::hash::trace_hash` delegates to this module —
//! one encoding, one hash, however the trace reaches the process (builder
//! DSL, `.iwct` file, pack payload, or base64 serve job).
//!
//! The encoding per record is `bits` (little-endian u32), `width` (one
//! byte), and the `Debug` form of the dtype — byte-compatible with the
//! pre-pack `iwc_workloads::hash` encoding, so hashes computed before this
//! module existed stay valid. Trace *names* are deliberately excluded:
//! identical record streams are the same content whatever they are called.
//!
//! FNV-1a is not collision-resistant against adversaries; callers treat a
//! hash hit as identity for *well-behaved* inputs (the serve cache and the
//! results cache both document this).

use crate::format::{Trace, TraceRecord};
use iwc_isa::types::DataType;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fnv_step(self.0, b);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One FNV-1a round: xor in a byte, multiply by the prime.
#[inline(always)]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Incremental content hasher over a record stream — the streaming
/// counterpart of [`trace_hash`], used by the pack writer and reader to
/// hash traces record by record as they are encoded or decoded.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecordHasher(Fnv1a);

impl RecordHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(Fnv1a::new())
    }

    /// Absorbs one record: its four bit bytes (LE), the width, then the
    /// dtype's `Debug` bytes, as straight-line FNV-1a rounds.
    #[inline]
    pub fn push(&mut self, r: &TraceRecord) {
        let [b0, b1, b2, b3] = r.bits.to_le_bytes();
        let name = dtype_debug_bytes(r.dtype);
        let mut h = self.0 .0;
        h = fnv_step(h, b0);
        h = fnv_step(h, b1);
        h = fnv_step(h, b2);
        h = fnv_step(h, b3);
        h = fnv_step(h, r.width);
        h = fnv_step(h, name[0]);
        if let [_, second] = name {
            h = fnv_step(h, *second);
        }
        self.0 .0 = h;
    }

    /// Absorbs a chunk of records.
    pub fn push_all(&mut self, records: &[TraceRecord]) {
        for r in records {
            self.push(r);
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The `Debug` rendering of each dtype as static bytes: one or two
/// bytes, never empty. The hash encoding predates this table (module
/// docs: byte-compatible with the original `write!("{:?}")` form), so
/// every arm must match `Debug` exactly — asserted by
/// `debug_byte_table_matches_debug`. A lookup beats the formatting
/// machinery by an order of magnitude on the hashing hot path (30M
/// records per corpus pack scan).
fn dtype_debug_bytes(d: DataType) -> &'static [u8] {
    match d {
        DataType::Ub => b"Ub",
        DataType::B => b"B",
        DataType::Uw => b"Uw",
        DataType::W => b"W",
        DataType::Hf => b"Hf",
        DataType::Ud => b"Ud",
        DataType::D => b"D",
        DataType::F => b"F",
        DataType::Uq => b"Uq",
        DataType::Q => b"Q",
        DataType::Df => b"Df",
    }
}

/// Stable content hash of an execution-mask trace: the record stream
/// (mask bits, width, dtype), name excluded.
pub fn trace_hash(trace: &Trace) -> u64 {
    let mut h = RecordHasher::new();
    h.push_all(&trace.records);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_isa::mask::ExecMask;
    use iwc_isa::types::DataType;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut t = Trace::new("t");
        t.push(ExecMask::new(0xAAAA, 16), DataType::F);
        t.push(ExecMask::new(0x0F, 8), DataType::Df);
        t.push(ExecMask::all(32), DataType::Ud);
        let mut h = RecordHasher::new();
        for r in &t.records {
            h.push(r);
        }
        assert_eq!(h.finish(), trace_hash(&t));

        // Chunked absorption is the same stream.
        let mut h2 = RecordHasher::new();
        h2.push_all(&t.records[..2]);
        h2.push_all(&t.records[2..]);
        assert_eq!(h2.finish(), trace_hash(&t));
    }

    #[test]
    fn name_is_excluded_and_records_matter() {
        let mut a = Trace::new("a");
        a.push(ExecMask::new(0b1010, 4), DataType::F);
        let mut b = Trace::new("b");
        b.push(ExecMask::new(0b1010, 4), DataType::F);
        assert_eq!(trace_hash(&a), trace_hash(&b));

        let mut c = Trace::new("a");
        c.push(ExecMask::new(0b1011, 4), DataType::F);
        assert_ne!(trace_hash(&a), trace_hash(&c));

        let mut d = Trace::new("a");
        d.push(ExecMask::new(0b1010, 4), DataType::D);
        assert_ne!(trace_hash(&a), trace_hash(&d));
    }

    #[test]
    fn push_matches_the_documented_byte_encoding() {
        // The straight-line `push` must absorb exactly the documented
        // bytes: bits (LE u32), width, then the dtype's Debug form.
        let edges = [
            0,
            1,
            0x8000_0000,
            u32::MAX,
            0xAAAA_AAAA,
            0xFFFF,
            0x00FF_00FF,
        ];
        for d in DataType::ALL {
            for width in [1u8, 4, 8, 16, 32] {
                for bits in edges {
                    let r = TraceRecord {
                        bits,
                        width,
                        dtype: d,
                    };
                    let mut bytes = bits.to_le_bytes().to_vec();
                    bytes.push(width);
                    bytes.extend_from_slice(format!("{d:?}").as_bytes());
                    // Chain from a non-basis state too, as mid-stream.
                    for seed in [&b""[..], b"prefix"] {
                        let mut want = Fnv1a::new();
                        want.write(seed);
                        want.write(&bytes);
                        let mut got = RecordHasher(Fnv1a::new());
                        got.0.write(seed);
                        got.push(&r);
                        assert_eq!(got.finish(), want.finish(), "{d:?} w{width} {bits:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn trace_hash_is_pinned() {
        // Every pack index and results-cache key embeds this hash; a
        // change to the encoding would silently re-key all of them.
        let mut t = Trace::new("pinned");
        t.push(ExecMask::new(0xAAAA, 16), DataType::F);
        t.push(ExecMask::new(0x0F, 8), DataType::Df);
        t.push(ExecMask::all(32), DataType::Ud);
        t.push(ExecMask::new(0b1010, 4), DataType::Uw);
        t.push(ExecMask::new(1, 1), DataType::B);
        assert_eq!(trace_hash(&t), 0x66a7_3a55_e87d_a231);
    }

    #[test]
    fn debug_byte_table_matches_debug() {
        // The static table IS the hash encoding; drifting from the Debug
        // rendering would silently change every content hash.
        for d in DataType::ALL {
            assert_eq!(
                dtype_debug_bytes(d),
                format!("{d:?}").as_bytes(),
                "table entry for {d:?}"
            );
        }
    }
}
