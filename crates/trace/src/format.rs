//! Execution-mask trace format.
//!
//! A trace is a sequence of `(mask, width, dtype)` records — everything the
//! intra-warp compaction analysis needs (§5.1: the functional model was
//! instrumented "to obtain SIMD execution masks for every executed
//! instruction"). Traces serialize to a compact little-endian binary format
//! with a magic header, and deserialize with full validation.

use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// One executed SIMD instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Execution-mask bits.
    pub bits: u32,
    /// SIMD width (1, 4, 8, 16, 32).
    pub width: u8,
    /// Execution data type.
    pub dtype: DataType,
}

impl TraceRecord {
    /// Creates a record from a mask and type.
    pub fn new(mask: ExecMask, dtype: DataType) -> Self {
        Self {
            bits: mask.bits(),
            width: mask.width() as u8,
            dtype,
        }
    }

    /// The execution mask.
    pub fn mask(&self) -> ExecMask {
        ExecMask::new(self.bits, u32::from(self.width))
    }
}

/// A named execution-mask trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name.
    pub name: String,
    /// Executed instructions, in order.
    pub records: Vec<TraceRecord>,
}

/// Magic bytes of the binary trace format.
pub const TRACE_MAGIC: [u8; 4] = *b"IWCT";

/// Trace I/O failure.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a trace (bad magic or field).
    Malformed(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace i/o error: {e}"),
            Self::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Wire size of one record: bits (u32 LE) + width + dtype code.
pub(crate) const RECORD_WIRE_BYTES: usize = 6;

/// Encodes one record in the `IWCT` wire layout (shared with the pack
/// payload section).
pub(crate) fn record_to_wire(r: &TraceRecord) -> [u8; RECORD_WIRE_BYTES] {
    let b = r.bits.to_le_bytes();
    [b[0], b[1], b[2], b[3], r.width, dtype_code(r.dtype)]
}

/// Decodes one record from the `IWCT` wire layout, validating width and
/// dtype.
pub(crate) fn record_from_wire(rec: &[u8; RECORD_WIRE_BYTES]) -> Result<TraceRecord, TraceIoError> {
    let bits = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
    let width = rec[4];
    if !matches!(width, 1 | 4 | 8 | 16 | 32) {
        return Err(TraceIoError::Malformed(format!("bad width {width}")));
    }
    let dtype = dtype_from(rec[5])?;
    Ok(TraceRecord { bits, width, dtype })
}

fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Ub => 0,
        DataType::B => 1,
        DataType::Uw => 2,
        DataType::W => 3,
        DataType::Hf => 4,
        DataType::Ud => 5,
        DataType::D => 6,
        DataType::F => 7,
        DataType::Uq => 8,
        DataType::Q => 9,
        DataType::Df => 10,
    }
}

fn dtype_from(code: u8) -> Result<DataType, TraceIoError> {
    Ok(match code {
        0 => DataType::Ub,
        1 => DataType::B,
        2 => DataType::Uw,
        3 => DataType::W,
        4 => DataType::Hf,
        5 => DataType::Ud,
        6 => DataType::D,
        7 => DataType::F,
        8 => DataType::Uq,
        9 => DataType::Q,
        10 => DataType::Df,
        other => return Err(TraceIoError::Malformed(format!("bad dtype code {other}"))),
    })
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one instruction.
    pub fn push(&mut self, mask: ExecMask, dtype: DataType) {
        self.records.push(TraceRecord::new(mask, dtype));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Builds a trace from the simulator's captured mask stream
    /// (`SimResult::eu.mask_trace`, recorded under
    /// `GpuConfig::with_mask_capture(true)`). Data types are not captured by
    /// the hook, so records are tagged `F` (the common case); cycle analysis
    /// is type-scaled only for 64-bit types, which the capture path does not
    /// produce.
    pub fn from_mask_stream(name: impl Into<String>, masks: &[(u32, u8)]) -> Self {
        Self {
            name: name.into(),
            records: masks
                .iter()
                .map(|&(bits, width)| TraceRecord {
                    bits,
                    width,
                    dtype: DataType::F,
                })
                .collect(),
        }
    }

    /// Serializes to the compact binary format.
    ///
    /// # Errors
    ///
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceIoError> {
        w.write_all(&TRACE_MAGIC)?;
        let name = self.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.records.len() as u64).to_le_bytes())?;
        for r in &self.records {
            w.write_all(&record_to_wire(r))?;
        }
        Ok(())
    }

    /// Deserializes from the compact binary format, validating every record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Malformed`] on bad magic, widths, or types.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceIoError::Malformed("bad magic".into()));
        }
        let mut len4 = [0u8; 4];
        r.read_exact(&mut len4)?;
        let name_len = u32::from_le_bytes(len4) as usize;
        if name_len > 4096 {
            return Err(TraceIoError::Malformed("unreasonable name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| TraceIoError::Malformed("name is not UTF-8".into()))?;
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let count = u64::from_le_bytes(len8);
        let mut records = Vec::with_capacity(count.min(1 << 24) as usize);
        for _ in 0..count {
            let mut rec = [0u8; RECORD_WIRE_BYTES];
            r.read_exact(&mut rec)?;
            records.push(record_from_wire(&rec)?);
        }
        Ok(Self { name, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut t = Trace::new("unit");
        t.push(ExecMask::new(0xAAAA, 16), DataType::F);
        t.push(ExecMask::new(0x0F, 8), DataType::Df);
        t.push(ExecMask::all(32), DataType::Ud);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let e = Trace::read_from(&b"NOPE\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(e, TraceIoError::Malformed(_)));
    }

    #[test]
    fn rejects_bad_width() {
        let mut buf = Vec::new();
        Trace {
            name: "x".into(),
            records: vec![],
        }
        .write_to(&mut buf)
        .unwrap();
        // Append a fake record with width 3 after patching the count.
        let count_pos = buf.len() - 8;
        buf[count_pos..count_pos + 8].copy_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0, 0, 3, 7]);
        let e = Trace::read_from(&buf[..]).unwrap_err();
        assert!(matches!(e, TraceIoError::Malformed(_)), "{e}");
    }

    #[test]
    fn from_mask_stream() {
        let t = Trace::from_mask_stream("cap", &[(0xF0F0, 16), (0x0F, 8)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.records[0].mask(), ExecMask::new(0xF0F0, 16));
        assert_eq!(t.records[1].mask().width(), 8);
    }

    #[test]
    fn all_dtypes_roundtrip() {
        let mut t = Trace::new("types");
        for d in DataType::ALL {
            t.push(ExecMask::all(16), d);
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&buf[..]).unwrap(), t);
    }
}
