//! Data types of the modeled ISA.
//!
//! The execution-cycle cost of an instruction depends on its SIMD width *and*
//! the operand data type: the 4-wide ALU consumes four 32-bit elements per
//! cycle, so wider types (DF/Q) take proportionally more cycles per quad and
//! narrower types (HF/W/B) fewer, exactly as discussed in §4.1 of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Element data type of an operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Unsigned byte (8b).
    Ub,
    /// Signed byte (8b).
    B,
    /// Unsigned word (16b).
    Uw,
    /// Signed word (16b).
    W,
    /// Half-precision float (16b).
    Hf,
    /// Unsigned doubleword (32b).
    Ud,
    /// Signed doubleword (32b).
    D,
    /// Single-precision float (32b).
    F,
    /// Unsigned quadword (64b).
    Uq,
    /// Signed quadword (64b).
    Q,
    /// Double-precision float (64b).
    Df,
}

impl DataType {
    /// Every data type, in declaration order.
    pub const ALL: [DataType; 11] = [
        Self::Ub,
        Self::B,
        Self::Uw,
        Self::W,
        Self::Hf,
        Self::Ud,
        Self::D,
        Self::F,
        Self::Uq,
        Self::Q,
        Self::Df,
    ];

    /// Size of one element in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            Self::Ub | Self::B => 1,
            Self::Uw | Self::W | Self::Hf => 2,
            Self::Ud | Self::D | Self::F => 4,
            Self::Uq | Self::Q | Self::Df => 8,
        }
    }

    /// True for floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, Self::Hf | Self::F | Self::Df)
    }

    /// True for signed integer types.
    pub fn is_signed_int(self) -> bool {
        matches!(self, Self::B | Self::W | Self::D | Self::Q)
    }

    /// Number of 32-bit ALU element slots one element of this type occupies
    /// (64-bit types are pumped through the 32-bit datapath twice; sub-32-bit
    /// types still occupy a full slot in this coarse measure).
    pub fn alu_slots(self) -> u32 {
        match self.size_bytes() {
            8 => 2,
            _ => 1,
        }
    }

    /// Number of elements of this type the 4×32-bit ALU datapath consumes
    /// per execution wave (16 bytes/cycle): 2 for 64-bit types, 4 for
    /// 32-bit, 8 for 16-bit, 16 for bytes. This is the granularity at which
    /// cycle compression operates — the reason §4.1 notes that "benefits
    /// may be higher for wider datatypes … and lower for narrow datatypes":
    /// a dead wave requires a whole *group* of this many contiguous
    /// channels to be disabled.
    pub fn elements_per_wave(self) -> u32 {
        16 / self.size_bytes()
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Ub => "ub",
            Self::B => "b",
            Self::Uw => "uw",
            Self::W => "w",
            Self::Hf => "hf",
            Self::Ud => "ud",
            Self::D => "d",
            Self::F => "f",
            Self::Uq => "uq",
            Self::Q => "q",
            Self::Df => "df",
        };
        f.write_str(s)
    }
}

/// A scalar value of one channel, used by immediates and by the functional
/// evaluator. All integer payloads are stored widened to 64 bits.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Scalar {
    /// Floating-point payload (used for HF/F/DF operands).
    F(f64),
    /// Signed integer payload (B/W/D/Q).
    I(i64),
    /// Unsigned integer payload (UB/UW/UD/UQ).
    U(u64),
}

impl Scalar {
    /// Interpret as f64, converting integers.
    pub fn as_f64(self) -> f64 {
        match self {
            Self::F(v) => v,
            Self::I(v) => v as f64,
            Self::U(v) => v as f64,
        }
    }

    /// Interpret as i64, truncating floats toward zero.
    pub fn as_i64(self) -> i64 {
        match self {
            Self::F(v) => v as i64,
            Self::I(v) => v,
            Self::U(v) => v as i64,
        }
    }

    /// Interpret as u64, truncating floats toward zero and wrapping negatives.
    pub fn as_u64(self) -> u64 {
        match self {
            Self::F(v) => v as u64,
            Self::I(v) => v as u64,
            Self::U(v) => v,
        }
    }

    /// True when the value is numerically zero.
    pub fn is_zero(self) -> bool {
        match self {
            Self::F(v) => v == 0.0,
            Self::I(v) => v == 0,
            Self::U(v) => v == 0,
        }
    }
}

impl From<f32> for Scalar {
    fn from(v: f32) -> Self {
        Self::F(f64::from(v))
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Self::F(v)
    }
}

impl From<i32> for Scalar {
    fn from(v: i32) -> Self {
        Self::I(i64::from(v))
    }
}

impl From<u32> for Scalar {
    fn from(v: u32) -> Self {
        Self::U(u64::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DataType::F.size_bytes(), 4);
        assert_eq!(DataType::Df.size_bytes(), 8);
        assert_eq!(DataType::Hf.size_bytes(), 2);
        assert_eq!(DataType::Ub.size_bytes(), 1);
    }

    #[test]
    fn elements_per_wave_by_size() {
        assert_eq!(DataType::Df.elements_per_wave(), 2);
        assert_eq!(DataType::F.elements_per_wave(), 4);
        assert_eq!(DataType::Hf.elements_per_wave(), 8);
        assert_eq!(DataType::Ub.elements_per_wave(), 16);
    }

    #[test]
    fn alu_slots_double_pumped_for_64b() {
        assert_eq!(DataType::Df.alu_slots(), 2);
        assert_eq!(DataType::Q.alu_slots(), 2);
        assert_eq!(DataType::F.alu_slots(), 1);
        assert_eq!(DataType::W.alu_slots(), 1);
    }

    #[test]
    fn classification() {
        assert!(DataType::F.is_float());
        assert!(!DataType::Ud.is_float());
        assert!(DataType::D.is_signed_int());
        assert!(!DataType::Ud.is_signed_int());
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::from(2.5f32).as_f64(), 2.5);
        assert_eq!(Scalar::from(-3i32).as_i64(), -3);
        assert_eq!(Scalar::from(7u32).as_u64(), 7);
        assert_eq!(Scalar::F(-1.9).as_i64(), -1);
        assert!(Scalar::U(0).is_zero());
        assert!(!Scalar::F(0.1).is_zero());
    }
}
