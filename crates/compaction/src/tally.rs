//! Whole-kernel cycle accounting.
//!
//! [`CompactionTally`] accumulates per-instruction execution masks into the
//! aggregate quantities the paper reports: per-mode EU execution cycles
//! (Fig. 10), SIMD efficiency (Fig. 3), the SIMD utilization breakdown
//! (Fig. 9), and operand-fetch savings.

use crate::cycles::{CompactionMode, CycleBreakdown};
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// SIMD utilization bucket of one instruction (Fig. 9 categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilBucket {
    /// SIMD16 instruction with 1–4 active channels (3 cycles saveable).
    S16Active1To4,
    /// SIMD16 with 5–8 active (2 cycles saveable).
    S16Active5To8,
    /// SIMD16 with 9–12 active (1 cycle saveable).
    S16Active9To12,
    /// SIMD16 with 13–16 active (no compaction possible).
    S16Active13To16,
    /// SIMD8 with 1–4 active (1 cycle saveable).
    S8Active1To4,
    /// SIMD8 with 5–8 active (no compaction possible).
    S8Active5To8,
    /// Any other width, or an all-disabled mask.
    Other,
}

impl UtilBucket {
    /// Classifies one mask.
    pub fn of(mask: ExecMask) -> Self {
        let a = mask.active_channels();
        match (mask.width(), a) {
            (_, 0) => Self::Other,
            (16, 1..=4) => Self::S16Active1To4,
            (16, 5..=8) => Self::S16Active5To8,
            (16, 9..=12) => Self::S16Active9To12,
            (16, _) => Self::S16Active13To16,
            (8, 1..=4) => Self::S8Active1To4,
            (8, _) => Self::S8Active5To8,
            _ => Self::Other,
        }
    }

    /// All buckets in Fig. 9 legend order.
    pub const ALL: [UtilBucket; 7] = [
        UtilBucket::S16Active1To4,
        UtilBucket::S16Active5To8,
        UtilBucket::S16Active9To12,
        UtilBucket::S16Active13To16,
        UtilBucket::S8Active1To4,
        UtilBucket::S8Active5To8,
        UtilBucket::Other,
    ];

    /// Fig. 9 legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::S16Active1To4 => "1-4/16",
            Self::S16Active5To8 => "5-8/16",
            Self::S16Active9To12 => "9-12/16",
            Self::S16Active13To16 => "13-16/16",
            Self::S8Active1To4 => "1-4/8",
            Self::S8Active5To8 => "5-8/8",
            Self::Other => "other",
        }
    }
}

/// Aggregated compaction statistics over an instruction stream.
///
/// # Examples
///
/// ```
/// use iwc_compaction::{CompactionMode, CompactionTally};
/// use iwc_isa::{DataType, ExecMask};
///
/// let mut t = CompactionTally::new();
/// t.add(ExecMask::new(0xF0F0, 16), DataType::F); // BCC halves this one
/// t.add(ExecMask::all(16), DataType::F);         // incompressible
/// assert_eq!(t.simd_efficiency(), 0.75);
/// assert_eq!(t.reduction_vs_ivb(CompactionMode::Bcc), 0.25);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CompactionTally {
    /// Per-mode execution-cycle totals.
    pub cycles: CycleBreakdown,
    /// Number of instructions tallied.
    pub instructions: u64,
    /// Sum of active channels over all instructions.
    pub active_channels: u64,
    /// Sum of SIMD widths over all instructions.
    pub total_channels: u64,
    /// Instruction counts per utilization bucket.
    pub buckets: [u64; 7],
    /// Operand-fetch register-half accesses saved by BCC.
    pub bcc_fetches_saved: u64,
    /// Channels routed through the SCC swizzle crossbar.
    pub scc_swizzles: u64,
}

impl CompactionTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one executed instruction.
    pub fn add(&mut self, mask: ExecMask, dtype: DataType) {
        self.add_delta(&TallyDelta::of(mask, dtype));
    }

    /// Adds one executed instruction from its precomputed contribution.
    ///
    /// Hot issue paths compute the [`TallyDelta`] once per distinct
    /// `(mask, dtype)` (see [`TallyMemo`]) and apply it to several tallies;
    /// the result is identical to calling [`add`](Self::add) on each.
    pub fn add_delta(&mut self, d: &TallyDelta) {
        self.cycles.accumulate(d.cycles);
        self.instructions += 1;
        self.active_channels += d.active_channels;
        self.total_channels += d.total_channels;
        self.buckets[d.bucket] += 1;
        self.bcc_fetches_saved += d.bcc_fetches_saved;
        self.scc_swizzles += d.scc_swizzles;
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Self) {
        self.cycles.accumulate(other.cycles);
        self.instructions += other.instructions;
        self.active_channels += other.active_channels;
        self.total_channels += other.total_channels;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.bcc_fetches_saved += other.bcc_fetches_saved;
        self.scc_swizzles += other.scc_swizzles;
    }

    /// Kernel SIMD efficiency: average enabled channels / average width
    /// (the Fig. 3 metric).
    pub fn simd_efficiency(&self) -> f64 {
        if self.total_channels == 0 {
            1.0
        } else {
            self.active_channels as f64 / self.total_channels as f64
        }
    }

    /// True when the workload counts as *coherent* under the paper's 95 %
    /// SIMD-efficiency threshold (§5.3).
    pub fn is_coherent(&self) -> bool {
        self.simd_efficiency() >= 0.95
    }

    /// Fraction of instructions in each utilization bucket (Fig. 9 bars).
    pub fn bucket_fractions(&self) -> [(UtilBucket, f64); 7] {
        let n = self.instructions.max(1) as f64;
        let mut out = [(UtilBucket::Other, 0.0); 7];
        for (i, b) in UtilBucket::ALL.iter().enumerate() {
            out[i] = (*b, self.buckets[i] as f64 / n);
        }
        out
    }

    /// EU execution-cycle reduction of `mode` relative to the Ivy Bridge
    /// baseline (the Fig. 10 quantity).
    pub fn reduction_vs_ivb(&self, mode: CompactionMode) -> f64 {
        self.cycles.reduction_vs_ivb(mode)
    }
}

/// Precomputed [`CompactionTally::add`] contribution of one executed
/// instruction. Every field is a pure function of `(mask, dtype)`, so the
/// hot issue path can evaluate the four cycle models, the utilization
/// bucket, and the swizzle cost once per distinct mask and replay the
/// result into several tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TallyDelta {
    cycles: CycleBreakdown,
    active_channels: u64,
    total_channels: u64,
    bucket: usize,
    bcc_fetches_saved: u64,
    scc_swizzles: u64,
}

impl TallyDelta {
    /// Computes the contribution of one `(mask, dtype)` instruction.
    pub fn of(mask: ExecMask, dtype: DataType) -> Self {
        let bucket = UtilBucket::of(mask);
        // Fetch/swizzle accounting assumes a representative 2-source op.
        let idle_quads = u64::from(mask.quad_count() - mask.active_quads().min(mask.quad_count()));
        Self {
            cycles: CycleBreakdown::of(mask, dtype),
            active_channels: u64::from(mask.active_channels()),
            total_channels: u64::from(mask.width()),
            bucket: UtilBucket::ALL
                .iter()
                .position(|&b| b == bucket)
                .expect("bucket in ALL"),
            bcc_fetches_saved: 2 * idle_quads,
            // Exact swizzled-channel count of the Fig. 6 algorithm, served
            // from the process-wide schedule memo (O(1) on repeated masks).
            scc_swizzles: u64::from(crate::scc::SccCost::of(mask).swizzles),
        }
    }
}

/// Direct-mapped memo over [`TallyDelta::of`].
///
/// The memo is transparent: [`delta`](Self::delta) always returns exactly
/// [`TallyDelta::of`]`(mask, dtype)` and [`charge`](Self::charge) always
/// equals [`CompactionTally::add`], whatever the way count and whatever
/// was cached before, so sizing and reuse are pure performance choices.
/// Collisions just recompute.
///
/// Each way is one 16-byte slot: the `(bits, width, dtype)` key next to
/// the nine per-instruction tally fields, each stored as a byte (the
/// largest, 32 channels, fits at any legal width). A hit reads one slot
/// in one cache line, where an unpacked [`TallyDelta`] alone is 72 bytes.
/// Two sizes matter in practice:
///
/// * the [`Default`] memo ([`TallyMemo::DEFAULT_WAYS`]) — an EU's issue
///   path interleaves a handful of threads whose masks repeat, so a few
///   ways keep all of them resident at negligible footprint;
/// * the analyzer memo ([`TallyMemo::ANALYZER_WAYS`]) — divergence traces
///   carry thousands of *distinct* masks (the expanded corpus peaks past
///   20k per trace), which thrashes a small memo into recomputing the
///   four cycle models and the SCC swizzle cost nearly every record.
///   Sized to the full SIMD16 mask space, misses are collisions only.
#[derive(Clone, Debug)]
pub struct TallyMemo {
    /// Right-shift applied to the 32-bit Fibonacci product: keeps the top
    /// `log2(ways)` bits, so the table length is always a power of two.
    shift: u32,
    slots: Vec<MemoSlot>,
}

/// One memo way: the key and the packed [`TallyDelta`] of that key.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(16))]
struct MemoSlot {
    bits: u32,
    /// SIMD width; 0 marks an empty way (no mask is 0 channels wide).
    width: u8,
    /// `DataType` discriminant.
    dtype: u8,
    /// Cycles under baseline, Ivy Bridge, BCC and SCC.
    cycles: [u8; 4],
    active_channels: u8,
    total_channels: u8,
    /// Index into [`UtilBucket::ALL`].
    bucket: u8,
    bcc_fetches_saved: u8,
    scc_swizzles: u8,
}

const _: () = assert!(std::mem::size_of::<MemoSlot>() == 16);

impl MemoSlot {
    /// Computes and packs the slot of `(mask, dtype)`.
    ///
    /// # Panics
    ///
    /// Panics when a field exceeds a byte, which no width up to 32 can
    /// produce (at most 16 double-pumped waves, 32 channels or swizzles).
    fn fill(mask: ExecMask, dtype: DataType) -> Self {
        let d = TallyDelta::of(mask, dtype);
        let byte = |v: u64| u8::try_from(v).expect("tally memo field exceeds a byte");
        Self {
            bits: mask.bits(),
            width: byte(u64::from(mask.width())),
            dtype: dtype as u8,
            cycles: [
                byte(d.cycles.baseline),
                byte(d.cycles.ivb),
                byte(d.cycles.bcc),
                byte(d.cycles.scc),
            ],
            active_channels: byte(d.active_channels),
            total_channels: byte(d.total_channels),
            bucket: byte(d.bucket as u64),
            bcc_fetches_saved: byte(d.bcc_fetches_saved),
            scc_swizzles: byte(d.scc_swizzles),
        }
    }

    fn delta(&self) -> TallyDelta {
        TallyDelta {
            cycles: CycleBreakdown {
                baseline: u64::from(self.cycles[0]),
                ivb: u64::from(self.cycles[1]),
                bcc: u64::from(self.cycles[2]),
                scc: u64::from(self.cycles[3]),
            },
            active_channels: u64::from(self.active_channels),
            total_channels: u64::from(self.total_channels),
            bucket: usize::from(self.bucket),
            bcc_fetches_saved: u64::from(self.bcc_fetches_saved),
            scc_swizzles: u64::from(self.scc_swizzles),
        }
    }
}

impl Default for TallyMemo {
    fn default() -> Self {
        Self::with_ways(Self::DEFAULT_WAYS)
    }
}

impl TallyMemo {
    /// Way count of the [`Default`] memo, sized for issue paths tracking
    /// a few resident threads.
    pub const DEFAULT_WAYS: usize = 64;
    /// Way count for whole-trace analysis: one way per SIMD16 mask bit
    /// pattern (1 MiB of slots), so working sets of tens of thousands of
    /// distinct masks stay resident.
    pub const ANALYZER_WAYS: usize = 1 << 16;

    /// A memo with `ways` slots, rounded up to a power of two (minimum 2,
    /// keeping the hash shift below the u32 width).
    pub fn with_ways(ways: usize) -> Self {
        let ways = ways.next_power_of_two().max(2);
        Self {
            shift: 32 - ways.trailing_zeros(),
            slots: vec![MemoSlot::default(); ways],
        }
    }

    /// The slot of `(mask, dtype)`, filled on a miss.
    #[inline]
    fn slot(&mut self, mask: ExecMask, dtype: DataType) -> &MemoSlot {
        let (bits, width, code) = (mask.bits(), mask.width(), dtype as u8);
        // Fibonacci hashing over all three key fields: the multiply
        // spreads low-bit differences into the kept top bits, so masks
        // differing only in width or dtype land in different ways.
        let h = bits ^ (width << 16) ^ (u32::from(code) << 22);
        let way = (h.wrapping_mul(0x9E37_79B9) >> self.shift) as usize;
        let slot = &mut self.slots[way];
        if slot.bits != bits || u32::from(slot.width) != width || slot.dtype != code {
            *slot = MemoSlot::fill(mask, dtype);
        }
        slot
    }

    /// The tally contribution of `(mask, dtype)`, computed or replayed.
    pub fn delta(&mut self, mask: ExecMask, dtype: DataType) -> TallyDelta {
        self.slot(mask, dtype).delta()
    }

    /// Adds one `(mask, dtype)` instruction to `tally` straight from its
    /// slot — identical to [`CompactionTally::add`], without unpacking a
    /// [`TallyDelta`].
    #[inline]
    pub fn charge(&mut self, tally: &mut CompactionTally, mask: ExecMask, dtype: DataType) {
        let s = self.slot(mask, dtype);
        tally.cycles.baseline += u64::from(s.cycles[0]);
        tally.cycles.ivb += u64::from(s.cycles[1]);
        tally.cycles.bcc += u64::from(s.cycles[2]);
        tally.cycles.scc += u64::from(s.cycles[3]);
        tally.instructions += 1;
        tally.active_channels += u64::from(s.active_channels);
        tally.total_channels += u64::from(s.total_channels);
        tally.buckets[usize::from(s.bucket)] += 1;
        tally.bcc_fetches_saved += u64::from(s.bcc_fetches_saved);
        tally.scc_swizzles += u64::from(s.scc_swizzles);
    }
}

impl iwc_telemetry::Instrument for CompactionTally {
    fn publish(&self, prefix: &str, snap: &mut iwc_telemetry::TelemetrySnapshot) {
        let j = |name: &str| iwc_telemetry::join(prefix, name);
        snap.set_counter(&j("instructions"), self.instructions);
        snap.set_counter(&j("active_channels"), self.active_channels);
        snap.set_counter(&j("total_channels"), self.total_channels);
        snap.set_counter(&j("bcc_fetches_saved"), self.bcc_fetches_saved);
        snap.set_counter(&j("scc_swizzles"), self.scc_swizzles);
        for mode in CompactionMode::ALL {
            snap.set_counter(&j(&format!("cycles/{mode}")), self.cycles.get(mode));
        }
        for (i, bucket) in UtilBucket::ALL.iter().enumerate() {
            // Bucket labels contain '/', which reads as a hierarchy
            // separator in metric names; flatten it.
            let label = bucket.label().replace('/', "of");
            snap.set_counter(&j(&format!("util/{label}")), self.buckets[i]);
        }
    }
}

impl fmt::Display for CompactionTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insns, eff {:.1}%, cycles base/ivb/bcc/scc = {}/{}/{}/{} (bcc -{:.1}%, scc -{:.1}%)",
            self.instructions,
            100.0 * self.simd_efficiency(),
            self.cycles.baseline,
            self.cycles.ivb,
            self.cycles.bcc,
            self.cycles.scc,
            100.0 * self.reduction_vs_ivb(CompactionMode::Bcc),
            100.0 * self.reduction_vs_ivb(CompactionMode::Scc),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_classification() {
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x0003, 16)),
            UtilBucket::S16Active1To4
        );
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x00FF, 16)),
            UtilBucket::S16Active5To8
        );
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x0FFF, 16)),
            UtilBucket::S16Active9To12
        );
        assert_eq!(
            UtilBucket::of(ExecMask::all(16)),
            UtilBucket::S16Active13To16
        );
        assert_eq!(
            UtilBucket::of(ExecMask::new(0x0F, 8)),
            UtilBucket::S8Active1To4
        );
        assert_eq!(UtilBucket::of(ExecMask::all(8)), UtilBucket::S8Active5To8);
        assert_eq!(UtilBucket::of(ExecMask::none(16)), UtilBucket::Other);
        assert_eq!(UtilBucket::of(ExecMask::all(4)), UtilBucket::Other);
    }

    #[test]
    fn efficiency_accumulates() {
        let mut t = CompactionTally::new();
        t.add(ExecMask::all(16), DataType::F);
        t.add(ExecMask::new(0x00FF, 16), DataType::F);
        assert_eq!(t.simd_efficiency(), 0.75);
        assert!(!t.is_coherent());
        let mut c = CompactionTally::new();
        c.add(ExecMask::all(16), DataType::F);
        assert!(c.is_coherent());
    }

    #[test]
    fn reductions_reported_vs_ivb() {
        let mut t = CompactionTally::new();
        // 0xF0F0: ivb 4, bcc 2, scc 2.
        t.add(ExecMask::new(0xF0F0, 16), DataType::F);
        assert_eq!(t.reduction_vs_ivb(CompactionMode::Bcc), 0.5);
        // 0x00FF: ivb already optimizes to 2; bcc also 2: no further gain.
        let mut t2 = CompactionTally::new();
        t2.add(ExecMask::new(0x00FF, 16), DataType::F);
        assert_eq!(t2.reduction_vs_ivb(CompactionMode::Bcc), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CompactionTally::new();
        a.add(ExecMask::all(16), DataType::F);
        let mut b = CompactionTally::new();
        b.add(ExecMask::new(0x1, 16), DataType::F);
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.cycles.baseline, 8);
        assert_eq!(a.cycles.scc, 5);
    }

    #[test]
    fn swizzle_count_matches_schedule() {
        use crate::scc::SccSchedule;
        for bits in (0..=0xFFFFu32).step_by(41) {
            let m = ExecMask::new(bits, 16);
            let mut t = CompactionTally::new();
            t.add(m, DataType::F);
            let sched = SccSchedule::compute(m);
            assert_eq!(
                t.scc_swizzles,
                u64::from(sched.swizzle_count()),
                "mask {bits:#06x}"
            );
        }
    }

    /// Checks `delta` and `charge` of every memo against the direct
    /// computation for `m` under each of `dtypes`, back to back, so keys
    /// that differ only in dtype (or, across calls, only in width) meet
    /// in the small memos' ways.
    fn assert_transparent(memos: &mut [TallyMemo], m: ExecMask, dtypes: &[DataType]) {
        for &dtype in dtypes {
            let direct = TallyDelta::of(m, dtype);
            let mut added = CompactionTally::new();
            added.add(m, dtype);
            for memo in memos.iter_mut() {
                assert_eq!(memo.delta(m, dtype), direct, "delta of {m:?} {dtype:?}");
                let mut charged = CompactionTally::new();
                memo.charge(&mut charged, m, dtype);
                assert_eq!(charged, added, "charge of {m:?} {dtype:?}");
            }
        }
    }

    #[test]
    fn memo_is_transparent_over_the_simd16_mask_space() {
        // Every SIMD16 bit pattern at widths 8 and 16, through a memo that
        // holds the whole space and through small ones the stream evicts
        // constantly, so both fills and hits are checked against a direct
        // recompute.
        let mut memos = [
            TallyMemo::with_ways(TallyMemo::ANALYZER_WAYS),
            TallyMemo::default(),
            TallyMemo::with_ways(2),
        ];
        let dtypes = [DataType::F, DataType::Df, DataType::Uw, DataType::B];
        for bits in 0..=0xFFFFu32 {
            for width in [8, 16] {
                assert_transparent(&mut memos, ExecMask::new(bits, width), &dtypes);
            }
        }
    }

    #[test]
    fn memo_is_transparent_at_simd32_and_narrow_widths() {
        // SIMD32 with every dtype reaches the largest per-field values a
        // slot stores (64-bit types double-pump to 16 waves; 32 channels).
        // Two passes, so the second replays whatever the first cached.
        let mut memos = [
            TallyMemo::with_ways(1),
            TallyMemo::default(),
            TallyMemo::with_ways(TallyMemo::ANALYZER_WAYS),
        ];
        let edges = [0, u32::MAX, 0x5555_5555, 0xAAAA_AAAA, 0xFFFF, 0x8000_0001];
        for _pass in 0..2 {
            for edge in edges {
                assert_transparent(&mut memos, ExecMask::new(edge, 32), &DataType::ALL);
            }
            let mut bits = 0x1234_5678u32;
            for _ in 0..2000 {
                // xorshift32: a fixed pseudo-random SIMD32 sample.
                bits ^= bits << 13;
                bits ^= bits >> 17;
                bits ^= bits << 5;
                assert_transparent(&mut memos, ExecMask::new(bits, 32), &DataType::ALL);
            }
            for b in 0..16 {
                for width in [1, 2, 4] {
                    assert_transparent(&mut memos, ExecMask::new(b, width), &DataType::ALL);
                }
            }
        }
    }

    #[test]
    fn bucket_fractions_sum_to_one() {
        let mut t = CompactionTally::new();
        for bits in [0xFFFFu32, 0x00FF, 0x000F, 0x0001] {
            t.add(ExecMask::new(bits, 16), DataType::F);
        }
        let total: f64 = t.bucket_fractions().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
