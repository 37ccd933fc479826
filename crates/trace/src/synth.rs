//! Synthetic trace generation for the trace-only workload corpus.
//!
//! The paper's ~600 OpenCL/OpenGL traces (LuxMark, BulletPhysics, Sandra,
//! RightWare, GLBench, Face-Detection, …) are proprietary. Per the
//! substitution rule (DESIGN.md §3) this module generates mask streams with
//! the same *aggregate structure* — SIMD-width mix, efficiency, and mask
//! shape — because the trace-based results of the paper are pure functions
//! of that stream.
//!
//! Each [`Profile`] controls:
//!
//! * `efficiency` — the target SIMD efficiency (read off Fig. 3);
//! * `simd8_fraction` — how many instructions are SIMD8 (register-pressure
//!   limited kernels, §5.3);
//! * `style` — how disabled channels are positioned, which decides whether
//!   BCC or SCC harvests them:
//!   [`MaskStyle::QuadAligned`] (whole quads off → BCC-optimal),
//!   [`MaskStyle::Blocky`] (contiguous runs → BCC-friendly, IVB sometimes),
//!   [`MaskStyle::Scattered`] (random positions → mostly SCC),
//!   [`MaskStyle::Strided`] (regular stride → SCC-only);
//! * `burst_len` — divergence arrives in bursts of this length, modeling
//!   control-flow regions rather than i.i.d. masks.
//!
//! Generation is *streaming*: [`Profile::source`] returns a
//! [`SynthSource`] that synthesizes records one chunk at a time (the
//! analyzer never holds a whole trace), and [`Profile::generate`] is the
//! materializing adapter over the same record stream — both walk the RNG
//! in the identical order, so a streamed trace is byte-identical to a
//! generated one.
//!
//! [`expanded_corpus`] grows the base 22-profile suite toward the paper's
//! ~600-trace scale with a deterministic parameter sweep (seeded variants
//! of every base profile), which is what `iwc pack` writes into the
//! default corpus pack.

use crate::format::{Trace, TraceRecord};
use crate::source::{TraceSource, CHUNK_RECORDS};
use iwc_isa::mask::ExecMask;
use iwc_isa::types::DataType;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Positioning of disabled channels within divergent masks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskStyle {
    /// Active channels fill whole aligned quads.
    QuadAligned,
    /// Active channels form one contiguous run at a random offset.
    Blocky,
    /// Active channels are uniformly random positions.
    Scattered,
    /// Active channels sit at a regular stride (2 or 4).
    Strided,
}

impl MaskStyle {
    /// All styles, in the order the corpus expander rotates through them.
    pub const ALL: [MaskStyle; 4] = [
        MaskStyle::QuadAligned,
        MaskStyle::Blocky,
        MaskStyle::Scattered,
        MaskStyle::Strided,
    ];
}

/// A synthetic workload profile.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Workload name (matches the paper's trace tables; expanded variants
    /// carry an `@vNN` suffix).
    pub name: String,
    /// `true` for 3D-graphics (OpenGL) traces, `false` for OpenCL.
    pub opengl: bool,
    /// Target SIMD efficiency in (0, 1].
    pub efficiency: f64,
    /// Fraction of SIMD8 instructions (rest are SIMD16).
    pub simd8_fraction: f64,
    /// Mask style of divergent instructions.
    pub style: MaskStyle,
    /// Mean divergent-burst length in instructions.
    pub burst_len: u32,
    /// RNG seed (fixed per profile for reproducibility).
    pub seed: u64,
}

/// Mean density of active channels inside divergent bursts.
const DIVERGENT_DENSITY: f64 = 0.45;

/// The record-level generation state machine: one profile's RNG plus the
/// burst bookkeeping, yielding records on demand. Both the streaming and
/// the materializing entry points drive this, so they visit the RNG in
/// the identical order and produce identical streams.
struct SynthStream {
    profile: Profile,
    rng: SmallRng,
    /// Fraction of divergent instructions solving
    /// `eff = (1 - p) + p * density`.
    p: f64,
    divergent_left: u32,
    coherent_left: u32,
    remaining: usize,
}

impl SynthStream {
    fn new(profile: &Profile, len: usize) -> Self {
        let p = ((1.0 - profile.efficiency) / (1.0 - DIVERGENT_DENSITY)).clamp(0.0, 1.0);
        Self {
            profile: profile.clone(),
            rng: SmallRng::seed_from_u64(profile.seed),
            p,
            divergent_left: 0,
            coherent_left: 0,
            remaining: len,
        }
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.divergent_left == 0 && self.coherent_left == 0 {
            // Start a new segment. Both segment kinds share the same
            // length distribution, so the instruction-level divergent
            // fraction converges to `p`.
            let seg = 1 + self.rng.gen_range(0..self.profile.burst_len.max(1) * 2);
            if self.rng.gen_bool(self.p) {
                self.divergent_left = seg;
            } else {
                self.coherent_left = seg;
            }
        }
        let width = if self.rng.gen_bool(self.profile.simd8_fraction) {
            8
        } else {
            16
        };
        let mask = if self.divergent_left > 0 {
            self.divergent_left -= 1;
            self.profile.divergent_mask(&mut self.rng, width)
        } else {
            self.coherent_left -= 1;
            ExecMask::all(width)
        };
        Some(TraceRecord::new(mask, DataType::F))
    }
}

/// A bounded-memory [`TraceSource`] synthesizing one profile's trace on
/// the fly: resident state is the RNG plus one [`CHUNK_RECORDS`]-sized
/// buffer, whatever the requested length.
pub struct SynthSource {
    stream: SynthStream,
    total: u64,
    buf: Vec<TraceRecord>,
}

impl TraceSource for SynthSource {
    fn name(&self) -> &str {
        &self.stream.profile.name
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }

    fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, crate::format::TraceIoError> {
        self.buf.clear();
        while self.buf.len() < CHUNK_RECORDS {
            match self.stream.next_record() {
                Some(r) => self.buf.push(r),
                None => break,
            }
        }
        Ok(if self.buf.is_empty() {
            None
        } else {
            Some(&self.buf)
        })
    }
}

impl Profile {
    /// Streams a trace of `len` instructions matching the profile, never
    /// materializing more than one chunk.
    pub fn source(&self, len: usize) -> SynthSource {
        SynthSource {
            stream: SynthStream::new(self, len),
            total: len as u64,
            buf: Vec::with_capacity(CHUNK_RECORDS.min(len)),
        }
    }

    /// Generates a trace of `len` instructions matching the profile — the
    /// materializing adapter over [`Profile::source`] (identical stream).
    pub fn generate(&self, len: usize) -> Trace {
        crate::source::collect(&mut self.source(len)).expect("synthesis cannot fail")
    }

    fn divergent_mask(&self, rng: &mut SmallRng, width: u32) -> ExecMask {
        // Active-channel count: clamped binomial-ish around the density.
        let mean = DIVERGENT_DENSITY * f64::from(width);
        let k = (mean + rng.gen_range(-0.35..0.35) * f64::from(width))
            .round()
            .clamp(1.0, f64::from(width)) as u32;
        let bits = match self.style {
            MaskStyle::QuadAligned => {
                let quads = width / 4;
                let active_quads = k.div_ceil(4).min(quads).max(1);
                let mut bits = 0u32;
                let mut placed = 0;
                while placed < active_quads {
                    let q = rng.gen_range(0..quads);
                    if bits >> (q * 4) & 0xF == 0 {
                        bits |= 0xF << (q * 4);
                        placed += 1;
                    }
                }
                bits
            }
            MaskStyle::Blocky => {
                let start = rng.gen_range(0..width);
                let mut bits = 0u32;
                for i in 0..k {
                    bits |= 1 << ((start + i) % width);
                }
                bits
            }
            MaskStyle::Scattered => {
                let mut bits = 0u32;
                let mut placed = 0;
                while placed < k {
                    let c = rng.gen_range(0..width);
                    if bits >> c & 1 == 0 {
                        bits |= 1 << c;
                        placed += 1;
                    }
                }
                bits
            }
            MaskStyle::Strided => {
                let stride = if k * 2 > width { 2 } else { 4 };
                let phase = rng.gen_range(0..stride);
                let mut bits = 0u32;
                let mut placed = 0;
                let mut c = phase;
                while placed < k && c < width {
                    bits |= 1 << c;
                    c += stride;
                    placed += 1;
                }
                // Wrap remaining channels onto a second phase.
                let mut c = (phase + 1) % stride;
                while placed < k {
                    if bits >> c & 1 == 0 {
                        bits |= 1 << c;
                        placed += 1;
                    }
                    c = (c + stride) % width + u32::from(c + stride >= width);
                    if c >= width {
                        c %= width;
                    }
                }
                bits
            }
        };
        ExecMask::new(bits, width)
    }
}

/// The trace-only corpus: divergent OpenCL and OpenGL workloads from the
/// paper's trace study (§5.1, Figs. 3, 9, 10), with efficiencies read off
/// Fig. 3 and styles chosen to match the paper's observation of where the
/// SCC share of the benefit is large (Face Detection, GLBench) versus
/// BCC-dominated (tree search, cp).
pub fn corpus() -> Vec<Profile> {
    use MaskStyle::*;
    let p = |name: &str, opengl, efficiency, simd8_fraction, style, burst_len, seed| Profile {
        name: name.to_string(),
        opengl,
        efficiency,
        simd8_fraction,
        style,
        burst_len,
        seed,
    };
    vec![
        p("LuxMark-sky", false, 0.58, 0.9, Scattered, 24, 1001),
        p("LuxMark_sala", false, 0.52, 0.9, Scattered, 24, 1002),
        p("luxmark_ocl", false, 0.55, 0.9, Scattered, 20, 1003),
        p("LuxMark_hdr", false, 0.66, 0.9, Scattered, 20, 1004),
        p("cp", false, 0.72, 0.1, Blocky, 12, 1005),
        p("bulletphysics", false, 0.56, 0.2, Scattered, 16, 1006),
        p("oclprofv1p0", false, 0.64, 0.2, Blocky, 12, 1007),
        p(
            "rightware_mandelbulb",
            false,
            0.48,
            0.3,
            Scattered,
            32,
            1008,
        ),
        p("tree_search", false, 0.62, 0.1, Blocky, 10, 1009),
        p("OptSAA", false, 0.70, 0.2, QuadAligned, 8, 1010),
        p("sandra_ocl", false, 0.60, 0.2, Scattered, 16, 1011),
        p("ati-eigenval", false, 0.55, 0.1, Blocky, 14, 1012),
        p("ati_floydwarshall", false, 0.61, 0.1, QuadAligned, 10, 1013),
        p("glbench_egypt", true, 0.63, 0.4, Strided, 18, 1014),
        p("glbench_pro", true, 0.66, 0.4, Strided, 18, 1015),
        p("FD_IntelFinalists", false, 0.54, 0.3, Strided, 26, 1016),
        p("FD_politicians", false, 0.50, 0.3, Strided, 26, 1017),
        // Additional 3D-graphics (OpenGL) traces: pixel-shader divergence
        // from alpha tests and material branches — the paper's trace study
        // covered ~380 OpenGL traces, 80 of which showed >10% benefit.
        p("ogl_shadowmap", true, 0.68, 0.5, Blocky, 14, 1018),
        p("ogl_particles", true, 0.57, 0.5, Scattered, 22, 1019),
        p("ogl_deferred", true, 0.61, 0.4, Strided, 16, 1020),
        p("ogl_terrain", true, 0.73, 0.3, QuadAligned, 10, 1021),
        p("ogl_hdr_bloom", true, 0.65, 0.4, Scattered, 12, 1022),
    ]
}

/// Default size of the expanded corpus — the paper's trace-study scale
/// (§5.1: ~600 OpenCL/OpenGL traces).
pub const DEFAULT_EXPANDED_TRACES: usize = 600;

/// Grows the base [`corpus`] toward the paper's trace-study scale with a
/// deterministic parameter sweep: the 22 base profiles come first, then
/// seeded variants of each (efficiency/SIMD8-mix/burst jitter plus a mask
/// style rotation every fourth round) until `target` profiles exist.
/// Everything is a pure function of `target` — same input, same corpus,
/// whatever machine or thread count — so a pack written from this corpus
/// is reproducible byte-for-byte.
pub fn expanded_corpus(target: usize) -> Vec<Profile> {
    let base = corpus();
    let mut out = Vec::with_capacity(target.max(base.len()));
    out.extend(base.iter().cloned());
    let mut round = 1u64;
    while out.len() < target {
        for (i, b) in base.iter().enumerate() {
            if out.len() >= target {
                break;
            }
            // Deterministic jitter streams, decorrelated across the two
            // knobs by different multipliers.
            let jitter = |mult: u64, span: f64| {
                let lane = (round * mult + i as u64 * 3) % 11;
                (lane as f64 - 5.0) / 5.0 * span
            };
            let style = if round % 4 == 3 {
                // Rotate the mask style to cover (style × efficiency)
                // combinations the base suite lacks.
                let at = MaskStyle::ALL
                    .iter()
                    .position(|&s| s == b.style)
                    .expect("style in ALL");
                MaskStyle::ALL[(at + 1) % MaskStyle::ALL.len()]
            } else {
                b.style
            };
            out.push(Profile {
                name: format!("{}@v{round:02}", b.name),
                opengl: b.opengl,
                efficiency: (b.efficiency + jitter(7, 0.08)).clamp(0.32, 0.90),
                simd8_fraction: (b.simd8_fraction + jitter(5, 0.15)).clamp(0.0, 1.0),
                style,
                burst_len: b.burst_len + u32::try_from(round % 5).expect("small") * 4,
                seed: b.seed + 10_000 * round,
            });
        }
        round += 1;
    }
    out
}

/// Default trace length used by the harness.
pub const DEFAULT_TRACE_LEN: usize = 50_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use iwc_compaction::EngineId;

    #[test]
    fn efficiency_matches_target() {
        for prof in corpus() {
            let t = prof.generate(30_000);
            let r = analyze(&t);
            let got = r.simd_efficiency();
            assert!(
                (got - prof.efficiency).abs() < 0.08,
                "{}: efficiency {got:.3}, target {:.3}",
                prof.name,
                prof.efficiency
            );
        }
    }

    #[test]
    fn strided_profiles_are_scc_dominated() {
        let prof = corpus()
            .into_iter()
            .find(|p| p.name == "FD_politicians")
            .unwrap();
        let r = analyze(&prof.generate(30_000));
        let bcc = r.reduction(EngineId::BCC);
        let scc = r.reduction(EngineId::SCC);
        assert!(
            scc > 2.0 * bcc,
            "FD: scc {scc:.3} should dominate bcc {bcc:.3}"
        );
        assert!(scc > 0.15, "FD: scc {scc:.3} should be sizeable");
    }

    #[test]
    fn quad_aligned_profiles_are_bcc_dominated() {
        let prof = corpus().into_iter().find(|p| p.name == "OptSAA").unwrap();
        let r = analyze(&prof.generate(30_000));
        let bcc = r.reduction(EngineId::BCC);
        let extra = r.scc_extra();
        assert!(bcc > 0.10, "OptSAA: bcc {bcc:.3}");
        assert!(
            extra < bcc / 2.0,
            "OptSAA: scc extra {extra:.3} should be small"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let prof = &corpus()[0];
        assert_eq!(prof.generate(1000), prof.generate(1000));
    }

    #[test]
    fn streamed_equals_generated() {
        use crate::source::TraceSource;
        for prof in corpus().iter().take(4) {
            let materialized = prof.generate(9_000);
            let mut streamed = Vec::new();
            let mut src = prof.source(9_000);
            assert_eq!(src.len_hint(), Some(9_000));
            while let Some(chunk) = src.next_chunk().expect("synthesis cannot fail") {
                assert!(chunk.len() <= crate::source::CHUNK_RECORDS);
                streamed.extend_from_slice(chunk);
            }
            assert_eq!(streamed, materialized.records, "{}", prof.name);
        }
    }

    #[test]
    fn all_profiles_divergent() {
        for prof in corpus() {
            let r = analyze(&prof.generate(10_000));
            assert!(!r.is_coherent(), "{} should be divergent", prof.name);
        }
    }

    #[test]
    fn masks_never_empty() {
        for prof in corpus() {
            let t = prof.generate(5_000);
            for rec in &t.records {
                assert!(rec.mask().active_channels() >= 1, "{}", prof.name);
            }
        }
    }

    #[test]
    fn expanded_corpus_is_deterministic_and_unique() {
        let a = expanded_corpus(450);
        let b = expanded_corpus(450);
        assert_eq!(a, b, "expansion must be a pure function of target");
        assert_eq!(a.len(), 450);
        // Base profiles come first, unchanged.
        assert_eq!(a[..corpus().len()], corpus()[..]);
        let mut names: Vec<&str> = a.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 450, "names must be unique");
        let mut seeds: Vec<u64> = a.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 450, "seeds must be unique");
    }

    #[test]
    fn expanded_corpus_stays_in_generator_range() {
        for p in expanded_corpus(500) {
            assert!(
                (0.30..=0.92).contains(&p.efficiency),
                "{}: efficiency {}",
                p.name,
                p.efficiency
            );
            assert!((0.0..=1.0).contains(&p.simd8_fraction), "{}", p.name);
            assert!(p.burst_len >= 1, "{}", p.name);
        }
    }

    #[test]
    fn expanded_corpus_smaller_than_base_is_the_base_prefix() {
        let a = expanded_corpus(5);
        assert_eq!(a.len(), corpus().len(), "base profiles always included");
    }
}
