//! Helpers shared by the workloads: the seeded generator, pass/fail
//! accounting, peak memory, and the scratch directory.

use std::path::{Path, PathBuf};

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// derives from `--seed` is reproducible without an external crate.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so one seed can
    /// drive several independent sequences (passes, clients).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Operations attempted and failed. A wrong output is a failed operation,
/// never a fast one.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Root of everything a run writes, relative to the working directory (the
/// repository root): per-run scratch plus the Perfetto traces.
pub const OUT_DIR: &str = ".bench_scratch";

/// A per-process scratch directory under [`OUT_DIR`], removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `OUT_DIR/<tag>-<pid>`.
    pub fn create(tag: &str) -> Result<Self, String> {
        let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_reproducible_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7, 0);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7, 0);
                move |_| g.next_u64()
            })
            .collect();
        let c = SplitMix64::new(7, 1).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix64::new(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle is not the identity");
    }

    #[test]
    fn tally_keeps_counts_and_first_messages() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("wrong".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failures, vec!["wrong".to_string()]);
    }
}
