//! Set-associative cache model with LRU replacement.

use crate::config::CacheConfig;

/// One cache level (tag store only — data is held functionally in the
/// [`MemoryImage`](crate::memimg::MemoryImage)).
#[derive(Clone, Debug)]
pub struct Cache {
    /// Every set's ways, set-major, in one flat vector of 16-byte lines.
    lines: Vec<Line>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    accesses: u64,
    hits: u64,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    /// [`INVALID`] for an empty way.
    tag: u64,
    /// Stamp of the latest access; 0 for an empty way, below every real
    /// stamp, so LRU victim choice prefers the first empty way.
    last_use: u64,
}

/// Tag of an empty way. Line addresses are byte addresses over the line
/// size, so no real tag reaches it.
const INVALID: u64 = u64::MAX;

impl Cache {
    /// Builds a cache from its configuration and the line size.
    pub fn new(cfg: CacheConfig, line_bytes: u32) -> Self {
        let sets = cfg.sets(line_bytes);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        let empty = Line {
            tag: INVALID,
            last_use: 0,
        };
        Self {
            lines: vec![empty; sets as usize * cfg.ways as usize],
            ways: cfg.ways as usize,
            set_mask: u64::from(sets) - 1,
            stamp: 0,
            accesses: 0,
            hits: 0,
        }
    }

    /// Looks up `line_addr` (a line-granular address, i.e. byte address /
    /// line size), filling on miss. Returns `true` on hit.
    pub fn access(&mut self, line_addr: u64) -> bool {
        self.stamp += 1;
        self.accesses += 1;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = &mut self.lines[set * self.ways..(set + 1) * self.ways];
        // One pass: a hit, else the first way with the oldest stamp (the
        // first empty way, while one is left).
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (i, line) in ways.iter_mut().enumerate() {
            if line.tag == tag {
                line.last_use = self.stamp;
                self.hits += 1;
                return true;
            }
            if line.last_use < oldest {
                (victim, oldest) = (i, line.last_use);
            }
        }
        ways[victim] = Line {
            tag,
            last_use: self.stamp,
        };
        false
    }

    /// Total lookups performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate in [0, 1]; 1.0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(
            CacheConfig {
                size_bytes: 512,
                ways: 2,
                banks: 1,
                latency: 1,
            },
            64,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x10));
        assert!(c.access(0x10));
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (addr & 3 == 0): 0, 4, 8.
        c.access(0);
        c.access(4);
        c.access(0); // refresh 0 → LRU is 4
        c.access(8); // evicts 4
        assert!(c.access(0), "0 was refreshed and must survive");
        assert!(!c.access(4), "4 was the LRU victim");
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for a in 0..4u64 {
            c.access(a);
        }
        for a in 0..4u64 {
            assert!(c.access(a), "line {a}");
        }
    }

    #[test]
    fn hit_rate() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 1.0);
        c.access(0);
        c.access(0);
        c.access(64); // miss (set 0? 64 is line addr, set = 0... different tag) → miss
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_l3_geometry() {
        use crate::config::GpuConfig;
        let cfg = GpuConfig::paper_default().mem.l3;
        let c = Cache::new(cfg, 64);
        assert_eq!(c.set_mask + 1, 32);
        assert_eq!(c.ways, 64);
        assert_eq!(c.lines.len(), 32 * 64);
    }
}
