//! Inter-warp compaction comparator (TBC/DWF-class techniques, §6).
//!
//! The paper's central argument is comparative: thread-block compaction and
//! related inter-warp schemes reach higher SIMD efficiency by *merging
//! channels across warps at the same PC*, but (1) they need warp-barrier
//! synchronization and per-lane-addressable register files, and (2) merging
//! warps can **increase memory divergence** because the combined warp's
//! channels come from different warps' address streams. Intra-warp
//! compaction "intrinsically does not create additional memory divergence"
//! (contribution 2).
//!
//! This module models an idealized inter-warp compactor to quantify both
//! effects on a mask/address stream:
//!
//! * [`compact_masks`] — greedily packs the active channels of a group of
//!   same-PC warps into the fewest warps (lane-preserving, as TBC requires:
//!   a channel can only move to the *same lane* of another warp);
//! * [`InterWarpStats`] — the resulting cycle count and the memory
//!   divergence (distinct cache lines per merged memory access) compared
//!   with the unmerged stream.

use crate::cycles::waves;
use crate::engine::EngineId;
use iwc_isa::mask::ExecMask;
use serde::{Deserialize, Serialize};

/// Result of inter-warp compaction over one group of same-PC warps.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactedGroup {
    /// Compacted execution masks, one per surviving warp (lane-preserving
    /// union packing).
    pub masks: Vec<ExecMask>,
    /// Which source warp each packed channel came from:
    /// `origin[warp][lane] = Some(source warp index)`.
    pub origin: Vec<Vec<Option<u32>>>,
}

/// Greedy lane-preserving inter-warp compaction (the TBC merge rule): for
/// each lane position, the active channels of the source warps stack into
/// the fewest output warps. The number of output warps is the maximum
/// per-lane occupancy — lane conflicts, not total channel count, bound the
/// compaction (the reason TBC needs per-lane-addressable register files and
/// still cannot fix strided patterns like 0xAAAA repeated across warps,
/// §3.2).
///
/// # Examples
///
/// ```
/// use iwc_compaction::compact_masks;
/// use iwc_isa::ExecMask;
///
/// // Complementary halves merge into one full warp...
/// let merged = compact_masks(&[ExecMask::new(0x00FF, 16), ExecMask::new(0xFF00, 16)]);
/// assert_eq!(merged.masks.len(), 1);
///
/// // ...but repeated strided masks cannot compact at all (lane conflicts).
/// let stuck = compact_masks(&[ExecMask::new(0xAAAA, 16); 4]);
/// assert_eq!(stuck.masks.len(), 4);
/// ```
pub fn compact_masks(group: &[ExecMask]) -> CompactedGroup {
    assert!(!group.is_empty(), "empty warp group");
    let width = group[0].width();
    assert!(
        group.iter().all(|m| m.width() == width),
        "mixed SIMD widths in a warp group"
    );
    // Per lane, the list of source warps with that lane active.
    let mut per_lane: Vec<Vec<u32>> = (0..width)
        .map(|lane| {
            group
                .iter()
                .enumerate()
                .filter(|(_, m)| m.channel(lane))
                .map(|(w, _)| w as u32)
                .collect()
        })
        .collect();
    let out_warps = per_lane.iter().map(Vec::len).max().unwrap_or(0).max(1);
    let mut masks = Vec::with_capacity(out_warps);
    let mut origin = Vec::with_capacity(out_warps);
    for _ in 0..out_warps {
        let mut m = ExecMask::none(width);
        let mut org = vec![None; width as usize];
        for lane in 0..width {
            if let Some(src) = per_lane[lane as usize].pop() {
                m = m.with_channel(lane, true);
                org[lane as usize] = Some(src);
            }
        }
        masks.push(m);
        origin.push(org);
    }
    CompactedGroup { masks, origin }
}

/// Comparison of intra-warp and inter-warp compaction over a group of
/// same-PC warps with per-channel memory addresses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InterWarpStats {
    /// Execution waves for the unmerged group under SCC (intra-warp).
    pub intra_warp_waves: u64,
    /// Execution waves for the merged group (full warps execute at
    /// `width/4` waves each).
    pub inter_warp_waves: u64,
    /// Distinct cache lines requested by the unmerged per-warp accesses.
    pub intra_warp_lines: u64,
    /// Distinct cache lines requested by the merged accesses.
    pub inter_warp_lines: u64,
}

impl InterWarpStats {
    /// Memory-divergence inflation factor of inter-warp compaction
    /// (≥ 1.0 when merging made memory behavior worse or equal).
    pub fn divergence_inflation(&self) -> f64 {
        if self.intra_warp_lines == 0 {
            1.0
        } else {
            self.inter_warp_lines as f64 / self.intra_warp_lines as f64
        }
    }
}

/// Evaluates one same-PC group of warps that each perform a memory access:
/// `addrs[w][lane]` is the byte address channel `lane` of warp `w` would
/// access (only active channels are accessed).
pub fn evaluate_group(group: &[ExecMask], addrs: &[Vec<u32>], line_bytes: u32) -> InterWarpStats {
    assert_eq!(group.len(), addrs.len(), "one address vector per warp");
    let compacted = compact_masks(group);

    let lines_of = |mask: &ExecMask, addr_of: &dyn Fn(u32) -> u32| -> u64 {
        let mut lines: Vec<u32> = mask
            .iter_active()
            .map(|l| addr_of(l) / line_bytes)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    };

    let mut stats = InterWarpStats::default();
    for (w, mask) in group.iter().enumerate() {
        stats.intra_warp_waves += u64::from(waves(*mask, EngineId::SCC));
        stats.intra_warp_lines += lines_of(mask, &|lane| addrs[w][lane as usize]);
    }
    for (w, mask) in compacted.masks.iter().enumerate() {
        stats.inter_warp_waves += u64::from(waves(*mask, EngineId::BASELINE));
        stats.inter_warp_lines += lines_of(mask, &|lane| {
            let src = compacted.origin[w][lane as usize].expect("active lane has origin");
            addrs[src as usize][lane as usize]
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m16(bits: u32) -> ExecMask {
        ExecMask::new(bits, 16)
    }

    #[test]
    fn complementary_masks_merge_into_one_warp() {
        let c = compact_masks(&[m16(0x00FF), m16(0xFF00)]);
        assert_eq!(c.masks.len(), 1);
        assert!(c.masks[0].is_full());
        assert_eq!(c.origin[0][0], Some(0));
        assert_eq!(c.origin[0][15], Some(1));
    }

    #[test]
    fn lane_conflicts_bound_compaction() {
        // The same strided mask across 4 warps cannot compact at all:
        // every active channel sits in the same lanes (§3.2's point that
        // TBC-like approaches preserve lane positions).
        let group = [m16(0xAAAA); 4];
        let c = compact_masks(&group);
        assert_eq!(c.masks.len(), 4);
        for m in &c.masks {
            assert_eq!(m.bits(), 0xAAAA);
        }
    }

    #[test]
    fn every_channel_preserved_exactly_once() {
        let group = [m16(0x0F0F), m16(0x00FF), m16(0x8001)];
        let c = compact_masks(&group);
        let total_in: u32 = group.iter().map(|m| m.active_channels()).sum();
        let total_out: u32 = c.masks.iter().map(|m| m.active_channels()).sum();
        assert_eq!(total_in, total_out);
        // Per lane, multiset of origins matches the sources.
        for lane in 0..16u32 {
            let mut srcs: Vec<u32> = c.origin.iter().filter_map(|o| o[lane as usize]).collect();
            srcs.sort_unstable();
            let want: Vec<u32> = group
                .iter()
                .enumerate()
                .filter(|(_, m)| m.channel(lane))
                .map(|(w, _)| w as u32)
                .collect();
            assert_eq!(srcs, want, "lane {lane}");
        }
    }

    #[test]
    fn merging_coherent_streams_increases_memory_divergence() {
        // Two half-warps whose accesses are each one contiguous line,
        // but in *different* lines: merged, the single warp touches both.
        let group = [m16(0x00FF), m16(0xFF00)];
        let mut a0 = vec![0u32; 16];
        let mut a1 = vec![0u32; 16];
        for (l, a) in a0.iter_mut().enumerate().take(8) {
            *a = 4096 + 4 * l as u32; // line A
        }
        for (l, a) in a1.iter_mut().enumerate().skip(8) {
            *a = 8192 + 4 * l as u32; // line B
        }
        let s = evaluate_group(&group, &[a0, a1], 64);
        // Intra-warp: each partial warp = 1 line and 2 SCC waves total.
        assert_eq!(s.intra_warp_lines, 2);
        assert_eq!(s.intra_warp_waves, 4);
        // Inter-warp: one full warp, 4 waves — but the access still needs
        // both lines in one message: same lines, fewer waves.
        assert_eq!(s.inter_warp_waves, 4);
        assert_eq!(s.inter_warp_lines, 2);
        assert_eq!(s.divergence_inflation(), 1.0);
    }

    #[test]
    fn merging_aligned_streams_costs_lines_per_message() {
        // Two warps, each accessing its own single line with the SAME mask
        // lanes 0-7: no merge possible for those lanes → masks can't merge,
        // divergence unchanged. Use disjoint lanes but same line stride to
        // see inflation: merged message spans both source warps' lines while
        // each unmerged SCC warp still issued its own message.
        let group = [m16(0x000F), m16(0x00F0)];
        let a0: Vec<u32> = (0..16).map(|l| 4096 + 4 * l as u32).collect();
        let a1: Vec<u32> = (0..16).map(|l| 8192 + 4 * l as u32).collect();
        let s = evaluate_group(&group, &[a0, a1], 64);
        assert_eq!(s.intra_warp_waves, 2);
        assert_eq!(
            s.inter_warp_waves, 4,
            "merged warp is still one full-length warp"
        );
        assert_eq!(s.intra_warp_lines, 2);
        assert_eq!(s.inter_warp_lines, 2);
    }

    #[test]
    #[should_panic(expected = "mixed SIMD widths")]
    fn rejects_mixed_widths() {
        let _ = compact_masks(&[ExecMask::all(8), ExecMask::all(16)]);
    }
}
