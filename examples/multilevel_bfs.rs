//! Multi-level BFS on a persistent GPU: the host enqueues one kernel launch
//! per frontier level against warm caches (the command-streamer model of
//! §2.1), and the per-level SIMD efficiency shows how divergence evolves as
//! the frontier grows and shrinks.
//!
//! Run with: `cargo run --release --example multilevel_bfs`

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::sim::GpuConfig;
use intra_warp_compaction::workloads::rodinia::bfs_full;

fn main() -> Result<(), String> {
    println!("level   cycles   SIMD eff   L3 hit   scc potential");
    let results = bfs_full(2, &GpuConfig::paper_default())?;
    for (lvl, r) in results.iter().enumerate() {
        println!(
            "{lvl:>5} {:>8} {:>9.1}% {:>7.1}% {:>14.1}%",
            r.cycles,
            100.0 * r.simd_efficiency(),
            100.0 * r.l3_hit_rate,
            100.0 * r.compute_tally().reduction_vs_ivb(EngineId::SCC),
        );
    }
    let total: u64 = results.iter().map(|r| r.cycles).sum();
    println!(
        "\n{} levels, {total} total cycles; distances verified against host BFS",
        results.len()
    );
    Ok(())
}
