//! Trace pipeline walkthrough: capture an execution-mask trace from a real
//! simulation, serialize it to the binary trace format, read it back, and
//! analyze it — then compare with the synthetic trace corpus that stands in
//! for the paper's proprietary traces.
//!
//! Run with: `cargo run --release --example trace_analysis`

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::sim::GpuConfig;
use intra_warp_compaction::trace::{analyze, corpus, Trace};
use intra_warp_compaction::workloads::rodinia;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Capture: run BFS with the mask-capture hook enabled.
    let built = rodinia::bfs(1);
    let cfg = GpuConfig::paper_default().with_mask_capture(true);
    let (result, _img) = built.run(&cfg)?;
    let trace = Trace::from_mask_stream("BFS-captured", &result.eu.mask_trace);
    println!(
        "captured {} mask records from the BFS simulation",
        trace.len()
    );

    // 2. Serialize and reload.
    let mut buf = Vec::new();
    trace.write_to(&mut buf)?;
    let reloaded = Trace::read_from(&buf[..])?;
    assert_eq!(trace, reloaded);
    println!("binary trace roundtrip: {} bytes", buf.len());

    // 3. Analyze: the trace-based benefit matches the simulator's own tally.
    let report = analyze(&reloaded);
    println!(
        "BFS trace: efficiency {:.1}%, BCC -{:.1}%, SCC -{:.1}% EU cycles",
        100.0 * report.simd_efficiency(),
        100.0 * report.reduction(EngineId::BCC),
        100.0 * report.reduction(EngineId::SCC),
    );

    // 4. The synthetic corpus (stand-in for the paper's ~600 traces).
    println!("\nsynthetic trace corpus:");
    for profile in corpus().iter().take(6) {
        let r = analyze(&profile.generate(20_000));
        println!(
            "  {:<22} eff {:>5.1}%  bcc -{:>4.1}%  scc -{:>4.1}%",
            profile.name,
            100.0 * r.simd_efficiency(),
            100.0 * r.reduction(EngineId::BCC),
            100.0 * r.reduction(EngineId::SCC),
        );
    }
    Ok(())
}
