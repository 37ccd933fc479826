//! Cross-crate integration tests: workloads built with `iwc-workloads`,
//! executed by `iwc-sim`, accounted by `iwc-compaction`, and traced through
//! `iwc-trace` must tell one consistent story.

use intra_warp_compaction::compaction::EngineId;
use intra_warp_compaction::sim::GpuConfig;
use intra_warp_compaction::trace::{analyze, Trace};
use intra_warp_compaction::workloads::{coherent, micro, raytrace, rodinia, Built};

fn sample_workloads() -> Vec<Built> {
    vec![
        coherent::vecadd(1),
        coherent::matmul(1),
        rodinia::bfs(1),
        rodinia::particle_filter(1),
        raytrace::ambient_occlusion(raytrace::SceneKind::Bl, 16, 1),
        micro::mask_pattern(0xAAAA, 1),
    ]
}

/// Every workload produces correct results under every compaction mode —
/// compaction is a pure timing optimization (DESIGN.md invariant 3).
#[test]
fn results_correct_under_every_mode() {
    for built in sample_workloads() {
        for mode in EngineId::CANONICAL {
            let cfg = GpuConfig::paper_default().with_compaction(mode);
            built
                .run_checked(&cfg)
                .unwrap_or_else(|e| panic!("{} under {mode}: {e}", built.name));
        }
    }
}

/// Wall-clock cycles are monotone in optimization strength: scc <= bcc <=
/// baseline (IVB may reorder against BCC in wall-clock only through
/// second-order scheduling noise, so it is checked loosely).
#[test]
fn cycles_monotone_in_mode_strength() {
    for built in sample_workloads() {
        let run = |mode| {
            built
                .run(&GpuConfig::paper_default().with_compaction(mode))
                .expect("simulation completes")
                .0
                .cycles
        };
        let base = run(EngineId::BASELINE);
        let bcc = run(EngineId::BCC);
        let scc = run(EngineId::SCC);
        assert!(bcc <= base, "{}: bcc {bcc} > baseline {base}", built.name);
        // Allow 2% scheduling noise for SCC vs BCC on nearly-coherent loads.
        assert!(
            scc as f64 <= bcc as f64 * 1.02,
            "{}: scc {scc} > bcc {bcc}",
            built.name
        );
    }
}

/// The captured mask trace reproduces the simulator's own SIMD-efficiency
/// accounting exactly.
#[test]
fn captured_trace_matches_sim_tally() {
    let built = rodinia::bfs(1);
    let cfg = GpuConfig::paper_default().with_mask_capture(true);
    let (result, _) = built.run(&cfg).expect("bfs runs");
    let trace = Trace::from_mask_stream("bfs", &result.eu.mask_trace);
    assert_eq!(
        trace.len() as u64,
        result.eu.issued - skipped_control(&result)
    );
    let report = analyze(&trace);
    let sim_eff = result.eu.simd_tally.simd_efficiency();
    assert!(
        (report.simd_efficiency() - sim_eff).abs() < 1e-12,
        "trace eff {} != sim eff {sim_eff}",
        report.simd_efficiency()
    );
}

fn skipped_control(result: &intra_warp_compaction::sim::SimResult) -> u64 {
    // Issued instructions include control flow, which the mask capture skips.
    result.eu.issued - result.eu.mask_trace.len() as u64
}

/// Coherent kernels: no mode changes the cycle count at all (invariant 5).
#[test]
fn coherent_kernels_unaffected() {
    for built in [coherent::vecadd(1), coherent::mersenne(1)] {
        let cycles: Vec<u64> = EngineId::CANONICAL
            .iter()
            .map(|&m| {
                built
                    .run(&GpuConfig::paper_default().with_compaction(m))
                    .expect("runs")
                    .0
                    .cycles
            })
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[0] == w[1]),
            "{}: {cycles:?}",
            built.name
        );
    }
}

/// Memory behavior is identical across modes (invariant 4): loads, stores,
/// and distinct lines requested do not change.
#[test]
fn memory_stream_identical_across_modes() {
    let built = raytrace::ambient_occlusion(raytrace::SceneKind::Wm, 16, 1);
    let stats: Vec<_> = EngineId::CANONICAL
        .iter()
        .map(|&m| {
            let (r, _) = built
                .run(&GpuConfig::paper_default().with_compaction(m))
                .expect("runs");
            (r.mem.loads, r.mem.stores, r.mem.lines_requested)
        })
        .collect();
    assert!(stats.windows(2).all(|w| w[0] == w[1]), "{stats:?}");
}

/// The analytic EU-cycle accounting agrees between runs of different modes
/// (it is a function of the executed mask stream only).
#[test]
fn eu_cycle_accounting_mode_invariant() {
    let built = rodinia::eigenvalue(1);
    let tallies: Vec<_> = EngineId::CANONICAL
        .iter()
        .map(|&m| {
            built
                .run(&GpuConfig::paper_default().with_compaction(m))
                .expect("runs")
                .0
                .eu
                .compute_tally
                .cycles
        })
        .collect();
    assert!(tallies.windows(2).all(|w| w[0] == w[1]), "{tallies:?}");
}
