//! Headline claims of the paper, asserted against the reproduction. These
//! are *shape* checks: who wins, by roughly what factor, where the
//! crossovers fall — not absolute-number matches (our substrate is a
//! simulator, not the authors' testbed).

use intra_warp_compaction::compaction::{waves, EngineId};
use intra_warp_compaction::isa::ExecMask;
use intra_warp_compaction::sim::GpuConfig;
use intra_warp_compaction::trace::{analyze, corpus};
use intra_warp_compaction::workloads::{catalog, Category};

/// Abstract claim: SCC subsumes BCC ("its benefits are at least as much as
/// that of BCC", §5.1) — for every possible SIMD16 mask.
#[test]
fn scc_subsumes_bcc_for_every_mask() {
    for bits in 0..=0xFFFFu32 {
        let m = ExecMask::new(bits, 16);
        assert!(
            waves(m, EngineId::SCC) <= waves(m, EngineId::BCC),
            "{bits:#x}"
        );
    }
}

/// Fig. 10 / abstract: divergent applications see up to ~40%+ EU-cycle
/// reduction, around 20% on average, over the Ivy Bridge baseline.
#[test]
fn divergent_average_reduction_matches_paper_band() {
    let mut reductions = Vec::new();
    for entry in catalog() {
        if entry.category != Category::Divergent {
            continue;
        }
        let built = (entry.build)(1);
        let (r, _) = built.run(&GpuConfig::paper_default()).expect("runs");
        reductions.push(r.compute_tally().reduction_vs_ivb(EngineId::SCC));
    }
    for profile in corpus() {
        let report = analyze(&profile.generate(20_000));
        reductions.push(report.reduction(EngineId::SCC));
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let max = reductions.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        (0.12..=0.35).contains(&avg),
        "average SCC reduction {avg:.3} outside the paper's ~20% band"
    );
    assert!(max >= 0.35, "max SCC reduction {max:.3} should be ~40%+");
}

/// §5.3: "In 23 out of 29 applications ... SCC offers considerable gains
/// beyond BCC alone" — in our suite, a solid majority of divergent
/// workloads see extra SCC benefit.
#[test]
fn scc_extra_benefit_on_most_divergent_workloads() {
    let mut with_extra = 0usize;
    let mut total = 0usize;
    for profile in corpus() {
        let report = analyze(&profile.generate(20_000));
        total += 1;
        if report.scc_extra() > 0.01 {
            with_extra += 1;
        }
    }
    assert!(
        with_extra * 3 >= total * 2,
        "only {with_extra}/{total} traces show extra SCC benefit"
    );
}

/// §5.2 (Fig. 8 inference): the Ivy Bridge optimization makes the balanced
/// 0x00FF if/else run at the no-divergence time, while 0xF0F0 runs at ~2x.
#[test]
fn ivy_bridge_optimization_pattern() {
    use intra_warp_compaction::workloads::micro::mask_pattern;
    let cfg = GpuConfig::single_eu();
    let run = |pat: u16| {
        mask_pattern(pat, 1)
            .run_checked(&cfg)
            .unwrap_or_else(|e| panic!("{e}"))
            .cycles as f64
    };
    let base = run(0xFFFF);
    assert!(
        (run(0x00FF) / base - 1.0).abs() < 0.15,
        "0x00FF should match no-divergence"
    );
    assert!(run(0xF0F0) / base > 1.6, "0xF0F0 should cost ~2x");
}

/// §5.4 / Fig. 12: BFS is dominated by memory stalls — its wall-clock gain
/// is a small fraction of its EU-cycle gain, even though the EU-cycle gain
/// is the largest in the suite.
#[test]
fn bfs_is_memory_bound() {
    let built = intra_warp_compaction::workloads::rodinia::bfs(1);
    let (base, _) = built.run(&GpuConfig::paper_default()).expect("runs");
    let (scc, _) = built
        .run(&GpuConfig::paper_default().with_compaction(EngineId::SCC))
        .expect("runs");
    let eu_gain = base.compute_tally().reduction_vs_ivb(EngineId::SCC);
    let time_gain = 1.0 - scc.cycles as f64 / base.cycles as f64;
    assert!(eu_gain > 0.3, "BFS EU gain {eu_gain:.3}");
    assert!(
        time_gain < eu_gain / 2.0,
        "BFS wall-clock gain {time_gain:.3} should lag far behind EU gain {eu_gain:.3}"
    );
}

/// §4.3: the BCC register file costs ~10% area; the inter-warp 8-banked
/// file costs over 40%.
#[test]
fn register_file_area_ordering() {
    use intra_warp_compaction::compaction::{RfModel, RfOrganization};
    let bcc = RfModel::new(RfOrganization::Bcc).area_overhead_vs_baseline();
    let iw = RfModel::new(RfOrganization::InterWarp).area_overhead_vs_baseline();
    assert!((0.05..0.15).contains(&bcc), "BCC overhead {bcc:.3}");
    assert!(iw > 0.40, "inter-warp overhead {iw:.3}");
}

/// Paper's premise (§3): SIMD8 kernels have access to all 128 registers
/// while SIMD16 kernels effectively halve the register count — our AO
/// kernels exist in both widths and the SIMD16 variant diverges at least as
/// much (wider warps diverge more, §5.4 last paragraph).
#[test]
fn wider_warps_diverge_more() {
    use intra_warp_compaction::workloads::raytrace::{ambient_occlusion, SceneKind};
    let cfg = GpuConfig::paper_default();
    let (r8, _) = ambient_occlusion(SceneKind::Bl, 8, 1)
        .run(&cfg)
        .expect("runs");
    let (r16, _) = ambient_occlusion(SceneKind::Bl, 16, 1)
        .run(&cfg)
        .expect("runs");
    assert!(
        r16.simd_efficiency() <= r8.simd_efficiency() + 0.02,
        "SIMD16 ({:.3}) should diverge at least as much as SIMD8 ({:.3})",
        r16.simd_efficiency(),
        r8.simd_efficiency()
    );
}
