//! Ablation: dynamic-energy estimate of BCC and SCC (§4.3's qualitative
//! discussion, made quantitative with the first-order model of
//! `iwc_compaction::energy`).
//!
//! Key expectations: BCC saves both execution and operand-fetch energy on
//! quad-idle masks; SCC saves execution energy but fetches full-width
//! operands, so its energy gain lags its cycle gain; on coherent streams
//! neither costs anything (BCC) or only its control overhead (SCC).

use super::Outcome;
use crate::{pct, trace_len};
use iwc_compaction::{EnergyModel, EngineId};
use iwc_trace::{analyze, corpus};

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== ablation: dynamic energy of cycle compression ==\n");
    let model = EnergyModel::default();
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "eff", "bcc cyc", "bcc enrg", "scc cyc", "scc enrg"
    );
    for profile in corpus() {
        let trace = profile.generate(trace_len());
        let report = analyze(&trace);
        let stream: Vec<_> = trace.records.iter().map(|r| (r.mask(), r.dtype)).collect();
        let base = model.stream_energy(&stream, EngineId::IVY_BRIDGE);
        let bcc = model.stream_energy(&stream, EngineId::BCC);
        let scc = model.stream_energy(&stream, EngineId::SCC);
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
            profile.name,
            pct(report.simd_efficiency()),
            pct(report.reduction(EngineId::BCC)),
            pct(1.0 - bcc / base),
            pct(report.reduction(EngineId::SCC)),
            pct(1.0 - scc / base),
        );
    }
    println!(
        "\nexpected shape: BCC energy gain tracks its cycle gain (fetch suppression); \
         SCC energy gain lags its cycle gain (full-width operand latch, crossbar, \
         control logic) — §4.2/§4.3."
    );
    Outcome::done()
}
