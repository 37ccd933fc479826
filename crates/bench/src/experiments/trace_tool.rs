//! `trace_tool` — command-line utility for execution-mask trace files.
//!
//! ```console
//! iwc trace_tool gen <profile-name> <out.iwct> [len]   # generate a synthetic trace
//! iwc trace_tool capture <workload> <out.iwct>         # simulate + capture masks
//! iwc trace_tool analyze <in.iwct>                     # Fig. 9/10 style report
//! iwc trace_tool list                                  # available profiles/workloads
//! ```

use super::Outcome;
use iwc_compaction::EngineId;
use iwc_sim::GpuConfig;
use iwc_trace::{analyze, corpus, Trace};
use iwc_workloads::catalog;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn usage() -> Outcome {
    eprintln!(
        "usage:\n  trace_tool gen <profile> <out.iwct> [len]\n  \
         trace_tool capture <workload> <out.iwct>\n  \
         trace_tool analyze <in.iwct>\n  trace_tool list"
    );
    Outcome::fail()
}

pub(crate) fn run(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("synthetic profiles:");
            for p in corpus() {
                println!(
                    "  {:<24} eff target {:.0}% {}",
                    p.name,
                    100.0 * p.efficiency,
                    if p.opengl { "[OpenGL]" } else { "[OpenCL]" }
                );
            }
            println!("\nsimulated workloads (capture):");
            for e in catalog() {
                println!("  {}", e.name);
            }
            Outcome::done()
        }
        Some("gen") if args.len() >= 3 => {
            let name = &args[1];
            let Some(profile) = corpus().into_iter().find(|p| p.name == *name) else {
                eprintln!("unknown profile {name:?} (see `trace_tool list`)");
                return Outcome::fail();
            };
            let len = args
                .get(3)
                .and_then(|v| v.parse().ok())
                .unwrap_or(iwc_trace::synth::DEFAULT_TRACE_LEN);
            let trace = profile.generate(len);
            match File::create(&args[2])
                .map_err(|e| e.to_string())
                .and_then(|f| trace.write_to(BufWriter::new(f)).map_err(|e| e.to_string()))
            {
                Ok(()) => {
                    println!("wrote {} records to {}", trace.len(), args[2]);
                    Outcome::done()
                }
                Err(e) => {
                    eprintln!("write failed: {e}");
                    Outcome::fail()
                }
            }
        }
        Some("capture") if args.len() >= 3 => {
            let name = &args[1];
            let Some(entry) = catalog().into_iter().find(|e| e.name == name) else {
                eprintln!("unknown workload {name:?} (see `trace_tool list`)");
                return Outcome::fail();
            };
            let built = (entry.build)(1);
            let cfg = GpuConfig::paper_default().with_mask_capture(true);
            let result = match built.run(&cfg) {
                Ok((r, _)) => r,
                Err(e) => {
                    eprintln!("simulation failed: {e}");
                    return Outcome::fail();
                }
            };
            let trace = Trace::from_mask_stream(name.clone(), &result.eu.mask_trace);
            match File::create(&args[2])
                .map_err(|e| e.to_string())
                .and_then(|f| trace.write_to(BufWriter::new(f)).map_err(|e| e.to_string()))
            {
                Ok(()) => {
                    println!(
                        "simulated {} cycles, captured {} records to {}",
                        result.cycles,
                        trace.len(),
                        args[2]
                    );
                    Outcome::done()
                }
                Err(e) => {
                    eprintln!("write failed: {e}");
                    Outcome::fail()
                }
            }
        }
        Some("analyze") if args.len() >= 2 => {
            let trace = match File::open(&args[1])
                .map_err(|e| e.to_string())
                .and_then(|f| Trace::read_from(BufReader::new(f)).map_err(|e| e.to_string()))
            {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("read failed: {e}");
                    return Outcome::fail();
                }
            };
            let r = analyze(&trace);
            println!("trace {:?}: {} records", trace.name, trace.len());
            println!(
                "SIMD efficiency {:.1}% ({})",
                100.0 * r.simd_efficiency(),
                if r.is_coherent() {
                    "coherent"
                } else {
                    "divergent"
                }
            );
            println!("utilization breakdown:");
            for (bucket, frac) in r.buckets() {
                if frac > 0.0 {
                    println!("  {:<10} {:>6.1}%", bucket.label(), 100.0 * frac);
                }
            }
            println!(
                "EU-cycle reduction over IVB: bcc {:.1}%, scc {:.1}% (+{:.1}% from swizzling)",
                100.0 * r.reduction(EngineId::BCC),
                100.0 * r.reduction(EngineId::SCC),
                100.0 * r.scc_extra()
            );
            Outcome::done()
        }
        _ => usage(),
    }
}
