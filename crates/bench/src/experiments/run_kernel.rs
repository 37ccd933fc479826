//! `run_kernel` — assemble a kernel from the `iwc-isa` text dialect and run
//! it on the simulated GPU under any registered compaction engine.
//!
//! ```console
//! iwc run_kernel <file.iwcasm> [--global N] [--wg N] [--mode <label>]
//!                [--dump N] [--timeline N]
//! ```
//!
//! The runner allocates one scratch buffer (1 MiB) and passes its base
//! address as kernel argument 0 (`r3.0:ud`), so kernels can load/store
//! `arg0 + gid*4` style addresses out of the box. After the run it prints
//! the timing/compaction report and the first `--dump` words of the buffer.
//!
//! `--mode` accepts any label in the [`EngineRegistry`] — the four standard
//! engines (`base|ivb|bcc|scc`) plus whatever ablation engines the process
//! registered.

use super::Outcome;
use iwc_compaction::{EngineId, EngineRegistry};
use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage};

struct Options {
    file: String,
    global: u32,
    wg: u32,
    mode: EngineId,
    dump: u32,
    timeline: u64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter();
    let file = args.next().ok_or("missing kernel file")?.clone();
    let mut opts = Options {
        file,
        global: 256,
        wg: 64,
        mode: EngineId::IVY_BRIDGE,
        dump: 8,
        timeline: 0,
    };
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--global" => opts.global = value()?.parse().map_err(|e| format!("{e}"))?,
            "--wg" => opts.wg = value()?.parse().map_err(|e| format!("{e}"))?,
            "--dump" => opts.dump = value()?.parse().map_err(|e| format!("{e}"))?,
            "--timeline" => opts.timeline = value()?.parse().map_err(|e| format!("{e}"))?,
            "--mode" => {
                let v = value()?;
                let registry = EngineRegistry::global();
                opts.mode = registry.find(v).ok_or_else(|| {
                    format!("unknown mode {v:?} ({})", registry.labels().join("|"))
                })?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

pub(crate) fn run(args: &[String]) -> Outcome {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run_kernel <file.iwcasm> [--global N] [--wg N] \
                 [--mode base|ivb|bcc|scc] [--dump N] [--timeline N]"
            );
            return Outcome::fail();
        }
    };
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.file);
            return Outcome::fail();
        }
    };
    let program = match iwc_isa::parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return Outcome::fail();
        }
    };
    println!("{program}");

    let mut img = MemoryImage::new(1 << 20);
    let buffer = img.alloc(512 << 10);
    let launch = Launch::new(program, opts.global, opts.wg).with_args(&[buffer]);
    let cfg = GpuConfig::paper_default()
        .with_compaction(opts.mode)
        .with_issue_log(opts.timeline > 0);
    let result = match simulate(&cfg, &launch, &mut img) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return Outcome::fail();
        }
    };
    println!("{result}");
    let t = result.compute_tally();
    println!(
        "EU-cycle reduction potential: bcc {:.1}%, scc {:.1}%",
        100.0 * t.reduction_vs_ivb(EngineId::BCC),
        100.0 * t.reduction_vs_ivb(EngineId::SCC)
    );
    if opts.timeline > 0 {
        println!("\nissue timeline (all EUs merged):");
        print!(
            "{}",
            iwc_sim::timeline::render(&result.eu.issue_log, opts.timeline)
        );
    }
    if opts.dump > 0 {
        print!("buffer[0..{}]:", opts.dump);
        for i in 0..opts.dump {
            print!(" {:#x}", img.read_u32(buffer + 4 * i));
        }
        println!();
    }
    Outcome::done()
}
