//! `iwc` — the unified experiment driver.
//!
//! ```console
//! iwc list                     # enumerate the experiment registry
//! iwc <experiment> [args...]   # run one experiment (e.g. `iwc fig10`)
//! ```
//!
//! Every subcommand dispatches through
//! [`iwc_bench::experiments::EXPERIMENTS`]; this is the repository's only
//! binary.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: iwc <experiment> [args...] | iwc list");
        eprintln!("experiments: see `iwc list`");
        return ExitCode::FAILURE;
    };
    if cmd == "list" {
        iwc_bench::experiments::list();
        return ExitCode::SUCCESS;
    }
    let rest: Vec<String> = args.collect();
    iwc_bench::experiments::dispatch(&cmd, &rest)
}
