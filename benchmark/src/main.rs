//! `iwc-benchmark`: the repository benchmark. One process runs one named
//! workload through the crates' public entry points, at the production
//! defaults, and prints every metric by name and unit; the last stdout
//! line is the machine-readable result. See `benchmark/README.md`.
//!
//! ```console
//! iwc-benchmark --workload sim_catalog --seed 1 --seconds 20 --trace 0
//! iwc-benchmark --workload all --seed 1 --seconds 20 --steady 5
//! iwc-benchmark --print-goldens > benchmark/goldens/sim_catalog.txt
//! ```

mod corpus;
mod metrics;
mod serve;
mod sim;
mod span;
mod util;

use metrics::{median, percentile, quartiles, spread, tail_percentile, END_TO_END, PER_LAYER};
use span::{LayerTable, Span};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use util::Tally;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["sim_catalog", "trace_corpus", "serve_mix"];

const USAGE: &str = "usage: iwc-benchmark --workload <sim_catalog|trace_corpus|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     iwc-benchmark --workload <name|all> --seed <n> --seconds <s> --steady <runs>\n       \
                     iwc-benchmark --print-goldens";

/// What every workload takes.
pub struct Opts {
    /// Seeds every generated input.
    pub seed: u64,
    /// How long the untraced measurement runs, at least.
    pub seconds: f64,
}

/// An untraced run's raw results.
pub struct Measured {
    pub setup_s: f64,
    pub work_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// One sample per operation.
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    pub notes: Vec<String>,
}

/// A traced run's raw results.
pub struct Traced {
    /// Spans per recording thread, named.
    pub threads: Vec<(String, Vec<Span>)>,
    pub table: LayerTable,
    /// The same work untraced, measured like `table.wall_ms`.
    pub untraced_ms: f64,
    /// Per-layer counts and ratios the workload measured itself.
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub notes: Vec<String>,
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: String,
    trace: bool,
    steady: Option<usize>,
    print_goldens: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: "10".to_string(),
        trace: false,
        steady: None,
        print_goldens: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-goldens" {
            a.print_goldens = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: want {what}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
                a.seconds = value.clone();
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--steady" => {
                a.steady = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or_else(|| bad("a run count of at least 2"))?,
                )
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let known =
        WORKLOADS.contains(&a.workload.as_str()) || (a.workload == "all" && a.steady.is_some());
    if !a.print_goldens && !known {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iwc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((key, _)) = std::env::vars().find(|(k, _)| k.starts_with("IWC_")) {
        eprintln!(
            "iwc-benchmark: {key} is set; the benchmark measures the production defaults, \
             so unset every IWC_* variable"
        );
        return ExitCode::from(2);
    }
    if args.print_goldens {
        return match sim::print_goldens() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("iwc-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds.parse().expect("validated by parse_args"),
    };
    match (args.steady, args.trace) {
        (Some(runs), _) => steady(&args, runs),
        (None, false) => run_measured(&args.workload, &opts),
        (None, true) => run_traced(&args.workload, &opts),
    }
}

fn exit_for(tally: &Tally) -> ExitCode {
    for msg in &tally.failures {
        eprintln!("iwc-benchmark: FAILED: {msg}");
    }
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end run: tracing off.
fn run_measured(workload: &str, opts: &Opts) -> ExitCode {
    let measured = match workload {
        "sim_catalog" => sim::measure(opts),
        "trace_corpus" => corpus::measure(opts),
        _ => serve::measure(opts),
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("iwc-benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (alias, work, op) = metrics::work_unit(workload);
    let ok_ratio = if m.tally.attempted == 0 {
        0.0
    } else {
        (m.tally.attempted - m.tally.failed) as f64 / m.tally.attempted as f64
    };
    let values = [
        m.setup_s,
        util::peak_rss_mib(),
        ok_ratio,
        m.work_per_s,
        m.p50_ms,
        m.p95_ms,
    ];

    println!(
        "== iwc-benchmark {workload}: seed {}, {} s, tracing off ==",
        opts.seed, opts.seconds
    );
    for note in &m.notes {
        println!("{note}");
    }
    println!("work_per_s is {alias}: {work} per host second");
    let n = m.latencies_ms.len();
    match tail_percentile(n) {
        Some(p) => println!(
            "op latency: {op}; {n} samples, pooled median {:.3} ms, p{p} {:.3} ms \
             (the highest percentile with >= 10 samples beyond it)",
            percentile(&m.latencies_ms, 50.0),
            percentile(&m.latencies_ms, p)
        ),
        None => println!("op latency: {op}; only {n} samples"),
    }
    println!(
        "operations: {} attempted, {} failed",
        m.tally.attempted, m.tally.failed
    );
    for (def, v) in END_TO_END.iter().zip(values) {
        let better = match def.better {
            metrics::Better::Lower => "lower is better",
            metrics::Better::Higher => "higher is better",
        };
        println!("{:<16} {:>18.6} {:<6} {better}", def.name, v, def.unit);
    }
    let line: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name, v, d.unit))
        .collect();
    println!(
        "{}",
        metrics::result_line(
            m.tally.failed == 0,
            m.tally.attempted,
            m.tally.failed,
            &line
        )
    );
    exit_for(&m.tally)
}

/// The traced run: per-layer spans, the layer table, the Perfetto export.
fn run_traced(workload: &str, opts: &Opts) -> ExitCode {
    let traced = match workload {
        "sim_catalog" => sim::traced(opts),
        "trace_corpus" => corpus::traced(opts),
        _ => serve::traced(opts),
    };
    let mut t = match traced {
        Ok(t) => t,
        Err(e) => {
            eprintln!("iwc-benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = &t.table;
    let overhead = if t.untraced_ms > 0.0 {
        table.wall_ms / t.untraced_ms - 1.0
    } else {
        0.0
    };
    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    for row in &table.rows {
        if let Some(v) = values.get_mut(format!("{}_ms", row.name).as_str()) {
            *v = row.self_ms;
        }
    }
    values.insert("unattributed_ms", table.unattributed_ms);
    values.insert("tracing.wall_ms", table.wall_ms);
    values.insert("tracing.overhead_ratio", overhead);
    values.extend(t.values.iter().map(|(k, v)| (*k, *v)));

    // The table must account for every traced nanosecond.
    let gap = (table.total_ms() - table.wall_ms).abs();
    t.tally.record(if gap <= 1e-6 * table.wall_ms.max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "layer table sums to {} ms, traced wall is {} ms",
            table.total_ms(),
            table.wall_ms
        ))
    });
    let trace_path = Path::new(util::OUT_DIR).join(format!("{workload}.perfetto.json"));
    t.tally
        .record(span::chrome_json(&t.threads).and_then(|json| {
            std::fs::create_dir_all(util::OUT_DIR)
                .and_then(|()| std::fs::write(&trace_path, json))
                .map_err(|e| format!("{}: {e}", trace_path.display()))
        }));

    println!(
        "== iwc-benchmark {workload}: seed {}, traced run ==",
        opts.seed
    );
    for note in &t.notes {
        println!("{note}");
    }
    print!("{}", table.render());
    println!(
        "tracing overhead: traced {:.1} ms vs untraced {:.1} ms ({:+.2}%)",
        table.wall_ms,
        t.untraced_ms,
        100.0 * overhead
    );
    println!("host-time Perfetto trace: {}", trace_path.display());
    println!(
        "operations: {} attempted, {} failed",
        t.tally.attempted, t.tally.failed
    );
    for (name, unit) in PER_LAYER {
        println!("{:<32} {:>18.6} {unit}", name, values[name]);
    }
    let line: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();
    println!(
        "{}",
        metrics::result_line(
            t.tally.failed == 0,
            t.tally.attempted,
            t.tally.failed,
            &line
        )
    );
    exit_for(&t.tally)
}

/// Steadiness mode: `runs` untraced child runs per workload, seeds
/// `seed..seed+runs`; reports median and quartiles of every end-to-end
/// metric and flags a spread beyond its bound (`setup_s` is reported but
/// not held to its bound, which limits drift between medians instead).
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("iwc-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut healthy = true;
    for workload in workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs {
            let seed = args.seed.wrapping_add(i as u64);
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds, "--trace", "0"])
                .stderr(Stdio::inherit())
                .output();
            let parsed = out.map_err(|e| e.to_string()).and_then(|o| {
                parse_result(&String::from_utf8_lossy(&o.stdout), o.status.success())
            });
            match parsed {
                Ok(values) => {
                    println!("{workload} seed {seed}: {values:?}");
                    for (s, v) in samples.iter_mut().zip(values) {
                        s.push(v);
                    }
                }
                Err(e) => {
                    println!("{workload} seed {seed}: FAILED: {e}");
                    healthy = false;
                }
            }
        }
        println!(
            "{workload}: {:<12} {:>16} {:>16} {:>16} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (def, s) in END_TO_END.iter().zip(&samples) {
            let [q1, _, q3] = quartiles(s).unwrap_or([0.0; 3]);
            let sp = spread(s).unwrap_or(0.0);
            let over = sp > def.bound && def.name != "setup_s";
            healthy &= !over;
            println!(
                "{workload}: {:<12} {:>16.6} {:>16.6} {:>16.6} {:>8.4} {:>6} {}",
                def.name,
                median(s),
                q1,
                q3,
                sp,
                def.bound,
                if over { "SPREAD > BOUND" } else { "" }
            );
        }
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end values from a child run's last stdout line, in
/// [`END_TO_END`] order.
fn parse_result(stdout: &str, exited_ok: bool) -> Result<Vec<f64>, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = iwc_telemetry::json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let correct = matches!(
        doc.get("correct"),
        Some(iwc_telemetry::json::Json::Bool(true))
    );
    if !exited_ok || !correct {
        return Err(format!("run failed: {last}"));
    }
    END_TO_END
        .iter()
        .map(|d| {
            doc.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(iwc_telemetry::json::Json::as_num)
                .ok_or_else(|| format!("result line lacks {}", d.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn full_argument_set_parses() {
        let a = args(&[
            "--workload",
            "serve_mix",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, "serve_mix");
        assert_eq!((a.seed, a.seconds.as_str(), a.trace), (42, "20", true));
        assert_eq!(a.steady, None);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all"]).is_err(), "all needs --steady");
        assert!(args(&["--workload", "sim_catalog", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sim_catalog", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sim_catalog", "--seed"]).is_err());
        assert!(args(&["--workload", "sim_catalog", "--bogus", "1"]).is_err());
        assert!(args(&["--workload", "all", "--steady", "3"]).is_ok());
        assert!(args(&["--print-goldens"]).is_ok());
    }

    #[test]
    fn child_results_parse_in_metric_order() {
        let line: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 + 0.5, d.unit))
            .collect();
        let out = format!("report\n{}\n", metrics::result_line(true, 4, 0, &line));
        assert_eq!(
            parse_result(&out, true).expect("parses"),
            vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        );
        assert!(parse_result(&out, false).is_err());
        let failed = metrics::result_line(false, 4, 1, &line);
        assert!(parse_result(&failed, true).is_err());
    }
}
