//! Golden stdout of the experiment registry: `iwc <name>`, run with every
//! `IWC_*` variable cleared (production defaults), must print exactly the
//! checked-in `results/<name>.txt`, and its stdout must not depend on
//! `IWC_THREADS`.
//!
//! Harness bookkeeping (the `[bench] ...` line and `results/bench_*.json`)
//! goes to stderr and the results directory only, so stdout is a pure
//! function of the workload suite. Each run gets its own scratch working
//! directory, so the default `results/` directory lands there and never in
//! the source tree. A report the run writes must publish the same
//! telemetry names as the checked-in `results/bench_<name>.json`, so the
//! checked-in reports never advertise metrics the simulator no longer
//! publishes (or miss ones it does).

use iwc_telemetry::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iwc-determinism-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `iwc <name>` in `cwd` with every `IWC_*` variable cleared, then
/// `knobs` set, and returns its stdout.
fn iwc_stdout(name: &str, cwd: &Path, knobs: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_iwc"));
    cmd.arg(name).current_dir(cwd);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("IWC_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(knobs.iter().copied());
    let out = cmd.output().expect("spawn iwc driver");
    assert!(
        out.status.success(),
        "iwc {name} {knobs:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The telemetry metric names of a bench report (`counters/…`,
/// `gauges/…`, `histograms/…`), values ignored.
fn telemetry_names(report: &str) -> Vec<String> {
    let doc = json::parse(report).expect("bench report parses");
    let mut names = Vec::new();
    for kind in ["counters", "gauges", "histograms"] {
        if let Some(Json::Obj(metrics)) = doc.get("telemetry").and_then(|t| t.get(kind)) {
            names.extend(metrics.keys().map(|m| format!("{kind}/{m}")));
        }
    }
    names
}

/// Asserts `iwc <name>` reproduces `results/<name>.txt` byte for byte, and
/// that any bench report it writes names the same telemetry as the
/// checked-in one.
fn assert_matches_golden(name: &str) {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let want = read(&results.join(format!("{name}.txt")));
    let dir = scratch_dir(name);
    let got = iwc_stdout(name, &dir, &[]);
    let report = format!("bench_{name}.json");
    let written = std::fs::read_to_string(dir.join("results").join(&report)).ok();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        got == want,
        "`iwc {name}` stdout differs from results/{name}.txt\n--- got ---\n{got}"
    );
    if let Some(written) = written {
        assert_eq!(
            telemetry_names(&written),
            telemetry_names(&read(&results.join(&report))),
            "results/{report} names other telemetry than `iwc {name}` publishes"
        );
    }
}

/// One golden test per experiment. The `slow` ones take seconds in
/// release and minutes under the debug profile, so they are ignored there
/// and run by `cargo test --release -- --include-ignored`.
macro_rules! goldens {
    (fast: $($fast:ident),* ; slow: $($slow:ident),* $(,)?) => {
        const GOLDENS: &[&str] = &[$(stringify!($fast),)* $(stringify!($slow),)*];
        $(
            #[test]
            fn $fast() {
                assert_matches_golden(stringify!($fast));
            }
        )*
        $(
            #[test]
            #[cfg_attr(debug_assertions, ignore = "slow under the debug profile; use --release")]
            fn $slow() {
                assert_matches_golden(stringify!($slow));
            }
        )*
    };
}

goldens! {
    fast: ablation_dtype, ablation_energy, ablation_frontend, ablation_interwarp,
        ablation_swizzle, ablation_width, fig8, rf_area, table2;
    slow: fig3, fig9, fig10, fig11, fig12, stall_profile, table4,
}

/// Every checked-in `results/*.txt` is a golden some test above checks.
#[test]
fn every_result_file_has_a_golden_test() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<String> = std::fs::read_dir(&results)
        .expect("read results/")
        .filter_map(|e| {
            let name = e.expect("results/ entry").file_name();
            name.to_str()?.strip_suffix(".txt").map(str::to_owned)
        })
        .collect();
    files.sort();
    let mut tested: Vec<&str> = GOLDENS.to_vec();
    tested.sort();
    assert_eq!(files, tested);
}

fn assert_stdout_thread_invariant(name: &str) {
    let dir = scratch_dir(&format!("threads-{name}"));
    let knobs = |threads| [("IWC_THREADS", threads), ("IWC_TRACE_LEN", "2000")];
    let serial = iwc_stdout(name, &dir, &knobs("1"));
    let parallel = iwc_stdout(name, &dir, &knobs("8"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        serial, parallel,
        "`iwc {name}` stdout must be byte-identical for IWC_THREADS=1 vs 8"
    );
}

#[test]
fn table2_stdout_is_thread_count_invariant() {
    assert_stdout_thread_invariant("table2");
}

/// The full Table 4 sweep (26 divergent workloads x 7 simulator runs, twice).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the full Table 4 sweep twice; use --release"
)]
fn table4_stdout_is_thread_count_invariant() {
    assert_stdout_thread_invariant("table4");
}

/// Unknown experiment names fail with a nonzero exit and a hint, without
/// touching stdout.
#[test]
fn iwc_rejects_unknown_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_iwc"))
        .arg("fig99")
        .output()
        .expect("spawn iwc driver");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("iwc list"));
}
