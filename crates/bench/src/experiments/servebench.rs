//! `iwc servebench` — closed-loop load generator for the serve daemon.
//!
//! Boots an in-process daemon on an ephemeral loopback port
//! (`IWC_THREADS` simulation workers) and drives it with the same number
//! of closed-loop HTTP clients, each submitting a fixed per-client mix of
//! catalog workloads. Every response is checked against a direct
//! in-process run — a served result that drifts from the simulator is a
//! failure, not a data point.
//!
//! Stdout carries only the deterministic part (the job mix with its
//! simulated cycles and the agreement verdict), so it is byte-identical
//! across thread counts. Requests/s, latency quantiles, and the decode
//! cache counters go to stderr and `results/BENCH_serve.json` (schema 2,
//! with the same run-trajectory carryover as `BENCH_sim.json`).

use super::Outcome;
use crate::runner::{parse_run_line, results_dir, threads, RunRecord};
use iwc_compaction::EngineId;
use iwc_serve::client;
use iwc_serve::{ServeConfig, Server};
use iwc_sim::GpuConfig;
use iwc_telemetry::Pow2Hist;
use iwc_workloads::catalog;
use std::sync::Mutex;
use std::time::Instant;

/// The per-client job mix: a coherent kernel, a divergent Rodinia-class
/// kernel, a matrix kernel, and a branchy search — enough variety to
/// exercise the decode cache across distinct programs.
const MIX: [&str; 4] = ["VA", "BFS", "MM", "Bsearch"];

/// Rounds through the mix per client; total requests = threads × this.
const ROUNDS_PER_CLIENT: usize = 2;

/// Expected cycles per mix workload, summed over the canonical engines —
/// computed directly in-process; the served responses must agree.
fn direct_cycles() -> Vec<(String, u64)> {
    MIX.iter()
        .map(|name| {
            let built = (catalog()
                .into_iter()
                .find(|e| e.name == *name)
                .unwrap_or_else(|| panic!("{name} not in catalog"))
                .build)(crate::scale());
            let total = EngineId::CANONICAL
                .iter()
                .map(|&engine| {
                    built
                        .run_checked(&GpuConfig::paper_default().with_compaction(engine))
                        .unwrap_or_else(|e| panic!("{name} under {}: {e}", engine.label()))
                        .cycles
                })
                .sum();
            ((*name).to_string(), total)
        })
        .collect()
}

/// Sums the `"cycles":` fields of one serve response body.
fn served_cycles(body: &str) -> u64 {
    let mut total = 0;
    let mut rest = body;
    while let Some(at) = rest.find("\"cycles\":") {
        rest = &rest[at + "\"cycles\":".len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        total += rest[..end].trim().parse::<u64>().unwrap_or(0);
        rest = &rest[end..];
    }
    total
}

struct LoadStats {
    requests: usize,
    failures: usize,
    latency_us: Pow2Hist,
}

/// Drives `clients` closed-loop client threads against `addr`; each runs
/// the mix `ROUNDS_PER_CLIENT` times and verifies cycles against
/// `expected`.
fn drive(addr: std::net::SocketAddr, clients: usize, expected: &[(String, u64)]) -> LoadStats {
    let stats = Mutex::new(LoadStats {
        requests: 0,
        failures: 0,
        latency_us: Pow2Hist::new(),
    });
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                for _ in 0..ROUNDS_PER_CLIENT {
                    for (name, want) in expected {
                        let body =
                            format!("{{\"workload\":\"{name}\",\"scale\":{}}}", crate::scale());
                        let started = Instant::now();
                        let resp = client::post(addr, "/v1/jobs", &body);
                        #[allow(clippy::cast_possible_truncation)]
                        let us = started.elapsed().as_micros() as u64;
                        let ok = match &resp {
                            Ok(r) => r.status == 200 && served_cycles(&r.body) == *want,
                            Err(_) => false,
                        };
                        let mut st = stats.lock().expect("stats lock poisoned");
                        st.requests += 1;
                        st.failures += usize::from(!ok);
                        st.latency_us.record(us);
                    }
                }
            });
        }
    });
    stats.into_inner().expect("stats lock poisoned")
}

/// Run lines carried over from the previous report, in their recorded
/// order; same-shaped runs (threads and cells both equal) are superseded
/// by the current run, which the caller appends last for `iwc perfgate`
/// to judge.
fn prior_runs(text: &str, current: &RunRecord) -> Vec<RunRecord> {
    let mut runs: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
    runs.retain(|r| (r.threads, r.cells) != (current.threads, current.cells));
    runs
}

#[allow(clippy::cast_precision_loss)]
fn render_json(
    load: &LoadStats,
    wall_ms: f64,
    snap: &iwc_telemetry::TelemetrySnapshot,
    runs: &[RunRecord],
) -> String {
    let rps = if wall_ms > 0.0 {
        load.requests as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    let cache = |k: &str| snap.counter(&format!("serve/cache/{k}")).unwrap_or(0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"name\": \"serve\",\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"threads\": {},\n", threads()));
    out.push_str(&format!(
        "  \"load\": {{ \"requests\": {}, \"failures\": {}, \"wall_ms\": {wall_ms:.2}, \
         \"requests_per_s\": {rps:.1} }},\n",
        load.requests, load.failures
    ));
    out.push_str(&format!(
        "  \"latency_us\": {{ \"mean\": {:.0}, \"p50_hi\": {}, \"p99_hi\": {} }},\n",
        load.latency_us.mean(),
        load.latency_us.quantile_hi(0.50),
        load.latency_us.quantile_hi(0.99)
    ));
    out.push_str(&format!(
        "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"decodes\": {} }},\n",
        cache("hits"),
        cache("misses"),
        cache("decodes")
    ));
    let results_cache = |k: &str| {
        snap.counter(&format!("serve/results_cache/{k}"))
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "  \"results_cache\": {{ \"hits\": {}, \"misses\": {} }},\n",
        results_cache("hits"),
        results_cache("misses")
    ));
    // Peak queue/worker occupancy over the load run, from the daemon's
    // live gauges — how close the bench drove the pool to saturation.
    // Rendered only when the daemon published them (schema stays 2: the
    // line fails `parse_run_line`, so trajectory readers are unaffected).
    if let (Some(qp), Some(wp)) = (
        snap.gauge("serve/queue/peak"),
        snap.gauge("serve/workers/peak"),
    ) {
        out.push_str(&format!(
            "  \"gauges\": {{ \"queue_peak\": {qp:.0}, \"workers_peak\": {wp:.0} }},\n"
        ));
    }
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"threads\": {}, \"wall_ms\": {:.2}, \"cells\": {} }}{comma}\n",
            r.threads, r.wall_ms, r.cells
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

pub(crate) fn run(_args: &[String]) -> Outcome {
    println!("== Serve-path throughput: closed-loop clients against the loopback daemon ==\n");

    let expected = direct_cycles();
    for (name, cycles) in &expected {
        println!(
            "{name:<10} {cycles:>12} cycles over {} engines",
            EngineId::CANONICAL.len()
        );
    }

    let clients = threads();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: clients,
        queue_depth: (clients * MIX.len()).max(iwc_serve::DEFAULT_QUEUE_DEPTH),
        // The workload mix never touches the disk results cache; keep the
        // bench hermetic (the counters still render, pinned at zero).
        results_cache: None,
        // A loaded debug-build daemon exceeds any sane slow threshold on
        // every job; the slow-request log is the daemon's concern, not
        // the load generator's.
        slow_ms: 0,
    };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("servebench: cannot bind loopback: {e}");
            return Outcome::fail();
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: no bound address: {e}");
            return Outcome::fail();
        }
    };
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());

    let started = Instant::now();
    let load = drive(addr, clients, &expected);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let snap = handle.stats();
    let _ = client::post(addr, "/shutdown", "");
    handle.shutdown();
    let drained = matches!(daemon.join(), Ok(Ok(())));

    println!(
        "\n{} mix workloads x {} engines: served cycles {}",
        MIX.len(),
        EngineId::CANONICAL.len(),
        if load.failures == 0 {
            "agree"
        } else {
            "DISAGREE"
        }
    );
    println!(
        "graceful drain: {}",
        if drained { "clean" } else { "FAILED" }
    );

    let record = RunRecord {
        threads: threads(),
        wall_ms,
        cells: load.requests,
    };
    let path = results_dir().join("BENCH_serve.json");
    let mut runs = prior_runs(&std::fs::read_to_string(&path).unwrap_or_default(), &record);
    runs.push(record);

    let json = render_json(&load, wall_ms, &snap, &runs);
    if let Err(e) =
        std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, &json))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    #[allow(clippy::cast_precision_loss)]
    let rps = load.requests as f64 / (wall_ms / 1e3).max(1e-9);
    eprintln!(
        "[servebench] {} requests in {wall_ms:.1} ms ({rps:.1} req/s), \
         p50 <= {} us, p99 <= {} us",
        load.requests,
        load.latency_us.quantile_hi(0.50),
        load.latency_us.quantile_hi(0.99)
    );
    eprintln!(
        "[servebench] cache: {} hits / {} misses / {} decodes, \
         results_cache: {} hits / {} misses -> {}",
        snap.counter("serve/cache/hits").unwrap_or(0),
        snap.counter("serve/cache/misses").unwrap_or(0),
        snap.counter("serve/cache/decodes").unwrap_or(0),
        snap.counter("serve/results_cache/hits").unwrap_or(0),
        snap.counter("serve/results_cache/misses").unwrap_or(0),
        path.display()
    );

    if load.failures == 0 && drained {
        Outcome::cells(load.requests)
    } else {
        Outcome::fail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_cycles_sums_all_engines() {
        let body =
            "{\"results\":[{\"engine\":\"base\",\"cycles\":10,\"telemetry\":{\"sim/cycles\":10}},\
                    {\"engine\":\"scc\",\"cycles\":7}]}";
        // Telemetry counters named "cycles" must not double-count: only
        // `"cycles":` fields are summed, and the telemetry snapshot nests
        // them under prefixed names like "sim/cycles".
        assert_eq!(served_cycles(body), 17);
    }

    #[test]
    fn report_runs_stay_line_parseable() {
        let load = LoadStats {
            requests: 16,
            failures: 0,
            latency_us: Pow2Hist::new(),
        };
        let runs = vec![RunRecord {
            threads: 2,
            wall_ms: 125.0,
            cells: 16,
        }];
        let text = render_json(
            &load,
            125.0,
            &iwc_telemetry::TelemetrySnapshot::new(),
            &runs,
        );
        let parsed: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
        assert_eq!(parsed, runs);
        assert!(text.contains("\"requests_per_s\": 128.0"), "{text}");
        assert!(text.contains("\"name\": \"serve\""));
        assert!(
            text.contains("\"results_cache\": { \"hits\": 0, \"misses\": 0 }"),
            "{text}"
        );
        // An empty snapshot publishes no gauges, so the line is absent...
        assert!(!text.contains("\"gauges\""), "{text}");

        // ...and a daemon snapshot with live peaks renders them without
        // disturbing the run-line trajectory readers.
        let mut snap = iwc_telemetry::TelemetrySnapshot::new();
        snap.set_gauge("serve/queue/peak", 3.0);
        snap.set_gauge("serve/workers/peak", 2.0);
        let text = render_json(&load, 125.0, &snap, &runs);
        assert!(
            text.contains("\"gauges\": { \"queue_peak\": 3, \"workers_peak\": 2 }"),
            "{text}"
        );
        let parsed: Vec<RunRecord> = text.lines().filter_map(parse_run_line).collect();
        assert_eq!(parsed, runs);
    }

    #[test]
    fn prior_runs_supersede_same_shape() {
        let current = RunRecord {
            threads: 2,
            wall_ms: 100.0,
            cells: 16,
        };
        let text = "  \"runs\": [\n\
             { \"threads\": 2, \"wall_ms\": 999.0, \"cells\": 16 },\n\
             { \"threads\": 4, \"wall_ms\": 50.0, \"cells\": 32 }\n  ]";
        let runs = prior_runs(text, &current);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].cells, 32);
    }
}
