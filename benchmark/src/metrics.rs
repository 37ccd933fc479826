//! The metric vocabulary (names, units, direction, bounds), the order
//! statistics the report uses, and the result line the benchmark prints.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression; also the steadiness limit on the
    /// quartile spread.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off, printed by every
/// workload. `work_per_s` counts each workload's own unit of work (see
/// [`work_unit`]).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// What `work_per_s` counts and what one latency sample (`op_*_ms`) times,
/// per workload, with the workload-specific name the metric carries in
/// the human-readable report.
pub fn work_unit(workload: &str) -> (&'static str, &'static str, &'static str) {
    match workload {
        "sim_catalog" => ("sim_cycles_per_s", "simulated cycles", "one catalog cell"),
        "trace_corpus" => ("corpus_traces_per_s", "traces analyzed", "one trace"),
        _ => (
            "serve_rps",
            "completed requests",
            "one request, client-timed",
        ),
    }
}

/// The per-layer metrics of the traced run, `(name, unit)`. Every workload
/// prints all of them; a layer the workload does not call reads 0.
/// Timings (`_ms`) are span self times summed over the traced run; serve
/// phases (`serve.*_us`) are per-job means from the daemon's histograms.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.build_ms", "ms"),
    ("workloads.check_ms", "ms"),
    ("sim.decode_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.image_clone_ms", "ms"),
    ("sim.cells", "count"),
    ("sim.cycles", "count"),
    ("sim.issued", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("mem.lines_requested", "count"),
    ("mem.l3.hit_ratio", "ratio"),
    ("eu.stall.mem_latency_share", "ratio"),
    ("sim.wheel.skip_ratio", "ratio"),
    ("sim.burst.plan_ratio", "ratio"),
    ("compaction.scc_swizzles", "count"),
    ("trace.pack_write_ms", "ms"),
    ("trace.pack_open_ms", "ms"),
    ("trace.stream_ms", "ms"),
    ("trace.fold_ms", "ms"),
    ("trace.store_ms", "ms"),
    ("trace.records", "count"),
    ("trace.runs", "count"),
    ("trace.mean_run_len", "records"),
    ("trace.bytes_read", "bytes"),
    ("serve.boot_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.simulate_us", "us"),
    ("serve.render_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.decode_cache.hit_ratio", "ratio"),
    ("serve.results_cache.hit_ratio", "ratio"),
    ("serve.queue_peak", "count"),
    ("serve.workers_peak", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.rejected", "count"),
    ("bench.verify_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("tracing.wall_ms", "ms"),
    ("tracing.overhead_ratio", "ratio"),
];

/// Smallest of `values` (0 when empty).
pub fn min(values: &[f64]) -> f64 {
    percentile(values, 0.0)
}

/// Largest of `values` (0 when empty).
pub fn max(values: &[f64]) -> f64 {
    percentile(values, 100.0)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can put `j` past the exact position.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile spread as a share of the median: `(q3 - q1) / q2`.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it among `n` samples — the tail a run of that size
/// can actually resolve. `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille, so the "samples beyond" count is exact integer math.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// A metric value as JSON: all the digits of the measurement, and 0 for a
/// value that is not a finite number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object the benchmark prints last on stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[("a_ms", 1.25, "ms"), ("b", f64::NAN, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        iwc_telemetry::json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn benchmark_json_declares_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = iwc_telemetry::json::parse(text).expect("BENCHMARK.json parses");
        let e2e = doc
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(e2e) {
            assert_eq!(j.get("name").and_then(|v| v.as_str()), Some(m.name));
            assert_eq!(j.get("unit").and_then(|v| v.as_str()), Some(m.unit));
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(j.get("better").and_then(|v| v.as_str()), Some(better));
            assert_eq!(j.get("bound").and_then(|v| v.as_num()), Some(m.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(|v| v.as_arr())
            .expect("per_layer");
        let names: Vec<(&str, &str)> = layers
            .iter()
            .map(|j| {
                (
                    j.get("name").and_then(|v| v.as_str()).expect("name"),
                    j.get("unit").and_then(|v| v.as_str()).expect("unit"),
                )
            })
            .collect();
        assert_eq!(names, PER_LAYER.to_vec());
    }
}
