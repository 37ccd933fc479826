//! Job model: request parsing, execution, and response rendering.
//!
//! A job names either a catalog workload (simulated cycle-accurately),
//! carries an execution-mask trace payload (replayed analytically), or
//! references a trace by name in a server-side corpus pack (streamed out
//! of `IWC_CORPUS_DIR`, never shipped over the wire), plus the list of
//! compaction engines to sweep and optional [`GpuConfig`] overrides. One
//! job is one decode — the engine sweep shares the decoded plans through
//! the [`SessionCache`] — and responses embed each run's
//! [`TelemetrySnapshot`] JSON verbatim, so a served result is
//! byte-identical to a direct in-process run. Analytical jobs (trace and
//! pack) are additionally answered from the content-addressed results
//! cache when one is attached, with `serve/results_cache/{hits,misses}`
//! accounting.

use crate::cache::SessionCache;
use iwc_compaction::{EngineId, EngineRegistry};
use iwc_sim::{timeline, DecodedProgram, Gpu, GpuConfig};
use iwc_telemetry::json::{escape, parse, Json};
use iwc_telemetry::TelemetrySnapshot;
use iwc_trace::{
    analyze_source_engines, CorpusPack, SliceSource, Trace, TraceIoError, TraceReport,
};
use iwc_workloads::hash::{program_hash, trace_hash};
use iwc_workloads::{catalog, Built, Category};
use std::fmt::Write as _;

/// Version tag folded into results-cache keys for trace/pack job bodies:
/// bump whenever the rendered response shape changes.
const RESULTS_FINGERPRINT: &str = "serve/trace/v1";

/// A parsed job request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Catalog workload name (exclusive with `trace` and `pack`).
    pub workload: Option<String>,
    /// Mask-trace payload: the `iwc-trace` binary format, base64-encoded
    /// (exclusive with `workload` and `pack`).
    pub trace: Option<String>,
    /// Server-side corpus-pack trace reference, `"name"` (the default
    /// `corpus.iwcc` pack) or `"pack-stem:name"`, resolved inside the
    /// `IWC_CORPUS_DIR` store (exclusive with `workload` and `trace`).
    pub pack: Option<String>,
    /// Engines to sweep (defaults to the canonical four).
    pub engines: Vec<EngineId>,
    /// Problem-size knob for catalog builds.
    pub scale: u32,
    /// Stream Perfetto trace-event JSON per engine (workload jobs only;
    /// enables the simulator issue log).
    pub trace_events: bool,
    /// Config overrides applied on top of [`GpuConfig::paper_default`].
    pub overrides: ConfigOverrides,
}

/// Optional [`GpuConfig`] overrides carried by a job.
#[derive(Debug, Clone, Default)]
pub struct ConfigOverrides {
    /// `with_issue_per_cycle`.
    pub issue_per_cycle: Option<u32>,
    /// `with_dc_bandwidth`.
    pub dc_bandwidth: Option<f64>,
    /// `with_perfect_l3`.
    pub perfect_l3: Option<bool>,
}

impl ConfigOverrides {
    /// Applies the overrides to `cfg`.
    pub fn apply(&self, mut cfg: GpuConfig) -> GpuConfig {
        if let Some(n) = self.issue_per_cycle {
            cfg = cfg.with_issue_per_cycle(n);
        }
        if let Some(bw) = self.dc_bandwidth {
            cfg = cfg.with_dc_bandwidth(bw);
        }
        if let Some(p) = self.perfect_l3 {
            cfg = cfg.with_perfect_l3(p);
        }
        cfg
    }
}

/// A job failure, mapped onto an HTTP status by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Malformed request body or field (→ 400).
    BadRequest(String),
    /// Workload or engine label not found (→ 404).
    NotFound(String),
    /// Simulation or functional-check failure (→ 500).
    Failed(String),
}

impl JobError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            Self::BadRequest(_) => 400,
            Self::NotFound(_) => 404,
            Self::Failed(_) => 500,
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        match self {
            Self::BadRequest(m) | Self::NotFound(m) | Self::Failed(m) => m,
        }
    }
}

impl JobRequest {
    /// Parses a job request from a JSON body.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::BadRequest`] for unparseable JSON or invalid
    /// field combinations and [`JobError::NotFound`] for unknown engine
    /// labels.
    pub fn from_json(body: &str) -> Result<Self, JobError> {
        let v = parse(body).map_err(|e| JobError::BadRequest(format!("invalid JSON: {e}")))?;
        let workload = v.get("workload").and_then(Json::as_str).map(String::from);
        let trace = v.get("trace").and_then(Json::as_str).map(String::from);
        let pack = v.get("pack").and_then(Json::as_str).map(String::from);
        match [&workload, &trace, &pack]
            .iter()
            .filter(|f| f.is_some())
            .count()
        {
            0 => {
                return Err(JobError::BadRequest(
                    "job needs a \"workload\" name, a \"trace\" payload, or a \"pack\" reference"
                        .into(),
                ))
            }
            1 => {}
            _ => {
                return Err(JobError::BadRequest(
                    "\"workload\", \"trace\", and \"pack\" are mutually exclusive".into(),
                ))
            }
        }
        if let Some(spec) = &pack {
            split_pack_spec(spec)?;
        }
        let engines = match v.get("engines").and_then(Json::as_arr) {
            None => EngineId::CANONICAL.to_vec(),
            Some(arr) => {
                if arr.is_empty() {
                    return Err(JobError::BadRequest("\"engines\" must be non-empty".into()));
                }
                arr.iter()
                    .map(|e| {
                        let label = e.as_str().ok_or_else(|| {
                            JobError::BadRequest("engine labels are strings".into())
                        })?;
                        EngineRegistry::global()
                            .find(label)
                            .ok_or_else(|| JobError::NotFound(format!("unknown engine {label:?}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let scale = match v.get("scale") {
            None => 1,
            Some(s) => match s.as_num() {
                Some(n) if n >= 1.0 && n <= u32::MAX as f64 && n.fract() == 0.0 => n as u32,
                _ => {
                    return Err(JobError::BadRequest(
                        "\"scale\" must be a positive integer".into(),
                    ))
                }
            },
        };
        let trace_events = matches!(v.get("trace_events"), Some(Json::Bool(true)));
        let overrides = parse_overrides(v.get("config"))?;
        Ok(Self {
            workload,
            trace,
            pack,
            engines,
            scale,
            trace_events,
            overrides,
        })
    }
}

/// Splits a pack reference into `(pack stem, trace name)`, defaulting the
/// stem to `"corpus"`. The stem names a file inside the corpus store, so
/// path separators and `..` are rejected — a job must not be able to walk
/// out of `IWC_CORPUS_DIR`.
fn split_pack_spec(spec: &str) -> Result<(&str, &str), JobError> {
    let (stem, name) = match spec.split_once(':') {
        Some((stem, name)) => (stem, name),
        None => ("corpus", spec),
    };
    if stem.is_empty() || name.is_empty() {
        return Err(JobError::BadRequest(
            "\"pack\" must be \"name\" or \"pack-stem:name\"".into(),
        ));
    }
    if stem.contains(['/', '\\']) || stem.contains("..") {
        return Err(JobError::BadRequest(format!(
            "pack stem {stem:?} must not contain path separators or \"..\""
        )));
    }
    Ok((stem, name))
}

/// Lowest accepted `"dc_bandwidth"`, in lines per cycle: a thousand
/// cycles per line is far outside the paper's DC1/DC2 study, and values
/// near zero push the data cluster's timing past any representable cycle.
const MIN_DC_BANDWIDTH: f64 = 1.0 / 1024.0;

fn parse_overrides(cfg: Option<&Json>) -> Result<ConfigOverrides, JobError> {
    let mut out = ConfigOverrides::default();
    let Some(cfg) = cfg else { return Ok(out) };
    if let Some(n) = cfg.get("issue_per_cycle") {
        match n.as_num() {
            Some(v) if (1.0..=16.0).contains(&v) && v.fract() == 0.0 => {
                out.issue_per_cycle = Some(v as u32);
            }
            _ => {
                return Err(JobError::BadRequest(
                    "\"issue_per_cycle\" must be an integer in 1..=16".into(),
                ))
            }
        }
    }
    if let Some(n) = cfg.get("dc_bandwidth") {
        match n.as_num() {
            Some(v) if v >= MIN_DC_BANDWIDTH && v.is_finite() => out.dc_bandwidth = Some(v),
            _ => {
                return Err(JobError::BadRequest(format!(
                    "\"dc_bandwidth\" must be a finite number of lines per cycle, at least {MIN_DC_BANDWIDTH}"
                )))
            }
        }
    }
    if let Some(b) = cfg.get("perfect_l3") {
        match b {
            Json::Bool(v) => out.perfect_l3 = Some(*v),
            _ => {
                return Err(JobError::BadRequest(
                    "\"perfect_l3\" must be a boolean".into(),
                ))
            }
        }
    }
    Ok(out)
}

/// A sink for live job events (pre-rendered JSON lines). The WebSocket
/// connection forwards these to the client as text messages.
pub type EventSink<'a> = Option<&'a dyn Fn(String)>;

fn emit(sink: EventSink<'_>, event: String) {
    if let Some(f) = sink {
        f(event);
    }
}

/// Runs a parsed job to a complete response body.
///
/// Workload jobs sweep each engine cold (fresh memory image) over plans
/// decoded once via `cache`; trace jobs replay the mask stream
/// analytically, and pack jobs stream a named trace out of the corpus
/// store instead of shipping it over the wire. Analytical jobs are
/// answered from the content-addressed results cache when `cache` has one
/// attached. Per-engine completion events stream into `sink` as they
/// happen.
///
/// # Errors
///
/// Returns [`JobError`] for unknown names, simulator failures, or failed
/// functional checks.
pub fn run_job(
    req: &JobRequest,
    cache: &SessionCache,
    sink: EventSink<'_>,
) -> Result<String, JobError> {
    match (&req.workload, &req.trace, &req.pack) {
        (Some(name), None, None) => run_workload_job(name, req, cache, sink),
        (None, Some(text), None) => run_trace_job(text, req, cache, sink),
        (None, None, Some(spec)) => run_pack_job(spec, req, cache, sink),
        _ => Err(JobError::BadRequest(
            "job needs exactly one of \"workload\", \"trace\", or \"pack\"".into(),
        )),
    }
}

fn run_workload_job(
    name: &str,
    req: &JobRequest,
    cache: &SessionCache,
    sink: EventSink<'_>,
) -> Result<String, JobError> {
    let entry = catalog()
        .into_iter()
        .find(|e| e.name == name)
        .ok_or_else(|| JobError::NotFound(format!("unknown workload {name:?}")))?;
    let built: Built = (entry.build)(req.scale);
    let hash = program_hash(&built.launch.program);
    emit(
        sink,
        format!(
            "{{\"event\":\"accepted\",\"job\":\"{}\",\"kind\":\"workload\",\"program_hash\":\"{hash:#018x}\",\"engines\":{}}}",
            escape(name),
            req.engines.len()
        ),
    );

    let mut results = String::new();
    for (i, &engine) in req.engines.iter().enumerate() {
        let base = req.overrides.apply(GpuConfig::paper_default());
        let cfg = base
            .with_compaction(engine)
            .with_issue_log(req.trace_events);
        let decoded = cache.get_or_decode(hash, engine, || {
            DecodedProgram::decode(&built.launch.program)
        });
        let mut img = built.img.clone();
        let r = Gpu::new(cfg)
            .run_decoded(&built.launch, &mut img, &decoded)
            .map_err(|e| JobError::Failed(format!("{name}/{}: {e}", engine.label())))?;
        if let Some(check) = &built.check {
            check(&img).map_err(|e| JobError::Failed(format!("{name} check failed: {e}")))?;
        }
        let engine_json = render_engine_result(engine, r.cycles, r.simd_efficiency(), &r.telemetry);
        emit(
            sink,
            format!(
                "{{\"event\":\"engine_done\",\"job\":\"{}\",\"result\":{engine_json}}}",
                escape(name)
            ),
        );
        if req.trace_events {
            let chrome = timeline::chrome_trace(&r.eu.issue_log, &r.eu.stall_log);
            emit(
                sink,
                format!(
                    "{{\"event\":\"trace\",\"job\":\"{}\",\"engine\":\"{}\",\"data\":{}}}",
                    escape(name),
                    escape(&engine.label()),
                    chrome.to_json()
                ),
            );
        }
        if i > 0 {
            results.push(',');
        }
        results.push_str(&engine_json);
    }
    emit(
        sink,
        format!("{{\"event\":\"done\",\"job\":\"{}\"}}", escape(name)),
    );
    Ok(format!(
        "{{\"job\":\"{}\",\"kind\":\"workload\",\"scale\":{},\"program_hash\":\"{hash:#018x}\",\"results\":[{results}]}}",
        escape(name),
        req.scale
    ))
}

/// Renders one engine's result object: label, cycles, SIMD efficiency,
/// and the run's telemetry snapshot JSON embedded verbatim (so the served
/// bytes match a direct `TelemetrySnapshot::to_json` call exactly).
fn render_engine_result(
    engine: EngineId,
    cycles: u64,
    simd_efficiency: f64,
    telemetry: &TelemetrySnapshot,
) -> String {
    format!(
        "{{\"engine\":\"{}\",\"cycles\":{cycles},\"simd_efficiency\":{simd_efficiency:.6},\"telemetry\":{}}}",
        escape(&engine.label()),
        telemetry.to_json()
    )
}

/// Results-cache key for an analytical trace job. The trace name is
/// folded into the fingerprint (trace hashes deliberately exclude names,
/// but the response body embeds one), and engine labels are keyed in
/// request order because the results array follows it.
fn results_key(name: &str, hash: u64, req: &JobRequest) -> u64 {
    let labels: Vec<String> = req.engines.iter().map(|e| e.label()).collect();
    iwc_trace::ResultsCache::key(hash, &labels, &format!("{RESULTS_FINGERPRINT}/{name}"))
}

fn run_trace_job(
    text: &str,
    req: &JobRequest,
    cache: &SessionCache,
    sink: EventSink<'_>,
) -> Result<String, JobError> {
    let bytes = crate::ws::base64_decode(text)
        .ok_or_else(|| JobError::BadRequest("\"trace\" is not valid base64".into()))?;
    let trace = Trace::read_from(bytes.as_slice())
        .map_err(|e| JobError::BadRequest(format!("invalid trace payload: {e:?}")))?;
    if trace.is_empty() {
        return Err(JobError::BadRequest("trace has no records".into()));
    }
    let hash = trace_hash(&trace);
    emit(
        sink,
        format!(
            "{{\"event\":\"accepted\",\"job\":\"{}\",\"kind\":\"trace\",\"trace_hash\":\"{hash:#018x}\",\"engines\":{}}}",
            escape(&trace.name),
            req.engines.len()
        ),
    );
    answer_trace_analysis(
        &trace.name,
        hash,
        trace.len() as u64,
        req,
        cache,
        sink,
        || {
            analyze_source_engines(&mut SliceSource::from(&trace), &req.engines)
                .map_err(|e| JobError::Failed(format!("trace {:?}: {e}", trace.name)))
        },
    )
}

fn run_pack_job(
    spec: &str,
    req: &JobRequest,
    cache: &SessionCache,
    sink: EventSink<'_>,
) -> Result<String, JobError> {
    let (stem, name) = split_pack_spec(spec)?;
    let path = iwc_trace::corpus_dir().join(format!("{stem}.iwcc"));
    let mut pack = CorpusPack::open_path(&path).map_err(|e| match e {
        TraceIoError::Io(ref io) if io.kind() == std::io::ErrorKind::NotFound => {
            JobError::NotFound(format!("no pack {stem:?} in the corpus store"))
        }
        other => JobError::Failed(format!("cannot open pack {stem:?}: {other}")),
    })?;
    let index = pack
        .find(name)
        .ok_or_else(|| JobError::NotFound(format!("no trace {name:?} in pack {stem:?}")))?;
    let entry = pack.entries()[index].clone();
    if entry.records == 0 {
        return Err(JobError::BadRequest(format!(
            "trace {name:?} in pack {stem:?} has no records"
        )));
    }
    let hash = entry.content_hash;
    emit(
        sink,
        format!(
            "{{\"event\":\"accepted\",\"job\":\"{}\",\"kind\":\"pack\",\"trace_hash\":\"{hash:#018x}\",\"engines\":{}}}",
            escape(&entry.name),
            req.engines.len()
        ),
    );
    answer_trace_analysis(&entry.name, hash, entry.records, req, cache, sink, || {
        let mut src = pack
            .stream(index)
            .map_err(|e| JobError::Failed(format!("pack {stem:?}: {e}")))?;
        analyze_source_engines(&mut src, &req.engines)
            .map_err(|e| JobError::Failed(format!("pack {stem:?}/{name}: {e}")))
    })
}

/// Renders an analytical trace job's response body, answering from the
/// results cache when possible. Pack jobs and base64 trace jobs share
/// this path, so a job for the same records under either transport
/// renders (and caches) byte-identical bodies. On a cache hit the
/// per-engine events are skipped; `done` carries `"cached":true`.
fn answer_trace_analysis(
    name: &str,
    hash: u64,
    records: u64,
    req: &JobRequest,
    cache: &SessionCache,
    sink: EventSink<'_>,
    analyze: impl FnOnce() -> Result<TraceReport, JobError>,
) -> Result<String, JobError> {
    let key = results_key(name, hash, req);
    if let Some(body) = cache.results_lookup(key) {
        emit(
            sink,
            format!(
                "{{\"event\":\"done\",\"job\":\"{}\",\"cached\":true}}",
                escape(name)
            ),
        );
        return Ok(body);
    }
    let report = analyze()?;
    let mut snap = TelemetrySnapshot::new();
    snap.set_counter("trace/records", records);
    snap.set_counter("trace/instructions", report.tally.instructions);
    snap.set_gauge("trace/simd_efficiency", report.tally.simd_efficiency());
    let mut results = String::new();
    for (i, &engine) in req.engines.iter().enumerate() {
        let cycles = report.tally.cycles_of(engine);
        snap.set_counter(&format!("trace/cycles/{}", engine.label()), cycles);
        if i > 0 {
            results.push(',');
        }
        let _ = write!(
            results,
            "{{\"engine\":\"{}\",\"cycles\":{cycles}}}",
            escape(&engine.label())
        );
        emit(
            sink,
            format!(
                "{{\"event\":\"engine_done\",\"job\":\"{}\",\"result\":{{\"engine\":\"{}\",\"cycles\":{cycles}}}}}",
                escape(name),
                escape(&engine.label())
            ),
        );
    }
    emit(
        sink,
        format!("{{\"event\":\"done\",\"job\":\"{}\"}}", escape(name)),
    );
    let body = format!(
        "{{\"job\":\"{}\",\"kind\":\"trace\",\"trace_hash\":\"{hash:#018x}\",\"records\":{records},\"simd_efficiency\":{:.6},\"results\":[{results}],\"telemetry\":{}}}",
        escape(name),
        report.tally.simd_efficiency(),
        snap.to_json()
    );
    cache.results_store(key, &body);
    Ok(body)
}

/// The catalog listing body for `GET /v1/catalog`.
pub fn catalog_json() -> String {
    let mut out = String::from("{\"workloads\":[");
    for (i, e) in catalog().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = match e.category {
            Category::Coherent => "coherent",
            Category::Divergent => "divergent",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"category\":\"{cat}\"}}",
            escape(e.name)
        );
    }
    out.push_str("],\"engines\":[");
    for (i, id) in EngineId::CANONICAL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(&id.label()));
    }
    out.push_str("]}");
    out
}

/// Extracts the balanced-brace JSON object that starts right after
/// `needle` in `body` (e.g. `"telemetry":`), byte-exact. Used by tests and
/// the CI smoke check to compare served telemetry bytes with a direct
/// in-process render without a parse/re-print round trip.
pub fn object_after<'a>(body: &'a str, needle: &str) -> Option<&'a str> {
    let start = body.find(needle)? + needle.len();
    let bytes = body.as_bytes();
    if *bytes.get(start)? != b'{' {
        return None;
    }
    let mut depth = 0usize;
    let mut in_str = false;
    let mut esc = false;
    for (i, &b) in bytes[start..].iter().enumerate() {
        if esc {
            esc = false;
            continue;
        }
        match b {
            b'\\' if in_str => esc = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[start..start + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwc_telemetry::Registry;

    fn cache() -> SessionCache {
        SessionCache::new(&Registry::new())
    }

    #[test]
    fn parses_minimal_workload_request() {
        let req = JobRequest::from_json("{\"workload\":\"VA\"}").expect("parses");
        assert_eq!(req.workload.as_deref(), Some("VA"));
        assert_eq!(req.engines, EngineId::CANONICAL.to_vec());
        assert_eq!(req.scale, 1);
        assert!(!req.trace_events);
    }

    #[test]
    fn parses_engines_scale_and_overrides() {
        let req = JobRequest::from_json(
            "{\"workload\":\"BFS\",\"engines\":[\"scc\",\"base\"],\"scale\":2,\
             \"config\":{\"issue_per_cycle\":2,\"perfect_l3\":true,\"sched\":\"tick\"}}",
        )
        .expect("parses");
        assert_eq!(req.engines.len(), 2);
        assert_eq!(req.scale, 2);
        assert_eq!(req.overrides.issue_per_cycle, Some(2));
        assert_eq!(req.overrides.perfect_l3, Some(true));
        // "sched" names a retired scheduler knob: ignored like any other
        // unknown config key.
        assert_eq!(req.overrides.dc_bandwidth, None);
    }

    #[test]
    fn dc_bandwidth_has_a_floor() {
        let parse = |bw: &str| {
            JobRequest::from_json(&format!(
                "{{\"workload\":\"VA\",\"config\":{{\"dc_bandwidth\":{bw}}}}}"
            ))
        };
        for bad in ["1e-300", "0.0009", "0", "-1", "\"2\""] {
            let err = parse(bad).expect_err(bad);
            assert!(matches!(err, JobError::BadRequest(_)), "{bad}: {err:?}");
            assert_eq!(err.status(), 400, "{bad}");
        }
        for good in ["0.0009765625", "1", "2.0"] {
            let req = parse(good).expect(good);
            assert_eq!(req.overrides.dc_bandwidth, Some(good.parse().unwrap()));
        }
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(matches!(
            JobRequest::from_json("{}"),
            Err(JobError::BadRequest(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"workload\":\"VA\",\"trace\":\"x\"}"),
            Err(JobError::BadRequest(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"workload\":\"VA\",\"engines\":[]}"),
            Err(JobError::BadRequest(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"workload\":\"VA\",\"engines\":[\"nope\"]}"),
            Err(JobError::NotFound(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"workload\":\"VA\",\"scale\":0}"),
            Err(JobError::BadRequest(_))
        ));
        assert!(matches!(
            JobRequest::from_json("not json"),
            Err(JobError::BadRequest(_))
        ));
    }

    #[test]
    fn workload_job_matches_direct_run_bytes() {
        let req =
            JobRequest::from_json("{\"workload\":\"VA\",\"engines\":[\"scc\"]}").expect("parses");
        let body = run_job(&req, &cache(), None).expect("runs");

        let built = (catalog()
            .into_iter()
            .find(|e| e.name == "VA")
            .expect("VA exists")
            .build)(1);
        let direct = built
            .run_checked(&GpuConfig::paper_default().with_compaction(EngineId::SCC))
            .expect("direct run");

        assert!(body.contains(&format!("\"cycles\":{}", direct.cycles)));
        let served = object_after(&body, "\"telemetry\":").expect("has telemetry");
        assert_eq!(served, direct.telemetry.to_json(), "telemetry bytes differ");
    }

    #[test]
    fn unknown_workload_is_not_found() {
        let req = JobRequest::from_json("{\"workload\":\"no-such\"}").expect("parses");
        assert!(matches!(
            run_job(&req, &cache(), None),
            Err(JobError::NotFound(_))
        ));
    }

    #[test]
    fn trace_job_replays_analytically() {
        use iwc_isa::mask::ExecMask;
        use iwc_isa::DataType;
        let mut t = Trace::new("synthetic");
        t.push(ExecMask::new(0xF0F0, 16), DataType::F);
        t.push(ExecMask::all(16), DataType::F);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("serializes");
        let payload = crate::ws::base64(&buf);

        let body = format!("{{\"trace\":\"{payload}\",\"engines\":[\"ivb\",\"bcc\"]}}");
        let req = JobRequest::from_json(&body).expect("parses");
        let resp = run_job(&req, &cache(), None).expect("runs");
        // ivb = 4+4 = 8 quads, bcc = 2+4 = 6 (the analyze.rs doctest case).
        assert!(resp.contains("\"engine\":\"ivb\",\"cycles\":8"), "{resp}");
        assert!(resp.contains("\"engine\":\"bcc\",\"cycles\":6"), "{resp}");
        assert!(resp.contains("\"kind\":\"trace\""));
    }

    #[test]
    fn events_stream_in_order() {
        use std::sync::Mutex;
        let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let sink = |e: String| events.lock().expect("lock").push(e);
        let req = JobRequest::from_json("{\"workload\":\"VA\",\"engines\":[\"base\",\"scc\"]}")
            .expect("parses");
        run_job(&req, &cache(), Some(&sink)).expect("runs");
        let events = events.into_inner().expect("lock");
        assert_eq!(events.len(), 4, "accepted + 2 engine_done + done");
        assert!(events[0].contains("\"event\":\"accepted\""));
        assert!(events[1].contains("\"event\":\"engine_done\""));
        assert!(events[3].contains("\"event\":\"done\""));
    }

    #[test]
    fn pack_specs_are_validated_at_parse_time() {
        for bad in [
            "{\"pack\":\"../evil:t\"}",
            "{\"pack\":\"a/b:t\"}",
            "{\"pack\":\"a\\\\b:t\"}",
            "{\"pack\":\"\"}",
            "{\"pack\":\"stem:\"}",
            "{\"pack\":\":name\"}",
            "{\"pack\":\"x\",\"workload\":\"VA\"}",
            "{\"pack\":\"x\",\"trace\":\"AAAA\"}",
        ] {
            assert!(
                matches!(JobRequest::from_json(bad), Err(JobError::BadRequest(_))),
                "{bad} must be rejected"
            );
        }
        let req = JobRequest::from_json("{\"pack\":\"mypack:LuxMark-sky\"}").expect("parses");
        assert_eq!(req.pack.as_deref(), Some("mypack:LuxMark-sky"));
        assert_eq!(
            split_pack_spec("mypack:LuxMark-sky").expect("splits"),
            ("mypack", "LuxMark-sky")
        );
        assert_eq!(split_pack_spec("sole").expect("splits"), ("corpus", "sole"));
    }

    #[test]
    fn pack_jobs_resolve_stream_and_share_the_results_cache() {
        use iwc_telemetry::Registry;
        let dir = std::env::temp_dir().join(format!("iwc-serve-packjob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        std::env::set_var("IWC_CORPUS_DIR", &dir);

        let traces: Vec<Trace> = iwc_trace::corpus()
            .iter()
            .take(2)
            .map(|p| p.generate(400))
            .collect();
        iwc_trace::pack::write_pack_file(&dir.join("corpus.iwcc"), &traces).expect("pack");

        let reg = Registry::new();
        let cache =
            SessionCache::new(&reg).with_results(iwc_trace::ResultsCache::new(dir.join("cache")));

        let name = &traces[0].name;
        let req = JobRequest::from_json(&format!(
            "{{\"pack\":\"{name}\",\"engines\":[\"ivb\",\"scc\"]}}"
        ))
        .expect("parses");
        let first = run_job(&req, &cache, None).expect("pack job runs");
        assert!(first.contains("\"kind\":\"trace\""), "{first}");
        assert!(first.contains("\"records\":400"), "{first}");

        // The identical trace shipped as a base64 payload renders the same
        // body — answered straight from the pack job's cache entry.
        let mut buf = Vec::new();
        traces[0].write_to(&mut buf).expect("serializes");
        let b64 = crate::ws::base64(&buf);
        let req2 = JobRequest::from_json(&format!(
            "{{\"trace\":\"{b64}\",\"engines\":[\"ivb\",\"scc\"]}}"
        ))
        .expect("parses");
        let second = run_job(&req2, &cache, None).expect("trace job runs");
        assert_eq!(first, second, "pack and trace transports must agree");

        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve/results_cache/misses"), Some(1));
        assert_eq!(snap.counter("serve/results_cache/hits"), Some(1));

        // A cache hit skips engine events: accepted then done(cached).
        use std::sync::Mutex;
        let events: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let sink = |e: String| events.lock().expect("lock").push(e);
        run_job(&req, &cache, Some(&sink)).expect("cached pack job");
        let events = events.into_inner().expect("lock");
        assert_eq!(events.len(), 2, "{events:#?}");
        assert!(events[1].contains("\"cached\":true"), "{events:#?}");

        // Unknown names and packs are 404s, not failures.
        let req = JobRequest::from_json("{\"pack\":\"no-such-trace\"}").expect("parses");
        assert!(matches!(
            run_job(&req, &cache, None),
            Err(JobError::NotFound(_))
        ));
        let req = JobRequest::from_json("{\"pack\":\"nopack:t\"}").expect("parses");
        assert!(matches!(
            run_job(&req, &cache, None),
            Err(JobError::NotFound(_))
        ));

        std::env::remove_var("IWC_CORPUS_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_json_lists_workloads_and_engines() {
        let body = catalog_json();
        assert!(body.contains("\"name\":\"VA\""));
        assert!(body.contains("\"category\":\"divergent\""));
        assert!(body.contains("\"engines\":["));
        parse(&body).expect("valid JSON");
    }

    #[test]
    fn object_after_extracts_balanced_objects() {
        let body = "{\"a\":{\"b\":\"{not a { brace}\",\"c\":{\"d\":1}},\"e\":2}";
        assert_eq!(
            object_after(body, "\"a\":"),
            Some("{\"b\":\"{not a { brace}\",\"c\":{\"d\":1}}")
        );
        assert_eq!(object_after(body, "\"c\":"), Some("{\"d\":1}"));
        assert_eq!(object_after(body, "\"e\":"), None);
    }
}
