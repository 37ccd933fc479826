//! `serve_mix`: a closed loop of two keep-alive client connections
//! against an in-process loopback `iwc serve` daemon with one worker, so
//! one client's job queues behind the other's. Each client sends its next
//! job only after the previous reply arrived.
//! About three jobs in four are catalog workload jobs over the four
//! canonical engines; the rest are pack jobs against a small pack, served
//! through the results cache.

use crate::corpus::{profiles, write_pack};
use crate::metrics::{max, median, min, percentile};
use crate::span::{LayerTable, Recorder, Span};
use crate::util::{ms_since, Scratch, SplitMix64, Tally};
use crate::{Measured, Opts, Traced};
use iwc_compaction::EngineId;
use iwc_serve::{ServeConfig, Server, ServerHandle};
use iwc_sim::GpuConfig;
use iwc_telemetry::json::{self, Json};
use iwc_telemetry::TelemetrySnapshot;
use iwc_trace::analyze_source_engines;
use iwc_trace::synth::DEFAULT_TRACE_LEN;
use iwc_workloads::catalog;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Daemon worker threads. One: two workers simulating at once on a
/// shared two-core machine made `work_per_s` and `op_p50_ms` swing by a
/// quarter or more between runs minutes apart.
const WORKERS: usize = 1;

/// Catalog kernels the workload jobs draw from: coherent and divergent
/// kernels whose four-engine job costs tens of milliseconds.
const KERNELS: [&str; 4] = ["VA", "BFS", "MM", "Bsearch"];

/// Traces in the served pack.
const PACK_TRACES: usize = 16;

/// Replies a measured run collects at least: about 200 per window.
const MIN_REPLIES: usize = 200 * WINDOWS;

/// Daemon boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Equal time windows a measured run is cut into. Throughput and the
/// median latency are the best over the windows, so contention that slows
/// some windows moves nothing; p95 pools the whole run, since one window
/// holds too few samples beyond its p95 to take the best of.
const WINDOWS: usize = 5;

/// Requests per client in each half of the traced run.
const TRACED_REQUESTS: usize = 100;

/// One distinct job: its request body and the per-engine cycles a direct
/// in-process run gives.
struct Job {
    body: String,
    want: Vec<(String, u64)>,
}

/// The job list: workload jobs first, then one pack job per trace, each
/// with its expected answer from a direct in-process run.
fn jobs(pack_stem: &str, seed: u64) -> Result<Vec<Job>, String> {
    let mut out = Vec::new();
    let entries = catalog();
    for name in KERNELS {
        let entry = entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("{name} is not in the catalog"))?;
        let built = (entry.build)(1);
        let want = EngineId::CANONICAL
            .iter()
            .map(|&engine| {
                built
                    .run_checked(&GpuConfig::paper_default().with_compaction(engine))
                    .map(|r| (engine.label(), r.cycles))
            })
            .collect::<Result<_, _>>()?;
        out.push(Job {
            body: format!("{{\"workload\":\"{name}\",\"scale\":1}}"),
            want,
        });
    }
    for p in profiles(PACK_TRACES, seed) {
        let report = analyze_source_engines(&mut p.source(DEFAULT_TRACE_LEN), &EngineId::CANONICAL)
            .map_err(|e| format!("synthesis of {}: {e}", p.name))?;
        let want = EngineId::CANONICAL
            .iter()
            .map(|&engine| (engine.label(), report.tally.cycles_of(engine)))
            .collect();
        out.push(Job {
            body: format!("{{\"pack\":\"{pack_stem}:{}\"}}", p.name),
            want,
        });
    }
    Ok(out)
}

/// One client's seeded job sequence, dealt in rounds: each round holds
/// every kernel three times and as many pack jobs as kernels (traces drawn
/// from the seed), shuffled — exactly three workload jobs to one pack job,
/// so the mix does not drift between seeds.
struct Deck {
    rng: SplitMix64,
    round: Vec<usize>,
}

impl Deck {
    fn new(seed: u64, client: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed, 0xc11e_0000 + client as u64),
            round: Vec::new(),
        }
    }

    /// Index into the job list of the next job.
    fn deal(&mut self) -> usize {
        if self.round.is_empty() {
            let mut round: Vec<usize> = (0..3).flat_map(|_| 0..KERNELS.len()).collect();
            for _ in 0..KERNELS.len() {
                round.push(KERNELS.len() + self.rng.below(PACK_TRACES));
            }
            self.rng.shuffle(&mut round);
            self.round = round;
        }
        self.round.pop().expect("a dealt round is never empty")
    }
}

/// Checks one reply against the direct run: status 200 and exactly the
/// expected `(engine, cycles)` list.
fn verify(reply: std::io::Result<(u16, String)>, job: &Job) -> Result<(), String> {
    let (status, body) = reply.map_err(|e| format!("{}: {e}", job.body))?;
    if status != 200 {
        return Err(format!("{}: HTTP {status}: {body}", job.body));
    }
    let doc = json::parse(&body).map_err(|e| format!("{}: bad reply: {e}", job.body))?;
    let got: Option<Vec<(String, u64)>> = doc
        .get("results")
        .and_then(Json::as_arr)
        .map(|rs| {
            rs.iter()
                .map(|r| {
                    Some((
                        r.get("engine")?.as_str()?.to_string(),
                        r.get("cycles")?.as_num()? as u64,
                    ))
                })
                .collect()
        })
        .and_then(|v: Option<Vec<_>>| v);
    match got {
        Some(got) if got == job.want => Ok(()),
        other => Err(format!(
            "{}: served {other:?}, direct run {:?}",
            job.body, job.want
        )),
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// POSTs `body` to `path` and reads the reply's status and body.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: iwc-benchmark\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        let text = String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"))?;
        Ok((status, text))
    }
}

/// A booted, warmed daemon.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Set-up: write the pack where pack jobs resolve it, boot the daemon,
    /// and send every distinct job once so the decode and results caches
    /// are warm.
    fn setup(
        pack: &Path,
        cache_dir: &Path,
        jobs: &[Job],
        seed: u64,
        rec: &mut Recorder,
    ) -> Result<Self, String> {
        write_pack(pack, &profiles(PACK_TRACES, seed), DEFAULT_TRACE_LEN, rec)?;
        // A fresh results cache, so every set-up does the same work.
        let _ = std::fs::remove_dir_all(cache_dir);
        let daemon = rec.time("serve.boot", |_| {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: WORKERS,
                queue_depth: iwc_serve::DEFAULT_QUEUE_DEPTH,
                results_cache: Some(cache_dir.to_path_buf()),
                slow_ms: 0,
            };
            let server = Server::bind(&cfg).map_err(|e| format!("bind loopback: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("bound address: {e}"))?;
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            Ok::<_, String>(Self {
                addr,
                handle,
                thread,
            })
        })?;
        rec.time("serve.warm", |_| {
            let mut conn = Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
            jobs.iter()
                .try_for_each(|job| verify(conn.post("/v1/jobs", &job.body), job))
        })
        .map_err(|e| format!("warm-up: {e}"))?;
        Ok(daemon)
    }

    /// Drains the daemon and joins its thread.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// One reply as its client saw it.
struct Reply {
    done: Instant,
    ms: f64,
    ok: bool,
}

/// What one client thread brings back.
struct ClientRun {
    replies: Vec<Reply>,
    tally: Tally,
    spans: Vec<Span>,
    busy_ms: f64,
}

/// When a client stops: after a deadline (with at least `min` replies),
/// or after exactly `count` requests.
#[derive(Clone, Copy)]
enum Until {
    Deadline { secs: f64, min: usize },
    Count(usize),
}

/// One closed-loop client: draw a job, send it, wait, verify, repeat.
fn client(
    addr: SocketAddr,
    jobs: &[Job],
    seed: u64,
    id: usize,
    until: Until,
    traced: Option<Instant>,
    start: &Barrier,
) -> ClientRun {
    let mut rec = traced.map_or_else(Recorder::off, |epoch| Recorder::new(true, epoch));
    let mut deck = Deck::new(seed, id);
    let mut tally = Tally::default();
    let mut replies = Vec::new();
    let mut conn = Conn::connect(addr);
    start.wait();
    let started = Instant::now();
    rec.time("serve.client", |rec| {
        for n in 0.. {
            let done = match until {
                Until::Deadline { secs, min } => {
                    n >= min && started.elapsed().as_secs_f64() >= secs
                }
                Until::Count(count) => n >= count,
            };
            if done {
                break;
            }
            let job = &jobs[deck.deal()];
            rec.set_op(((id as u64) << 32) | n as u64);
            let t = Instant::now();
            let reply = rec.time("serve.request", |_| match &mut conn {
                Ok(c) => c.post("/v1/jobs", &job.body),
                Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            });
            let ms = ms_since(t);
            let failed = reply.is_err();
            let outcome = rec.time("bench.verify", |_| verify(reply, job));
            replies.push(Reply {
                done: Instant::now(),
                ms,
                ok: outcome.is_ok(),
            });
            tally.record(outcome);
            if failed {
                // A broken connection is replaced, as a real client would.
                conn = Conn::connect(addr);
            }
        }
    });
    ClientRun {
        replies,
        tally,
        spans: rec.into_spans(),
        busy_ms: ms_since(started),
    }
}

/// Runs the clients against `daemon`; returns their runs, the start
/// instant and the wall time.
fn load(
    daemon: &Daemon,
    jobs: &[Job],
    seed: u64,
    until: Until,
    traced: Option<Instant>,
) -> (Vec<ClientRun>, Instant, f64) {
    let start = Barrier::new(CLIENTS + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let start = &start;
                s.spawn(move || client(daemon.addr, jobs, seed, id, until, traced, start))
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, started, ms_since(started))
    })
}

/// The daemon's `serve/phase_us/*` histograms: phase, layer-table row,
/// per-layer metric.
const PHASES: [(&str, &str, &str); 5] = [
    ("parse", "serve.parse", "serve.parse_us"),
    ("queue", "serve.queue", "serve.queue_us"),
    ("decode", "serve.decode", "serve.decode_us"),
    ("simulate", "serve.simulate", "serve.simulate_us"),
    ("render", "serve.render", "serve.render_us"),
];

/// The daemon's work between two stats snapshots: per-job phase means,
/// cache hit ratios, occupancy peaks and failures.
struct DaemonDelta {
    jobs: f64,
    /// Per-job mean µs of each of [`PHASES`].
    phase_us: [f64; 5],
    decode_hit_ratio: f64,
    results_hit_ratio: f64,
    queue_peak: f64,
    workers_peak: f64,
    jobs_failed: f64,
    rejected: f64,
}

impl DaemonDelta {
    fn between(before: &TelemetrySnapshot, after: &TelemetrySnapshot) -> Self {
        let counter = |name: &str| {
            after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
        };
        let hist = |name: &str| {
            let (a, b) = (after.hist(name), before.hist(name));
            let sum = a.map_or(0, |h| h.sum) as f64 - b.map_or(0, |h| h.sum) as f64;
            let count = a.map_or(0, |h| h.count) as f64 - b.map_or(0, |h| h.count) as f64;
            (sum, count)
        };
        let ratio = |hits: f64, misses: f64| {
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        };
        let jobs = hist("serve/phase_us/render").1;
        let mean = |phase: &str| {
            let (sum, count) = hist(&format!("serve/phase_us/{phase}"));
            if count > 0.0 {
                sum / count
            } else {
                0.0
            }
        };
        Self {
            jobs,
            phase_us: PHASES.map(|(phase, _, _)| mean(phase)),
            decode_hit_ratio: ratio(counter("serve/cache/hits"), counter("serve/cache/misses")),
            results_hit_ratio: ratio(
                counter("serve/results_cache/hits"),
                counter("serve/results_cache/misses"),
            ),
            queue_peak: after.gauge("serve/queue/peak").unwrap_or(0.0),
            workers_peak: after.gauge("serve/workers/peak").unwrap_or(0.0),
            jobs_failed: counter("serve/jobs_failed"),
            rejected: counter("serve/rejected"),
        }
    }
}

/// Paths a run writes: the pack, where pack jobs resolve it (the corpus
/// store), and the daemon's results cache. The pack is removed on drop.
struct Files {
    scratch: Scratch,
    stem: String,
    pack: PathBuf,
}

impl Files {
    fn create() -> Result<Self, String> {
        let scratch = Scratch::create("serve")?;
        let stem = format!("iwc-benchmark-{}", std::process::id());
        let dir = iwc_trace::corpus_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("corpus store {}: {e}", dir.display()))?;
        let pack = dir.join(format!("{stem}.iwcc"));
        Ok(Self {
            scratch,
            stem,
            pack,
        })
    }

    fn cache_dir(&self) -> PathBuf {
        self.scratch.path().join("results-cache")
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.pack);
        // Removes the corpus store directory only if this run created it
        // and left nothing else there.
        if let Some(dir) = self.pack.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Untraced run: `SETUP_REPS` daemon boots, then the closed loop on the
/// last one until `opts.seconds` have elapsed and `MIN_REPLIES` replies
/// arrived.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let files = Files::create()?;
    let jobs = jobs(&files.stem, opts.seed)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let started = Instant::now();
        daemon = Some(Daemon::setup(
            &files.pack,
            &files.cache_dir(),
            &jobs,
            opts.seed,
            &mut Recorder::off(),
        )?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let until = Until::Deadline {
        secs: opts.seconds,
        min: MIN_REPLIES.div_ceil(CLIENTS),
    };
    let (runs, started, wall_ms) = load(&daemon, &jobs, opts.seed, until, None);
    daemon.stop()?;

    let mut tally = Tally::default();
    let mut replies = Vec::new();
    for run in runs {
        replies.extend(run.replies);
        tally.absorb(run.tally);
    }
    let w = windows(&replies, started, wall_ms);
    let latencies_ms: Vec<f64> = replies.iter().map(|r| r.ms).collect();
    Ok(Measured {
        setup_s: median(&setups),
        work_per_s: max(&w.iter().map(|w| w.0).collect::<Vec<_>>()),
        p50_ms: min(&w.iter().map(|w| w.1).collect::<Vec<_>>()),
        p95_ms: percentile(&latencies_ms, 95.0),
        notes: vec![format!(
            "{CLIENTS} closed-loop clients, {} replies in {wall_ms:.0} ms; jobs dealt 3:1 \
             from {} kernels and {PACK_TRACES} pack traces; work_per_s and p50 are the \
             best of {WINDOWS} equal time windows, p95 pools the run",
            replies.len(),
            KERNELS.len()
        )],
        latencies_ms,
        tally,
    })
}

/// Cuts a run of `wall_ms` from `started` into [`WINDOWS`] equal windows
/// by reply completion time; per window: completed requests per second
/// and p50 latency in ms.
fn windows(replies: &[Reply], started: Instant, wall_ms: f64) -> Vec<(f64, f64)> {
    let width_ms = wall_ms / WINDOWS as f64;
    let mut per: Vec<Vec<&Reply>> = (0..WINDOWS).map(|_| Vec::new()).collect();
    for r in replies {
        let at_ms = r.done.saturating_duration_since(started).as_secs_f64() * 1e3;
        per[((at_ms / width_ms) as usize).min(WINDOWS - 1)].push(r);
    }
    per.iter()
        .map(|rs| {
            let ms: Vec<f64> = rs.iter().map(|r| r.ms).collect();
            let ok = rs.iter().filter(|r| r.ok).count();
            (ok as f64 / (width_ms / 1e3), percentile(&ms, 50.0))
        })
        .collect()
}

/// Traced run: boot plus `TRACED_REQUESTS` per client, untraced, traced,
/// and untraced again (the overhead baseline is the untraced mean). The
/// table splits the client-timed request spans by the
/// daemon's own phase histograms; what the phases leave is
/// `serve.unattributed` (HTTP, the connection thread, loopback).
pub fn traced(opts: &Opts) -> Result<Traced, String> {
    let files = Files::create()?;
    let jobs = jobs(&files.stem, opts.seed)?;
    let mut tally = Tally::default();
    let run = |epoch: Option<Instant>, tally: &mut Tally| {
        let mut rec = epoch.map_or_else(Recorder::off, |e| Recorder::new(true, e));
        let started = Instant::now();
        let daemon = rec.time("serve_mix.setup", |rec| {
            Daemon::setup(&files.pack, &files.cache_dir(), &jobs, opts.seed, rec)
        })?;
        let setup_ms = ms_since(started);
        let before = daemon.handle.stats();
        let (runs, _, _) = load(
            &daemon,
            &jobs,
            opts.seed,
            Until::Count(TRACED_REQUESTS),
            epoch,
        );
        let delta = DaemonDelta::between(&before, &daemon.handle.stats());
        daemon.stop()?;
        let mut threads = vec![("main".to_string(), rec.into_spans())];
        let mut thread_ms = setup_ms;
        for (id, run) in runs.into_iter().enumerate() {
            thread_ms += run.busy_ms;
            tally.absorb(run.tally);
            threads.push((format!("client{id}"), run.spans));
        }
        Ok::<_, String>((threads, thread_ms, delta))
    };

    let (_, before_ms, _) = run(None, &mut tally)?;
    let (threads, _, delta) = run(Some(Instant::now()), &mut tally)?;
    let (_, after_ms, _) = run(None, &mut tally)?;
    let untraced_ms = (before_ms + after_ms) / 2.0;
    let mut table = LayerTable::from_threads(threads.iter().map(|t| t.1.as_slice()));
    let phase_ms: Vec<(&str, f64)> = PHASES
        .iter()
        .zip(delta.phase_us)
        .map(|(&(_, row, _), us)| (row, us * delta.jobs / 1e3))
        .collect();
    table.split("serve.request", &phase_ms, "serve.unattributed");

    let mut values = BTreeMap::new();
    for (&(_, _, metric), us) in PHASES.iter().zip(delta.phase_us) {
        values.insert(metric, us);
    }
    if delta.jobs > 0.0 {
        values.insert(
            "serve.unattributed_us",
            table.self_ms("serve.unattributed") * 1e3 / delta.jobs,
        );
    }
    values.insert("serve.decode_cache.hit_ratio", delta.decode_hit_ratio);
    values.insert("serve.results_cache.hit_ratio", delta.results_hit_ratio);
    values.insert("serve.queue_peak", delta.queue_peak);
    values.insert("serve.workers_peak", delta.workers_peak);
    values.insert("serve.jobs_failed", delta.jobs_failed);
    values.insert("serve.rejected", delta.rejected);
    Ok(Traced {
        threads,
        table,
        untraced_ms,
        values,
        tally,
        notes: vec![format!(
            "one daemon boot plus {CLIENTS} x {TRACED_REQUESTS} requests ({} jobs); \
             traced wall is the sum of the main and client threads' time",
            delta.jobs
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(want: &[(&str, u64)]) -> Job {
        Job {
            body: "{}".into(),
            want: want.iter().map(|&(e, c)| (e.to_string(), c)).collect(),
        }
    }

    #[test]
    fn verify_demands_every_engine_and_cycle_count() {
        let j = job(&[("base", 10), ("scc", 7)]);
        let body =
            "{\"results\":[{\"engine\":\"base\",\"cycles\":10,\"telemetry\":{\"sim/cycles\":10}},\
                    {\"engine\":\"scc\",\"cycles\":7}]}";
        assert_eq!(verify(Ok((200, body.to_string())), &j), Ok(()));
        let wrong = body.replace("\"cycles\":7", "\"cycles\":8");
        assert!(verify(Ok((200, wrong)), &j).is_err());
        let missing = "{\"results\":[{\"engine\":\"base\",\"cycles\":10}]}";
        assert!(verify(Ok((200, missing.to_string())), &j).is_err());
        assert!(verify(Ok((503, body.to_string())), &j).is_err());
        assert!(verify(Ok((200, "not json".to_string())), &j).is_err());
    }

    #[test]
    fn windows_split_by_completion_time() {
        let t0 = Instant::now();
        let at = |ms: u64, lat: f64, ok: bool| Reply {
            done: t0 + std::time::Duration::from_millis(ms),
            ms: lat,
            ok,
        };
        // 1 s run, windows of 200 ms: two replies in the first window, one
        // failed reply in the last, none in between.
        let replies = [at(10, 1.0, true), at(150, 3.0, true), at(990, 9.0, false)];
        let w = windows(&replies, t0, 1000.0);
        assert_eq!(w.len(), WINDOWS);
        assert_eq!(w[0], (10.0, 2.0));
        assert_eq!(w[1], (0.0, 0.0));
        assert_eq!(
            w[WINDOWS - 1],
            (0.0, 9.0),
            "failed replies do not count as work"
        );
    }

    #[test]
    fn deck_deals_three_workload_jobs_to_one_pack_job() {
        let mut deck = Deck::new(11, 0);
        let round = 4 * KERNELS.len();
        for _ in 0..5 {
            let dealt: Vec<usize> = (0..round).map(|_| deck.deal()).collect();
            let workload = dealt.iter().filter(|&&j| j < KERNELS.len()).count();
            assert_eq!(workload, 3 * KERNELS.len());
            assert!(dealt.iter().all(|&j| j < KERNELS.len() + PACK_TRACES));
        }
        let a: Vec<usize> = (0..round).map(|_| Deck::new(1, 0).deal()).collect();
        let mut d = Deck::new(2, 0);
        let b: Vec<usize> = (0..round).map(|_| d.deal()).collect();
        assert_ne!(a, b, "the seed changes the sequence");
    }
}
