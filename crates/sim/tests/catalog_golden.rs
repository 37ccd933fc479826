//! Frozen golden of the simulator's observable output.
//!
//! `data/catalog_golden.txt` holds one line per (kernel, engine, config):
//!
//! ```text
//! kernel engine config cycles telemetry-hash memory-hash [log-hash]
//! ```
//!
//! Each hash is a 64-bit FNV-1a over a canonical byte encoding: of the
//! full telemetry snapshot (every counter, every gauge's bit pattern and
//! every histogram), of the final global-memory image, and — for the
//! `recording` config only — of the issue log, the stall-span log, the
//! mask trace and the per-instruction profile.
//!
//! The file covers every catalog kernel under every canonical engine at
//! the paper's configuration, a handful of kernels under the DC2 data
//! cluster, a perfect L3, a two-wide front end, multi-cycle register-file
//! timing, recording on and a 16-instruction I$, and directed kernels for scheduler edge cases:
//! EUs waking on the same cycle, wake-ups on the very next cycle, a
//! barrier release racing memory completions, and a convergent loop.
//!
//! The lines were generated once and are not regenerated by refactors:
//! a change to the scheduler or the issue stage must reproduce every one
//! of them. Only an intentional change to the timing model rewrites the
//! file, with
//! `BLESS_CATALOG_GOLDEN=1 cargo test --release -p iwc-sim --test catalog_golden -- --include-ignored golden_every_line`.
//!
//! Release builds check every line; debug builds check a representative
//! slice.

use iwc_compaction::EngineId;
use iwc_isa::{CondOp, DataType, FlagReg, KernelBuilder, MemSpace, Operand, Predicate};
use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage, RfTiming, SimResult};
use iwc_telemetry::TelemetrySnapshot;
use iwc_workloads::catalog;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("data/catalog_golden.txt");

/// Kernels that are also run under every non-default config.
const CONFIG_KERNELS: [&str; 6] = ["VA", "MM", "Bsearch", "BFS", "Part", "RT-PR-WM"];

/// Kernels the debug-build slice runs (every config, every engine).
const DEBUG_KERNELS: [&str; 3] = ["VA", "Bsearch", "BFS"];

/// Configurations by label. `paper` is [`GpuConfig::paper_default`].
const CONFIGS: [&str; 7] = [
    "paper",
    "dc2",
    "perfect_l3",
    "issue2",
    "multicycle",
    "recording",
    "icache16",
];

fn config(label: &str, engine: EngineId) -> GpuConfig {
    let cfg = GpuConfig::paper_default().with_compaction(engine);
    match label {
        "paper" => cfg,
        "dc2" => cfg.with_dc_bandwidth(2.0),
        "perfect_l3" => cfg.with_perfect_l3(true),
        "issue2" => cfg.with_issue_per_cycle(2),
        "multicycle" => cfg.with_rf_timing(RfTiming::MultiCycle),
        // A 16-instruction I$: every kernel evicts, so the FIFO fill order
        // shows in timing. These lines were generated with every pass
        // attempting every thread afresh (as recording runs did), since
        // the older cached-verdict replays skipped I$ probes that an
        // eviction had turned into misses.
        "icache16" => GpuConfig {
            icache_insns: 16,
            ..cfg
        },
        "recording" => cfg
            .with_issue_log(true)
            .with_insn_profile(true)
            .with_mask_capture(true),
        other => panic!("unknown config {other}"),
    }
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }
}

fn hash_telemetry(snap: &TelemetrySnapshot) -> u64 {
    let mut h = Fnv::new();
    for (name, v) in snap.counters() {
        h.str("c");
        h.str(name);
        h.u64(v);
    }
    for (name, v) in snap.gauges() {
        h.str("g");
        h.str(name);
        h.u64(v.to_bits());
    }
    for (name, hist) in snap.hists() {
        h.str("h");
        h.str(name);
        h.u64(hist.count);
        h.u64(hist.sum);
        for &b in &hist.buckets {
            h.u64(b);
        }
    }
    h.0
}

fn hash_memory(img: &MemoryImage) -> u64 {
    let mut h = Fnv::new();
    let cap = img.capacity();
    h.u64(u64::from(cap));
    for addr in (0..cap / 4 * 4).step_by(4) {
        h.bytes(&img.read_u32(addr).to_le_bytes());
    }
    for addr in cap / 4 * 4..cap {
        h.str(&format!("{:?}", img.read_scalar(addr, DataType::Ub)));
    }
    h.0
}

/// Hash of everything a recording run adds beyond the telemetry snapshot.
fn hash_logs(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.str("issue");
    for e in &r.eu.issue_log {
        h.u64(e.cycle);
        h.u64(u64::from(e.eu));
        h.u64(u64::from(e.thread));
        h.str(&format!("{:?}", e.pipe));
        h.u64(u64::from(e.waves));
    }
    h.str("stall");
    for s in &r.eu.stall_log {
        h.u64(u64::from(s.eu));
        h.u64(s.start);
        h.u64(s.len);
        h.str(s.cause.label());
    }
    h.str("masks");
    for &(bits, width) in &r.eu.mask_trace {
        h.u64(u64::from(bits));
        h.u64(u64::from(width));
    }
    h.str("profile");
    for s in &r.eu.insn_profile.insns {
        h.u64(s.execs);
        h.u64(s.zero_skips);
        for hist in [&s.channels, &s.quads] {
            h.u64(hist.count);
            h.u64(hist.sum);
        }
        h.str(&format!("{:?}", s.cycles));
    }
    h.0
}

/// One golden line's key: kernel, engine label, config label.
type Key = (String, String, String);

fn line(r: &SimResult, img: &MemoryImage, recording: bool) -> String {
    let mut s = format!(
        "{} {:016x} {:016x}",
        r.cycles,
        hash_telemetry(&r.telemetry),
        hash_memory(img)
    );
    if recording {
        s.push_str(&format!(" {:016x}", hash_logs(r)));
    }
    s
}

fn run_line(launch: &Launch, init: &MemoryImage, cfg_label: &str, engine: EngineId) -> String {
    let mut img = init.clone();
    let r = simulate(&config(cfg_label, engine), launch, &mut img)
        .unwrap_or_else(|e| panic!("{} {engine} {cfg_label}: {e}", launch.program.name()));
    line(&r, &img, cfg_label == "recording")
}

/// A load-then-compute kernel on `wgs` full-EU workgroups (6 SIMD16
/// threads each, so consecutive workgroups land on distinct EUs): every EU
/// blocks on memory and the shared data cluster staggers the completions,
/// including distinct EUs whose loads complete on the same cycle.
fn load_compute_kernel(wgs: u32, stride: u32) -> (Launch, MemoryImage) {
    let n = wgs * 96;
    let mut img = MemoryImage::new(1 << 22);
    let src: Vec<u32> = (0..n * stride.max(1)).map(|i| i * 3 + 7).collect();
    let a = img.alloc_u32(&src);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("load_compute", 16);
    let addr = Operand::rud(10);
    let x = Operand::rud(12);
    b.mul(addr, Operand::rud(1), Operand::imm_ud(4 * stride.max(1)));
    b.add(addr, addr, Operand::scalar(3, 0, DataType::Ud));
    b.load(MemSpace::Global, x, addr);
    b.mul(x, x, Operand::imm_ud(5));
    b.add(x, x, Operand::imm_ud(1));
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 1, DataType::Ud),
    );
    b.store(MemSpace::Global, addr, x);
    let launch = Launch::new(b.finish().unwrap(), n, 96).with_args(&[a, out]);
    (launch, img)
}

/// A dependent ALU chain: every wake-up lands a few cycles ahead, most
/// on the very next cycle.
fn dependent_chain() -> (Launch, MemoryImage) {
    let n = 64u32;
    let mut img = MemoryImage::new(1 << 16);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("chain", 16);
    let x = Operand::rf(12);
    b.mov(x, Operand::imm_f(1.5));
    for _ in 0..6 {
        b.mad(x, x, x, Operand::imm_f(0.25));
    }
    b.math(iwc_isa::Opcode::Rsqrt, Operand::rf(14), x);
    b.add(x, x, Operand::rf(14));
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), x);
    let launch = Launch::new(b.finish().unwrap(), n, 16).with_args(&[out]);
    (launch, img)
}

/// A barrier release racing memory completions: within each workgroup
/// one strided load delays the barrier arrival while other EUs wait on
/// their own loads. The stride slides the release across the completions.
fn barrier_race(stride: u32) -> (Launch, MemoryImage) {
    let n = 4 * 32u32; // 4 workgroups of 2 SIMD16 threads
    let mut img = MemoryImage::new(1 << 18);
    let src: Vec<u32> = (0..n * stride).map(|i| i ^ 0x2A).collect();
    let a = img.alloc_u32(&src);
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("barrier_race", 16);
    let addr = Operand::rud(10);
    let x = Operand::rud(12);
    b.mul(addr, Operand::rud(1), Operand::imm_ud(4 * stride));
    b.add(addr, addr, Operand::scalar(3, 0, DataType::Ud));
    b.load(MemSpace::Global, x, addr);
    b.barrier();
    b.add(x, x, Operand::imm_ud(9));
    b.mad(
        addr,
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 1, DataType::Ud),
    );
    b.store(MemSpace::Global, addr, x);
    let launch = Launch::new(b.finish().unwrap(), n, 32).with_args(&[a, out]);
    (launch, img)
}

/// A single fully converged thread looping over 24 independent `mov`s and
/// a counter update: back-to-back same-pipe issue separated only by
/// pipe-busy waits.
fn convergent_loop(iters: u32) -> (Launch, MemoryImage) {
    let mut img = MemoryImage::new(1 << 16);
    let n = 16u32;
    let out = img.alloc(n * 4);

    let mut b = KernelBuilder::new("convergent_loop", 16);
    b.mov(Operand::rud(6), Operand::imm_ud(0));
    b.do_();
    for k in 0..24u32 {
        b.mov(
            Operand::rf((20 + 2 * k) as u8),
            Operand::imm_f(0.5 + k as f32),
        );
    }
    b.add(Operand::rud(6), Operand::rud(6), Operand::imm_ud(1));
    b.cmp(
        CondOp::Lt,
        FlagReg::F0,
        Operand::rud(6),
        Operand::imm_ud(iters),
    );
    b.while_(Predicate::normal(FlagReg::F0));
    b.mad(
        Operand::rud(10),
        Operand::rud(1),
        Operand::imm_ud(4),
        Operand::scalar(3, 0, DataType::Ud),
    );
    b.store(MemSpace::Global, Operand::rud(10), Operand::rf(20));
    let launch = Launch::new(b.finish().expect("valid kernel"), n, 16).with_args(&[out]);
    (launch, img)
}

/// The directed kernels by golden name.
fn directed() -> Vec<(String, (Launch, MemoryImage))> {
    let mut v = vec![
        ("dir-wake-x2".to_string(), load_compute_kernel(2, 16)),
        ("dir-wake-x6".to_string(), load_compute_kernel(6, 16)),
        ("dir-mem-bound".to_string(), load_compute_kernel(6, 64)),
        ("dir-chain".to_string(), dependent_chain()),
        ("dir-loop".to_string(), convergent_loop(8)),
    ];
    for stride in [1u32, 4, 16, 64] {
        v.push((format!("dir-barrier-s{stride}"), barrier_race(stride)));
    }
    v
}

/// Computes the golden lines, optionally restricted to `kernels` (the
/// directed kernels always run).
fn compute(kernels: Option<&[&str]>) -> BTreeMap<Key, String> {
    let mut out = BTreeMap::new();
    let picked = |name: &str| kernels.is_none_or(|k| k.contains(&name));
    for entry in catalog() {
        if !picked(entry.name) {
            continue;
        }
        let built = (entry.build)(1);
        let configs: &[&str] = if CONFIG_KERNELS.contains(&entry.name) {
            &CONFIGS
        } else {
            &CONFIGS[..1]
        };
        for &cfg in configs {
            for engine in EngineId::CANONICAL {
                let key = (entry.name.to_string(), engine.to_string(), cfg.to_string());
                out.insert(key, run_line(&built.launch, &built.img, cfg, engine));
            }
        }
    }
    for (name, (launch, img)) in directed() {
        for cfg in ["paper", "recording"] {
            for engine in EngineId::CANONICAL {
                let key = (name.clone(), engine.to_string(), cfg.to_string());
                out.insert(key, run_line(&launch, &img, cfg, engine));
            }
        }
    }
    out
}

fn golden() -> BTreeMap<Key, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert!(f.len() >= 6, "malformed golden line {l:?}");
            (
                (f[0].to_string(), f[1].to_string(), f[2].to_string()),
                f[3..].join(" "),
            )
        })
        .collect()
}

fn render(lines: &BTreeMap<Key, String>) -> String {
    lines
        .iter()
        .map(|((k, e, c), v)| format!("{k} {e} {c} {v}\n"))
        .collect()
}

/// Asserts every computed line matches its golden line, listing the
/// mismatches (and any line the golden lacks).
fn check(computed: &BTreeMap<Key, String>) {
    let want = golden();
    let mut bad = Vec::new();
    for (key, got) in computed {
        match want.get(key) {
            Some(w) if w == got => {}
            Some(w) => bad.push(format!("{key:?}: golden {w}, got {got}")),
            None => bad.push(format!("{key:?}: not in the golden file (got {got})")),
        }
    }
    assert!(
        bad.is_empty(),
        "{} of {} golden lines differ:\n{}",
        bad.len(),
        computed.len(),
        bad.iter().take(20).cloned().collect::<Vec<_>>().join("\n")
    );
}

/// The representative slice: coherent, branch-divergent and
/// memory-divergent kernels under every config and engine, plus every
/// directed kernel. Always on.
#[test]
fn golden_representative_slice() {
    check(&compute(Some(&DEBUG_KERNELS)));
}

/// Every golden line. Release builds only: the whole catalog is minutes
/// of simulation in debug.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "whole catalog x engines x configs; run with cargo test --release"
)]
fn golden_every_line() {
    let computed = compute(None);
    if std::env::var_os("BLESS_CATALOG_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/catalog_golden.txt");
        std::fs::write(path, render(&computed)).expect("write golden");
        return;
    }
    let want = golden();
    let missing: Vec<_> = want.keys().filter(|k| !computed.contains_key(*k)).collect();
    assert!(
        missing.is_empty(),
        "golden lines never computed: {missing:?}"
    );
    check(&computed);
}
