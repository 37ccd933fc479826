//! Host-time spans recorded around the benchmark's calls into each layer,
//! their self times, the per-layer table, and the Perfetto export.
//!
//! Spans stay in memory while the traced run executes and are written out
//! once at the end. A disabled recorder (the untraced, end-to-end runs)
//! reads no clock and stores nothing.

use iwc_telemetry::chrome::{self, ChromeTrace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a layer call, its interval on the recorder's clock,
/// the span that caused it, and the operation it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Operation id (a catalog cell, a trace, a request); spans of one
    /// operation share it.
    pub op: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// A recorder timing against `epoch` (shared by every thread of a run
    /// so their spans line up) when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pair with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the recorder back for
    /// child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// One row of the layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub self_ms: f64,
    pub calls: u64,
}

/// Where the traced time went: self time per layer plus the remainder no
/// layer span covers, summing to the traced wall time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTable {
    pub rows: Vec<Row>,
    /// Self time of the root spans: time inside the traced run that no
    /// layer span covers.
    pub unattributed_ms: f64,
    /// Sum of the root spans' durations: the traced wall time (summed over
    /// threads when several record).
    pub wall_ms: f64,
}

impl LayerTable {
    /// Builds the table from every thread's spans.
    pub fn from_threads<'a>(threads: impl IntoIterator<Item = &'a [Span]>) -> Self {
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let (mut unattributed, mut wall) = (0u64, 0u64);
        for spans in threads {
            for (s, own) in spans.iter().zip(self_times(spans)) {
                if s.parent.is_none() {
                    unattributed += own;
                    wall += s.dur();
                } else {
                    let e = by_name.entry(s.name).or_default();
                    e.0 += own;
                    e.1 += 1;
                }
            }
        }
        let mut rows: Vec<Row> = by_name
            .into_iter()
            .map(|(name, (ns, calls))| Row {
                name: name.to_string(),
                self_ms: ns as f64 / 1e6,
                calls,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        Self {
            rows,
            unattributed_ms: unattributed as f64 / 1e6,
            wall_ms: wall as f64 / 1e6,
        }
    }

    /// Self time of row `name` (0 when absent).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.self_ms)
    }

    /// Replaces row `name` by `parts` measured inside it (by the program,
    /// not by spans) plus a `remainder` row holding what the parts leave,
    /// so the table still sums to the wall time.
    pub fn split(&mut self, name: &str, parts: &[(&str, f64)], remainder: &str) {
        let Some(at) = self.rows.iter().position(|r| r.name == name) else {
            return;
        };
        let row = self.rows.remove(at);
        let inside: f64 = parts.iter().map(|p| p.1).sum();
        for (part, ms) in parts {
            self.rows.push(Row {
                name: (*part).to_string(),
                self_ms: *ms,
                calls: row.calls,
            });
        }
        self.rows.push(Row {
            name: remainder.to_string(),
            self_ms: row.self_ms - inside,
            calls: row.calls,
        });
        self.rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    }

    /// Rows plus `unattributed`, which sum to `wall_ms`.
    pub fn total_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.self_ms).sum::<f64>() + self.unattributed_ms
    }

    /// The table as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<32} {:>12} {:>7} {:>9}\n",
            "layer", "self_ms", "share", "calls"
        );
        let share = |ms: f64| {
            if self.wall_ms > 0.0 {
                100.0 * ms / self.wall_ms
            } else {
                0.0
            }
        };
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<32} {:>12.3} {:>6.2}% {:>9}",
                r.name,
                r.self_ms,
                share(r.self_ms),
                r.calls
            );
        }
        let _ = writeln!(
            out,
            "{:<32} {:>12.3} {:>6.2}%",
            "unattributed",
            self.unattributed_ms,
            share(self.unattributed_ms)
        );
        let _ = writeln!(out, "{:<32} {:>12.3}", "traced wall", self.wall_ms);
        out
    }
}

/// Host-time Chrome trace of every thread's spans (1 µs = 1 µs of host
/// time), checked with the telemetry crate's schema validator.
///
/// # Errors
///
/// Returns the validator's complaint when the export is malformed.
pub fn chrome_json(threads: &[(String, Vec<Span>)]) -> Result<String, String> {
    let mut t = ChromeTrace::new();
    t.name_process(1, "iwc-benchmark");
    for (tid, (name, spans)) in threads.iter().enumerate() {
        let tid = u32::try_from(tid).unwrap_or(u32::MAX);
        t.name_thread(1, tid, name);
        for s in spans {
            t.slice(
                1,
                tid,
                s.name,
                &format!("op{}", s.op),
                s.start_ns / 1000,
                s.dur() / 1000,
            );
        }
    }
    let json = t.to_json();
    chrome::validate(&json)?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0, 100, None),
            // Overlapping children cover [10, 40) once; the third is
            // clipped to the parent's end.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)),
            // A grandchild does not count against the root.
            span("d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 14, 20, 30, 6]);
    }

    #[test]
    fn layer_table_sums_to_the_wall_time() {
        let main = vec![
            span("root", 0, 1_000_000, None),
            span("sim.run", 100_000, 700_000, Some(0)),
            span("sim.decode", 100_000, 200_000, Some(1)),
            span("workloads.check", 800_000, 900_000, Some(0)),
        ];
        let other = vec![
            span("client", 0, 500_000, None),
            span("sim.run", 0, 250_000, Some(0)),
        ];
        let table = LayerTable::from_threads([main.as_slice(), other.as_slice()]);
        assert_eq!(table.wall_ms, 1.5);
        assert_eq!(table.unattributed_ms, 0.3 + 0.25);
        assert_eq!(table.self_ms("sim.run"), 0.5 + 0.25);
        assert_eq!(table.self_ms("sim.decode"), 0.1);
        assert_eq!(table.self_ms("missing"), 0.0);
        assert!((table.total_ms() - table.wall_ms).abs() < 1e-9);
        assert_eq!(table.rows[0].name, "sim.run", "largest row first");
        assert_eq!(table.rows[0].calls, 2);
        assert!(table.render().contains("unattributed"));
    }

    #[test]
    fn split_keeps_the_sum_and_names_the_remainder() {
        let spans = vec![
            span("root", 0, 10_000_000, None),
            span("serve.request", 0, 8_000_000, Some(0)),
        ];
        let mut table = LayerTable::from_threads([spans.as_slice()]);
        table.split(
            "serve.request",
            &[("serve.simulate", 5.0), ("serve.queue", 1.0)],
            "serve.unattributed",
        );
        assert_eq!(table.self_ms("serve.request"), 0.0);
        assert_eq!(table.self_ms("serve.simulate"), 5.0);
        assert_eq!(table.self_ms("serve.unattributed"), 2.0);
        assert!((table.total_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_stamps_operations() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_op(7);
        let v = rec.time("outer", |rec| rec.time("inner", |_| 3));
        assert_eq!(v, 3);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let mut off = Recorder::off();
        assert_eq!(off.time("x", |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn chrome_export_validates() {
        let spans = vec![
            span("root", 0, 5_000, None),
            span("a", 1_000, 2_000, Some(0)),
        ];
        let json = chrome_json(&[("main".to_string(), spans)]).expect("valid trace");
        let stats = chrome::validate(&json).expect("validates");
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.metadata, 2);
    }
}
