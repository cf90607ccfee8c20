//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer's public functions. A span is named `<layer>.<what>`, where the
//! layer is the crate name (`mm-json`, `mm-opt`, …); the root span of one
//! operation is named `op`. A layer's self time is the duration of its spans
//! minus the time covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    /// A span whose duration was measured on a separate call with the same
    /// input, because the call it stands for runs inside another layer's
    /// function (e.g. the JSON parse inside `io::from_json`).
    pub derived: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one operation under a root `op` span.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        let idx = self.open("op");
        let out = f(self);
        self.close(idx);
        out
    }

    /// Runs `f` under a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// [`Tracer::span`] for a body that records spans of its own.
    pub fn span_with<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Records a derived child, `nanos` long, of the latest span named
    /// `parent`, placed at that span's start. The duration is measured
    /// after the op, so the separate measurement does not warm the op.
    pub fn derived(&mut self, parent: &str, name: &'static str, nanos: u64) {
        let Some(p) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let start = self.spans[p].start;
        self.spans.push(Span {
            name,
            op: self.spans[p].op,
            parent: Some(p),
            start,
            end: start + nanos,
            derived: true,
        });
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start,
            end: start,
            derived: false,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx));
        self.spans[idx].end = self.now();
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| s.dur().saturating_sub(*c))
            .collect()
    }

    /// Per-op summary, by op number: the root span's duration and the self
    /// time of each layer.
    pub fn op_layers(&self, self_ns: &[u64]) -> BTreeMap<u64, (u64, BTreeMap<&'static str, u64>)> {
        let mut out: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(s.op).or_default();
            if s.name == "op" {
                entry.0 = s.dur();
            } else {
                *entry.1.entry(s.layer()).or_default() += own;
            }
        }
        out
    }

    /// Total self time (ns) of the spans named `name`.
    pub fn total(&self, self_ns: &[u64], name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .sum()
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.name, s.op, s.start, s.end, s.derived
            );
        }
        out
    }
}
