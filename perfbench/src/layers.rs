//! Per-layer metrics shared by every workload's traced run.

use std::time::Instant;

use mm_trace::{TraceEvent, TraceSink};

use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

/// Deterministic work counts of one pass over a workload's op list. They
/// must repeat exactly for the same inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub parse_bytes: u64,
    pub probes: u64,
    pub augmentations: u64,
    pub certified: u64,
    pub flow_probes: u64,
    pub rescued: u64,
    pub machines_opened: u64,
    pub ratio_millis_sum: u64,
    pub jobs_simulated: u64,
    pub releases: u64,
}

impl Counts {
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("parse_bytes", self.parse_bytes),
            ("probes", self.probes),
            ("augmentations", self.augmentations),
            ("certified", self.certified),
            ("flow_probes", self.flow_probes),
            ("rescued", self.rescued),
            ("machines_opened", self.machines_opened),
            ("ratio_millis_sum", self.ratio_millis_sum),
            ("jobs_simulated", self.jobs_simulated),
            ("releases", self.releases),
        ]
    }
}

/// Probe and augmentation counts of the flow-based optimum search, read off
/// the trace events the search emits.
#[derive(Default)]
pub struct ProbeCounter {
    pub probes: u64,
    pub augmentations: u64,
}

impl TraceSink for ProbeCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::FeasibilityProbe { .. } => self.probes += 1,
            TraceEvent::ProbeReuse { augmentations, .. } => self.augmentations += augmentations,
            _ => {}
        }
    }
}

impl ProbeCounter {
    pub fn add_to(&self, counts: &mut Counts) {
        counts.probes += self.probes;
        counts.flow_probes += self.probes;
        counts.augmentations += self.augmentations;
    }
}

/// Nanoseconds `f` takes, and its result.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_nanos() as u64, out)
}

/// Median of nanosecond samples, in milliseconds (0 when there are none).
pub fn median_ms(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    median(&ns.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>())
}

/// A traced run's spans, whole passes over the op list.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    /// Counts of one pass (every pass must repeat them).
    pub pass: &'a Counts,
    /// Ops in one pass.
    pub ops_per_pass: usize,
    /// `Instance::classify` times, one per traced op.
    pub classify_ns: &'a [u64],
    /// `mm_opt::verify` times of the output checks.
    pub verify_ns: &'a [u64],
}

/// Sums of a traced run, for coverage and overhead against untraced time.
pub struct Totals {
    /// Root `op` span durations, in op order.
    pub op_ns: Vec<u64>,
    /// Sum of layer self times per op, in op order.
    pub layer_ns: Vec<u64>,
}

/// Puts every mm-json, mm-instance, mm-opt, mm-sim and mm-online metric.
pub fn put(m: &mut Metrics, tr: &Traced) -> Totals {
    let t = tr.tracer;
    let self_ns = t.self_times();
    let per_op = t.op_layers(&self_ns);
    let ops = per_op.len().max(1) as f64;
    let passes = per_op.len() as f64 / tr.ops_per_pass.max(1) as f64;
    let total = |name: &str| t.total(&self_ns, name) as f64;
    let ms = |name: &str| total(name) / 1e6 / ops;
    let op_sum: f64 = per_op.values().map(|(d, _)| *d as f64).sum();
    let share = |layer: &str| {
        per_op
            .values()
            .map(|(_, l)| l.get(layer).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            / op_sum
    };
    let per = |ns: f64, count: u64| ns / (count as f64 * passes).max(1.0);
    let p = tr.pass;
    m.put("mm-json.parse_ms", ms("mm-json.parse"), "ms");
    m.put("mm-json.parse_bytes", p.parse_bytes as f64, "bytes");
    m.put(
        "mm-json.parse_ns_per_byte",
        per(total("mm-json.parse"), p.parse_bytes),
        "ns/byte",
    );
    m.put("mm-json.encode_ms", ms("mm-json.encode"), "ms");
    m.put("mm-json.share", share("mm-json"), "frac");
    m.put("mm-instance.build_ms", ms("mm-instance.build"), "ms");
    m.put("mm-instance.classify_ms", median_ms(tr.classify_ns), "ms");
    m.put("mm-instance.share", share("mm-instance"), "frac");
    m.put("mm-opt.certificate_ms", ms("mm-opt.certificate"), "ms");
    m.put("mm-opt.optimum_ms", ms("mm-opt.optimum"), "ms");
    m.put("mm-opt.probes", p.probes as f64, "count");
    m.put("mm-opt.augmentations", p.augmentations as f64, "count");
    m.put("mm-opt.certified", p.certified as f64, "count");
    m.put("mm-opt.flow_probes", p.flow_probes as f64, "count");
    let decided = p.certified + p.flow_probes + p.rescued;
    let certified_share = if decided == 0 {
        0.0
    } else {
        p.certified as f64 / decided as f64
    };
    m.put("mm-opt.certified_share", certified_share, "frac");
    m.put("mm-opt.rescued", p.rescued as f64, "count");
    m.put("mm-opt.witness_ms", ms("mm-opt.witness"), "ms");
    m.put("mm-opt.proof_verify_ms", median_ms(tr.verify_ns), "ms");
    m.put("mm-opt.share", share("mm-opt"), "frac");
    m.put("mm-sim.run_ms", ms("mm-sim.run"), "ms");
    m.put(
        "mm-sim.us_per_job",
        per(total("mm-sim.run") / 1e3, p.jobs_simulated),
        "us",
    );
    m.put("mm-sim.verify_ms", ms("mm-sim.verify"), "ms");
    m.put("mm-sim.machines_opened", p.machines_opened as f64, "count");
    m.put("mm-sim.share", share("mm-sim"), "frac");
    m.put(
        "mm-online.read_stream_ms",
        ms("mm-online.read_stream"),
        "ms",
    );
    m.put("mm-online.replay_ms", ms("mm-online.replay"), "ms");
    m.put(
        "mm-online.us_per_release",
        per(total("mm-online.replay") / 1e3, p.releases),
        "us",
    );
    m.put(
        "mm-online.ratio_millis_sum",
        p.ratio_millis_sum as f64,
        "count",
    );
    m.put("mm-online.share", share("mm-online"), "frac");
    Totals {
        op_ns: per_op.values().map(|(d, _)| *d).collect(),
        layer_ns: per_op.values().map(|(_, l)| l.values().sum()).collect(),
    }
}

/// `bench.trace_overhead_frac` and `bench.layer_coverage`, given the
/// untraced time (ns) of the same op as each traced op.
pub fn put_bench(m: &mut Metrics, totals: &Totals, untraced_ns: impl Iterator<Item = f64>) {
    let untraced: f64 = untraced_ns.take(totals.op_ns.len()).sum();
    let traced: f64 = totals.op_ns.iter().map(|&x| x as f64).sum();
    let layers: f64 = totals.layer_ns.iter().map(|&x| x as f64).sum();
    m.put("bench.trace_overhead_frac", traced / untraced - 1.0, "frac");
    m.put("bench.layer_coverage", layers / untraced, "frac");
}
