//! End-to-end benchmark of the machmin user paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-cert|schedule-large|online-replay|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod cli_paths;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use stats::{beyond, cpu_seconds, median, quantile};

pub const WORKLOADS: [&str; 4] = [
    "solve-cert",
    "schedule-large",
    "online-replay",
    "serve-mixed",
];

/// Set-up repeats per run, at least `SETUP_REPEATS.0` and then more until
/// `SETUP_SECS` of set-up have run or `SETUP_REPEATS.1` is reached;
/// `setup_s` is their median. Set-ups of a few milliseconds are repeated
/// more, since the host's noise is larger against them.
const SETUP_REPEATS: (usize, usize) = (7, 50);
const SETUP_SECS: f64 = 1.0;

/// The tail percentile each workload reports as `lat_tail_ms`: the highest
/// that keeps at least 10 samples beyond it at the workload's usual sample
/// count (see perfbench/README.md).
pub fn tail_quantile(workload: &str) -> f64 {
    match workload {
        "solve-cert" | "schedule-large" => 0.93,
        "online-replay" => 0.96,
        _ => 0.98,
    }
}

/// Latency limit per op (ms) for `slo_ok_frac`, fixed once per workload.
pub fn slo_ms(workload: &str) -> f64 {
    match workload {
        "solve-cert" => 2000.0,
        "schedule-large" => 2000.0,
        "online-replay" => 2000.0,
        _ => 100.0,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (MB).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Starts a fresh peak: hands freed heap memory back to the OS (glibc's
/// `malloc_trim`) and resets the peak resident set to the current one
/// (`/proc/self/clear_refs`). The next `peak_rss_mb` then reads the peak of
/// what ran in between about as a process of its own would have had it.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only releases free heap pages back to the OS;
    // no memory the program holds is touched.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub struct Ctx {
    pub workload: &'static str,
    pub seconds: f64,
    pub trace: bool,
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_owned(name.to_string(), value, unit);
    }

    pub fn put_owned(&mut self, name: String, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// A run's result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Deterministic counts of one pass (traced runs).
    pub counts: Option<Vec<(&'static str, u64)>>,
    /// Recorded spans as JSONL (traced runs).
    pub spans: Option<String>,
    complaints: usize,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            counts: None,
            spans: None,
            complaints: 0,
        }
    }
}

impl Report {
    /// Records a wrong answer or a broken run: counts as a failure and
    /// makes the run incorrect.
    pub fn fail(&mut self, why: &str) {
        self.correct = false;
        self.failed += 1;
        self.complaints += 1;
        if self.complaints <= 5 {
            eprintln!("check failed: {why}");
        }
    }

    /// Puts the end-to-end metrics other than `setup_s`.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        ctx: &Ctx,
        lat_ms: &[f64],
        ops_per_s: f64,
        slo_missed: u64,
        slo_total: u64,
        scale_exp: f64,
        rss_mb: f64,
    ) {
        let q = tail_quantile(ctx.workload);
        eprintln!(
            "{}: {} latency samples, tail = p{} with {} samples beyond it",
            ctx.workload,
            lat_ms.len(),
            q * 100.0,
            beyond(lat_ms.len(), q)
        );
        eprintln!(
            "{}: latency p50/p90/p95/p98/p99 = {:.3}/{:.3}/{:.3}/{:.3}/{:.3} ms",
            ctx.workload,
            quantile(lat_ms, 0.5),
            quantile(lat_ms, 0.9),
            quantile(lat_ms, 0.95),
            quantile(lat_ms, 0.98),
            quantile(lat_ms, 0.99)
        );
        let ok = (self.attempted - self.failed.min(self.attempted)) as f64;
        let m = &mut self.metrics;
        m.put("lat_p50_ms", median(lat_ms), "ms");
        m.put("lat_tail_ms", quantile(lat_ms, q), "ms");
        m.put("ops_per_s", ops_per_s, "1/s");
        m.put("ok_frac", ok / self.attempted.max(1) as f64, "frac");
        m.put(
            "slo_ok_frac",
            1.0 - slo_missed as f64 / slo_total.max(1) as f64,
            "frac",
        );
        m.put("scale_exp", scale_exp, "1");
        m.put("peak_rss_mb", rss_mb, "MB");
    }
}

/// FNV-1a over the program's and the benchmark's sources, so recorded
/// counts are compared only against runs of the same code.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain([0]).chain(body) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Compares this run's deterministic counts with an earlier run of the
/// same workload, seed and sources, or records them for later runs.
fn check_ledger(root: &Path, workload: &str, seed: u64, report: &mut Report) {
    let Some(counts) = &report.counts else {
        return;
    };
    let mut text = String::new();
    for (name, v) in counts {
        let _ = writeln!(text, "{name} {v}");
    }
    let dir = root.join(".perfbench").join("counts");
    let path = dir.join(format!(
        "{workload}-seed{seed}-{:016x}.txt",
        source_hash(root)
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != text => report.fail(&format!(
            "deterministic counts differ from an earlier run with the same seed:\n{earlier}vs\n{text}"
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &text));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = flag("--workload").and_then(|w| WORKLOADS.into_iter().find(|x| *x == w))
    else {
        usage()
    };
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match flag("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        _ => usage(),
    };
    let ctx = Ctx {
        workload,
        seconds,
        trace,
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf();
    let work = root
        .join(".perfbench")
        .join(format!("work-{workload}-{}", std::process::id()));

    // Set-up: generate the inputs several times; the last set is used. Its
    // cost is CPU time (see `stats::cpu_seconds`), which also leaves out
    // waiting on the file system of a shared host.
    let mut setup_s = Vec::new();
    enum Spec {
        Cli(cli_paths::Spec),
        Serve(serve::Spec),
    }
    let mut spec = None;
    let _ = std::fs::remove_dir_all(&work);
    while setup_s.len() < SETUP_REPEATS.0
        || (setup_s.len() < SETUP_REPEATS.1 && setup_s.iter().sum::<f64>() < SETUP_SECS)
    {
        let c0 = cpu_seconds();
        let made = if workload == "serve-mixed" {
            Ok(Spec::Serve(serve::setup(seed)))
        } else {
            std::fs::create_dir_all(&work)
                .map_err(|e| e.to_string())
                .and_then(|_| cli_paths::setup(workload, seed, &work))
                .map(Spec::Cli)
        };
        setup_s.push(cpu_seconds() - c0);
        match made {
            Ok(s) => spec = Some(s),
            Err(e) => {
                eprintln!("set-up failed: {e}");
                let _ = std::fs::remove_dir_all(&work);
                std::process::exit(1);
            }
        }
    }
    let mut report = match spec.expect("at least one set-up") {
        Spec::Cli(s) => cli_paths::run(&ctx, &s),
        Spec::Serve(s) => serve::run(&ctx, &s),
    };
    let _ = std::fs::remove_dir_all(&work);

    if trace {
        check_ledger(&root, workload, seed, &mut report);
        if let Some(spans) = &report.spans {
            let path = root
                .join(".perfbench")
                .join(format!("spans-{workload}-seed{seed}.jsonl"));
            if let Err(e) = std::fs::write(&path, spans) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    } else {
        let mut m = std::mem::take(&mut report.metrics);
        let mut all = Metrics::default();
        all.put("setup_s", median(&setup_s), "s");
        all.0.append(&mut m.0);
        report.metrics = all;
    }

    let mut out = String::new();
    let metrics = std::mem::take(&mut report.metrics);
    for (name, value, unit) in &metrics.0 {
        if !value.is_finite() {
            report.fail(&format!("metric {name} is not a finite number"));
        }
        eprintln!("{name:>32} {value:>14.4} {unit}");
        let v = if value.is_finite() { *value } else { 0.0 };
        if !out.is_empty() {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed
    );
}
