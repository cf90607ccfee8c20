//! Implementation of the `machmin` command-line tool.
//!
//! Kept in the library (rather than the binary) so the argument parsing and
//! command logic are unit-testable; `src/bin/machmin.rs` is a thin shim.
//!
//! Every failure is a categorized [`Error`] with a stable exit code (see
//! `src/error.rs`); a budget-limited `solve` that settles for a certified
//! bracket is a *success* (exit 0), because the bracket is still a proven
//! answer.

use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

use mm_adversary::{CompletedRun, GapResult, GapStop, MigrationGapAdversary, SweepCheckpoint};
use mm_cluster::{
    cluster_grid, cluster_solve, cluster_sweep, BalancePolicy, ClusterConfig, Coordinator,
    GridConfig, HedgeConfig, SweepConfig,
};
use mm_core::{AgreeableSplit, Edf, EdfFirstFit, LaminarBudget, Llf, MediumFit};
use mm_fault::{Budget, FaultInjector, FaultPlan, FaultSite};
use mm_instance::generators::{
    agreeable, laminar, loose, uniform, AgreeableCfg, LaminarCfg, UniformCfg,
};
use mm_instance::{io, Instance};
use mm_numeric::Rat;
use mm_opt::{
    contribution_bound, demigrate, optimal_machines, optimal_machines_budgeted_traced,
    optimal_machines_traced, theorem2_bound,
};
use mm_serve::{DynSink, LoadConfig, ServeConfig, Service};
use mm_sim::{render_gantt, run_policy_traced, verify, SimConfig, Simulation, VerifyOptions};
use mm_trace::{
    JsonlSink, Metrics, MetricsSink, NoopSink, SharedSink, TeeSink, TraceEvent, TraceSink,
};

pub use crate::Error;

/// A parsed command line; its flags, defaults and help live in [`SPECS`].
// One `Command` exists per process and lives on the stack for the whole
// run, so the size skew between the flag-heavy `Cluster` variant and the
// rest costs nothing; boxing fields would only obscure the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// `solve` — exact optimum + Theorem 1 certificate.
    Solve {
        /// Instance file.
        path: String,
        /// Per-probe budget; `None` runs unbudgeted (always exact).
        budget: Option<Budget>,
        /// Escalation attempts (budget doubles between attempts).
        attempts: u32,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `classify` — structure, Δ, looseness report.
    Classify {
        /// Instance file.
        path: String,
    },
    /// `schedule` — run an online policy and verify its schedule.
    Schedule {
        /// Instance file.
        path: String,
        /// Policy name (edf, llf, edf-ff, medium-fit, agreeable, laminar).
        policy: String,
        /// Machine budget (defaults to one per job).
        machines: Option<usize>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `demigrate` — offline migratory → non-migratory.
    Demigrate {
        /// Instance file.
        path: String,
    },
    /// `generate` — write a seeded instance of one family.
    Generate {
        /// Family: uniform, agreeable, laminar, loose.
        family: String,
        /// Number of jobs (ignored for laminar).
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Output file.
        out: String,
    },
    /// `adversary` — migration-gap sweep over depths `k = 2..=K`.
    Adversary {
        /// Policy under attack (edf-ff, medium-fit).
        policy: String,
        /// Deepest target depth (≥ 2).
        k: usize,
        /// Machine budget handed to the policy.
        machines: usize,
        /// Checkpoint file, saved after every completed depth.
        checkpoint: Option<String>,
        /// Resume from the checkpoint file, skipping completed depths.
        resume: bool,
        /// Export the strongest forced-release trace of this invocation as
        /// a replayable JSONL event stream (`machmin online run` input).
        export_stream: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `online run|race` — replay a stream, or race the portfolio.
    Online {
        /// Subcommand (`run` or `race`).
        mode: String,
        /// Event-stream JSONL file (`run`).
        stream: Option<String>,
        /// Portfolio member label, or `auto` to follow the classifier (`run`).
        member: String,
        /// Generator seed (`race`).
        seed: u64,
        /// Jobs per generated stream (`race`).
        n: usize,
        /// Adversary recursion depth (`race`, ≥ 2).
        k: usize,
        /// Members to race, comma-separated or `all` (`race`).
        members: String,
        /// Race-report JSON output file (`race`).
        out: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `chaos` — a deterministic run exercising every [`FaultSite`].
    Chaos {
        /// Seed deriving the fault plan and the workload.
        seed: u64,
        /// Workload size (jobs).
        n: usize,
        /// Explicit fault-plan file (overrides the seed-derived plan).
        plan: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `bench` — one tracked benchmark suite (see [`BenchSuite`]).
    Bench {
        /// Run the reduced workload set (CI smoke mode).
        quick: bool,
        /// The suite to run.
        suite: BenchSuite,
        /// Baseline JSON output file (default [`BenchSuite::default_out`]).
        out: String,
        /// Committed baseline to gate deterministic counters against.
        check: Option<String>,
    },
    /// `certcheck` — certifier-vs-flow verdict cross-check.
    CertCheck {
        /// Base seed for the instance batch.
        seed: u64,
        /// Number of seeded cases (cycling through all families).
        cases: usize,
        /// Run against a live three-backend pool with `--verify all`.
        pool: bool,
        /// Seed one backend with an `answer_corruption` plan (pool mode).
        corrupt: bool,
        /// Optional file to write the report to (stdout otherwise).
        out: Option<String>,
    },
    /// `serve` — supervised JSONL-over-TCP request server.
    Serve {
        /// Listen address (`127.0.0.1:0` picks a free port).
        addr: String,
        /// Worker threads.
        workers: usize,
        /// Admission bound (queued + running + awaiting retry).
        queue_cap: usize,
        /// Drain deadline after a shutdown request, in milliseconds.
        drain_ms: u64,
        /// Seed for retry jitter and the `--chaos` fault plan.
        seed: u64,
        /// Panic-retry attempts before a request is quarantined.
        retry_attempts: u32,
        /// Inject the seed-derived chaos fault plan into the workers.
        chaos: bool,
        /// Explicit fault-plan file (mutually exclusive with `--chaos`).
        plan: Option<String>,
        /// Write-ahead journal path; replayed on restart.
        journal: Option<String>,
        /// Default per-request deadline for requests that carry none.
        deadline_ms: Option<u64>,
        /// File to write the bound address to (for scripted clients).
        port_file: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `load` — deterministic load client for a running server.
    Load {
        /// Server address to connect to.
        addr: String,
        /// Requests to send.
        n: usize,
        /// Seed for the request mix.
        seed: u64,
        /// Arrival-driven pacing instead of closed-loop.
        paced: bool,
        /// Max outstanding requests in closed-loop mode.
        window: usize,
        /// Per-request deadline to attach.
        deadline_ms: Option<u64>,
        /// Transcript output file (response lines sorted by id).
        out: Option<String>,
        /// Latency-histogram JSON output file (`mm_obs` bucket scheme).
        hist: Option<String>,
        /// Send a shutdown request after the run (drains the server).
        shutdown: bool,
    },
    /// `cluster` — scatter–gather over a pool of `machmin serve` backends.
    Cluster {
        /// Workload: `solve`, `sweep`, `grid`, `online`, or `stats`.
        workload: String,
        /// Instance file (solve workload only).
        path: Option<String>,
        /// Backend addresses (`--backends host:p1,host:p2,...`).
        backends: Vec<String>,
        /// Balancing policy (`round-robin`, `least-outstanding`, `hash`).
        balance: String,
        /// Seed for hashing, hedging, and the `--chaos` plan.
        seed: u64,
        /// Max outstanding units across the pool.
        window: usize,
        /// Hedge every nth unit (mutually exclusive with `--hedge-p99`).
        hedge_every: Option<u64>,
        /// Hedge when a unit exceeds this multiple (%) of observed p99.
        hedge_p99: Option<u64>,
        /// Latency floor in ms below which p99 hedging never fires.
        hedge_floor_ms: u64,
        /// Inject the seed-derived chaos fault plan into the coordinator.
        chaos: bool,
        /// Explicit fault-plan file (mutually exclusive with `--chaos`).
        plan: Option<String>,
        /// Per-unit deadline to attach, if any.
        deadline_ms: Option<u64>,
        /// Sweep policies, comma-separated (sweep workload).
        policies: String,
        /// Deepest adversary depth (sweep workload, ≥ 2).
        k: usize,
        /// Machine budget per sweep shard (sweep workload).
        machines: usize,
        /// Sweep checkpoint file, saved after every completed shard.
        checkpoint: Option<String>,
        /// Resume the sweep from the checkpoint file.
        resume: bool,
        /// Grid families, comma-separated (grid and online workloads).
        families: String,
        /// Seeds per family (grid and online workloads).
        seeds: u64,
        /// Jobs per generated instance (grid and online workloads).
        n: usize,
        /// Portfolio members, comma-separated or `all` (online workload).
        members: String,
        /// Churn-plan file: membership events executed on the seeded
        /// `backend_churn` schedule (elastic pool mode).
        churn: Option<String>,
        /// Spare backend addresses consumed by the plan's `join` events.
        spares: Vec<String>,
        /// Max live shard migrations per observation window.
        migration_budget: u64,
        /// Answer-verification policy (`off`, `spot`, `all`): ask backends
        /// for proof-carrying answers and refute/quarantine liars.
        verify: String,
        /// Transcript output file (header + response lines sorted by id).
        out: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `top` — live terminal view over a backend pool's `stats` endpoints.
    Top {
        /// Backend addresses (`--backends host:p1,host:p2,...`).
        backends: Vec<String>,
        /// Seconds between refreshes (0 = print one frame and exit).
        interval_s: u64,
        /// Frames to print when refreshing (0 = until interrupted).
        frames: u64,
    },
    /// `help`.
    Help,
}

/// The `machmin bench` suites; each writes its own committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchSuite {
    /// Solver probes vs the BigInt + fresh-network reference.
    Baseline,
    /// The service layer: closed-loop client, latency quantiles, shed rate.
    Serve,
    /// The scatter–gather coordinator over an in-process backend pool.
    Cluster,
    /// The observability layer.
    Obs,
    /// The large-n certifier hot path.
    Large,
    /// Elastic membership churn.
    Churn,
    /// Proof-carrying verification: honest pool vs one Byzantine backend.
    Verify,
    /// The online portfolio race's measured competitive ratios.
    Online,
}

impl BenchSuite {
    /// The switch selecting each non-default suite.
    const FLAGS: [(&'static str, BenchSuite); 7] = [
        ("--serve", BenchSuite::Serve),
        ("--cluster", BenchSuite::Cluster),
        ("--obs", BenchSuite::Obs),
        ("--large", BenchSuite::Large),
        ("--churn", BenchSuite::Churn),
        ("--verify", BenchSuite::Verify),
        ("--online", BenchSuite::Online),
    ];

    /// The committed baseline file this suite writes by default.
    pub fn default_out(self) -> &'static str {
        match self {
            BenchSuite::Baseline => "BENCH_2.json",
            BenchSuite::Serve => "BENCH_4.json",
            BenchSuite::Cluster => "BENCH_5.json",
            BenchSuite::Obs => "BENCH_6.json",
            BenchSuite::Large => "BENCH_7.json",
            BenchSuite::Churn => "BENCH_8.json",
            BenchSuite::Verify => "BENCH_9.json",
            BenchSuite::Online => "BENCH_10.json",
        }
    }
}

/// What a flag stands for when it is not given.
#[derive(Clone, Copy)]
enum Absent {
    /// A switch is off; a value flag is `None`.
    Unset,
    /// The flag reads as this value.
    Or(&'static str),
    /// Leaving the flag out is a usage error.
    Required,
}

use Absent::{Or, Required, Unset};

/// One row of a subcommand's flag table.
struct Flag {
    name: &'static str,
    /// Metavariable of the value; empty for a switch.
    meta: &'static str,
    absent: Absent,
    help: &'static str,
}

const fn flag(name: &'static str, meta: &'static str, absent: Absent, help: &'static str) -> Flag {
    Flag {
        name,
        meta,
        absent,
        help,
    }
}

/// One subcommand: its positionals, what it does, and its flag table.
struct Spec {
    name: &'static str,
    /// Positional metavariables, in order; a `[bracketed]` one is optional.
    args: &'static [&'static str],
    /// What the command does, one help line each.
    about: &'static [&'static str],
    flags: &'static [Flag],
}

#[rustfmt::skip]
const TRACE: Flag = flag("--trace", "f.jsonl", Unset, "stream typed events, one JSON object per line");
#[rustfmt::skip]
const METRICS: Flag = flag("--metrics", "f.json", Unset, "write aggregated counters and histograms");

/// Every subcommand the parser accepts, in `machmin help` order.
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec { name: "solve", args: &["<instance.json>"], about: &[
        "exact migratory optimum + Theorem 1 certificate; a spent budget settles for a",
        "certified bracket [lo, hi] (still exit code 0)",
    ], flags: &[
        TRACE,
        METRICS,
        flag("--budget-augmentations", "N", Unset, "cancel a probe after N augmenting paths"),
        flag("--budget-ms", "N", Unset, "cancel a probe after N wall-clock ms"),
        flag("--budget-nodes", "N", Unset, "refuse flow networks larger than N nodes"),
        flag("--attempts", "K", Or("3"), "escalation attempts, doubling the budget each time"),
    ]},
    Spec { name: "classify", args: &["<instance.json>"],
        about: &["structure (agreeable/laminar), Δ, looseness"], flags: &[] },
    Spec { name: "schedule", args: &["<instance.json>"],
        about: &["run an online policy and verify its schedule"], flags: &[
        flag("--policy", "P", Required, "edf, llf, edf-ff, medium-fit, agreeable, laminar"),
        flag("--machines", "N", Unset, "machine budget (default: one per job)"),
        TRACE,
        METRICS,
    ]},
    Spec { name: "demigrate", args: &["<instance.json>"],
        about: &["offline migratory → non-migratory transformation"], flags: &[] },
    Spec { name: "generate", args: &["<uniform|agreeable|laminar|loose>"],
        about: &["write a seeded instance of one family"], flags: &[
        flag("--n", "N", Or("50"), "jobs (ignored for laminar)"),
        flag("--seed", "S", Or("0"), "generator seed"),
        flag("--out", "file.json", Required, "output file"),
    ]},
    Spec { name: "adversary", args: &[],
        about: &["migration-gap sweep over depths k = 2..=K, checkpointing each depth"], flags: &[
        flag("--policy", "P", Required, "edf-ff or medium-fit"),
        flag("--k", "K", Or("4"), "deepest depth (at least 2)"),
        flag("--machines", "N", Or("16"), "machine budget handed to the policy"),
        flag("--checkpoint", "f.json", Unset, "save the sweep after every completed depth"),
        flag("--resume", "", Unset, "skip depths already complete in --checkpoint"),
        flag("--export-stream", "f.jsonl", Unset, "write the strongest forced trace for `online run`"),
        TRACE,
        METRICS,
    ]},
    Spec { name: "online", args: &["<run|race>"], about: &[
        "run: replay a JSONL event stream through one portfolio member (no lookahead);",
        "race: race the portfolio over seeded agreeable/laminar streams and the adversary",
        "trace, gated against the paper's agreeable bounds (32.70·m upper, 1.101·m lower)",
    ], flags: &[
        flag("--stream", "f.jsonl", Unset, "run: event stream to replay (required for run)"),
        flag("--member", "M", Or("auto"), "run: loose, laminar, agreeable, cms, imps, auto"),
        flag("--seed", "S", Or("7"), "race: generator seed"),
        flag("--n", "N", Or("40"), "race: jobs per generated stream"),
        flag("--k", "K", Or("4"), "race: adversary depth (at least 2)"),
        flag("--members", "LIST", Or("all"), "race: comma-separated members, or all"),
        flag("--out", "f.json", Unset, "race: write the race report"),
        TRACE,
        METRICS,
    ]},
    Spec { name: "chaos", args: &[], about: &[
        "deterministic fault-injection run exercising every fault site (probe_cancel,",
        "force_bigint, machine_failure, machine_slowdown, adversary_abort, worker_panic,",
        "backend_drop, backend_churn, answer_corruption) without panicking",
    ], flags: &[
        flag("--seed", "S", Or("0"), "seed deriving the fault plan and the workload"),
        flag("--n", "N", Or("16"), "workload size in jobs"),
        flag("--plan", "f.json", Unset, "load an explicit fault plan instead"),
        TRACE,
        METRICS,
    ]},
    Spec { name: "serve", args: &[], about: &[
        "supervised JSONL-over-TCP server: bounded admission, per-request deadlines,",
        "panic-recycling workers, crash-safe journal replay, drain on a `shutdown` request",
    ], flags: &[
        flag("--addr", "A", Or("127.0.0.1:0"), "listen address; port 0 picks a free one"),
        flag("--workers", "N", Or("2"), "worker threads"),
        flag("--queue-cap", "N", Or("16"), "admission bound: queued + running + retrying"),
        flag("--drain-ms", "N", Or("2000"), "drain deadline after a shutdown request"),
        flag("--seed", "S", Or("0"), "seed for retry jitter and the --chaos plan"),
        flag("--retry-attempts", "N", Or("3"), "panic retries before a request is quarantined"),
        flag("--chaos", "", Unset, "inject the seed-derived fault plan (excludes --plan)"),
        flag("--plan", "f.json", Unset, "inject an explicit fault plan"),
        flag("--journal", "f.jsonl", Unset, "write-ahead journal, replayed on restart"),
        flag("--deadline-ms", "N", Unset, "deadline for requests that carry none"),
        flag("--port-file", "f", Unset, "write the bound address here"),
        TRACE,
        METRICS,
    ]},
    Spec { name: "load", args: &[], about: &[
        "deterministic load client: mixed request stream, transcript sorted by id,",
        "p50/p99/p999 latency report, optional client-side latency histogram",
    ], flags: &[
        flag("--addr", "host:port", Required, "server to load"),
        flag("--n", "N", Or("100"), "requests to send"),
        flag("--seed", "S", Or("0"), "seed for the request mix"),
        flag("--paced", "", Unset, "arrival-driven pacing instead of closed-loop"),
        flag("--window", "W", Or("8"), "max outstanding requests (closed-loop)"),
        flag("--deadline-ms", "N", Unset, "deadline to attach to every request"),
        flag("--out", "f", Unset, "write the transcript, sorted by id"),
        flag("--hist", "f.json", Unset, "write the client-side latency histogram"),
        flag("--no-shutdown", "", Unset, "leave the server running afterwards"),
    ]},
    Spec { name: "cluster", args: &["<solve|sweep|grid|online|stats>", "[inst.json]"], about: &[
        "scatter–gather over a pool of running servers (solve takes inst.json): hedging,",
        "retries, quarantine, elastic membership, proof-checked answers, byte-identical",
        "same-seed transcripts; `stats` merges every backend's registry bucket-exactly;",
        "`online` races the portfolio on the pool against a single-node reference",
    ], flags: &[
        flag("--backends", "a,b,c", Required, "backend addresses"),
        flag("--balance", "B", Or("round-robin"), "round-robin, least-outstanding or hash"),
        flag("--seed", "S", Or("0"), "seed for hashing, hedging and the --chaos plan"),
        flag("--window", "W", Or("8"), "max outstanding units across the pool"),
        flag("--hedge-every", "N", Unset, "hedge every Nth unit (excludes --hedge-p99)"),
        flag("--hedge-p99", "PCT", Unset, "hedge a unit slower than PCT% of observed p99"),
        flag("--hedge-floor-ms", "N", Or("10"), "no p99 hedge for units faster than this"),
        flag("--chaos", "", Unset, "inject the seed-derived fault plan (excludes --plan)"),
        flag("--plan", "f.json", Unset, "inject an explicit fault plan"),
        flag("--deadline-ms", "N", Unset, "deadline to attach to every unit"),
        flag("--policies", "LIST", Or("edf-ff"), "sweep: comma-separated policies"),
        flag("--k", "K", Or("4"), "sweep: deepest adversary depth (at least 2)"),
        flag("--machines", "N", Or("16"), "sweep: machine budget per shard"),
        flag("--checkpoint", "f.json", Unset, "sweep: save after every completed shard"),
        flag("--resume", "", Unset, "sweep: resume from --checkpoint"),
        flag("--families", "LIST", Or("uniform,agreeable,loose"), "grid, online: families"),
        flag("--seeds", "N", Or("3"), "grid, online: seeds per family"),
        flag("--n", "N", Or("12"), "grid, online: jobs per instance"),
        flag("--members", "LIST", Or("all"), "online: comma-separated members, or all"),
        flag("--churn", "plan.json", Unset, "membership events on the backend_churn schedule"),
        flag("--spares", "d,e", Unset, "spare addresses for the plan's joins (needs --churn)"),
        flag("--migration-budget", "N", Or("64"), "max live shard migrations per window"),
        flag("--verify", "V", Or("off"), "answer verification: off, spot or all"),
        flag("--out", "transcript.jsonl", Unset, "write the transcript, sorted by id"),
        TRACE,
        METRICS,
    ]},
    Spec { name: "top", args: &[], about: &[
        "live terminal view over the pool's stats endpoints: queue depth, in-flight,",
        "latency quantiles, slowest spans; one-shot unless --interval-s is given",
    ], flags: &[
        flag("--backends", "a,b,c", Required, "backend addresses"),
        flag("--interval-s", "N", Or("0"), "seconds between refreshes (0: one frame)"),
        flag("--frames", "N", Or("0"), "frames to print when refreshing (0: no limit)"),
    ]},
    Spec { name: "bench", args: &[], about: &[
        "one seeded benchmark suite; writes its BENCH_*.json and, with --check, gates the",
        "deterministic counters (never wall times); with no suite switch, the solver probe",
        "baseline (BENCH_2.json); the suite switches exclude each other",
    ], flags: &[
        flag("--quick", "", Unset, "run the reduced workload set (CI smoke mode)"),
        flag("--serve", "", Unset, "the service layer (BENCH_4.json)"),
        flag("--cluster", "", Unset, "the scatter–gather coordinator (BENCH_5.json)"),
        flag("--obs", "", Unset, "the observability layer (BENCH_6.json)"),
        flag("--large", "", Unset, "the million-job certifier hot path (BENCH_7.json)"),
        flag("--churn", "", Unset, "elastic membership churn (BENCH_8.json)"),
        flag("--verify", "", Unset, "honest pool vs one Byzantine backend (BENCH_9.json)"),
        flag("--online", "", Unset, "the portfolio race's competitive ratios (BENCH_10.json)"),
        flag("--out", "f.json", Unset, "output file (default: the suite's BENCH_*.json)"),
        flag("--check", "f.json", Unset, "committed baseline to gate against"),
    ]},
    Spec { name: "certcheck", args: &[], about: &[
        "certifier-vs-flow verdict cross-check; same-seed reports are byte-identical,",
        "mismatches exit 6",
    ], flags: &[
        flag("--seed", "S", Or("1"), "base seed of the case batch"),
        flag("--cases", "N", Or("25"), "seeded cases, cycling through all families"),
        flag("--pool", "", Unset, "re-verify proof-carrying answers from a live backend pool"),
        flag("--corrupt", "", Unset, "plant one lying backend (needs --pool)"),
        flag("--out", "f.txt", Unset, "write the report here instead of stdout"),
    ]},
];

impl Spec {
    /// `usage: machmin <name> <args> [--flag META] ...`, rendered from the
    /// table.
    fn usage(&self) -> String {
        let mut s = format!("usage: machmin {}", self.name);
        for arg in self.args {
            let _ = write!(s, " {arg}");
        }
        for f in self.flags {
            let body = format!("{} {}", f.name, f.meta);
            let body = body.trim_end();
            let _ = match f.absent {
                Required => write!(s, " {body}"),
                _ => write!(s, " [{body}]"),
            };
        }
        s
    }

    /// A usage error: the problem, then this command's usage line.
    fn error(&self, problem: impl std::fmt::Display) -> Error {
        Error::Usage(format!("{problem}\n{}", self.usage()))
    }
}

/// A subcommand's arguments with its table applied: positionals in order
/// and the flags actually given.
struct Args<'a> {
    spec: &'static Spec,
    positionals: Vec<&'a str>,
    /// `(name, value)` per given flag; switches carry no value.
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Applies `spec` to `raw` (the tokens after the subcommand name). A
    /// token starting with `--` is a flag; anything else is positional,
    /// wherever it appears.
    fn parse(spec: &'static Spec, raw: &'a [String]) -> Result<Args<'a>, Error> {
        let mut args = Args {
            spec,
            positionals: Vec::new(),
            given: Vec::new(),
        };
        let mut tokens = raw.iter();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with("--") {
                args.positionals.push(tok);
                continue;
            }
            let flag =
                spec.flags.iter().find(|f| f.name == tok).ok_or_else(|| {
                    spec.error(format!("unknown flag `{tok}` for `{}`", spec.name))
                })?;
            if args.given.iter().any(|(name, _)| *name == flag.name) {
                return Err(spec.error(format!("{tok} given more than once")));
            }
            let value = if flag.meta.is_empty() {
                None
            } else {
                match tokens.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    Some(v) => {
                        return Err(spec.error(format!("{tok} requires a value, got flag `{v}`")))
                    }
                    None => return Err(spec.error(format!("{tok} requires a value"))),
                }
            };
            args.given.push((flag.name, value));
        }
        let needed = spec.args.iter().take_while(|a| !a.starts_with('[')).count();
        if let Some(missing) = spec.args[..needed].get(args.positionals.len()) {
            return Err(spec.error(format!("missing {missing}")));
        }
        if let Some(extra) = args.positionals.get(spec.args.len()) {
            return Err(spec.error(format!("unexpected argument `{extra}`")));
        }
        for f in spec.flags {
            if matches!(f.absent, Required) && !args.on(f.name) {
                return Err(spec.error(format!("missing {} {}", f.name, f.meta)));
            }
        }
        Ok(args)
    }

    fn positional(&self, i: usize) -> Option<String> {
        self.positionals.get(i).map(|s| s.to_string())
    }

    /// Whether the flag was given (a switch is on).
    fn on(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's given value, else its table default.
    fn text(&self, name: &str) -> Option<&'a str> {
        let flag = self.spec.flags.iter().find(|f| f.name == name);
        debug_assert!(flag.is_some(), "{name} is not in the table");
        match self.given.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => *v,
            None => match flag?.absent {
                Or(d) => Some(d),
                Unset | Required => None,
            },
        }
    }

    /// [`Args::text`] parsed as `T`; an unparsable value is a usage error.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Error> {
        self.text(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| self.spec.error(format!("invalid {name} value: {v}")))
            })
            .transpose()
    }

    /// [`Args::get`] for a flag that always has a value (a default, or
    /// required).
    fn val<T: std::str::FromStr>(&self, name: &str) -> Result<T, Error> {
        self.get(name)?
            .ok_or_else(|| Error::Internal(format!("{name} has neither a value nor a default")))
    }

    /// [`Args::val`], which must be at least `min`.
    fn at_least<T>(&self, name: &str, min: T) -> Result<T, Error>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let v = self.val::<T>(name)?;
        if v < min {
            return Err(Error::Usage(format!("{name} must be at least {min}")));
        }
        Ok(v)
    }

    /// Fails when both flags are given.
    fn exclusive(&self, a: &str, b: &str) -> Result<(), Error> {
        if self.on(a) && self.on(b) {
            return Err(Error::Usage(format!("{a} and {b} are mutually exclusive")));
        }
        Ok(())
    }

    /// Fails when `flag` is given without `needs`.
    fn requires(&self, flag: &str, needs: &str) -> Result<(), Error> {
        if self.on(flag) && !self.on(needs) {
            return Err(Error::Usage(format!("{flag} requires {needs}")));
        }
        Ok(())
    }

    /// A comma-separated address list, blanks dropped.
    fn list(&self, name: &str) -> Vec<String> {
        let items = self.text(name).unwrap_or_default().split(',');
        items
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(String::from)
            .collect()
    }

    /// The `--backends` list, which must name at least one address.
    fn backends(&self) -> Result<Vec<String>, Error> {
        let backends = self.list("--backends");
        if backends.is_empty() {
            return Err(Error::Usage(
                "--backends needs at least one host:port".into(),
            ));
        }
        Ok(backends)
    }
}

/// Parses raw arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, Error> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if matches!(cmd, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let spec = SPECS
        .iter()
        .find(|s| s.name == cmd)
        .ok_or_else(|| Error::Usage(format!("unknown command `{cmd}`; run `machmin help`")))?;
    let a = Args::parse(spec, &args[1..])?;
    let path = || a.positional(0).unwrap_or_default();
    Ok(match cmd {
        "solve" => {
            let mut budget: Option<Budget> = None;
            if let Some(n) = a.get::<u64>("--budget-augmentations")? {
                budget = Some(
                    budget
                        .unwrap_or_else(Budget::unlimited)
                        .with_augmentations(n),
                );
            }
            if let Some(ms) = a.get::<u64>("--budget-ms")? {
                budget = Some(budget.unwrap_or_else(Budget::unlimited).with_probe_ms(ms));
            }
            if let Some(n) = a.get::<usize>("--budget-nodes")? {
                budget = Some(
                    budget
                        .unwrap_or_else(Budget::unlimited)
                        .with_network_nodes(n),
                );
            }
            Command::Solve {
                path: path(),
                budget,
                attempts: a.at_least("--attempts", 1)?,
                trace: a.get("--trace")?,
                metrics: a.get("--metrics")?,
            }
        }
        "classify" => Command::Classify { path: path() },
        "demigrate" => Command::Demigrate { path: path() },
        "schedule" => Command::Schedule {
            path: path(),
            policy: a.val("--policy")?,
            machines: a.get("--machines")?,
            trace: a.get("--trace")?,
            metrics: a.get("--metrics")?,
        },
        "generate" => Command::Generate {
            family: path(),
            n: a.val("--n")?,
            seed: a.val("--seed")?,
            out: a.val("--out")?,
        },
        "adversary" => {
            let k = a.at_least("--k", 2)?;
            a.requires("--resume", "--checkpoint")?;
            Command::Adversary {
                policy: a.val("--policy")?,
                k,
                machines: a.val("--machines")?,
                checkpoint: a.get("--checkpoint")?,
                resume: a.on("--resume"),
                export_stream: a.get("--export-stream")?,
                trace: a.get("--trace")?,
                metrics: a.get("--metrics")?,
            }
        }
        "online" => {
            let mode = path();
            if mode != "run" && mode != "race" {
                return Err(spec.error(format!("unknown online mode `{mode}` (run|race)")));
            }
            let stream = a.get("--stream")?;
            if mode == "run" && stream.is_none() {
                return Err(Error::Usage("online run requires --stream f.jsonl".into()));
            }
            let k = a.at_least("--k", 2)?;
            Command::Online {
                mode,
                stream,
                member: a.val("--member")?,
                seed: a.val("--seed")?,
                n: a.val::<usize>("--n")?.max(1),
                k,
                members: a.val("--members")?,
                out: a.get("--out")?,
                trace: a.get("--trace")?,
                metrics: a.get("--metrics")?,
            }
        }
        "chaos" => Command::Chaos {
            seed: a.val("--seed")?,
            n: a.val::<usize>("--n")?.max(1),
            plan: a.get("--plan")?,
            trace: a.get("--trace")?,
            metrics: a.get("--metrics")?,
        },
        "bench" => {
            let picked: Vec<BenchSuite> = BenchSuite::FLAGS
                .iter()
                .filter(|(flag, _)| a.on(flag))
                .map(|(_, suite)| *suite)
                .collect();
            if picked.len() > 1 {
                return Err(Error::Usage(
                    "--serve, --cluster, --obs, --large, --churn, --verify, and --online \
                     are mutually exclusive"
                        .into(),
                ));
            }
            let suite = picked.first().copied().unwrap_or(BenchSuite::Baseline);
            Command::Bench {
                quick: a.on("--quick"),
                suite,
                out: a
                    .get("--out")?
                    .unwrap_or_else(|| suite.default_out().into()),
                check: a.get("--check")?,
            }
        }
        "certcheck" => {
            a.requires("--corrupt", "--pool")?;
            Command::CertCheck {
                seed: a.val("--seed")?,
                cases: a.val::<usize>("--cases")?.max(1),
                pool: a.on("--pool"),
                corrupt: a.on("--corrupt"),
                out: a.get("--out")?,
            }
        }
        "serve" => {
            a.exclusive("--chaos", "--plan")?;
            Command::Serve {
                addr: a.val("--addr")?,
                workers: a.val::<usize>("--workers")?.max(1),
                queue_cap: a.val::<usize>("--queue-cap")?.max(1),
                drain_ms: a.val("--drain-ms")?,
                seed: a.val("--seed")?,
                retry_attempts: a.val::<u32>("--retry-attempts")?.max(1),
                chaos: a.on("--chaos"),
                plan: a.get("--plan")?,
                journal: a.get("--journal")?,
                deadline_ms: a.get("--deadline-ms")?,
                port_file: a.get("--port-file")?,
                trace: a.get("--trace")?,
                metrics: a.get("--metrics")?,
            }
        }
        "cluster" => {
            let workload = path();
            if !matches!(
                workload.as_str(),
                "solve" | "sweep" | "grid" | "online" | "stats"
            ) {
                return Err(spec.error(format!("unknown cluster workload `{workload}`")));
            }
            let path = a.positional(1);
            if workload == "solve" && path.is_none() {
                return Err(spec.error("cluster solve requires an instance file"));
            }
            if let Some(extra) = path.as_ref().filter(|_| workload != "solve") {
                return Err(spec.error(format!("unexpected argument `{extra}`")));
            }
            let backends = a.backends()?;
            a.exclusive("--hedge-every", "--hedge-p99")?;
            let hedge_every = a.get::<u64>("--hedge-every")?;
            if hedge_every == Some(0) {
                return Err(Error::Usage("--hedge-every must be at least 1".into()));
            }
            a.exclusive("--chaos", "--plan")?;
            let k = a.at_least("--k", 2)?;
            a.requires("--resume", "--checkpoint")?;
            let churn = a.get("--churn")?;
            let spares = a.list("--spares");
            if !spares.is_empty() && churn.is_none() {
                return Err(Error::Usage("--spares requires --churn".into()));
            }
            Command::Cluster {
                workload,
                path,
                backends,
                balance: a.val("--balance")?,
                seed: a.val("--seed")?,
                window: a.val::<usize>("--window")?.max(1),
                hedge_every,
                hedge_p99: a.get("--hedge-p99")?,
                hedge_floor_ms: a.val("--hedge-floor-ms")?,
                chaos: a.on("--chaos"),
                plan: a.get("--plan")?,
                deadline_ms: a.get("--deadline-ms")?,
                policies: a.val("--policies")?,
                k,
                machines: a.val("--machines")?,
                checkpoint: a.get("--checkpoint")?,
                resume: a.on("--resume"),
                families: a.val("--families")?,
                seeds: a.val::<u64>("--seeds")?.max(1),
                n: a.val::<usize>("--n")?.max(1),
                members: a.val("--members")?,
                churn,
                spares,
                migration_budget: a.val("--migration-budget")?,
                verify: a.val("--verify")?,
                out: a.get("--out")?,
                trace: a.get("--trace")?,
                metrics: a.get("--metrics")?,
            }
        }
        "load" => Command::Load {
            addr: a.val("--addr")?,
            n: a.val::<usize>("--n")?.max(1),
            seed: a.val("--seed")?,
            paced: a.on("--paced"),
            window: a.val::<usize>("--window")?.max(1),
            deadline_ms: a.get("--deadline-ms")?,
            out: a.get("--out")?,
            hist: a.get("--hist")?,
            shutdown: !a.on("--no-shutdown"),
        },
        "top" => Command::Top {
            backends: a.backends()?,
            interval_s: a.val("--interval-s")?,
            frames: a.val("--frames")?,
        },
        other => {
            return Err(Error::Internal(format!(
                "`{other}` has a table but no parser"
            )))
        }
    })
}

/// Help text, rendered from the flag tables.
pub fn help_text() -> String {
    let mut s = String::from(
        "machmin — online machine minimization (SPAA'16 reproduction)\n\
         \n\
         usage: machmin <command> [args] [flags]; args and flags may come in any order.\n\
         An unknown, repeated or value-less flag, or a missing or extra argument, is a\n\
         usage error (exit 2).\n\
         \n\
         commands:\n",
    );
    for spec in SPECS {
        let _ = write!(s, "\n  {}", spec.name);
        for arg in spec.args {
            let _ = write!(s, " {arg}");
        }
        s.push('\n');
        for line in spec.about {
            let _ = writeln!(s, "      {line}");
        }
        for f in spec.flags {
            let flag = format!("{} {}", f.name, f.meta);
            let note = match f.absent {
                Unset => String::new(),
                Or(d) => format!(" [default: {d}]"),
                Required => " [required]".into(),
            };
            let _ = writeln!(s, "      {flag:<26}{}{note}", f.help);
        }
    }
    s.push_str(
        "\n  help\n      \
         this text\n\
         \n\
         exit codes: 0 success (incl. degraded bracket), 1 internal, 2 usage,\n\
         \x20           3 io/parse, 4 validation, 5 simulation, 6 verification, 70 panic\n",
    );
    s
}

fn load(path: &str) -> Result<Instance, Error> {
    let inst = io::load(path).map_err(|e| Error::Io(format!("cannot load {path}: {e}")))?;
    let report = inst.validate();
    if !report.is_ok() {
        return Err(Error::Validation(format!("{path}: {report}")));
    }
    Ok(inst)
}

/// Loads an explicit fault plan, surfacing malformed JSON as a categorized
/// io error (exit 3) with line/column context — a truncated plan file must
/// never panic the process.
fn load_fault_plan(path: &str) -> Result<FaultPlan, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Io(format!("cannot read fault plan {path}: {e}")))?;
    if let Err(e) = mm_json::parse(&text) {
        return Err(Error::Io(format!(
            "cannot parse fault plan {path}: {e} ({})",
            e.locate(&text)
        )));
    }
    FaultPlan::from_json(&text).map_err(|e| Error::Io(format!("invalid fault plan {path}: {e}")))
}

/// Reads and parses a committed bench baseline for `--check`.
fn read_baseline(path: &str) -> Result<mm_json::Json, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Io(format!("cannot read baseline {path}: {e}")))?;
    mm_json::parse(&text).map_err(|e| Error::Io(format!("cannot parse baseline {path}: {e}")))
}

/// A "must not grow" `--check` gate: `check_against` (the suite module's)
/// lists every counter of `doc` above the committed baseline's.
fn growth_gate(
    doc: &mm_json::Json,
    check: Option<&str>,
    what: &str,
    check_against: fn(&mm_json::Json, &mm_json::Json) -> Result<(), Vec<String>>,
    out: &mut String,
) -> Result<(), Error> {
    let Some(check_path) = check else {
        return Ok(());
    };
    if let Err(problems) = check_against(doc, &read_baseline(check_path)?) {
        return Err(Error::Verification(format!(
            "{what} counter regression vs {check_path}:\n  {}",
            problems.join("\n  ")
        )));
    }
    let _ = writeln!(out, "counters within committed baseline {check_path}");
    Ok(())
}

/// A suite's exact `--check` gate: each integer key and each subtree (in
/// compact form) must equal the committed baseline's, a key missing on
/// either side included.
struct ExactGate {
    /// Failure header, `"<what> regression vs <path>"`.
    what: &'static str,
    ints: &'static [&'static str],
    trees: &'static [&'static str],
    /// Problem line for a changed subtree, `"<key> <changed>"`.
    changed: &'static str,
    /// Success line, `"<matched> match committed baseline <path>"`.
    matched: &'static str,
}

impl ExactGate {
    fn problems(&self, doc: &mm_json::Json, committed: &mm_json::Json) -> Vec<String> {
        use mm_json::Json;
        let mut problems = Vec::new();
        for key in self.ints {
            let cur = doc.get(key).and_then(Json::as_i64);
            let base = committed.get(key).and_then(Json::as_i64);
            if cur != base {
                problems.push(format!("{key}: {cur:?} vs committed {base:?}"));
            }
        }
        for key in self.trees {
            let compact = |j: &Json| j.get(key).map(Json::to_compact);
            if compact(doc) != compact(committed) {
                problems.push(format!("{key} {}", self.changed));
            }
        }
        problems
    }

    /// Gates `doc` against the baseline at `check`, if one was given.
    fn check(
        &self,
        doc: &mm_json::Json,
        check: Option<&str>,
        out: &mut String,
    ) -> Result<(), Error> {
        let Some(check_path) = check else {
            return Ok(());
        };
        let problems = self.problems(doc, &read_baseline(check_path)?);
        if !problems.is_empty() {
            return Err(Error::Verification(format!(
                "{} regression vs {check_path}:\n  {}",
                self.what,
                problems.join("\n  ")
            )));
        }
        let _ = writeln!(
            out,
            "{} match committed baseline {check_path}",
            self.matched
        );
        Ok(())
    }
}

/// The default `bench` scenario (`BENCH_2.json`): the seeded probe
/// workloads, fast path + prober reuse vs the BigInt + fresh-network
/// reference. `--check` fails if a counter grows past the committed one.
fn baseline_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    let doc = mm_bench::baseline::run(quick);
    if let Some(workloads) = doc.get("workloads").and_then(mm_json::Json::as_arr) {
        for w in workloads {
            let name = w.get("name").and_then(mm_json::Json::as_str).unwrap_or("?");
            let speedup = w
                .get("speedup")
                .and_then(mm_json::Json::as_f64)
                .unwrap_or(0.0);
            let m = w
                .get("optimal_machines")
                .and_then(mm_json::Json::as_i64)
                .unwrap_or(-1);
            let _ = writeln!(out, "{name}: m = {m}, speedup {speedup:.2}x");
        }
    }
    if let Some(total) = doc
        .get("totals")
        .and_then(|t| t.get("speedup"))
        .and_then(mm_json::Json::as_f64)
    {
        let _ = writeln!(out, "total probe-workload speedup: {total:.2}x");
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(out, "baseline -> {path}");
    growth_gate(&doc, check, "bench", mm_bench::baseline::check_against, out)
}

/// The `bench --large` scenario (`BENCH_7.json`): the certifier hot path
/// at streaming scale — n = 10^5 uniform probes through the scaled-integer
/// flow arena, and n ≈ 10^6 agreeable/laminar workloads answered entirely
/// by the direct certifiers. Gated counters are the per-path dispatch
/// counts and the optimum; jobs/sec is recorded for trajectory only.
fn large_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    let doc = mm_bench::large::run(quick);
    if let Some(workloads) = doc.get("workloads").and_then(mm_json::Json::as_arr) {
        for w in workloads {
            let get_i = |k: &str| w.get(k).and_then(mm_json::Json::as_i64).unwrap_or(-1);
            let name = w.get("name").and_then(mm_json::Json::as_str).unwrap_or("?");
            let jps = w
                .get("jobs_per_sec")
                .and_then(mm_json::Json::as_f64)
                .unwrap_or(0.0);
            let path_label = w.get("path").and_then(mm_json::Json::as_str).unwrap_or("?");
            let rescued = w
                .get("dispatch")
                .and_then(|d| d.get("rescued"))
                .and_then(mm_json::Json::as_i64)
                .unwrap_or(-1);
            let _ = writeln!(
                out,
                "{name}: m = {}, path {path_label}, {:.2}M jobs/sec, rescued {rescued}",
                get_i("optimal_machines"),
                jps / 1e6,
            );
        }
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(out, "large baseline -> {path}");
    growth_gate(
        &doc,
        check,
        "large bench",
        mm_bench::large::check_against,
        out,
    )
}

/// The `bench --serve` scenario: an in-process server on loopback TCP, a
/// closed-loop client, latency quantiles plus deterministic counters
/// (`BENCH_4.json`). With the window below the queue capacity and no fault
/// plan, every counter is a pure function of the seed; only the wall-clock
/// quantiles vary by environment, and `--check` never gates on those.
fn serve_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    use mm_json::Json;
    let n = if quick { 60 } else { 240 };
    let pool = spawn_bench_pool(1, 16)?;
    let service = Arc::clone(&pool[0].service);
    let report = mm_serve::run_load(
        &pool[0].addr,
        &LoadConfig {
            n,
            seed: 17,
            window: 8,
            shutdown: true,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| Error::Io(format!("bench load failed: {e}")))?;
    teardown_bench_pool(pool)?;
    let stats = service.stats();
    if report.lost > 0 || !stats.invariant_holds() {
        return Err(Error::Verification(format!(
            "bench serve lost {} response(s) or broke the invariant: {stats:?}",
            report.lost
        )));
    }
    let shed_rate = stats.shed as f64 / report.sent.max(1) as f64;
    let statuses: Vec<(String, Json)> = report
        .by_status
        .iter()
        .map(|(s, c)| (s.clone(), Json::Int(*c as i64)))
        .collect();
    let doc = Json::obj([
        ("schema", Json::str("machmin-serve-bench-v1")),
        ("requests", Json::Int(report.sent as i64)),
        ("lost", Json::Int(report.lost as i64)),
        ("admitted", Json::Int(stats.admitted as i64)),
        ("responses", Json::Int(stats.responses as i64)),
        ("shed", Json::Int(stats.shed as i64)),
        ("shed_rate", Json::Float(shed_rate)),
        ("by_status", Json::obj(statuses)),
        ("p50_ms", Json::Float(report.p50_ms)),
        ("p99_ms", Json::Float(report.p99_ms)),
        ("p999_ms", Json::Float(report.p999_ms)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(
        out,
        "serve bench: {} requests, p50 {:.2} ms, p99 {:.2} ms, shed rate {shed_rate:.3}",
        report.sent, report.p50_ms, report.p99_ms
    );
    let _ = writeln!(out, "baseline -> {path}");
    ExactGate {
        what: "serve bench counter",
        ints: &["requests", "lost", "admitted", "responses", "shed"],
        trees: &["by_status"],
        changed: "distribution changed",
        matched: "counters",
    }
    .check(&doc, check, out)
}

/// One in-process `machmin serve` backend: a real [`Service`] behind a
/// loopback TCP acceptor, used by the serve, obs and pool benches and the
/// chaos cluster segments so no external processes are needed.
struct BenchBackend {
    service: Arc<Service>,
    addr: String,
    acceptor: std::thread::JoinHandle<std::io::Result<()>>,
}

fn spawn_bench_pool(n: usize, queue_cap: usize) -> Result<Vec<BenchBackend>, Error> {
    spawn_bench_pool_plans(&vec![FaultPlan::none(); n], queue_cap)
}

/// Like [`spawn_bench_pool`], but each backend gets its own fault plan —
/// how the Byzantine bench and chaos segments plant exactly one liar in an
/// otherwise honest pool.
fn spawn_bench_pool_plans(
    plans: &[FaultPlan],
    queue_cap: usize,
) -> Result<Vec<BenchBackend>, Error> {
    plans
        .iter()
        .map(|plan| {
            let cfg = ServeConfig {
                workers: 2,
                queue_cap,
                plan: plan.clone(),
                ..ServeConfig::default()
            };
            let service = Arc::new(
                Service::start(cfg, DynSink::new(Box::new(NoopSink)))
                    .map_err(|e| Error::Sim(format!("cannot start backend: {e}")))?,
            );
            let (listener, addr) = mm_serve::tcp::bind("127.0.0.1:0")
                .map_err(|e| Error::Io(format!("cannot bind backend: {e}")))?;
            let acceptor = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || mm_serve::tcp::serve(listener, service))
            };
            Ok(BenchBackend {
                service,
                addr,
                acceptor,
            })
        })
        .collect()
}

/// Shuts the pool down; backends already drained by the coordinator (a
/// dropped victim) shut down idempotently.
fn teardown_bench_pool(pool: Vec<BenchBackend>) -> Result<(), Error> {
    for b in &pool {
        b.service.shutdown();
    }
    for b in pool {
        b.service.wait_stopped();
        b.acceptor
            .join()
            .map_err(|_| Error::Internal("backend accept loop panicked".into()))?
            .map_err(|e| Error::Io(format!("backend accept loop failed: {e}")))?;
    }
    Ok(())
}

/// The distinct-optimum scatter workload shared by `bench --cluster` and
/// the chaos cluster segment: unit `id` is `id` copies of the same
/// zero-laxity job, so its optimum is exactly `id`.
fn scatter_units(n: usize) -> Vec<mm_serve::protocol::Request> {
    (1..=n as u64)
        .map(|id| {
            mm_serve::protocol::Request::new(
                id,
                mm_serve::protocol::RequestKind::Solve {
                    jobs: (0..id.min(16)).map(|_| (0, 2, 2)).collect(),
                },
            )
        })
        .collect()
}

/// The `bench --cluster` scenario: the scatter–gather coordinator over an
/// in-process three-backend pool (`BENCH_5.json`). The dispatch window
/// spans the whole workload, so hedges, the injected backend drop, shard
/// resumes, and the per-backend dispatch split are all pure functions of
/// the seed; only the wall-clock timings vary by environment, and
/// `--check` never gates on those.
fn cluster_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    use mm_json::Json;
    let units_n = if quick { 24 } else { 96 };

    // Scatter segment: hedged dispatch with one backend dropped mid-burst.
    let pool = spawn_bench_pool(3, 2 * units_n + 8)?;
    let cfg = ClusterConfig {
        backends: pool.iter().map(|b| b.addr.clone()).collect(),
        balance: BalancePolicy::SeededHash { seed: 21 },
        seed: 21,
        window: units_n,
        hedge: HedgeConfig::EveryNth { n: 3 },
        plan: FaultPlan {
            seed: 21,
            rules: vec![mm_fault::FaultRule {
                site: FaultSite::BackendDrop,
                nth: (units_n as u64) / 2,
                every: None,
            }],
        },
        ..ClusterConfig::default()
    };
    let t0 = std::time::Instant::now();
    let coordinator = Coordinator::connect(cfg, NoopSink)
        .map_err(|e| Error::Io(format!("cluster bench connect: {e}")))?;
    let scatter = coordinator
        .run(scatter_units(units_n), &mut |_, _| {})
        .map_err(|e| Error::Sim(format!("cluster bench run: {e}")))?;
    let scatter_ms = t0.elapsed().as_secs_f64() * 1e3;
    teardown_bench_pool(pool)?;
    if scatter.counters.lost > 0 {
        return Err(Error::Verification(format!(
            "cluster bench lost {} response(s)",
            scatter.counters.lost
        )));
    }

    // Sweep segment: a fault-free remote adversary sweep on a fresh pool.
    let pool = spawn_bench_pool(3, 64)?;
    let cfg = ClusterConfig {
        backends: pool.iter().map(|b| b.addr.clone()).collect(),
        seed: 22,
        ..ClusterConfig::default()
    };
    let sweep_cfg = SweepConfig {
        policies: vec!["edf-ff".into()],
        k: if quick { 3 } else { 4 },
        machines: 8,
        checkpoint: None,
        resume: false,
    };
    let t0 = std::time::Instant::now();
    let sweep = cluster_sweep(cfg, NoopSink, &sweep_cfg)
        .map_err(|e| Error::Sim(format!("cluster bench sweep: {e}")))?;
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    teardown_bench_pool(pool)?;

    let fired = Json::Arr(
        scatter
            .fired
            .iter()
            .map(|(site, n)| {
                Json::obj([
                    ("site", Json::str(site.tag())),
                    ("count", Json::Int(*n as i64)),
                ])
            })
            .collect(),
    );
    let doc = Json::obj([
        ("schema", Json::str("machmin-cluster-bench-v1")),
        ("units", Json::Int(units_n as i64)),
        ("backends", Json::Int(3)),
        ("scatter", scatter.counters.to_json()),
        ("scatter_fired", fired),
        ("sweep", sweep.report.counters.to_json()),
        ("sweep_merged", sweep.merged.clone()),
        ("scatter_ms", Json::Float(scatter_ms)),
        ("sweep_ms", Json::Float(sweep_ms)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(
        out,
        "cluster bench: {} units over 3 backends, {} hedge(s), {} dedup(s), {} drop(s), \
         {} resume(s), scatter {scatter_ms:.1} ms, sweep {sweep_ms:.1} ms",
        units_n,
        scatter.counters.hedges,
        scatter.counters.dedups,
        scatter.counters.backend_drops,
        scatter.counters.shard_resumes
    );
    let _ = writeln!(out, "baseline -> {path}");
    ExactGate {
        what: "cluster bench counter",
        ints: &["units", "backends"],
        trees: &["scatter", "scatter_fired", "sweep", "sweep_merged"],
        changed: "counters changed",
        matched: "counters",
    }
    .check(&doc, check, out)
}

/// The `bench --verify` scenario (`BENCH_9.json`): proof-carrying answers
/// end to end. Two runs over the same scatter workload, both with
/// `--verify all`:
///
/// * **honest** — a clean three-backend pool; every answer's proof checks
///   out, zero refutations.
/// * **byzantine** — the same pool with a seeded `answer_corruption` plan
///   on one backend (exactly one lie). The coordinator refutes the lie
///   from its own proof, quarantines the liar, and re-asks the unit on the
///   survivors.
///
/// The gate: the byzantine run's merged responses are **byte-identical**
/// to the honest run's (proof bytes included), and the verification
/// counters are pure functions of the seed. Wall times are reported but
/// never gated.
fn verify_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    use mm_json::Json;
    let units_n = if quick { 16 } else { 48 };

    let run = |plans: &[FaultPlan]| -> Result<(mm_cluster::ClusterReport, u64, f64), Error> {
        let pool = spawn_bench_pool_plans(plans, 2 * units_n + 8)?;
        let cfg = ClusterConfig {
            backends: pool.iter().map(|b| b.addr.clone()).collect(),
            balance: BalancePolicy::RoundRobin,
            seed: 31,
            window: units_n,
            verify: mm_cluster::VerifyPolicy::All,
            ..ClusterConfig::default()
        };
        let t0 = std::time::Instant::now();
        let coordinator = Coordinator::connect(cfg, NoopSink)
            .map_err(|e| Error::Io(format!("verify bench connect: {e}")))?;
        let report = coordinator
            .run(scatter_units(units_n), &mut |_, _| {})
            .map_err(|e| Error::Sim(format!("verify bench run: {e}")))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let corrupted: u64 = pool.iter().map(|b| b.service.stats().corrupted).sum();
        teardown_bench_pool(pool)?;
        if report.counters.lost > 0 {
            return Err(Error::Verification(format!(
                "verify bench lost {} response(s)",
                report.counters.lost
            )));
        }
        Ok((report, corrupted, ms))
    };

    let honest_plans = vec![FaultPlan::none(); 3];
    let mut liar_plans = honest_plans.clone();
    liar_plans[2] = FaultPlan::once(FaultSite::AnswerCorruption, 1);
    let (honest, honest_corrupted, honest_ms) = run(&honest_plans)?;
    let (byz, byz_corrupted, byz_ms) = run(&liar_plans)?;

    let hv = honest
        .counters
        .verify
        .as_ref()
        .ok_or_else(|| Error::Internal("verify bench ran without verify counters".into()))?;
    let bv = byz
        .counters
        .verify
        .as_ref()
        .ok_or_else(|| Error::Internal("verify bench ran without verify counters".into()))?;
    let merged_identical = honest.responses == byz.responses;

    let doc = Json::obj([
        ("schema", Json::str("machmin-verify-bench-v1")),
        ("units", Json::Int(units_n as i64)),
        ("backends", Json::Int(3)),
        ("honest_verified", Json::Int(hv.verified as i64)),
        ("honest_refuted", Json::Int(hv.refuted as i64)),
        ("honest_corrupted", Json::Int(honest_corrupted as i64)),
        ("byz_verified", Json::Int(bv.verified as i64)),
        ("byz_refuted", Json::Int(bv.refuted as i64)),
        ("byz_reasks", Json::Int(bv.reasks as i64)),
        ("byz_corrupted", Json::Int(byz_corrupted as i64)),
        (
            "byz_liar_refuted",
            Json::Int(bv.per_backend_refuted[2] as i64),
        ),
        ("merged_identical", Json::Bool(merged_identical)),
        (
            "byz_quarantines",
            Json::Int(byz.counters.quarantines as i64),
        ),
        ("honest_ms", Json::Float(honest_ms)),
        ("byz_ms", Json::Float(byz_ms)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(
        out,
        "verify bench: {units_n} units, honest {}/{} verified/refuted, \
         byzantine {}/{} verified/refuted ({} lie(s) injected, {} re-ask(s)), \
         merged identical: {merged_identical}, honest {honest_ms:.1} ms, byzantine {byz_ms:.1} ms",
        hv.verified, hv.refuted, bv.verified, bv.refuted, byz_corrupted, bv.reasks
    );
    let _ = writeln!(out, "baseline -> {path}");
    if hv.refuted != 0 || honest_corrupted != 0 {
        return Err(Error::Verification(format!(
            "honest pool must produce zero refutations (got {} refuted, {} corrupted)",
            hv.refuted, honest_corrupted
        )));
    }
    if !merged_identical {
        return Err(Error::Verification(
            "byzantine merged responses diverged from the honest run".into(),
        ));
    }
    ExactGate {
        what: "verify bench counter",
        ints: &[
            "units",
            "backends",
            "honest_verified",
            "honest_refuted",
            "honest_corrupted",
            "byz_verified",
            "byz_refuted",
            "byz_reasks",
            "byz_corrupted",
            "byz_liar_refuted",
        ],
        trees: &["merged_identical"],
        changed: "changed",
        matched: "counters",
    }
    .check(&doc, check, out)
}

/// `certcheck --pool`: the seeded cross-check batch shipped to a live
/// three-backend pool as solve units under `--verify all`. Every answer
/// comes back proof-carrying and is re-checked coordinator-side — the
/// certifier arithmetic against the backend's flow oracle, end to end over
/// the wire. With `--corrupt`, one backend lies exactly once and must be
/// refuted, quarantined, and routed around. The report carries no wall
/// times, so same-seed runs are byte-identical.
fn certcheck_pool(seed: u64, cases: usize, corrupt: bool) -> Result<String, Error> {
    use mm_serve::protocol::{Request, RequestKind};
    let batch = mm_bench::crosscheck::pool_cases(seed, cases);
    let mut plans = vec![FaultPlan::none(); 3];
    if corrupt {
        plans[2] = FaultPlan::once(FaultSite::AnswerCorruption, 1);
    }
    let pool = spawn_bench_pool_plans(&plans, 2 * cases + 8)?;
    let cfg = ClusterConfig {
        backends: pool.iter().map(|b| b.addr.clone()).collect(),
        balance: BalancePolicy::RoundRobin,
        seed,
        window: cases.max(1),
        verify: mm_cluster::VerifyPolicy::All,
        ..ClusterConfig::default()
    };
    let units: Vec<Request> = batch
        .iter()
        .enumerate()
        .map(|(i, (_, jobs))| Request::new(i as u64 + 1, RequestKind::Solve { jobs: jobs.clone() }))
        .collect();
    let coordinator = Coordinator::connect(cfg, NoopSink)
        .map_err(|e| Error::Io(format!("certcheck pool connect: {e}")))?;
    let report = coordinator
        .run(units, &mut |_, _| {})
        .map_err(|e| Error::Sim(format!("certcheck pool run: {e}")))?;
    let corrupted: u64 = pool.iter().map(|b| b.service.stats().corrupted).sum();
    teardown_bench_pool(pool)?;
    if report.counters.lost > 0 {
        return Err(Error::Verification(format!(
            "certcheck pool lost {} response(s)",
            report.counters.lost
        )));
    }
    let v = report
        .counters
        .verify
        .as_ref()
        .ok_or_else(|| Error::Internal("certcheck pool ran without verify counters".into()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "certcheck pool seed={seed} cases={cases} corrupt={corrupt}"
    );
    for (i, (family, jobs)) in batch.iter().enumerate() {
        let m = report
            .responses
            .get(&(i as u64 + 1))
            .and_then(|l| mm_json::parse(l).ok())
            .and_then(|j| j.get("machines").and_then(mm_json::Json::as_i64))
            .unwrap_or(-1);
        let _ = writeln!(
            out,
            "case {i}: family={family} n={n} m={m} proof-verified",
            n = jobs.len()
        );
    }
    let _ = writeln!(
        out,
        "verify: {} verified, {} refuted, {} unverifiable, {} re-ask(s), {} lie(s) injected",
        v.verified, v.refuted, v.unverifiable, v.reasks, corrupted
    );
    if corrupt {
        if v.refuted == 0 || corrupted == 0 {
            return Err(Error::Verification(format!(
                "seeded liar was never refuted ({} refuted, {} corrupted)",
                v.refuted, corrupted
            )));
        }
        let _ = writeln!(
            out,
            "liar refuted and quarantined; refuted unit(s) re-asked on survivors"
        );
    } else {
        if v.refuted != 0 || corrupted != 0 {
            return Err(Error::Verification(format!(
                "honest pool produced {} refutation(s) ({} corrupted)",
                v.refuted, corrupted
            )));
        }
        let _ = writeln!(out, "all answers proof-verified, zero refutations");
    }
    Ok(out)
}

/// The `bench --churn` scenario (`BENCH_8.json`): the coordinator under a
/// seeded membership schedule — a spare joins mid-burst, one backend drains
/// gracefully with live shards migrated off it, one flaps and recovers.
///
/// The `backend_churn` rule fires at primary-dispatch boundaries, so the
/// event counters (`churn_events`, `joins`, `drains`, `flaps`) and the
/// response totals are pure functions of the seed + plan; `--check` gates
/// exactly those. Migration counts depend on how far the burst has raced
/// ahead when the drain lands, so they are reported but never gated.
fn churn_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    use mm_json::Json;
    let units_n = if quick { 24 } else { 96 };

    let pool = spawn_bench_pool(4, 2 * units_n + 8)?;
    let cfg = ClusterConfig {
        backends: pool.iter().take(3).map(|b| b.addr.clone()).collect(),
        spares: vec![pool[3].addr.clone()],
        balance: BalancePolicy::RoundRobin,
        seed: 23,
        window: units_n,
        plan: FaultPlan {
            seed: 23,
            rules: vec![mm_fault::FaultRule {
                site: FaultSite::BackendChurn,
                nth: 4,
                every: Some(5),
            }],
        },
        churn: Some(mm_cluster::ChurnPlan::rolling(2, 1)),
        ..ClusterConfig::default()
    };
    let t0 = std::time::Instant::now();
    let coordinator = Coordinator::connect(cfg, NoopSink)
        .map_err(|e| Error::Io(format!("churn bench connect: {e}")))?;
    let report = coordinator
        .run(scatter_units(units_n), &mut |_, _| {})
        .map_err(|e| Error::Sim(format!("churn bench run: {e}")))?;
    let churn_ms = t0.elapsed().as_secs_f64() * 1e3;
    teardown_bench_pool(pool)?;
    if report.counters.lost > 0 {
        return Err(Error::Verification(format!(
            "churn bench lost {} response(s)",
            report.counters.lost
        )));
    }

    let fired = Json::Arr(
        report
            .fired
            .iter()
            .map(|(site, n)| {
                Json::obj([
                    ("site", Json::str(site.tag())),
                    ("count", Json::Int(*n as i64)),
                ])
            })
            .collect(),
    );
    let c = &report.counters;
    let doc = Json::obj([
        ("schema", Json::str("machmin-churn-bench-v1")),
        ("units", Json::Int(units_n as i64)),
        ("backends", Json::Int(3)),
        ("spares", Json::Int(1)),
        ("responses", Json::Int(c.responses as i64)),
        ("churn_events", Json::Int(c.churn_events as i64)),
        ("joins", Json::Int(c.joins as i64)),
        ("drains", Json::Int(c.drains as i64)),
        ("flaps", Json::Int(c.flaps as i64)),
        ("churn_fired", fired),
        // Timing-dependent observability; reported, never gated.
        ("migrations", Json::Int(c.migrations as i64)),
        ("migrated_answers", Json::Int(c.migrated_answers as i64)),
        ("churn_ms", Json::Float(churn_ms)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(
        out,
        "churn bench: {} units over 3+1 backends, {} churn event(s) ({} join(s), {} drain(s), \
         {} flap(s)), {} migration(s), {churn_ms:.1} ms",
        units_n, c.churn_events, c.joins, c.drains, c.flaps, c.migrations
    );
    let _ = writeln!(out, "baseline -> {path}");
    ExactGate {
        what: "churn bench counter",
        ints: &[
            "units",
            "backends",
            "responses",
            "churn_events",
            "joins",
            "drains",
            "flaps",
        ],
        trees: &["churn_fired"],
        changed: "counters changed",
        matched: "counters",
    }
    .check(&doc, check, out)
}

/// The `bench --obs` scenario (`BENCH_6.json`): gates proving the
/// observability layer is an exact, no-op account of the work done.
///
/// Three deterministic gates:
///
/// 1. **Byte-identity** — every request in the seeded mixed stream executes
///    twice, once untraced (`exec::execute`, disabled sink) and once with an
///    enabled metrics sink; the response lines must match byte-for-byte, so
///    attaching a sink cannot change an answer.
/// 2. **Stable trace counters** — the probe/augmentation/span counters the
///    traced pass aggregates are pure functions of the seed; `--check`
///    gates them, so an instrumentation change that alters solver work (or
///    silently stops emitting spans) fails the bench.
/// 3. **Exact account** — a live server runs the same stream, and its
///    `stats` scrape must report per-kind latency histograms whose total
///    equals the responses served: one observation per response, none lost.
///
/// Only the wall-clock quantiles vary by environment; `--check` never gates
/// on those.
fn obs_bench(quick: bool, path: &str, check: Option<&str>, out: &mut String) -> Result<(), Error> {
    use mm_json::Json;
    use mm_serve::exec::{self, NoProgress};
    let n = if quick { 60 } else { 240 };
    let requests = mm_serve::mixed_requests(17, n, None);

    let mut sink = MetricsSink::new();
    for req in &requests {
        let plain = exec::execute(req, None, false, &mut NoProgress).to_line();
        let traced = exec::execute_traced(req, None, false, &mut NoProgress, &mut sink).to_line();
        if plain != traced {
            return Err(Error::Verification(format!(
                "request {} differs under tracing:\n  untraced: {plain}\n  traced:   {traced}",
                req.id
            )));
        }
    }
    let m = &sink.metrics;
    if m.span_phases == 0 || m.feasibility_probes == 0 {
        return Err(Error::Verification(
            "traced pass recorded no spans/probes — instrumentation went dark".into(),
        ));
    }
    let trace_counters = Json::obj([
        ("span_phases", Json::Int(m.span_phases as i64)),
        ("feasibility_probes", Json::Int(m.feasibility_probes as i64)),
        ("flow_augmentations", Json::Int(m.flow_augmentations as i64)),
        ("prober_incremental", Json::Int(m.prober_incremental as i64)),
        ("adversary_rounds", Json::Int(m.adversary_rounds as i64)),
    ]);

    let pool = spawn_bench_pool(1, 16)?;
    let (service, addr) = (Arc::clone(&pool[0].service), pool[0].addr.clone());
    let report = mm_serve::run_load(
        &addr,
        &LoadConfig {
            n,
            seed: 17,
            window: 8,
            shutdown: false,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| Error::Io(format!("obs bench load failed: {e}")))?;
    if report.lost > 0 {
        return Err(Error::Verification(format!(
            "obs bench lost {} response(s)",
            report.lost
        )));
    }

    // Histogram accounting lands just after each reply is sent, so poll the
    // scrape until the totals catch up with the response counter.
    let responses = service.stats().responses;
    let t0 = std::time::Instant::now();
    let (scrape, hist_total) = loop {
        let outcome = mm_cluster::cluster_stats(std::slice::from_ref(&addr), false);
        let total: u64 = outcome
            .merged
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with("latency_us."))
            .map(|(_, h)| h.count())
            .sum();
        if total == responses || t0.elapsed() > std::time::Duration::from_secs(10) {
            break (outcome, total);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let scrape_ms = t0.elapsed().as_secs_f64() * 1e3;
    teardown_bench_pool(pool)?;
    let stats = service.stats();
    if hist_total != responses {
        return Err(Error::Verification(format!(
            "stats histograms count {hist_total} observation(s) for {responses} response(s)"
        )));
    }

    let by_kind: Vec<(String, Json)> = scrape
        .merged
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("latency_us."))
        .map(|(k, h)| {
            (
                k["latency_us.".len()..].to_string(),
                Json::Int(h.count() as i64),
            )
        })
        .collect();
    let statuses: Vec<(String, Json)> = report
        .by_status
        .iter()
        .map(|(s, c)| (s.clone(), Json::Int(*c as i64)))
        .collect();
    let doc = Json::obj([
        ("schema", Json::str("machmin-obs-bench-v1")),
        ("requests", Json::Int(report.sent as i64)),
        ("traced_identical", Json::Bool(true)),
        ("trace", trace_counters),
        ("admitted", Json::Int(stats.admitted as i64)),
        ("responses", Json::Int(stats.responses as i64)),
        ("shed", Json::Int(stats.shed as i64)),
        ("hist_total", Json::Int(hist_total as i64)),
        ("by_kind", Json::obj(by_kind)),
        ("by_status", Json::obj(statuses)),
        ("p50_ms", Json::Float(report.p50_ms)),
        ("p99_ms", Json::Float(report.p99_ms)),
        ("p999_ms", Json::Float(report.p999_ms)),
        ("scrape_ms", Json::Float(scrape_ms)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(
        out,
        "obs bench: {} requests byte-identical under tracing; {} span phase(s); \
         {hist_total} histogram observation(s) == {responses} response(s)",
        report.sent, m.span_phases
    );
    let _ = writeln!(out, "baseline -> {path}");
    ExactGate {
        what: "obs bench counter",
        ints: &["requests", "admitted", "responses", "shed", "hist_total"],
        trees: &["traced_identical", "trace", "by_kind", "by_status"],
        changed: "changed",
        matched: "counters",
    }
    .check(&doc, check, out)
}

/// The `bench --online` scenario (`BENCH_10.json`): races the full online
/// portfolio over the seeded agreeable / laminar / adversary streams and
/// gates on the measured competitive ratios.
///
/// Three deterministic gates:
///
/// 1. **Byte-identity** — the race runs twice (once with a metrics sink,
///    once without); the rendered table and the JSON report must match
///    byte-for-byte, so same-seed reruns and sink attachment cannot change
///    a measured ratio.
/// 2. **Theorem bounds** — [`mm_online::RaceReport::check_bounds`]: the
///    class specialists are miss-free on their own stream families and the
///    non-preemptive agreeable member stays within its 32.70·m budget
///    (Theorems 12/14; lower bound 1.101·m from Theorem 15).
/// 3. **Stable counters** — `--check` gates the embedded race JSON and the
///    aggregated `online_*` trace counters against the committed baseline;
///    a policy change that opens a different number of machines fails the
///    bench.
///
/// Only `race_ms` varies by environment; `--check` never gates on it.
fn online_bench(
    quick: bool,
    path: &str,
    check: Option<&str>,
    out: &mut String,
) -> Result<(), Error> {
    use mm_json::Json;
    let cfg = mm_online::RaceConfig {
        seed: 7,
        n: if quick { 24 } else { 60 },
        k: if quick { 3 } else { 4 },
        members: mm_online::Member::ALL.to_vec(),
    };

    let t0 = std::time::Instant::now();
    let mut sink = MetricsSink::new();
    let report = mm_online::race(cfg.clone(), &mut sink)
        .map_err(|e| Error::Sim(format!("online race failed: {e}")))?;
    let race_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rerun = mm_online::race(cfg, &mut mm_trace::NoopSink)
        .map_err(|e| Error::Sim(format!("online race rerun failed: {e}")))?;
    if report.render() != rerun.render()
        || report.to_json().to_compact() != rerun.to_json().to_compact()
    {
        return Err(Error::Verification(
            "online race is not byte-identical across same-seed reruns".into(),
        ));
    }
    report.check_bounds().map_err(Error::Verification)?;

    let m = &sink.metrics;
    if m.online_runs == 0 {
        return Err(Error::Verification(
            "online race emitted no OnlineRunCompleted events — tracing went dark".into(),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::str("machmin-online-bench-v1")),
        ("race", report.to_json()),
        ("online_runs", Json::Int(m.online_runs as i64)),
        (
            "online_machines_opened",
            Json::Int(m.online_machines_opened as i64),
        ),
        (
            "online_worst_ratio_millis",
            Json::Int(m.online_worst_ratio_millis as i64),
        ),
        ("rerun_identical", Json::Bool(true)),
        ("race_ms", Json::Float(race_ms)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(
        out,
        "online bench: {} race cell(s) byte-identical across reruns; worst ratio {}.{:03}; \
         bounds hold",
        m.online_runs,
        m.online_worst_ratio_millis / 1000,
        m.online_worst_ratio_millis % 1000
    );
    let _ = writeln!(out, "baseline -> {path}");
    ExactGate {
        what: "online bench ratio",
        ints: &[
            "online_runs",
            "online_machines_opened",
            "online_worst_ratio_millis",
        ],
        trees: &["race", "rerun_identical"],
        changed: "changed",
        matched: "ratios",
    }
    .check(&doc, check, out)
}

/// Merges every `latency_us.*` histogram of a snapshot into one, for
/// whole-backend / whole-pool latency quantiles.
fn merged_latency(snap: &mm_obs::RegistrySnapshot) -> mm_obs::Histogram {
    let mut all = mm_obs::Histogram::new();
    for (name, h) in &snap.histograms {
        if name.starts_with("latency_us.") {
            all.merge(h);
        }
    }
    all
}

/// Formats a microsecond latency compactly.
fn fmt_lat(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

/// Formats a microsecond latency quantile compactly ("-" for no data).
fn fmt_q(hist: &mm_obs::Histogram, q: f64) -> String {
    if hist.count() == 0 {
        return "-".into();
    }
    fmt_lat(hist.quantile(q))
}

/// Feeds one pool-wide scrape into an overload index: queue depth and
/// in-flight come from the backend's gauges, p99 from its merged latency
/// histogram. `machmin top` keeps the index alive across refresh frames so
/// the sustain hysteresis is real; one-shot `cluster stats` shows a single
/// window's verdict.
fn observe_overload(index: &mut mm_cluster::OverloadIndex, outcome: &mm_cluster::StatsOutcome) {
    use mm_json::Json;
    for (i, b) in outcome.backends.iter().enumerate() {
        let Some(r) = &b.response else { continue };
        let int = |key: &str| r.get(key).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        let lat = merged_latency(&b.snapshot);
        let p99_us = if lat.count() == 0 {
            0
        } else {
            lat.quantile(0.99)
        };
        index.record(
            i,
            mm_cluster::OverloadSample {
                queue_depth: int("queue_depth"),
                p99_us,
                outstanding: int("in_flight"),
            },
        );
    }
}

/// One `machmin top` frame rendered from a pool-wide scrape. `HEAT` is the
/// backend's overload index as `hot/windows` (a trailing `!` marks a
/// sustained offender); `MIGR` counts requests the backend answered on
/// behalf of a draining or overloaded peer.
fn render_top(outcome: &mm_cluster::StatsOutcome, overload: &mm_cluster::OverloadIndex) -> String {
    use mm_json::Json;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "machmin top — {}/{} backend(s) up",
        outcome.reachable,
        outcome.backends.len()
    );
    let _ = writeln!(
        s,
        "  {:<22} {:>9} {:>6} {:>5} {:>8} {:>6} {:>5} {:>8} {:>7} {:>8} {:>8} {:>8}",
        "BACKEND",
        "UPTIME",
        "DEPTH",
        "INFL",
        "RESP",
        "MIGR",
        "HEAT",
        "VERIFIED",
        "REFUTED",
        "P50",
        "P99",
        "P999"
    );
    let int = |r: &Json, key: &str| r.get(key).and_then(Json::as_i64).unwrap_or(0);
    let heat = overload.snapshot();
    for (i, b) in outcome.backends.iter().enumerate() {
        match &b.response {
            None => {
                let _ = writeln!(s, "  {:<22} unreachable", b.addr);
            }
            Some(r) => {
                let lat = merged_latency(&b.snapshot);
                let (hot, windows) = heat.get(i).copied().unwrap_or((0, 0));
                let counter = |key: &str| b.snapshot.counters.get(key).copied().unwrap_or(0);
                let _ = writeln!(
                    s,
                    "  {:<22} {:>8}s {:>6} {:>5} {:>8} {:>6} {:>5} {:>8} {:>7} {:>8} {:>8} {:>8}",
                    b.addr,
                    int(r, "uptime_ms") / 1_000,
                    int(r, "queue_depth"),
                    int(r, "in_flight"),
                    counter("serve.responses"),
                    counter("serve.migrated_served"),
                    format!(
                        "{hot}/{windows}{}",
                        if overload.sustained(i) { "!" } else { "" }
                    ),
                    counter("serve.verified"),
                    counter("serve.refuted"),
                    fmt_q(&lat, 0.50),
                    fmt_q(&lat, 0.99),
                    fmt_q(&lat, 0.999),
                );
            }
        }
    }
    let pool = merged_latency(&outcome.merged);
    let merged_counter = |key: &str| outcome.merged.counters.get(key).copied().unwrap_or(0);
    let _ = writeln!(
        s,
        "  pool: {} response(s), {} migrated-answered, {} verified, {} refuted, \
         {} observation(s), p50 {}, p99 {}, p999 {}",
        merged_counter("serve.responses"),
        merged_counter("serve.migrated_served"),
        merged_counter("serve.verified"),
        merged_counter("serve.refuted"),
        pool.count(),
        fmt_q(&pool, 0.50),
        fmt_q(&pool, 0.99),
        fmt_q(&pool, 0.999),
    );
    // The slowest recent spans across the pool, worst first.
    let mut slowest: Vec<(u64, String)> = Vec::new();
    for b in &outcome.backends {
        let Some(r) = &b.response else { continue };
        let Some(spans) = r.get("slowest").and_then(Json::as_arr) else {
            continue;
        };
        for span in spans {
            let us = span.get("micros").and_then(Json::as_i64).unwrap_or(0) as u64;
            let kind = span
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let id = span.get("id").and_then(Json::as_i64).unwrap_or(0);
            slowest.push((us, format!("{kind}#{id}@{} {}", b.addr, fmt_lat(us))));
        }
    }
    slowest.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    if !slowest.is_empty() {
        let top: Vec<String> = slowest.into_iter().take(4).map(|(_, s)| s).collect();
        let _ = writeln!(s, "  slowest: {}", top.join(", "));
    }
    s
}

/// The `--trace` / `--metrics` sink pair. Both are optional; with neither
/// requested the composed sink is disabled and the traced code paths cost
/// nothing beyond one boolean check per event site.
struct CliSinks {
    jsonl: Option<JsonlSink<BufWriter<std::fs::File>>>,
    metrics: Option<MetricsSink>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

impl CliSinks {
    fn open(trace: Option<String>, metrics: Option<String>) -> Result<Self, Error> {
        let jsonl = match &trace {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| Error::Io(format!("cannot create {path}: {e}")))?;
                Some(JsonlSink::new(BufWriter::new(file)))
            }
            None => None,
        };
        let metrics_sink = metrics.is_some().then(MetricsSink::new);
        Ok(CliSinks {
            jsonl,
            metrics: metrics_sink,
            trace_path: trace,
            metrics_path: metrics,
        })
    }

    /// A borrowed sink to lend to one traced run (tee of both outputs).
    #[allow(clippy::type_complexity)]
    fn sink(
        &mut self,
    ) -> TeeSink<&mut Option<JsonlSink<BufWriter<std::fs::File>>>, &mut Option<MetricsSink>> {
        TeeSink(&mut self.jsonl, &mut self.metrics)
    }

    /// Records one event produced by the CLI layer itself (as opposed to a
    /// traced library run).
    fn record(&mut self, event: &TraceEvent) {
        let mut sink = self.sink();
        if sink.enabled() {
            sink.record(event);
        }
    }

    /// Flushes the trace, writes the metrics file, appends report lines to
    /// `out`, and hands back the aggregated metrics for cross-checks.
    fn finish(self, out: &mut String) -> Result<Option<Metrics>, Error> {
        if let (Some(sink), Some(path)) = (self.jsonl, &self.trace_path) {
            let events = sink.written();
            sink.finish()
                .map_err(|e| Error::Io(format!("cannot write trace {path}: {e}")))?;
            let _ = writeln!(out, "trace: {events} events -> {path}");
        }
        let metrics = self.metrics.map(|s| s.metrics);
        if let (Some(metrics), Some(path)) = (&metrics, &self.metrics_path) {
            std::fs::write(path, metrics.to_json().to_pretty())
                .map_err(|e| Error::Io(format!("cannot write metrics {path}: {e}")))?;
            let _ = writeln!(out, "metrics -> {path}");
        }
        Ok(metrics)
    }
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, Error> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(&help_text()),
        Command::Solve {
            path,
            budget,
            attempts,
            trace,
            metrics,
        } => {
            let inst = load(&path)?;
            let mut sinks = CliSinks::open(trace, metrics)?;
            let _ = writeln!(out, "jobs: {}", inst.len());
            match budget {
                None => {
                    let m = optimal_machines_traced(&inst, sinks.sink());
                    let _ = writeln!(out, "migratory optimum m(J): {m}");
                }
                Some(initial) => {
                    let mut budget = initial;
                    let mut attempt = 1u32;
                    let search = loop {
                        let search = optimal_machines_budgeted_traced(&inst, &budget, sinks.sink());
                        if search.is_exact() || attempt == attempts {
                            break search;
                        }
                        let reason = search
                            .exceeded
                            .as_ref()
                            .map(|e| e.tag())
                            .unwrap_or("budget");
                        let _ = writeln!(
                            out,
                            "attempt {attempt}/{attempts}: {reason} budget exceeded at bracket \
                             [{}, {}]; doubling budget",
                            search.lo, search.hi
                        );
                        budget = budget.doubled();
                        attempt += 1;
                    };
                    match search.exact {
                        Some(m) => {
                            let _ = writeln!(
                                out,
                                "migratory optimum m(J): {m} (within budget, attempt \
                                 {attempt}/{attempts})"
                            );
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "degraded: certified bracket {} <= m(J) <= {} after {attempts} \
                                 attempt(s), {} unknown probe(s)",
                                search.lo, search.hi, search.unknown_probes
                            );
                        }
                    }
                }
            }
            let cert = contribution_bound(&inst);
            let _ = writeln!(
                out,
                "Theorem 1 certificate: ⌈{}⌉ = {} on witness {}",
                cert.density, cert.bound, cert.witness
            );
            sinks.finish(&mut out)?;
        }
        Command::Classify { path } => {
            let inst = load(&path)?;
            let _ = writeln!(out, "jobs: {}", inst.len());
            let _ = writeln!(out, "structure: {:?}", inst.classify());
            if let Some(d) = inst.delta() {
                let _ = writeln!(out, "Δ (max/min processing): {}", d);
            }
            for (num, den) in [(1i64, 2i64), (63, 100), (9, 10)] {
                let alpha = Rat::ratio(num, den);
                let loose = inst.iter().filter(|j| j.is_loose(&alpha)).count();
                let _ = writeln!(
                    out,
                    "α = {num}/{den}: {loose} loose / {} tight",
                    inst.len() - loose
                );
            }
        }
        Command::Demigrate { path } => {
            let inst = load(&path)?;
            let m = optimal_machines(&inst);
            let res = demigrate(&inst);
            let mut sched = res.schedule;
            verify(&inst, &mut sched, &VerifyOptions::nonmigratory())
                .map_err(|e| Error::Internal(format!("demigrated schedule invalid: {e:?}")))?;
            let _ = writeln!(out, "migratory optimum: {m}");
            let _ = writeln!(
                out,
                "non-migratory machines: {} (Theorem 2 bound: {})",
                res.machines,
                theorem2_bound(m)
            );
        }
        Command::Schedule {
            path,
            policy,
            machines,
            trace,
            metrics,
        } => {
            let inst = load(&path)?;
            let budget = machines.unwrap_or(inst.len()).max(1);
            let mut sinks = CliSinks::open(trace, metrics)?;
            let m = optimal_machines_traced(&inst, sinks.sink());
            let (outcome, opts) = match policy.as_str() {
                "edf" => (
                    run_policy_traced(&inst, Edf, SimConfig::migratory(budget), sinks.sink()),
                    VerifyOptions::migratory(),
                ),
                "llf" => (
                    run_policy_traced(
                        &inst,
                        Llf::new(),
                        SimConfig::migratory(budget),
                        sinks.sink(),
                    ),
                    VerifyOptions::migratory(),
                ),
                "edf-ff" => (
                    run_policy_traced(
                        &inst,
                        EdfFirstFit::new(),
                        SimConfig::nonmigratory(budget),
                        sinks.sink(),
                    ),
                    VerifyOptions::nonmigratory(),
                ),
                "medium-fit" => (
                    run_policy_traced(
                        &inst,
                        MediumFit::new(),
                        SimConfig::nonmigratory(budget),
                        sinks.sink(),
                    ),
                    VerifyOptions::nonpreemptive(),
                ),
                "agreeable" => (
                    run_policy_traced(
                        &inst,
                        AgreeableSplit::for_optimum(m),
                        SimConfig::nonmigratory(
                            AgreeableSplit::for_optimum(m).total_machines().max(budget),
                        ),
                        sinks.sink(),
                    ),
                    VerifyOptions::nonmigratory(),
                ),
                "laminar" => {
                    let p = LaminarBudget::new(
                        LaminarBudget::suggested_m_prime(m, 4),
                        (4 * m) as usize,
                        Rat::half(),
                    );
                    let total = p.total_machines().max(budget);
                    (
                        run_policy_traced(&inst, p, SimConfig::nonmigratory(total), sinks.sink()),
                        VerifyOptions::nonmigratory(),
                    )
                }
                other => return Err(Error::Usage(format!("unknown policy `{other}`"))),
            };
            let mut outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    // Still flush the partial trace: runs that die against the
                    // step cap (or a policy bug) are exactly the ones worth
                    // inspecting offline.
                    sinks.finish(&mut out)?;
                    return Err(Error::Sim(format!("simulation failed: {e}")));
                }
            };
            let _ = writeln!(out, "policy: {policy}, budget: {budget}, optimum m: {m}");
            let stats = if outcome.feasible() {
                let stats =
                    verify(&outcome.instance, &mut outcome.schedule, &opts).map_err(|e| {
                        Error::Verification(format!("schedule failed verification: {e:?}"))
                    })?;
                let _ = writeln!(
                    out,
                    "feasible: yes | machines used: {} | migrations: {} | preemptions: {}",
                    stats.machines_used, stats.migrations, stats.preemptions
                );
                Some(stats)
            } else {
                let _ = writeln!(
                    out,
                    "feasible: NO ({} deadline misses within budget {budget})",
                    outcome.misses.len()
                );
                None
            };
            if let Some(metrics) = sinks.finish(&mut out)? {
                // The trace counters are defined to agree with the verified
                // schedule's stats; refuse to report silently-diverging ones.
                if let Some(stats) = &stats {
                    let ok = metrics.machines_opened == stats.machines_used as u64
                        && metrics.migrations == stats.migrations as u64
                        && metrics.preemptions == stats.preemptions as u64;
                    if !ok {
                        return Err(Error::Verification(format!(
                            "trace/verifier disagreement: metrics say \
                             {}/{}/{} (machines/migrations/preemptions), \
                             verifier says {}/{}/{}",
                            metrics.machines_opened,
                            metrics.migrations,
                            metrics.preemptions,
                            stats.machines_used,
                            stats.migrations,
                            stats.preemptions
                        )));
                    }
                    let _ = writeln!(out, "trace counters agree with verified schedule");
                }
            }
            outcome.schedule.compact_machines();
            out.push_str(&render_gantt(&mut outcome.schedule, 72));
        }
        Command::Adversary {
            policy,
            k,
            machines,
            checkpoint,
            resume,
            export_stream,
            trace,
            metrics,
        } => {
            let mut state = match (&checkpoint, resume) {
                (Some(path), true) if Path::new(path).exists() => {
                    let mut s = SweepCheckpoint::load(Path::new(path))
                        .map_err(|e| Error::Io(format!("cannot resume from {path}: {e}")))?;
                    if s.policy != policy {
                        return Err(Error::Usage(format!(
                            "checkpoint {path} was recorded for policy `{}`, not `{policy}`",
                            s.policy
                        )));
                    }
                    let done: Vec<usize> = s.completed.iter().map(|r| r.k).collect();
                    let _ = writeln!(out, "resumed {path}: depths {done:?} already complete");
                    // A deeper --k extends the sweep; a shallower one never
                    // discards completed work.
                    s.k_target = s.k_target.max(k);
                    s
                }
                _ => SweepCheckpoint::new(policy.clone(), k),
            };
            let mut sinks = CliSinks::open(trace, metrics)?;
            let mut export_best: Option<(usize, Instance)> = None;
            while let Some(depth) = state.next_k() {
                let res = match policy.as_str() {
                    "edf-ff" => {
                        MigrationGapAdversary::with_sink(EdfFirstFit::new(), machines, sinks.sink())
                            .run(depth)
                    }
                    "medium-fit" => {
                        MigrationGapAdversary::with_sink(MediumFit::new(), machines, sinks.sink())
                            .run(depth)
                    }
                    other => {
                        return Err(Error::Usage(format!(
                            "unknown adversary policy `{other}` (expected edf-ff or medium-fit)"
                        )))
                    }
                }
                .map_err(|e| Error::Sim(format!("adversary run at k={depth} failed: {e}")))?;
                let _ = writeln!(
                    out,
                    "k={depth}: forced {} machines, {} jobs, offline optimum {}{}{}",
                    res.machines_forced,
                    res.jobs_released,
                    res.offline_optimum,
                    if res.policy_missed {
                        ", policy missed a deadline"
                    } else {
                        ""
                    },
                    match &res.stopped {
                        Some(stop) => format!(" (stopped: {stop:?})"),
                        None => String::new(),
                    }
                );
                if export_stream.is_some()
                    && export_best
                        .as_ref()
                        .is_none_or(|(m, _)| res.machines_forced > *m)
                {
                    export_best = Some((res.machines_forced, res.instance.clone()));
                }
                state.record(CompletedRun::from_result(&res));
                sinks.record(&TraceEvent::AdversaryCheckpoint {
                    round: depth as u32,
                    jobs: state.total_jobs(),
                });
                if let Some(path) = &checkpoint {
                    state
                        .save(Path::new(path))
                        .map_err(|e| Error::Io(format!("cannot write checkpoint {path}: {e}")))?;
                }
            }
            let best = state
                .completed
                .iter()
                .map(|r| r.machines_forced)
                .max()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "sweep complete: max machines forced {best} across k=2..={}",
                state.k_target
            );
            if let Some(path) = &checkpoint {
                let _ = writeln!(out, "checkpoint -> {path}");
            }
            if let Some(path) = &export_stream {
                match export_best {
                    Some((forced, inst)) => {
                        let events = mm_online::stream_of_instance(&inst);
                        let file = std::fs::File::create(path)
                            .map_err(|e| Error::Io(format!("cannot create {path}: {e}")))?;
                        mm_online::write_stream(std::io::BufWriter::new(file), &events)
                            .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                        let _ = writeln!(
                            out,
                            "exported {} release events (forced {forced} machines) -> {path}",
                            events.len()
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "nothing to export: every requested depth was already complete"
                        );
                    }
                }
            }
            sinks.finish(&mut out)?;
        }
        Command::Online {
            mode,
            stream,
            member,
            seed,
            n,
            k,
            members,
            out: out_path,
            trace,
            metrics,
        } => {
            let mut sinks = CliSinks::open(trace, metrics)?;
            match mode.as_str() {
                "run" => {
                    let path = stream.expect("parse guarantees --stream for run");
                    let file = std::fs::File::open(&path)
                        .map_err(|e| Error::Io(format!("cannot open {path}: {e}")))?;
                    let events = mm_online::read_stream(std::io::BufReader::new(file))
                        .map_err(|e| Error::Validation(format!("{path}: {e}")))?;
                    let inst = mm_online::instance_of_stream(&events);
                    let (optimum, _) = mm_opt::optimal_machines_fast(&inst);
                    let picked = if member == "auto" {
                        mm_online::Member::auto(&inst)
                    } else {
                        mm_online::Member::parse(&member).ok_or_else(|| {
                            Error::Usage(format!(
                                "unknown portfolio member `{member}` \
                                 (loose|laminar|agreeable|cms|imps|auto)"
                            ))
                        })?
                    };
                    let mut sink = sinks.sink();
                    let row = mm_online::run_member(picked, "file", &events, optimum, &mut sink)
                        .map_err(|e| Error::Sim(format!("online replay failed: {e}")))?;
                    let _ = writeln!(
                        out,
                        "online run: {picked} [{}] on {} event(s) from {path}",
                        picked.reference(),
                        events.len()
                    );
                    let _ = writeln!(
                        out,
                        "machines opened {} vs offline optimum {} -> ratio {}.{:03}, {} miss(es)",
                        row.machines_opened,
                        row.optimum,
                        row.ratio_millis / 1000,
                        row.ratio_millis % 1000,
                        row.misses
                    );
                }
                "race" => {
                    let member_list = mm_online::Member::parse_list(&members).ok_or_else(|| {
                        Error::Usage(format!(
                            "unknown portfolio member in `{members}` \
                             (loose|laminar|agreeable|cms|imps|all)"
                        ))
                    })?;
                    let cfg = mm_online::RaceConfig {
                        seed,
                        n,
                        k,
                        members: member_list,
                    };
                    let mut sink = sinks.sink();
                    let report = mm_online::race(cfg, &mut sink)
                        .map_err(|e| Error::Sim(format!("online race failed: {e}")))?;
                    out.push_str(&report.render());
                    report.check_bounds().map_err(Error::Verification)?;
                    let _ = writeln!(
                        out,
                        "bounds hold: specialists miss-free on their classes, \
                         agreeable within its 32.70·m budget (lower bound {}.{:03}·m)",
                        mm_online::AGREEABLE_LB_MILLIS / 1000,
                        mm_online::AGREEABLE_LB_MILLIS % 1000
                    );
                    if let Some(path) = &out_path {
                        std::fs::write(path, report.to_json().to_pretty())
                            .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                        let _ = writeln!(out, "report -> {path}");
                    }
                }
                other => {
                    return Err(Error::Usage(format!(
                        "unknown online mode `{other}` (run|race)"
                    )))
                }
            }
            sinks.finish(&mut out)?;
        }
        Command::Chaos {
            seed,
            n,
            plan,
            trace,
            metrics,
        } => {
            let plan = match &plan {
                Some(path) => load_fault_plan(path)?,
                None => FaultPlan::chaos(seed),
            };
            let inst = uniform(
                &UniformCfg {
                    n,
                    ..Default::default()
                },
                seed,
            );
            let mut sinks = CliSinks::open(trace, metrics)?;
            let _ = writeln!(
                out,
                "chaos: seed {seed}, {} jobs, plan {}",
                inst.len(),
                plan.to_json().to_compact()
            );

            // Solver chaos: a firing `probe_cancel` cripples that attempt's
            // probe budget (forcing a degraded bracket); a firing
            // `force_bigint` pins the attempt to the BigInt limb path. The
            // loop escalates until an un-crippled attempt is exact and both
            // sites have fired at least once (chaos rules fire within their
            // first three hits, so the cap is generous).
            let mut injector = FaultInjector::new(plan.clone());
            let mut attempts = 0u32;
            let search = loop {
                attempts += 1;
                let cancel = injector.fire(FaultSite::ProbeCancel);
                let force = injector.fire(FaultSite::ForceBigint);
                if cancel {
                    sinks.record(&TraceEvent::FaultInjected {
                        site: FaultSite::ProbeCancel.tag(),
                        count: injector.fired(FaultSite::ProbeCancel),
                    });
                }
                if force {
                    sinks.record(&TraceEvent::FaultInjected {
                        site: FaultSite::ForceBigint.tag(),
                        count: injector.fired(FaultSite::ForceBigint),
                    });
                }
                let _limb_guard = force.then(mm_numeric::fastpath::force_bigint);
                let budget = if cancel {
                    Budget::unlimited().with_augmentations(1)
                } else {
                    Budget::unlimited()
                };
                let search = optimal_machines_budgeted_traced(&inst, &budget, sinks.sink());
                let both_fired = injector.fired(FaultSite::ProbeCancel) > 0
                    && injector.fired(FaultSite::ForceBigint) > 0;
                if (search.is_exact() && both_fired) || attempts >= 16 {
                    break search;
                }
            };
            match search.exact {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "solver: optimum {m} after {attempts} attempt(s) (probe_cancel fired {}, \
                         force_bigint fired {})",
                        injector.fired(FaultSite::ProbeCancel),
                        injector.fired(FaultSite::ForceBigint)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "solver: degraded bracket [{}, {}] after {attempts} attempt(s)",
                        search.lo, search.hi
                    );
                }
            }

            // Simulator chaos: machine failures drop one machine's work for
            // a step, slowdowns halve its speed; the run must end cleanly
            // (misses are data, not errors).
            let cfg = SimConfig::migratory(n).with_max_steps(1_000_000);
            let mut sim = Simulation::from_instance_with_sink(cfg, Edf, &inst, sinks.sink())
                .with_faults(FaultInjector::new(plan.clone()));
            sim.run_to_completion()
                .map_err(|e| Error::Sim(format!("chaos simulation failed: {e}")))?;
            let failures = sim.injector().fired(FaultSite::MachineFailure);
            let slowdowns = sim.injector().fired(FaultSite::MachineSlowdown);
            let outcome = sim
                .finish()
                .map_err(|e| Error::Sim(format!("chaos simulation failed: {e}")))?;
            let _ = writeln!(
                out,
                "sim: {} steps, {} misses (machine_failure fired {failures}, machine_slowdown \
                 fired {slowdowns})",
                outcome.steps,
                outcome.misses.len()
            );

            // Adversary chaos: an aborted round ends the construction cleanly
            // at the depth reached.
            let was_aborted = |res: &GapResult| {
                matches!(&res.stopped,
                    Some(GapStop::Degenerate(reason)) if *reason == "round aborted by fault plan")
            };
            let mut res = MigrationGapAdversary::with_sink(EdfFirstFit::new(), 16, sinks.sink())
                .with_faults(FaultInjector::new(plan.clone()))
                .run(4)
                .map_err(|e| Error::Sim(format!("chaos adversary failed: {e}")))?;
            if !was_aborted(&res) {
                // The chaos rule's firing hit can sit deeper than this
                // construction goes; fall back to a fire-once rule so the
                // site is always exercised.
                res = MigrationGapAdversary::with_sink(EdfFirstFit::new(), 16, sinks.sink())
                    .with_faults(FaultInjector::new(FaultPlan::once(
                        FaultSite::AdversaryAbort,
                        1,
                    )))
                    .run(4)
                    .map_err(|e| Error::Sim(format!("chaos adversary failed: {e}")))?;
            }
            let aborts = u64::from(was_aborted(&res));
            let _ = writeln!(
                out,
                "adversary: {} jobs released, adversary_abort fired {aborts}",
                res.jobs_released
            );

            // Service chaos: an in-process supervised server absorbs worker
            // panics — poisoned requests retry, workers recycle, and nothing
            // is lost. One worker and a retry cap above the maximum possible
            // fire count keep the totals a pure function of the seed.
            let run_serve = |serve_plan: FaultPlan| -> Result<mm_serve::ServeStats, Error> {
                let cfg = ServeConfig {
                    workers: 1,
                    queue_cap: 8,
                    retry: mm_fault::RetryPolicy::new(1, 4, 20),
                    seed,
                    plan: serve_plan,
                    slowdown_ms: 1,
                    ..ServeConfig::default()
                };
                let service = Service::start(cfg, DynSink::new(Box::new(NoopSink)))
                    .map_err(|e| Error::Sim(format!("chaos serve failed: {e}")))?;
                let (tx, rx) = crossbeam::channel::unbounded();
                let requests = mm_serve::mixed_requests(seed, 8, None);
                for req in &requests {
                    service.submit_line(&req.to_line(), &tx);
                }
                for _ in 0..requests.len() {
                    rx.recv_timeout(std::time::Duration::from_secs(60))
                        .map_err(|_| Error::Sim("chaos serve lost a response".into()))?;
                }
                Ok(service.join())
            };
            let mut stats = run_serve(plan.clone())?;
            if stats.panics == 0 {
                // Defensive fallback, mirroring the adversary segment: if the
                // plan's worker_panic rule never fires within this workload,
                // exercise the site with a fire-once rule.
                stats = run_serve(FaultPlan::once(FaultSite::WorkerPanic, 1))?;
            }
            let panics = stats.panics;
            if !stats.invariant_holds() {
                return Err(Error::Verification(format!(
                    "chaos serve invariant violated: {stats:?}"
                )));
            }
            let _ = writeln!(
                out,
                "serve: {} requests, {} responses (worker_panic fired {panics}, workers \
                 recycled {}, retried {})",
                stats.admitted, stats.responses, stats.restarts, stats.retried
            );

            // Cluster chaos: a coordinator over three in-process backends
            // loses one mid-burst (`backend_drop`); its in-flight units are
            // resumed on the survivors and nothing is lost. The window spans
            // the whole workload, so every drop/resume decision lands in the
            // initial dispatch burst and the outcome is a pure function of
            // the seed.
            let run_cluster =
                |cluster_plan: FaultPlan| -> Result<mm_cluster::ClusterReport, Error> {
                    let pool = spawn_bench_pool(3, 64)?;
                    let cfg = ClusterConfig {
                        backends: pool.iter().map(|b| b.addr.clone()).collect(),
                        balance: BalancePolicy::SeededHash { seed },
                        seed,
                        window: 8,
                        plan: cluster_plan,
                        ..ClusterConfig::default()
                    };
                    let coordinator = Coordinator::connect(cfg, NoopSink)
                        .map_err(|e| Error::Io(format!("chaos cluster connect: {e}")))?;
                    let report = coordinator
                        .run(scatter_units(8), &mut |_, _| {})
                        .map_err(|e| Error::Sim(format!("chaos cluster run: {e}")))?;
                    teardown_bench_pool(pool)?;
                    Ok(report)
                };
            let mut cluster_report = run_cluster(plan.clone())?;
            if cluster_report.counters.backend_drops == 0 {
                // Same fallback as the adversary and serve segments: the
                // chaos rule can sit past this workload's dispatch count.
                cluster_report = run_cluster(FaultPlan::once(FaultSite::BackendDrop, 1))?;
            }
            let drops = cluster_report.counters.backend_drops;
            if drops > 0 {
                sinks.record(&TraceEvent::FaultInjected {
                    site: FaultSite::BackendDrop.tag(),
                    count: drops,
                });
            }
            if cluster_report.counters.lost > 0 {
                return Err(Error::Verification(format!(
                    "chaos cluster lost {} response(s)",
                    cluster_report.counters.lost
                )));
            }
            let _ = writeln!(
                out,
                "cluster: {} units, {} responses (backend_drop fired {drops}, {} unit(s) \
                 resumed, {} backend(s) quarantined)",
                cluster_report.counters.units,
                cluster_report.counters.responses,
                cluster_report.counters.shard_resumes,
                cluster_report.counters.quarantines
            );

            // Churn chaos: the same coordinator under a seeded membership
            // schedule (`backend_churn`): a spare joins mid-burst, one
            // backend drains gracefully (live shards migrate off it), one
            // flaps and recovers. Event counters tick at the deterministic
            // firing boundary, so the printed numbers are a pure function of
            // the seed + plan even though the migrations and revives
            // themselves race the workload.
            let run_churn = |churn_plan: FaultPlan| -> Result<mm_cluster::ClusterReport, Error> {
                let pool = spawn_bench_pool(4, 64)?;
                let cfg = ClusterConfig {
                    backends: pool.iter().take(3).map(|b| b.addr.clone()).collect(),
                    spares: vec![pool[3].addr.clone()],
                    balance: BalancePolicy::RoundRobin,
                    seed,
                    window: 8,
                    plan: churn_plan,
                    churn: Some(mm_cluster::ChurnPlan::rolling(2, 1)),
                    ..ClusterConfig::default()
                };
                let coordinator = Coordinator::connect(cfg, NoopSink)
                    .map_err(|e| Error::Io(format!("chaos churn connect: {e}")))?;
                let report = coordinator
                    .run(scatter_units(8), &mut |_, _| {})
                    .map_err(|e| Error::Sim(format!("chaos churn run: {e}")))?;
                teardown_bench_pool(pool)?;
                Ok(report)
            };
            let mut churn_report = run_churn(plan.clone())?;
            if churn_report.counters.churn_events == 0 {
                // Same fallback as the other segments: the chaos rule can sit
                // past this workload's dispatch count.
                churn_report = run_churn(FaultPlan::once(FaultSite::BackendChurn, 1))?;
            }
            let churns = churn_report.counters.churn_events;
            if churns > 0 {
                sinks.record(&TraceEvent::FaultInjected {
                    site: FaultSite::BackendChurn.tag(),
                    count: churns,
                });
            }
            if churn_report.counters.lost > 0 {
                return Err(Error::Verification(format!(
                    "chaos churn lost {} response(s)",
                    churn_report.counters.lost
                )));
            }
            let _ = writeln!(
                out,
                "churn: {} units, {} responses (backend_churn fired {churns}, {} join(s), {} \
                 drain(s), {} flap(s))",
                churn_report.counters.units,
                churn_report.counters.responses,
                churn_report.counters.joins,
                churn_report.counters.drains,
                churn_report.counters.flaps
            );

            // Byzantine chaos: the ninth site. A three-backend pool answers
            // with proofs (`verify: all`); one backend's response encoder
            // carries a fire-once `answer_corruption` rule, so it lies
            // exactly once. The coordinator refutes the lie from its own
            // attached proof, quarantines the liar, and re-asks the unit on
            // the survivors. A single planted lie (rather than the plan's
            // repeating rule) keeps every printed counter a pure function of
            // the seed even while quarantine revival races the workload.
            let run_byzantine = || -> Result<(mm_cluster::ClusterReport, u64), Error> {
                let mut plans = vec![FaultPlan::none(); 3];
                plans[2] = FaultPlan::once(FaultSite::AnswerCorruption, 1);
                let pool = spawn_bench_pool_plans(&plans, 64)?;
                let cfg = ClusterConfig {
                    backends: pool.iter().map(|b| b.addr.clone()).collect(),
                    balance: BalancePolicy::RoundRobin,
                    seed,
                    window: 8,
                    verify: mm_cluster::VerifyPolicy::All,
                    ..ClusterConfig::default()
                };
                let coordinator = Coordinator::connect(cfg, NoopSink)
                    .map_err(|e| Error::Io(format!("chaos byzantine connect: {e}")))?;
                let report = coordinator
                    .run(scatter_units(8), &mut |_, _| {})
                    .map_err(|e| Error::Sim(format!("chaos byzantine run: {e}")))?;
                let lies: u64 = pool.iter().map(|b| b.service.stats().corrupted).sum();
                teardown_bench_pool(pool)?;
                Ok((report, lies))
            };
            let (byz_report, lies) = run_byzantine()?;
            if lies > 0 {
                sinks.record(&TraceEvent::FaultInjected {
                    site: FaultSite::AnswerCorruption.tag(),
                    count: lies,
                });
            }
            if byz_report.counters.lost > 0 {
                return Err(Error::Verification(format!(
                    "chaos byzantine lost {} response(s)",
                    byz_report.counters.lost
                )));
            }
            let byz_verify = byz_report.counters.verify.clone().unwrap_or_default();
            if byz_verify.refuted != lies {
                return Err(Error::Verification(format!(
                    "chaos byzantine: {} lie(s) injected but {} refuted",
                    lies, byz_verify.refuted
                )));
            }
            let _ = writeln!(
                out,
                "byzantine: {} units, {} responses (answer_corruption fired {lies}, {} \
                 refuted, {} verified, {} re-ask(s), {} backend(s) quarantined)",
                byz_report.counters.units,
                byz_report.counters.responses,
                byz_verify.refuted,
                byz_verify.verified,
                byz_verify.reasks,
                byz_report.counters.quarantines
            );

            // Online chaos: not a fault site — a determinism probe. The
            // portfolio race runs twice under the same seed; if faults,
            // scheduling, or the portfolio itself leaked any nondeterminism
            // into the streaming engine, the rendered tables would diverge.
            let race_cfg = mm_online::RaceConfig {
                seed,
                n: 16,
                k: 3,
                members: mm_online::Member::ALL.to_vec(),
            };
            let race_a = mm_online::race(race_cfg.clone(), &mut sinks.sink())
                .map_err(|e| Error::Sim(format!("chaos online race failed: {e}")))?;
            let race_b = mm_online::race(race_cfg, &mut NoopSink)
                .map_err(|e| Error::Sim(format!("chaos online race rerun failed: {e}")))?;
            if race_a.render() != race_b.render()
                || race_a.to_json().to_compact() != race_b.to_json().to_compact()
            {
                return Err(Error::Verification(
                    "chaos online race is not byte-identical across same-seed reruns".into(),
                ));
            }
            let _ = writeln!(
                out,
                "online: {} race cell(s) byte-identical across same-seed reruns",
                race_a.rows.len()
            );

            let fired = [
                (
                    FaultSite::ProbeCancel,
                    injector.fired(FaultSite::ProbeCancel),
                ),
                (
                    FaultSite::ForceBigint,
                    injector.fired(FaultSite::ForceBigint),
                ),
                (FaultSite::MachineFailure, failures),
                (FaultSite::MachineSlowdown, slowdowns),
                (FaultSite::AdversaryAbort, aborts),
                (FaultSite::WorkerPanic, panics),
                (FaultSite::BackendDrop, drops),
                (FaultSite::BackendChurn, churns),
                (FaultSite::AnswerCorruption, lies),
            ];
            // The fired table and `FaultSite::ALL` must stay in lockstep: a
            // tenth site that never gets a chaos segment should fail loudly
            // here, not silently report success.
            let covered: std::collections::HashSet<&str> =
                fired.iter().map(|(site, _)| site.tag()).collect();
            if let Some(missing) = FaultSite::ALL.iter().find(|s| !covered.contains(s.tag())) {
                return Err(Error::Internal(format!(
                    "fault site `{missing}` has no chaos segment"
                )));
            }
            let silent: Vec<&str> = fired
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(site, _)| site.tag())
                .collect();
            if silent.is_empty() {
                let _ = writeln!(
                    out,
                    "all {} fault sites exercised; no panics escaped",
                    FaultSite::ALL.len()
                );
            } else {
                let _ = writeln!(out, "warning: sites not exercised: {}", silent.join(", "));
            }
            sinks.finish(&mut out)?;
        }
        Command::Bench {
            quick,
            suite,
            out: path,
            check,
        } => {
            let run = match suite {
                BenchSuite::Baseline => baseline_bench,
                BenchSuite::Serve => serve_bench,
                BenchSuite::Cluster => cluster_bench,
                BenchSuite::Obs => obs_bench,
                BenchSuite::Large => large_bench,
                BenchSuite::Churn => churn_bench,
                BenchSuite::Verify => verify_bench,
                BenchSuite::Online => online_bench,
            };
            run(quick, &path, check.as_deref(), &mut out)?;
        }
        Command::CertCheck {
            seed,
            cases,
            pool,
            corrupt,
            out: report_path,
        } => {
            let report = if pool {
                certcheck_pool(seed, cases, corrupt)?
            } else {
                mm_bench::crosscheck::run(seed, cases).map_err(Error::Verification)?
            };
            if let Some(p) = report_path {
                std::fs::write(&p, &report)
                    .map_err(|e| Error::Io(format!("cannot write {p}: {e}")))?;
                let _ = writeln!(out, "certcheck report -> {p}");
            } else {
                out.push_str(&report);
            }
        }
        Command::Serve {
            addr,
            workers,
            queue_cap,
            drain_ms,
            seed,
            retry_attempts,
            chaos,
            plan,
            journal,
            deadline_ms,
            port_file,
            trace,
            metrics,
        } => {
            let fault_plan = match (&plan, chaos) {
                (Some(path), _) => load_fault_plan(path)?,
                (None, true) => FaultPlan::chaos(seed),
                (None, false) => FaultPlan::none(),
            };
            let retry = mm_fault::RetryPolicy::new(25, 1_000, retry_attempts);
            let cfg = ServeConfig {
                workers,
                queue_cap,
                drain_ms,
                seed,
                retry,
                plan: fault_plan,
                default_deadline_ms: deadline_ms,
                journal: journal.as_ref().map(std::path::PathBuf::from),
                ..ServeConfig::default()
            };
            // The sink pair is shared with the worker threads; the local
            // clone extracts the files once the server has stopped.
            let jsonl = match &trace {
                Some(path) => {
                    let file = std::fs::File::create(path)
                        .map_err(|e| Error::Io(format!("cannot create {path}: {e}")))?;
                    Some(JsonlSink::new(BufWriter::new(file)))
                }
                None => None,
            };
            let shared = SharedSink::new(TeeSink(jsonl, metrics.is_some().then(MetricsSink::new)));
            let sink: DynSink = DynSink::new(Box::new(shared.clone()));
            let service = Arc::new(
                Service::start(cfg, sink)
                    .map_err(|e| Error::Sim(format!("cannot start server: {e}")))?,
            );
            let (listener, bound) = mm_serve::tcp::bind(&addr)
                .map_err(|e| Error::Io(format!("cannot bind {addr}: {e}")))?;
            if let Some(path) = &port_file {
                std::fs::write(path, &bound)
                    .map_err(|e| Error::Io(format!("cannot write port file {path}: {e}")))?;
            }
            eprintln!("machmin serve: listening on {bound}");
            mm_serve::tcp::serve(listener, Arc::clone(&service))
                .map_err(|e| Error::Io(format!("accept loop failed: {e}")))?;
            service.wait_stopped();
            let stats = service.stats();
            let _ = writeln!(out, "listened on {bound}");
            let _ = writeln!(
                out,
                "requests: received {}, admitted {}, shed {}, rejected {}",
                stats.received, stats.admitted, stats.shed, stats.rejected
            );
            let _ = writeln!(
                out,
                "responses: {} (retried {}, quarantined {}, drain-degraded {})",
                stats.responses, stats.retried, stats.quarantined, stats.drain_degraded
            );
            let _ = writeln!(
                out,
                "workers: {} panic(s), {} restart(s)",
                stats.panics, stats.restarts
            );
            if journal.is_some() {
                let _ = writeln!(
                    out,
                    "journal: replayed {} acked response(s) on startup",
                    stats.replayed_acks
                );
            }
            if let Some(sink) = shared.with(|tee| tee.0.take()) {
                let path = trace.as_deref().unwrap_or("?");
                let events = sink.written();
                sink.finish()
                    .map_err(|e| Error::Io(format!("cannot write trace {path}: {e}")))?;
                let _ = writeln!(out, "trace: {events} events -> {path}");
            }
            if let Some(sink) = shared.with(|tee| tee.1.take()) {
                let path = metrics.as_deref().unwrap_or("?");
                std::fs::write(path, sink.metrics.to_json().to_pretty())
                    .map_err(|e| Error::Io(format!("cannot write metrics {path}: {e}")))?;
                let _ = writeln!(out, "metrics -> {path}");
            }
            if !stats.invariant_holds() {
                return Err(Error::Verification(format!(
                    "served-response invariant violated: admitted {} != responses {}",
                    stats.admitted, stats.responses
                )));
            }
            let _ = writeln!(
                out,
                "invariant requests_admitted == responses_sent: ok ({} == {})",
                stats.admitted, stats.responses
            );
        }
        Command::Load {
            addr,
            n,
            seed,
            paced,
            window,
            deadline_ms,
            out: out_path,
            hist,
            shutdown,
        } => {
            let report = mm_serve::run_load(
                &addr,
                &LoadConfig {
                    n,
                    seed,
                    paced,
                    window,
                    deadline_ms,
                    shutdown,
                },
            )
            .map_err(|e| Error::Io(format!("load run against {addr} failed: {e}")))?;
            if let Some(path) = &out_path {
                let mut text = report.transcript.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                std::fs::write(path, text)
                    .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "transcript ({} lines) -> {path}",
                    report.transcript.len()
                );
            }
            let _ = writeln!(
                out,
                "sent: {}, lost responses: {}, retried: {}",
                report.sent, report.lost, report.retried
            );
            if report.migrated_served > 0 {
                let _ = writeln!(
                    out,
                    "migrated-answered: {} (requests this backend served for a draining or \
                     overloaded peer)",
                    report.migrated_served
                );
            }
            for (status, count) in &report.by_status {
                let _ = writeln!(out, "  {status}: {count}");
            }
            let _ = writeln!(
                out,
                "latency: p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms",
                report.p50_ms, report.p99_ms, report.p999_ms
            );
            if let Some(path) = &hist {
                std::fs::write(path, report.hist.to_json().to_pretty())
                    .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "latency histogram ({} observation(s)) -> {path}",
                    report.hist.count()
                );
            }
            if report.lost > 0 {
                return Err(Error::Verification(format!(
                    "{} request(s) never received a response",
                    report.lost
                )));
            }
        }
        Command::Cluster {
            workload,
            path,
            backends,
            balance,
            seed,
            window,
            hedge_every,
            hedge_p99,
            hedge_floor_ms,
            chaos,
            plan,
            churn,
            spares,
            migration_budget,
            verify,
            deadline_ms,
            policies,
            k,
            machines,
            checkpoint,
            resume,
            families,
            seeds,
            n,
            members,
            out: out_path,
            trace,
            metrics,
        } => {
            // `stats` is a plain scrape, not a scatter–gather workload: no
            // coordinator, no balancing, works against a half-dead pool.
            if workload == "stats" {
                let outcome = mm_cluster::cluster_stats(&backends, false);
                let mut overload = mm_cluster::OverloadIndex::new(
                    mm_cluster::OverloadConfig::default(),
                    outcome.backends.len(),
                );
                observe_overload(&mut overload, &outcome);
                out.push_str(&render_top(&outcome, &overload));
                if let Some(path) = &out_path {
                    std::fs::write(path, outcome.to_json().to_pretty())
                        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                    let _ = writeln!(out, "stats -> {path}");
                }
                if outcome.reachable == 0 {
                    return Err(Error::Io(format!(
                        "no backend reachable out of {}",
                        outcome.backends.len()
                    )));
                }
                return Ok(out);
            }
            let Some(balance) = BalancePolicy::parse(&balance, seed) else {
                return Err(Error::Usage(format!(
                    "unknown balance policy `{balance}` (round-robin|least-outstanding|hash)"
                )));
            };
            let Some(verify) = mm_cluster::VerifyPolicy::from_tag(&verify) else {
                return Err(Error::Usage(format!(
                    "unknown verify policy `{verify}` (off|spot|all)"
                )));
            };
            let hedge = match (hedge_every, hedge_p99) {
                (Some(nth), _) => HedgeConfig::EveryNth { n: nth },
                (None, Some(pct)) => HedgeConfig::AfterP99 {
                    multiplier_pct: pct,
                    floor_ms: hedge_floor_ms,
                },
                (None, None) => HedgeConfig::Off,
            };
            let plan = match &plan {
                Some(p) => load_fault_plan(p)?,
                None if chaos => FaultPlan::chaos(seed),
                None => FaultPlan::none(),
            };
            let churn = match &churn {
                Some(p) => Some(
                    mm_cluster::ChurnPlan::load(std::path::Path::new(p))
                        .map_err(|e| Error::Io(format!("cannot load churn plan {p}: {e}")))?,
                ),
                None => None,
            };
            let mut sinks = CliSinks::open(trace, metrics)?;
            let cfg = ClusterConfig {
                backends,
                balance,
                seed,
                window,
                hedge,
                plan,
                churn,
                spares,
                migration_budget,
                verify,
                deadline_ms,
                ..ClusterConfig::default()
            };
            // Backend-side refusals surface as categorized errors: a bad
            // request shape (unknown family, non-integer jobs) is a usage
            // problem, a mismatched checkpoint is an io problem, and
            // anything else is the connection itself.
            let cluster_err = |e: std::io::Error| -> Error {
                match e.kind() {
                    std::io::ErrorKind::InvalidInput => Error::Usage(e.to_string()),
                    std::io::ErrorKind::InvalidData => Error::Io(e.to_string()),
                    _ => Error::Io(format!("cluster run failed: {e}")),
                }
            };
            let report = match workload.as_str() {
                "solve" => {
                    let Some(path) = &path else {
                        return Err(Error::Usage(
                            "cluster solve requires an instance file".into(),
                        ));
                    };
                    let inst = load(path)?;
                    let to_int = |r: &Rat| {
                        if r.is_integer() {
                            r.floor().to_i64()
                        } else {
                            None
                        }
                    };
                    let jobs: Vec<(i64, i64, i64)> = inst
                        .jobs()
                        .iter()
                        .map(|j| {
                            Some((
                                to_int(&j.release)?,
                                to_int(&j.deadline)?,
                                to_int(&j.processing)?,
                            ))
                        })
                        .collect::<Option<_>>()
                        .ok_or_else(|| {
                            Error::Validation(format!(
                                "{path}: cluster solve ships integer triples; this instance \
                                 has non-integer (or oversized) job times"
                            ))
                        })?;
                    let outcome = cluster_solve(cfg, sinks.sink(), &jobs).map_err(cluster_err)?;
                    match outcome.exact {
                        Some(m) => {
                            let _ = writeln!(out, "cluster solve: optimum {m} machines");
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "cluster solve: bracket [{}, {}] ({} probe(s) undecided)",
                                outcome.lo, outcome.hi, outcome.undecided
                            );
                        }
                    }
                    outcome.report
                }
                "sweep" => {
                    let sweep_cfg = SweepConfig {
                        policies: policies
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                        k,
                        machines,
                        checkpoint: checkpoint.map(std::path::PathBuf::from),
                        resume,
                    };
                    let outcome =
                        cluster_sweep(cfg, sinks.sink(), &sweep_cfg).map_err(cluster_err)?;
                    let _ = writeln!(
                        out,
                        "cluster sweep: {} shard(s), {} resumed from checkpoint",
                        outcome.shards.len(),
                        outcome.resumed_from_checkpoint
                    );
                    let _ = writeln!(out, "merged: {}", outcome.merged.to_compact());
                    outcome.report
                }
                "grid" => {
                    let grid_cfg = GridConfig {
                        families: families
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                        seeds,
                        n,
                    };
                    let outcome =
                        cluster_grid(cfg, sinks.sink(), &grid_cfg).map_err(cluster_err)?;
                    let _ = writeln!(
                        out,
                        "cluster grid: {} cell(s) over {} family(ies)",
                        outcome.cells.len(),
                        grid_cfg.families.len()
                    );
                    let _ = writeln!(out, "merged: {}", outcome.merged.to_compact());
                    outcome.report
                }
                "online" => {
                    let member_list = mm_online::Member::parse_list(&members).ok_or_else(|| {
                        Error::Usage(format!(
                            "unknown portfolio member in `{members}` \
                             (loose|laminar|agreeable|cms|imps|all)"
                        ))
                    })?;
                    let online_cfg = mm_cluster::OnlineConfig {
                        members: member_list,
                        families: families
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                        seeds,
                        n,
                    };
                    let outcome = mm_cluster::cluster_online(cfg, sinks.sink(), &online_cfg)
                        .map_err(cluster_err)?;
                    let _ = writeln!(
                        out,
                        "cluster online: {} cell(s) over {} member(s)",
                        outcome.cells.len(),
                        online_cfg.members.len()
                    );
                    let _ = writeln!(out, "merged: {}", outcome.merged.to_compact());
                    // Merge parity: re-run the same cells locally; a pool
                    // that answered every cell must merge identically.
                    if outcome.report.counters.lost == 0 {
                        let reference =
                            mm_cluster::local_online_merge(&online_cfg).map_err(cluster_err)?;
                        if outcome.merged.to_compact() != reference.to_compact() {
                            return Err(Error::Verification(
                                "cluster online merge diverges from the single-node reference"
                                    .into(),
                            ));
                        }
                        let _ = writeln!(out, "merge parity: cluster == single-node reference");
                    }
                    outcome.report
                }
                other => {
                    return Err(Error::Usage(format!(
                        "unknown cluster workload `{other}` (solve|sweep|grid|online|stats)"
                    )))
                }
            };
            let _ = writeln!(out, "counters: {}", report.counters.to_json().to_compact());
            if let Some(v) = &report.counters.verify {
                let _ = writeln!(
                    out,
                    "verify: {} verified, {} refuted, {} unverifiable, {} re-ask(s)",
                    v.verified, v.refuted, v.unverifiable, v.reasks
                );
                for (b, (ok, bad)) in v
                    .per_backend_verified
                    .iter()
                    .zip(&v.per_backend_refuted)
                    .enumerate()
                {
                    let _ = writeln!(out, "  backend {b}: {ok} verified, {bad} refuted");
                }
            }
            if let Some(path) = &out_path {
                let lines = report.transcript(&workload);
                let mut text = lines.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                std::fs::write(path, text)
                    .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "transcript ({} lines) -> {path}", lines.len());
            }
            let _ = writeln!(
                out,
                "responses: {}, lost responses: {}",
                report.counters.responses, report.counters.lost
            );
            if report.counters.lost > 0 {
                return Err(Error::Verification(format!(
                    "{} unit(s) never received a response",
                    report.counters.lost
                )));
            }
            sinks.finish(&mut out)?;
        }
        Command::Top {
            backends,
            interval_s,
            frames,
        } => {
            let mut overload =
                mm_cluster::OverloadIndex::new(mm_cluster::OverloadConfig::default(), 0);
            if interval_s == 0 {
                let outcome = mm_cluster::cluster_stats(&backends, false);
                observe_overload(&mut overload, &outcome);
                out.push_str(&render_top(&outcome, &overload));
                if outcome.reachable == 0 {
                    return Err(Error::Io(format!(
                        "no backend reachable out of {}",
                        outcome.backends.len()
                    )));
                }
            } else {
                // Refresh mode streams frames straight to stdout — the
                // caller is a terminal, not a script capturing `out`. The
                // overload index persists across frames, so HEAT shows real
                // sustained-window hysteresis, not a per-frame verdict.
                let mut frame = 0u64;
                loop {
                    let outcome = mm_cluster::cluster_stats(&backends, false);
                    observe_overload(&mut overload, &outcome);
                    print!("{}", render_top(&outcome, &overload));
                    println!();
                    frame += 1;
                    if frames > 0 && frame >= frames {
                        out.push_str(&render_top(&outcome, &overload));
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_secs(interval_s));
                }
            }
        }
        Command::Generate {
            family,
            n,
            seed,
            out: path,
        } => {
            let inst = match family.as_str() {
                "uniform" => uniform(
                    &UniformCfg {
                        n,
                        ..Default::default()
                    },
                    seed,
                ),
                "agreeable" => agreeable(
                    &AgreeableCfg {
                        n,
                        ..Default::default()
                    },
                    seed,
                ),
                "laminar" => laminar(&LaminarCfg::default(), seed),
                "loose" => loose(
                    &UniformCfg {
                        n,
                        ..Default::default()
                    },
                    &Rat::ratio(1, 2),
                    seed,
                ),
                other => return Err(Error::Usage(format!("unknown family `{other}`"))),
            };
            io::save(&inst, &path).map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "wrote {} jobs to {path}", inst.len());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_commands() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(
            parse(&argv("solve a.json")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: None,
                attempts: 3,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("solve a.json --trace t.jsonl --metrics m.json")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: None,
                attempts: 3,
                trace: Some("t.jsonl".into()),
                metrics: Some("m.json".into())
            }
        );
        assert_eq!(
            parse(&argv("schedule a.json --policy edf --machines 3")).unwrap(),
            Command::Schedule {
                path: "a.json".into(),
                policy: "edf".into(),
                machines: Some(3),
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("schedule a.json --policy llf --trace t.jsonl")).unwrap(),
            Command::Schedule {
                path: "a.json".into(),
                policy: "llf".into(),
                machines: None,
                trace: Some("t.jsonl".into()),
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("generate uniform --n 10 --seed 7 --out x.json")).unwrap(),
            Command::Generate {
                family: "uniform".into(),
                n: 10,
                seed: 7,
                out: "x.json".into()
            }
        );
        assert_eq!(
            parse(&argv("bench")).unwrap(),
            Command::Bench {
                quick: false,
                suite: BenchSuite::Baseline,
                out: "BENCH_2.json".into(),
                check: None
            }
        );
        assert_eq!(
            parse(&argv("bench --quick --out b.json --check BENCH_2.json")).unwrap(),
            Command::Bench {
                quick: true,
                suite: BenchSuite::Baseline,
                out: "b.json".into(),
                check: Some("BENCH_2.json".into())
            }
        );
        assert_eq!(
            parse(&argv("bench --quick --serve")).unwrap(),
            Command::Bench {
                quick: true,
                suite: BenchSuite::Serve,
                out: "BENCH_4.json".into(),
                check: None
            }
        );
        assert_eq!(
            parse(&argv("bench --quick --obs")).unwrap(),
            Command::Bench {
                quick: true,
                suite: BenchSuite::Obs,
                out: "BENCH_6.json".into(),
                check: None
            }
        );
        assert_eq!(
            parse(&argv("bench --quick --churn")).unwrap(),
            Command::Bench {
                quick: true,
                suite: BenchSuite::Churn,
                out: "BENCH_8.json".into(),
                check: None
            }
        );
        assert_eq!(
            parse(&argv("bench --verify")).unwrap(),
            Command::Bench {
                quick: false,
                suite: BenchSuite::Verify,
                out: "BENCH_9.json".into(),
                check: None
            }
        );
        assert_eq!(
            parse(&argv("bench --verify --cluster")).unwrap_err().tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv("bench --serve --obs")).unwrap_err().tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv("bench --churn --cluster")).unwrap_err().tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv("top --backends a:1,b:2")).unwrap(),
            Command::Top {
                backends: vec!["a:1".into(), "b:2".into()],
                interval_s: 0,
                frames: 0
            }
        );
        assert_eq!(parse(&argv("top")).unwrap_err().tag(), "usage");
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("schedule a.json")).is_err());
        assert!(parse(&argv("schedule a.json --policy edf --machines x")).is_err());
        // --trace/--metrics without a value must error, not silently no-op
        let err = parse(&argv("schedule a.json --policy edf --trace")).unwrap_err();
        assert!(
            err.to_string().contains("--trace requires a value"),
            "{err}"
        );
        assert!(parse(&argv("solve a.json --metrics")).is_err());
        // empty argv = help
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_budget_adversary_chaos() {
        assert_eq!(
            parse(&argv("solve a.json --budget-augmentations 8 --attempts 2")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: Some(Budget::unlimited().with_augmentations(8)),
                attempts: 2,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("solve a.json --budget-ms 50 --budget-nodes 1000")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: Some(
                    Budget::unlimited()
                        .with_probe_ms(50)
                        .with_network_nodes(1000)
                ),
                attempts: 3,
                trace: None,
                metrics: None
            }
        );
        let err = parse(&argv("solve a.json --attempts 0")).unwrap_err();
        assert_eq!(err.tag(), "usage");

        assert_eq!(
            parse(&argv(
                "adversary --policy edf-ff --k 5 --checkpoint c.json --resume"
            ))
            .unwrap(),
            Command::Adversary {
                policy: "edf-ff".into(),
                k: 5,
                machines: 16,
                checkpoint: Some("c.json".into()),
                resume: true,
                export_stream: None,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("adversary --policy edf-ff --k 1"))
                .unwrap_err()
                .tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv("adversary --policy edf-ff --resume"))
                .unwrap_err()
                .tag(),
            "usage"
        );
        assert_eq!(parse(&argv("adversary")).unwrap_err().tag(), "usage");

        assert_eq!(
            parse(&argv("chaos --seed 9 --n 8")).unwrap(),
            Command::Chaos {
                seed: 9,
                n: 8,
                plan: None,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("chaos --plan p.json")).unwrap(),
            Command::Chaos {
                seed: 0,
                n: 16,
                plan: Some("p.json".into()),
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("chaos")).unwrap(),
            Command::Chaos {
                seed: 0,
                n: 16,
                plan: None,
                trace: None,
                metrics: None
            }
        );
    }

    #[test]
    fn parse_serve_and_load() {
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:7700 --workers 4 --queue-cap 32 --drain-ms 500 \
                 --seed 3 --retry-attempts 9 --chaos --journal j.jsonl --deadline-ms 250 \
                 --port-file p.txt"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7700".into(),
                workers: 4,
                queue_cap: 32,
                drain_ms: 500,
                seed: 3,
                retry_attempts: 9,
                chaos: true,
                plan: None,
                journal: Some("j.jsonl".into()),
                deadline_ms: Some(250),
                port_file: Some("p.txt".into()),
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 16,
                drain_ms: 2_000,
                seed: 0,
                retry_attempts: 3,
                chaos: false,
                plan: None,
                journal: None,
                deadline_ms: None,
                port_file: None,
                trace: None,
                metrics: None
            }
        );
        // --chaos and --plan are mutually exclusive.
        assert_eq!(
            parse(&argv("serve --chaos --plan p.json"))
                .unwrap_err()
                .tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv(
                "load --addr 127.0.0.1:7700 --n 50 --seed 2 --paced --window 4 \
                 --out t.jsonl --hist h.json --no-shutdown"
            ))
            .unwrap(),
            Command::Load {
                addr: "127.0.0.1:7700".into(),
                n: 50,
                seed: 2,
                paced: true,
                window: 4,
                deadline_ms: None,
                out: Some("t.jsonl".into()),
                hist: Some("h.json".into()),
                shutdown: false
            }
        );
        // --addr is mandatory for load.
        assert_eq!(parse(&argv("load")).unwrap_err().tag(), "usage");
    }

    #[test]
    fn error_categories_at_the_cli_surface() {
        // Unknown command -> usage (exit 2).
        assert_eq!(parse(&argv("frobnicate")).unwrap_err().exit_code(), 2);
        // Missing file -> io (exit 3).
        let err = execute(Command::Classify {
            path: "/nonexistent-instance.json".into(),
        })
        .unwrap_err();
        assert_eq!(err.tag(), "io");
        assert_eq!(err.exit_code(), 3);
        // Unknown policy -> usage.
        let dir = std::env::temp_dir().join("machmin_cli_errors");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.json").to_string_lossy().to_string();
        io::save(&Instance::from_ints([(0, 4, 2)]), &path).unwrap();
        let err = execute(Command::Schedule {
            path: path.clone(),
            policy: "nope".into(),
            machines: None,
            trace: None,
            metrics: None,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "usage");
        // Malformed JSON -> io, with record context, no panic.
        let bad = dir.join("bad.json").to_string_lossy().to_string();
        std::fs::write(
            &bad,
            r#"{"jobs": [{"id": 0, "release": "0", "deadline": "0", "processing": "1"}]}"#,
        )
        .unwrap();
        let err = execute(Command::Classify { path: bad.clone() }).unwrap_err();
        assert_eq!(err.tag(), "io");
        assert!(err.to_string().contains("record 1"), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn roundtrip_generate_solve_schedule() {
        let dir = std::env::temp_dir().join("machmin_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json").to_string_lossy().to_string();

        let msg = execute(Command::Generate {
            family: "agreeable".into(),
            n: 12,
            seed: 3,
            out: path.clone(),
        })
        .unwrap();
        assert!(msg.contains("wrote 12 jobs"));

        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: None,
            attempts: 3,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("migratory optimum"));
        assert!(msg.contains("Theorem 1 certificate"));

        let msg = execute(Command::Classify { path: path.clone() }).unwrap();
        assert!(msg.contains("Agreeable") || msg.contains("Both"));

        let msg = execute(Command::Schedule {
            path: path.clone(),
            policy: "edf-ff".into(),
            machines: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("feasible: yes"), "{msg}");
        assert!(msg.contains("machines used"));

        let msg = execute(Command::Demigrate { path: path.clone() }).unwrap();
        assert!(msg.contains("non-migratory machines"));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budgeted_solve_escalates_and_degrades() {
        let dir = std::env::temp_dir().join("machmin_cli_budget");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json").to_string_lossy().to_string();
        execute(Command::Generate {
            family: "uniform".into(),
            n: 14,
            seed: 5,
            out: path.clone(),
        })
        .unwrap();

        // Starved budget, one attempt: a certified bracket, not an error.
        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: Some(Budget::unlimited().with_augmentations(1)),
            attempts: 1,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("degraded: certified bracket"), "{msg}");

        // Enough escalation attempts reach the exact answer; it matches the
        // unbudgeted optimum printed by a plain solve.
        let exact = execute(Command::Solve {
            path: path.clone(),
            budget: None,
            attempts: 3,
            trace: None,
            metrics: None,
        })
        .unwrap();
        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: Some(Budget::unlimited().with_augmentations(1)),
            attempts: 12,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("doubling budget"), "{msg}");
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("migratory optimum m(J):"))
                .map(|l| {
                    l.split(':')
                        .nth(1)
                        .unwrap()
                        .trim()
                        .split(' ')
                        .next()
                        .unwrap()
                        .to_owned()
                })
        };
        assert_eq!(line(&exact), line(&msg), "exact: {exact}\nbudgeted: {msg}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adversary_sweep_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join("machmin_cli_adv");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.json").to_string_lossy().to_string();
        let trace_path = dir.join("adv.jsonl").to_string_lossy().to_string();
        std::fs::remove_file(&ckpt).ok();

        let msg = execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 3,
            machines: 16,
            checkpoint: Some(ckpt.clone()),
            resume: false,
            export_stream: None,
            trace: Some(trace_path.clone()),
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("k=2:"), "{msg}");
        assert!(msg.contains("k=3:"), "{msg}");
        assert!(msg.contains("sweep complete"), "{msg}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"adversary_checkpoint\""), "{trace}");

        // Resuming with a deeper target only runs the missing depths.
        let msg = execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 4,
            machines: 16,
            checkpoint: Some(ckpt.clone()),
            resume: true,
            export_stream: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("resumed"), "{msg}");
        assert!(!msg.contains("k=2:"), "{msg}");
        assert!(!msg.contains("k=3:"), "{msg}");
        assert!(msg.contains("k=4:"), "{msg}");

        // A checkpoint for another policy is refused.
        let err = execute(Command::Adversary {
            policy: "medium-fit".into(),
            k: 3,
            machines: 16,
            checkpoint: Some(ckpt.clone()),
            resume: true,
            export_stream: None,
            trace: None,
            metrics: None,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "usage");

        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn parse_online_commands() {
        assert_eq!(
            parse(&argv(
                "online race --seed 3 --n 12 --k 5 --members loose,cms"
            ))
            .unwrap(),
            Command::Online {
                mode: "race".into(),
                stream: None,
                member: "auto".into(),
                seed: 3,
                n: 12,
                k: 5,
                members: "loose,cms".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(
            parse(&argv("online run --stream s.jsonl --member agreeable")).unwrap(),
            Command::Online {
                mode: "run".into(),
                stream: Some("s.jsonl".into()),
                member: "agreeable".into(),
                seed: 7,
                n: 40,
                k: 4,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(parse(&argv("online")).unwrap_err().tag(), "usage");
        assert_eq!(parse(&argv("online walk")).unwrap_err().tag(), "usage");
        assert_eq!(parse(&argv("online run")).unwrap_err().tag(), "usage");
    }

    #[test]
    fn online_race_reports_every_member_and_holds_bounds() {
        let run = || {
            execute(Command::Online {
                mode: "race".into(),
                stream: None,
                member: "auto".into(),
                seed: 7,
                n: 16,
                k: 3,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            })
            .unwrap()
        };
        let msg = run();
        for member in ["loose", "laminar", "agreeable", "cms", "imps"] {
            assert!(msg.contains(member), "missing {member} in {msg}");
        }
        for stream in ["stream agreeable", "stream laminar", "stream adversary"] {
            assert!(msg.contains(stream), "missing {stream} in {msg}");
        }
        assert!(msg.contains("bounds hold"), "{msg}");
        assert_eq!(msg, run(), "same-seed race output must be byte-identical");
    }

    #[test]
    fn online_run_replays_an_exported_adversary_stream() {
        let dir = std::env::temp_dir().join("machmin_cli_online");
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("adv_stream.jsonl").to_string_lossy().to_string();
        std::fs::remove_file(&stream).ok();

        let msg = execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 3,
            machines: 16,
            checkpoint: None,
            resume: false,
            export_stream: Some(stream.clone()),
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("exported"), "{msg}");

        let msg = execute(Command::Online {
            mode: "run".into(),
            stream: Some(stream.clone()),
            member: "cms".into(),
            seed: 7,
            n: 40,
            k: 4,
            members: "all".into(),
            out: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("online run: cms"), "{msg}");
        assert!(msg.contains("machines opened"), "{msg}");

        let err = execute(Command::Online {
            mode: "run".into(),
            stream: Some(stream.clone()),
            member: "dance".into(),
            seed: 7,
            n: 40,
            k: 4,
            members: "all".into(),
            out: None,
            trace: None,
            metrics: None,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "usage");

        std::fs::remove_file(&stream).ok();
    }

    #[test]
    fn chaos_exercises_every_site_deterministically() {
        let dir = std::env::temp_dir().join("machmin_cli_chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("chaos.jsonl").to_string_lossy().to_string();
        let run = || {
            let msg = execute(Command::Chaos {
                seed: 7,
                n: 12,
                plan: None,
                trace: Some(trace_path.clone()),
                metrics: None,
            })
            .unwrap();
            let trace = std::fs::read_to_string(&trace_path).unwrap();
            (msg, trace)
        };
        let (msg_a, trace_a) = run();
        let (msg_b, trace_b) = run();
        std::fs::remove_file(&trace_path).ok();
        // The success line is derived from `FaultSite::ALL`, and every tag
        // in the registry must show up in the report — a newly added fault
        // site without a chaos segment fails here, not in stale prose.
        let all_exercised = format!("all {} fault sites exercised", FaultSite::ALL.len());
        assert!(msg_a.contains(&all_exercised), "{msg_a}");
        for site in FaultSite::ALL {
            assert!(
                msg_a.contains(site.tag()),
                "report must mention {site}: {msg_a}"
            );
        }
        assert!(msg_a.contains("backend_drop fired"), "{msg_a}");
        assert!(msg_a.contains("backend_churn fired"), "{msg_a}");
        assert!(msg_a.contains("answer_corruption fired"), "{msg_a}");
        assert!(trace_a.contains("\"fault_injected\""), "{trace_a}");
        assert!(trace_a.contains("\"backend_drop\""), "{trace_a}");
        assert!(trace_a.contains("\"backend_churn\""), "{trace_a}");
        assert!(trace_a.contains("\"probe_degraded\""), "{trace_a}");
        // Determinism: same seed, byte-identical report and event stream.
        assert_eq!(msg_a, msg_b);
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn schedule_reports_misses_gracefully() {
        let dir = std::env::temp_dir().join("machmin_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tight.json").to_string_lossy().to_string();
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
        io::save(&inst, &path).unwrap();
        let msg = execute(Command::Schedule {
            path: path.clone(),
            policy: "edf".into(),
            machines: Some(1),
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("feasible: NO"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_policy_and_family_error() {
        assert!(execute(Command::Schedule {
            path: "/nonexistent.json".into(),
            policy: "edf".into(),
            machines: None,
            trace: None,
            metrics: None
        })
        .is_err());
        let dir = std::env::temp_dir();
        assert!(execute(Command::Generate {
            family: "nope".into(),
            n: 3,
            seed: 0,
            out: dir.join("x.json").to_string_lossy().to_string()
        })
        .is_err());
    }

    #[test]
    fn schedule_trace_and_metrics_agree_with_verifier() {
        let dir = std::env::temp_dir().join("machmin_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json").to_string_lossy().to_string();
        let trace_path = dir.join("t.jsonl").to_string_lossy().to_string();
        let metrics_path = dir.join("m.json").to_string_lossy().to_string();

        execute(Command::Generate {
            family: "uniform".into(),
            n: 10,
            seed: 11,
            out: path.clone(),
        })
        .unwrap();

        let msg = execute(Command::Schedule {
            path: path.clone(),
            policy: "edf".into(),
            machines: None,
            trace: Some(trace_path.clone()),
            metrics: Some(metrics_path.clone()),
        })
        .unwrap();
        assert!(
            msg.contains("trace counters agree with verified schedule"),
            "{msg}"
        );
        assert!(msg.contains("trace:"), "{msg}");
        assert!(msg.contains("metrics ->"), "{msg}");

        // Every trace line is a standalone JSON object tagged with "event".
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let mut events = 0usize;
        for line in trace.lines() {
            let v = mm_json::parse(line).unwrap();
            assert!(
                v.get("event").and_then(mm_json::Json::as_str).is_some(),
                "{line}"
            );
            events += 1;
        }
        assert!(events > 0, "trace should not be empty");

        // The metrics file parses and mirrors the trace's released-job count.
        let metrics = mm_json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let released = metrics
            .get("schedule")
            .and_then(|s| s.get("jobs_released"))
            .and_then(mm_json::Json::as_i64)
            .unwrap();
        assert_eq!(released, 10);

        // Solve with tracing emits feasibility probes into the same formats.
        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: None,
            attempts: 3,
            trace: Some(trace_path.clone()),
            metrics: Some(metrics_path.clone()),
        })
        .unwrap();
        assert!(msg.contains("migratory optimum"), "{msg}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"feasibility_probe\""), "{trace}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn bench_writes_baseline_and_checks_itself() {
        let dir = std::env::temp_dir().join("machmin_cli_bench");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json").to_string_lossy().to_string();
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Baseline,
            out: path.clone(),
            check: None,
        })
        .unwrap();
        assert!(msg.contains("baseline ->"), "{msg}");
        // A run is a valid baseline for itself: counters are deterministic.
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Baseline,
            out: path.clone(),
            check: Some(path.clone()),
        })
        .unwrap();
        assert!(msg.contains("counters within committed baseline"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_serve_writes_baseline_and_checks_itself() {
        let dir = std::env::temp_dir().join("machmin_cli_bench_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench4.json").to_string_lossy().to_string();
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Serve,
            out: path.clone(),
            check: None,
        })
        .unwrap();
        assert!(msg.contains("serve bench:"), "{msg}");
        assert!(msg.contains("baseline ->"), "{msg}");
        let doc = mm_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(mm_json::Json::as_str),
            Some("machmin-serve-bench-v1")
        );
        assert_eq!(doc.get("lost").and_then(mm_json::Json::as_i64), Some(0));
        // Deterministic counters gate against themselves.
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Serve,
            out: path.clone(),
            check: Some(path.clone()),
        })
        .unwrap();
        assert!(msg.contains("counters match committed baseline"), "{msg}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_and_load_round_trip_with_journal() {
        let dir = std::env::temp_dir().join("machmin_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl").to_string_lossy().to_string();
        let port_file = dir.join("port.txt").to_string_lossy().to_string();
        let transcript = dir.join("transcript.jsonl").to_string_lossy().to_string();
        let metrics_path = dir.join("serve-metrics.json").to_string_lossy().to_string();
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&port_file).ok();

        let server = {
            let (journal, port_file, metrics_path) =
                (journal.clone(), port_file.clone(), metrics_path.clone());
            std::thread::spawn(move || {
                execute(Command::Serve {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    queue_cap: 16,
                    drain_ms: 2_000,
                    seed: 1,
                    retry_attempts: 3,
                    chaos: false,
                    plan: None,
                    journal: Some(journal),
                    deadline_ms: None,
                    port_file: Some(port_file),
                    trace: None,
                    metrics: Some(metrics_path),
                })
            })
        };
        // Wait for the server to publish its bound address.
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "server never bound");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };
        let msg = execute(Command::Load {
            addr,
            n: 30,
            seed: 4,
            paced: false,
            window: 8,
            deadline_ms: None,
            out: Some(transcript.clone()),
            hist: None,
            shutdown: true,
        })
        .unwrap();
        assert!(msg.contains("lost responses: 0"), "{msg}");
        assert!(msg.contains("transcript (30 lines)"), "{msg}");

        let server_msg = server.join().unwrap().unwrap();
        assert!(
            server_msg.contains("invariant requests_admitted == responses_sent: ok"),
            "{server_msg}"
        );
        assert!(server_msg.contains("journal: replayed 0"), "{server_msg}");
        // Every admitted request and every released response hit the journal.
        let journal_text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            journal_text.matches("\"rec\":\"admitted\"").count(),
            30,
            "{journal_text}"
        );
        assert_eq!(journal_text.matches("\"rec\":\"acked\"").count(), 30);
        let metrics = mm_json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let admitted = metrics
            .get("serve")
            .and_then(|s| s.get("requests_admitted"))
            .and_then(mm_json::Json::as_i64);
        assert_eq!(admitted, Some(30), "{metrics:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_plan_and_checkpoint_stay_categorized_io_errors() {
        let dir = std::env::temp_dir().join("machmin_cli_truncate");
        std::fs::create_dir_all(&dir).unwrap();

        // A fault plan truncated at every byte offset: exit code 3 with
        // line/column context, never a panic (exit 70).
        let plan_text = FaultPlan::chaos(3).to_json().to_pretty();
        let plan_path = dir.join("plan.json").to_string_lossy().to_string();
        // Cuts inside the trimmed document; a cut that only strips trailing
        // whitespace still parses, which is correct behavior.
        for cut in 0..plan_text.trim_end().len() {
            std::fs::write(&plan_path, &plan_text[..cut]).unwrap();
            let err = execute(Command::Chaos {
                seed: 3,
                n: 4,
                plan: Some(plan_path.clone()),
                trace: None,
                metrics: None,
            })
            .unwrap_err();
            assert_eq!(err.tag(), "io", "cut {cut}: {err}");
            assert_eq!(err.exit_code(), 3, "cut {cut}");
            assert!(err.to_string().contains("line "), "cut {cut}: {err}");
        }

        // A sweep checkpoint truncated at every byte offset: `--resume`
        // reports a categorized io error, never a panic.
        let ckpt = dir.join("sweep.json").to_string_lossy().to_string();
        execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 2,
            machines: 8,
            checkpoint: Some(ckpt.clone()),
            resume: false,
            export_stream: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        let ckpt_text = std::fs::read_to_string(&ckpt).unwrap();
        for cut in 0..ckpt_text.trim_end().len() {
            std::fs::write(&ckpt, &ckpt_text[..cut]).unwrap();
            let err = execute(Command::Adversary {
                policy: "edf-ff".into(),
                k: 2,
                machines: 8,
                checkpoint: Some(ckpt.clone()),
                resume: true,
                export_stream: None,
                trace: None,
                metrics: None,
            })
            .unwrap_err();
            assert_eq!(err.tag(), "io", "cut {cut}: {err}");
            assert!(
                err.to_string().contains("cannot resume from"),
                "cut {cut}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_mentions_all_commands() {
        let h = help_text();
        for cmd in [
            "solve",
            "classify",
            "schedule",
            "demigrate",
            "generate",
            "adversary",
            "chaos",
            "serve",
            "load",
            "cluster",
            "top",
            "bench",
        ] {
            assert!(h.contains(cmd), "help is missing `{cmd}`");
        }
        assert!(h.contains("worker_panic"), "chaos site list is stale");
        assert!(h.contains("backend_drop"), "chaos site list is stale");
        assert!(h.contains("exit codes"));
    }

    #[test]
    fn parse_cluster_commands() {
        assert_eq!(
            parse(&argv(
                "cluster grid --backends a:1,b:2 --balance hash --seed 9 --window 32 \
                 --hedge-every 5 --churn churn.json --spares d:4,e:5 --migration-budget 8 \
                 --families uniform,loose --seeds 2 --n 8 --out t.jsonl"
            ))
            .unwrap(),
            Command::Cluster {
                workload: "grid".into(),
                path: None,
                backends: vec!["a:1".into(), "b:2".into()],
                balance: "hash".into(),
                seed: 9,
                window: 32,
                hedge_every: Some(5),
                hedge_p99: None,
                hedge_floor_ms: 10,
                chaos: false,
                plan: None,
                churn: Some("churn.json".into()),
                spares: vec!["d:4".into(), "e:5".into()],
                migration_budget: 8,
                verify: "off".into(),
                deadline_ms: None,
                policies: "edf-ff".into(),
                k: 4,
                machines: 16,
                checkpoint: None,
                resume: false,
                families: "uniform,loose".into(),
                seeds: 2,
                n: 8,
                members: "all".into(),
                out: Some("t.jsonl".into()),
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "cluster sweep --backends a:1 --policies edf-ff,medium-fit --k 3 \
                 --machines 8 --checkpoint c.json --resume"
            ))
            .unwrap(),
            Command::Cluster {
                workload: "sweep".into(),
                path: None,
                backends: vec!["a:1".into()],
                balance: "round-robin".into(),
                seed: 0,
                window: 8,
                hedge_every: None,
                hedge_p99: None,
                hedge_floor_ms: 10,
                chaos: false,
                plan: None,
                churn: None,
                spares: vec![],
                migration_budget: 64,
                verify: "off".into(),
                deadline_ms: None,
                policies: "edf-ff,medium-fit".into(),
                k: 3,
                machines: 8,
                checkpoint: Some("c.json".into()),
                resume: true,
                families: "uniform,agreeable,loose".into(),
                seeds: 3,
                n: 12,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
        // solve takes the instance file positionally.
        match parse(&argv("cluster solve inst.json --backends a:1")).unwrap() {
            Command::Cluster { workload, path, .. } => {
                assert_eq!(workload, "solve");
                assert_eq!(path.as_deref(), Some("inst.json"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Guard rails: every one of these is a usage error.
        for bad in [
            "cluster",
            "cluster frobnicate --backends a:1",
            "cluster grid",
            "cluster solve --backends a:1",
            "cluster grid --backends ,",
            "cluster grid --backends a:1 --hedge-every 2 --hedge-p99 300",
            "cluster grid --backends a:1 --hedge-every 0",
            "cluster grid --backends a:1 --chaos --plan p.json",
            "cluster sweep --backends a:1 --k 1",
            "cluster sweep --backends a:1 --resume",
            "cluster grid --backends a:1 --spares b:2",
            "bench --serve --cluster",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.tag(), "usage", "`{bad}` must be a usage error: {err}");
        }
        assert_eq!(
            parse(&argv("bench --quick --cluster")).unwrap(),
            Command::Bench {
                quick: true,
                suite: BenchSuite::Cluster,
                out: "BENCH_5.json".into(),
                check: None
            }
        );
    }

    #[test]
    fn obs_bench_gates_and_is_its_own_baseline() {
        let dir = std::env::temp_dir().join("machmin_obs_bench");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_6.json").to_string_lossy().to_string();
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Obs,
            out: path.clone(),
            check: None,
        })
        .unwrap();
        assert!(msg.contains("byte-identical under tracing"), "{msg}");
        assert!(msg.contains("baseline ->"), "{msg}");
        let doc = mm_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(mm_json::Json::as_str),
            Some("machmin-obs-bench-v1")
        );
        assert_eq!(
            doc.get("traced_identical").and_then(mm_json::Json::as_bool),
            Some(true)
        );
        assert_eq!(
            doc.get("hist_total").and_then(mm_json::Json::as_i64),
            doc.get("responses").and_then(mm_json::Json::as_i64)
        );
        // A run is a valid baseline for itself: the gated keys are
        // deterministic functions of the seed.
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Obs,
            out: path.clone(),
            check: Some(path.clone()),
        })
        .unwrap();
        assert!(msg.contains("counters match committed baseline"), "{msg}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_stats_and_top_render_a_live_pool() {
        let dir = std::env::temp_dir().join("machmin_cli_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("stats.json").to_string_lossy().to_string();
        let pool = spawn_bench_pool(2, 64).unwrap();
        let backends: Vec<String> = pool.iter().map(|b| b.addr.clone()).collect();
        let msg = execute(Command::Cluster {
            workload: "stats".into(),
            path: None,
            backends: backends.clone(),
            balance: "round-robin".into(),
            seed: 0,
            window: 8,
            hedge_every: None,
            hedge_p99: None,
            hedge_floor_ms: 10,
            chaos: false,
            plan: None,
            churn: None,
            spares: vec![],
            migration_budget: 64,
            verify: "off".into(),
            deadline_ms: None,
            policies: "edf-ff".into(),
            k: 4,
            machines: 16,
            checkpoint: None,
            resume: false,
            families: "uniform".into(),
            seeds: 1,
            n: 4,
            members: "all".into(),
            out: Some(out_path.clone()),
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("2/2 backend(s) up"), "{msg}");
        assert!(msg.contains("stats ->"), "{msg}");
        let doc = mm_json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("backends_reachable")
                .and_then(mm_json::Json::as_i64),
            Some(2)
        );
        let msg = execute(Command::Top {
            backends,
            interval_s: 0,
            frames: 0,
        })
        .unwrap();
        assert!(msg.contains("machmin top"), "{msg}");
        assert!(msg.contains("pool:"), "{msg}");
        teardown_bench_pool(pool).unwrap();
        // A fully unreachable pool is an io error, not a panic.
        let err = execute(Command::Top {
            backends: vec!["127.0.0.1:1".into()],
            interval_s: 0,
            frames: 0,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "io");
        std::fs::remove_file(&out_path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_solve_round_trips_against_a_live_pool() {
        let dir = std::env::temp_dir().join("machmin_cli_cluster");
        std::fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.json").to_string_lossy().to_string();
        let transcript = dir.join("cluster.jsonl").to_string_lossy().to_string();
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
        io::save(&inst, &inst_path).unwrap();
        let pool = spawn_bench_pool(2, 64).unwrap();
        let backends: Vec<String> = pool.iter().map(|b| b.addr.clone()).collect();
        let cmd = |workload: &str, backends: Vec<String>| Command::Cluster {
            workload: workload.into(),
            path: (workload == "solve").then(|| inst_path.clone()),
            backends,
            balance: "hash".into(),
            seed: 5,
            window: 8,
            hedge_every: None,
            hedge_p99: None,
            hedge_floor_ms: 10,
            chaos: false,
            plan: None,
            churn: None,
            spares: vec![],
            migration_budget: 64,
            verify: "off".into(),
            deadline_ms: None,
            policies: "edf-ff".into(),
            k: 3,
            machines: 8,
            checkpoint: None,
            resume: false,
            families: "uniform".into(),
            seeds: 2,
            n: 8,
            members: "all".into(),
            out: Some(transcript.clone()),
            trace: None,
            metrics: None,
        };
        let msg = execute(cmd("solve", backends.clone())).unwrap();
        assert!(msg.contains("cluster solve: optimum 3 machines"), "{msg}");
        assert!(msg.contains("lost responses: 0"), "{msg}");
        let lines = std::fs::read_to_string(&transcript).unwrap();
        assert!(lines.starts_with("{\"cluster\":\"solve\""), "{lines}");
        let msg = execute(cmd("grid", backends)).unwrap();
        assert!(msg.contains("cluster grid: 2 cell(s)"), "{msg}");
        assert!(msg.contains("\"solved\""), "{msg}");
        teardown_bench_pool(pool).unwrap();
        // A pool with no listener is a categorized io error, not a panic.
        let err = execute(cmd("solve", vec!["127.0.0.1:1".into()])).unwrap_err();
        assert_eq!(err.tag(), "io", "{err}");
        // An unknown balance policy is a usage error.
        let mut bad = cmd("grid", vec!["127.0.0.1:1".into()]);
        if let Command::Cluster { balance, .. } = &mut bad {
            *balance = "fastest".into();
        }
        let err = execute(bad).unwrap_err();
        assert_eq!(err.tag(), "usage", "{err}");
        std::fs::remove_file(&inst_path).ok();
        std::fs::remove_file(&transcript).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_cluster_writes_baseline_and_checks_itself() {
        let dir = std::env::temp_dir().join("machmin_cli_bench_cluster");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench5.json").to_string_lossy().to_string();
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Cluster,
            out: path.clone(),
            check: None,
        })
        .unwrap();
        assert!(msg.contains("cluster bench:"), "{msg}");
        assert!(msg.contains("baseline ->"), "{msg}");
        let doc = mm_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(mm_json::Json::as_str),
            Some("machmin-cluster-bench-v1")
        );
        let scatter = doc.get("scatter").unwrap();
        assert_eq!(scatter.get("lost").and_then(mm_json::Json::as_i64), Some(0));
        assert!(
            scatter.get("hedges").and_then(mm_json::Json::as_i64) > Some(0),
            "{scatter:?}"
        );
        assert!(
            scatter.get("backend_drops").and_then(mm_json::Json::as_i64) > Some(0),
            "{scatter:?}"
        );
        // Deterministic counters gate against themselves.
        let msg = execute(Command::Bench {
            quick: true,
            suite: BenchSuite::Cluster,
            out: path.clone(),
            check: Some(path.clone()),
        })
        .unwrap();
        assert!(msg.contains("counters match committed baseline"), "{msg}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Modification time of a repo file, to prove a rejected command line
    /// wrote nothing.
    fn mtime(path: &str) -> Option<std::time::SystemTime> {
        std::fs::metadata(path).and_then(|m| m.modified()).ok()
    }

    #[test]
    fn bad_command_lines_are_usage_errors_that_touch_nothing() {
        let bench_before = mtime("BENCH_2.json");
        for (line, token) in [
            ("schedule a.json --policy edf-ff --machnies 3", "--machnies"),
            ("online race --sede 5", "--sede"),
            ("solve --bogus-flag x", "--bogus-flag"),
            ("solve a.json --trace --metrics m.json", "--metrics"),
            ("bench --help", "--help"),
            ("solve a.json --trace t.jsonl --trace u.jsonl", "--trace"),
            ("schedule a.json --policy edf --policy llf", "--policy"),
            ("solve a.json b.json", "b.json"),
            ("classify a.json b.json", "b.json"),
            ("cluster grid extra --backends a:1", "extra"),
            ("generate --out x.json", "<uniform|agreeable|laminar|loose>"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err.tag(), "usage", "`{line}`: {err}");
            assert_eq!(err.exit_code(), 2, "`{line}`");
            let msg = err.to_string();
            assert!(msg.contains(token), "`{line}` must name `{token}`: {msg}");
            let cmd = line.split_whitespace().next().unwrap();
            assert!(
                msg.contains(&format!("usage: machmin {cmd}")),
                "`{line}` must print the usage line: {msg}"
            );
        }
        assert!(!std::path::Path::new("--metrics").exists());
        assert_eq!(mtime("BENCH_2.json"), bench_before);
    }

    #[test]
    fn positionals_may_follow_flags() {
        assert_eq!(
            parse(&argv("schedule --policy edf a.json")).unwrap(),
            parse(&argv("schedule a.json --policy edf")).unwrap()
        );
        assert_eq!(
            parse(&argv("cluster --backends a:1 solve inst.json")).unwrap(),
            parse(&argv("cluster solve inst.json --backends a:1")).unwrap()
        );
        assert_eq!(
            parse(&argv("online --seed 3 race")).unwrap(),
            parse(&argv("online race --seed 3")).unwrap()
        );
    }

    /// Splits a rendered usage line into `(flag, takes_value)` pairs.
    fn usage_flags(usage: &str) -> Vec<(String, bool)> {
        let raw: Vec<&str> = usage.split_whitespace().collect();
        let mut flags = Vec::new();
        for (i, tok) in raw.iter().enumerate() {
            let name = tok.trim_start_matches('[').trim_end_matches(']');
            if name.starts_with("--") {
                let takes_value = !tok.ends_with(']')
                    && raw
                        .get(i + 1)
                        .is_some_and(|next| !next.trim_start_matches('[').starts_with("--"));
                flags.push((name.to_string(), takes_value));
            }
        }
        flags
    }

    #[test]
    fn every_flag_in_a_usage_line_parses_and_is_used() {
        let sample = |flag: &str| -> String {
            let meta = SPECS
                .iter()
                .flat_map(|s| s.flags)
                .find(|f| f.name == flag)
                .map_or("", |f| f.meta);
            match meta {
                "N" | "K" | "S" | "W" | "PCT" => "5".into(),
                "a,b,c" | "host:port" | "d,e" => "a:1".into(),
                _ => "x".into(),
            }
        };
        let prereq = |flag: &str| -> Vec<String> {
            match flag {
                "--resume" => argv("--checkpoint c.json"),
                "--corrupt" => argv("--pool"),
                "--spares" => argv("--churn p.json"),
                _ => Vec::new(),
            }
        };
        let mut checked = 0;
        for spec in SPECS {
            let mut base = vec![spec.name.to_string()];
            for arg in spec.args.iter().filter(|a| !a.starts_with('[')) {
                base.push(match *arg {
                    "<run|race>" => "race".into(),
                    "<solve|sweep|grid|online|stats>" => "grid".into(),
                    _ => "x".into(),
                });
            }
            let flags = usage_flags(&spec.usage());
            assert_eq!(flags.len(), spec.flags.len(), "{}", spec.usage());
            for (flag, takes_value) in &flags {
                let mut without = base.clone();
                for f in spec.flags.iter().filter(|f| matches!(f.absent, Required)) {
                    if f.name != flag {
                        without.push(f.name.into());
                        without.push(sample(f.name));
                    }
                }
                without.extend(prereq(flag));
                let mut with = without.clone();
                with.push(flag.clone());
                if *takes_value {
                    with.push(sample(flag));
                }
                let parsed =
                    parse(&with).unwrap_or_else(|e| panic!("`{}` must parse: {e}", with.join(" ")));
                if let Ok(plain) = parse(&without) {
                    assert_ne!(parsed, plain, "`{}` has no effect", with.join(" "));
                }
                checked += 1;
            }
        }
        assert!(checked > 80, "only {checked} flags checked");
    }

    #[test]
    fn every_accepted_flag_is_in_the_help_text() {
        let help = help_text();
        for spec in SPECS {
            assert!(
                help.contains(&format!("\n  {}", spec.name)),
                "{}",
                spec.name
            );
            for f in spec.flags {
                assert!(
                    help.contains(format!("      {} {}", f.name, f.meta).trim_end()),
                    "help is missing `{} {}`",
                    spec.name,
                    f.name
                );
                assert!(spec.usage().contains(f.name), "{}", spec.usage());
            }
        }
    }

    #[test]
    fn readme_cli_reference_is_the_help_text() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&help_text()),
            "README's CLI reference is stale: paste `machmin help` output into it"
        );
    }

    #[test]
    fn perfbench_command_shapes_parse_exactly() {
        assert_eq!(
            parse(&argv("solve /tmp/p.json")).unwrap(),
            Command::Solve {
                path: "/tmp/p.json".into(),
                budget: None,
                attempts: 3,
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(
            parse(&argv("schedule /tmp/p.json --policy medium-fit")).unwrap(),
            Command::Schedule {
                path: "/tmp/p.json".into(),
                policy: "medium-fit".into(),
                machines: None,
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(
            parse(&argv("online run --stream /tmp/s.jsonl --member cms")).unwrap(),
            Command::Online {
                mode: "run".into(),
                stream: Some("/tmp/s.jsonl".into()),
                member: "cms".into(),
                seed: 7,
                n: 40,
                k: 4,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
    }

    /// `machmin cluster <workload> --backends <backends>` with every other
    /// field at its documented default.
    fn cluster_defaults(workload: &str, backends: &[&str]) -> Command {
        Command::Cluster {
            workload: workload.into(),
            path: None,
            backends: backends.iter().map(|b| b.to_string()).collect(),
            balance: "round-robin".into(),
            seed: 0,
            window: 8,
            hedge_every: None,
            hedge_p99: None,
            hedge_floor_ms: 10,
            chaos: false,
            plan: None,
            deadline_ms: None,
            policies: "edf-ff".into(),
            k: 4,
            machines: 16,
            checkpoint: None,
            resume: false,
            families: "uniform,agreeable,loose".into(),
            seeds: 3,
            n: 12,
            members: "all".into(),
            churn: None,
            spares: vec![],
            migration_budget: 64,
            verify: "off".into(),
            out: None,
            trace: None,
            metrics: None,
        }
    }

    /// The command lines of `scripts/serve_soak.sh` and
    /// `scripts/cluster_soak.sh`, shell variables substituted.
    #[test]
    fn soak_script_command_lines_parse_exactly() {
        let serve = |chaos: bool, seed: u64, retry: u32, journal: Option<&str>, port: &str| {
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 16,
                drain_ms: 2_000,
                seed,
                retry_attempts: retry,
                chaos,
                plan: None,
                journal: journal.map(String::from),
                deadline_ms: None,
                port_file: Some(port.into()),
                trace: None,
                metrics: None,
            }
        };
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --workers 2 --queue-cap 16 --seed 7 --chaos \
                 --retry-attempts 1000 --journal w/journal-a.jsonl --port-file w/port-a.txt"
            ))
            .unwrap(),
            serve(true, 7, 1000, Some("w/journal-a.jsonl"), "w/port-a.txt")
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --workers 2 --queue-cap 16 --seed 7 --chaos \
                 --retry-attempts 1000 --port-file w/port-stats.txt"
            ))
            .unwrap(),
            serve(true, 7, 1000, None, "w/port-stats.txt")
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --journal w/journal-a.jsonl --port-file w/port-replay.txt"
            ))
            .unwrap(),
            serve(false, 0, 3, Some("w/journal-a.jsonl"), "w/port-replay.txt")
        );
        let mut pool_backend = serve(false, 0, 3, None, "w/port-byz-3.txt");
        if let Command::Serve {
            workers,
            queue_cap,
            plan,
            ..
        } = &mut pool_backend
        {
            *workers = 3;
            *queue_cap = 64;
            *plan = Some("w/liar.json".into());
        }
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --workers 3 --queue-cap 64 \
                 --port-file w/port-byz-3.txt --plan w/liar.json"
            ))
            .unwrap(),
            pool_backend
        );

        let load = |n: usize, seed: u64, out: Option<&str>, shutdown: bool| Command::Load {
            addr: "127.0.0.1:4000".into(),
            n,
            seed,
            paced: false,
            window: 8,
            deadline_ms: None,
            out: out.map(String::from),
            hist: None,
            shutdown,
        };
        assert_eq!(
            parse(&argv(
                "load --addr 127.0.0.1:4000 --n 500 --seed 7 --window 8 --out w/transcript-a.jsonl"
            ))
            .unwrap(),
            load(500, 7, Some("w/transcript-a.jsonl"), true)
        );
        assert_eq!(
            parse(&argv(
                "load --addr 127.0.0.1:4000 --n 500 --seed 7 --window 8 --no-shutdown"
            ))
            .unwrap(),
            load(500, 7, None, false)
        );
        assert_eq!(
            parse(&argv("load --addr 127.0.0.1:4000 --n 1 --seed 0")).unwrap(),
            load(1, 0, None, true)
        );

        let pool = ["a:1", "b:2", "c:3"];
        let mut stats = cluster_defaults("stats", &pool);
        if let Command::Cluster { out, .. } = &mut stats {
            *out = Some("w/stats.json".into());
        }
        assert_eq!(
            parse(&argv(
                "cluster stats --backends a:1,b:2,c:3 --out w/stats.json"
            ))
            .unwrap(),
            stats
        );
        let grid = |pool: &[&str], out: &str| {
            let mut c = cluster_defaults("grid", pool);
            if let Command::Cluster {
                seed,
                seeds,
                n,
                out: o,
                ..
            } = &mut c
            {
                *seed = 7;
                *seeds = 100;
                *n = 10;
                *o = Some(out.into());
            }
            c
        };
        let mut faulted = grid(&pool, "w/t-a.jsonl");
        if let Command::Cluster {
            balance,
            window,
            hedge_every,
            plan,
            ..
        } = &mut faulted
        {
            *balance = "hash".into();
            *window = 32;
            *hedge_every = Some(5);
            *plan = Some("w/plan.json".into());
        }
        assert_eq!(
            parse(&argv(
                "cluster grid --backends a:1,b:2,c:3 --balance hash --seed 7 --window 32 \
                 --hedge-every 5 --plan w/plan.json --families uniform,agreeable,loose \
                 --seeds 100 --n 10 --out w/t-a.jsonl"
            ))
            .unwrap(),
            faulted
        );
        assert_eq!(
            parse(&argv(
                "cluster grid --backends a:1 --seed 7 --families uniform,agreeable,loose \
                 --seeds 100 --n 10 --out w/t-single.jsonl"
            ))
            .unwrap(),
            grid(&["a:1"], "w/t-single.jsonl")
        );
        let mut churned = grid(&pool, "w/t-churn.jsonl");
        if let Command::Cluster {
            balance,
            window,
            plan,
            churn,
            spares,
            ..
        } = &mut churned
        {
            *balance = "hash".into();
            *window = 32;
            *plan = Some("w/churn-plan.json".into());
            *churn = Some("w/churn-events.json".into());
            *spares = vec!["d:4".into()];
        }
        assert_eq!(
            parse(&argv(
                "cluster grid --backends a:1,b:2,c:3 --balance hash --seed 7 --window 32 \
                 --plan w/churn-plan.json --churn w/churn-events.json --spares d:4 \
                 --families uniform,agreeable,loose --seeds 100 --n 10 --out w/t-churn.jsonl"
            ))
            .unwrap(),
            churned
        );
        let mut verified = grid(&["a:1"], "w/t-byz-single.jsonl");
        if let Command::Cluster { verify, .. } = &mut verified {
            *verify = "all".into();
        }
        assert_eq!(
            parse(&argv(
                "cluster grid --backends a:1 --seed 7 --verify all \
                 --families uniform,agreeable,loose --seeds 100 --n 10 \
                 --out w/t-byz-single.jsonl"
            ))
            .unwrap(),
            verified
        );
        let mut online = cluster_defaults("online", &pool);
        if let Command::Cluster {
            balance,
            seed,
            window,
            families,
            seeds,
            n,
            out,
            ..
        } = &mut online
        {
            *balance = "hash".into();
            *seed = 7;
            *window = 32;
            *families = "uniform,agreeable".into();
            *seeds = 4;
            *n = 10;
            *out = Some("w/t-online.jsonl".into());
        }
        assert_eq!(
            parse(&argv(
                "cluster online --backends a:1,b:2,c:3 --balance hash --seed 7 --window 32 \
                 --members all --families uniform,agreeable --seeds 4 --n 10 \
                 --out w/t-online.jsonl"
            ))
            .unwrap(),
            online
        );
    }

    #[test]
    fn exact_gate_reports_every_difference() {
        use mm_json::Json;
        let gate = ExactGate {
            what: "test bench counter",
            ints: &["a", "b", "c"],
            trees: &["t", "u"],
            changed: "changed",
            matched: "counters",
        };
        let doc = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Int(2)),
            ("t", Json::obj([("x", Json::Int(1))])),
            ("u", Json::Bool(true)),
        ]);
        assert!(gate.problems(&doc, &doc).is_empty());
        let committed = Json::obj([
            ("a", Json::Int(9)),
            ("c", Json::Int(3)),
            ("t", Json::obj([("x", Json::Int(2))])),
        ]);
        assert_eq!(
            gate.problems(&doc, &committed),
            [
                "a: Some(1) vs committed Some(9)",
                "b: Some(2) vs committed None",
                "c: None vs committed Some(3)",
                "t changed",
                "u changed",
            ]
        );

        let dir = std::env::temp_dir().join("machmin_exact_gate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("committed.json").to_string_lossy().to_string();
        let mut out = String::new();
        gate.check(&doc, None, &mut out).unwrap();
        assert!(out.is_empty());
        std::fs::write(&path, doc.to_pretty()).unwrap();
        gate.check(&doc, Some(&path), &mut out).unwrap();
        assert_eq!(out, format!("counters match committed baseline {path}\n"));
        std::fs::write(&path, committed.to_pretty()).unwrap();
        let err = gate.check(&doc, Some(&path), &mut out).unwrap_err();
        assert_eq!(err.tag(), "verification");
        assert!(
            err.to_string()
                .starts_with(&format!("test bench counter regression vs {path}:\n  a: ")),
            "{err}"
        );
        std::fs::write(&path, "{").unwrap();
        assert_eq!(
            gate.check(&doc, Some(&path), &mut out).unwrap_err().tag(),
            "io"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
