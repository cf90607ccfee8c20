//! The three CLI workloads: `solve-cert`, `schedule-large` and
//! `online-replay`.
//!
//! The untraced run drives `machmin::cli::parse` + `machmin::cli::execute`,
//! exactly what the `machmin` binary does for one command line. The traced
//! run calls the layer functions `cli::execute` calls, in the same order,
//! with a span around each call.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mm_core::{Edf, EdfFirstFit, Llf, MediumFit};
use mm_instance::{io, Instance};
use mm_numeric::Rat;
use mm_online::Member;
use mm_opt::{Claim, Verification};
use mm_sim::{run_policy, SimConfig, SimOutcome, VerifyOptions};

use crate::inputs::{self, Family};
use crate::layers::{self, time_ns, Counts, ProbeCounter, Traced};
use crate::stats::{cpu_seconds, mean, median, run_passes, SplitMix};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// What one operation runs.
#[derive(Debug, Clone)]
enum Kind {
    Solve,
    Schedule(&'static str),
    Online(Member),
}

#[derive(Debug, Clone)]
struct Op {
    kind: Kind,
    family: Family,
    path: PathBuf,
    args: Vec<String>,
}

/// The sized corpus of one CLI workload.
struct Corpus {
    families: &'static [Family],
    /// Jobs per instance, one instance per (family, size).
    sizes: (usize, usize, usize),
}

pub const POLICIES: [&str; 4] = ["edf", "llf", "edf-ff", "medium-fit"];

fn corpus(workload: &str) -> Corpus {
    match workload {
        "solve-cert" => Corpus {
            families: &[
                Family::Agreeable,
                Family::Uniform,
                Family::Loose,
                Family::Laminar,
            ],
            // 40 sizes: the tail is set by the few largest instances,
            // whose certificate cost varies with the seed; with 20 sizes
            // it moved by ~20% from one seed to the next.
            sizes: (30, 70, 40),
        },
        "schedule-large" => Corpus {
            families: &[Family::Agreeable, Family::Uniform],
            sizes: (400, 900, 10),
        },
        "online-replay" => Corpus {
            families: &[
                Family::Agreeable,
                Family::Uniform,
                Family::Laminar,
                Family::Adversary,
            ],
            sizes: (1000, 1600, 64),
        },
        other => unreachable!("not a CLI workload: {other}"),
    }
}

/// The workload's inputs: full-size ops and the same op list at a quarter
/// of the size (used only for `scale_exp`).
pub struct Spec {
    workload: &'static str,
    ops: Vec<Op>,
    quarter: Vec<Op>,
}

/// Generates the workload's instance and stream files and writes them under
/// `dir`.
pub fn setup(workload: &'static str, seed: u64, dir: &Path) -> Result<Spec, String> {
    let c = corpus(workload);
    let adversary = c
        .families
        .contains(&Family::Adversary)
        .then(inputs::adversary_block);
    let mut ops = Vec::new();
    let mut quarter = Vec::new();
    for (which, div, out) in [("full", 1, &mut ops), ("quarter", 4, &mut quarter)] {
        let sizes = inputs::spread(c.sizes.0, c.sizes.1, c.sizes.2);
        for (fi, &family) in c.families.iter().enumerate() {
            for (si, &n) in sizes.iter().enumerate() {
                // online-replay takes sixteen streams per family, at sizes
                // that rotate with the family so the streams differ in n.
                // A stream's op cost varies with its seed by up to ~20% (the
                // optimum's flow probes), so it takes many streams for a
                // run's figures to repeat across seeds.
                if workload == "online-replay" && si % c.families.len() != fi {
                    continue;
                }
                let gen_seed = seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((fi * 100 + si) as u64);
                let n = n / div;
                // Laminar forests carry ~2 event points per job, which makes
                // the certificate ~5x dearer than on the other families at
                // equal n: they run at half the size.
                let n = if workload == "solve-cert" && family == Family::Laminar {
                    n / 2
                } else {
                    n
                };
                let inst = match (&adversary, family) {
                    // Its times are rationals with deep power-of-two
                    // denominators, which make each job several times
                    // dearer: a quarter of the size keeps its ops level
                    // with the other streams'.
                    (Some(block), Family::Adversary) => inputs::tile_block(block, n / 4),
                    _ => inputs::instance(family, n, gen_seed),
                };
                let stem = format!("{which}-{}-{n}", family.label());
                if workload == "online-replay" {
                    let path = dir.join(format!("{stem}.jsonl"));
                    let mut bytes = Vec::new();
                    mm_online::write_stream(&mut bytes, &mm_online::stream_of_instance(&inst))
                        .map_err(|e| e.to_string())?;
                    write(&path, &bytes)?;
                    for member in Member::ALL {
                        out.push(op(Kind::Online(member), family, &path));
                    }
                } else {
                    let path = dir.join(format!("{stem}.json"));
                    let text = io::to_json(&inst).map_err(|e| e.to_string())?;
                    write(&path, text.as_bytes())?;
                    if workload == "solve-cert" {
                        out.push(op(Kind::Solve, family, &path));
                    } else {
                        for policy in POLICIES {
                            out.push(op(Kind::Schedule(policy), family, &path));
                        }
                    }
                }
            }
        }
    }
    // A seeded visiting order, the same for both op lists.
    let mut rng = SplitMix::new(seed);
    let order: Vec<u64> = (0..ops.len()).map(|_| rng.next_u64()).collect();
    let mut idx: Vec<usize> = (0..ops.len()).collect();
    idx.sort_by_key(|&i| order[i]);
    let ops = idx.iter().map(|&i| ops[i].clone()).collect();
    let quarter = idx.iter().map(|&i| quarter[i].clone()).collect();
    Ok(Spec {
        workload,
        ops,
        quarter,
    })
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn op(kind: Kind, family: Family, path: &Path) -> Op {
    let p = path.to_string_lossy().into_owned();
    let args: Vec<String> = match &kind {
        Kind::Solve => vec!["solve".into(), p],
        Kind::Schedule(policy) => vec!["schedule".into(), p, "--policy".into(), (*policy).into()],
        Kind::Online(member) => vec![
            "online".into(),
            "run".into(),
            "--stream".into(),
            p,
            "--member".into(),
            member.label().into(),
        ],
    };
    Op {
        kind,
        family,
        path: path.to_path_buf(),
        args,
    }
}

/// One untraced execution: the CLI's parse + execute.
fn run_cli(op: &Op) -> Result<String, String> {
    let cmd = machmin::cli::parse(&op.args).map_err(|e| e.to_string())?;
    machmin::cli::execute(cmd).map_err(|e| e.to_string())
}

/// One completed op of a closed loop.
struct Sample {
    /// Index into the op list.
    k: usize,
    /// Wall-clock seconds.
    wall: f64,
    /// CPU seconds of the process (see `stats::cpu_seconds`).
    cpu: f64,
    /// Peak resident set during the op (MB; see `reset_peak_rss`).
    rss_mb: f64,
    out: Result<String, String>,
}

/// A closed loop with one client over whole passes of `ops` for about
/// `secs` seconds.
fn closed_loop(ops: &[Op], secs: f64) -> Vec<Sample> {
    let mut samples = Vec::new();
    run_passes(secs, ops.len(), |k| {
        // Every op starts from a trimmed heap, as a fresh `machmin`
        // process would; the trim itself is not timed.
        crate::reset_peak_rss();
        let (t0, c0) = (Instant::now(), cpu_seconds());
        let out = run_cli(&ops[k]);
        let cpu = cpu_seconds() - c0;
        let wall = t0.elapsed().as_secs_f64();
        let rss_mb = crate::peak_rss_mb();
        samples.push(Sample {
            k,
            wall,
            cpu,
            rss_mb,
            out,
        });
    });
    samples
}

/// Per-op medians of one clock of the samples.
fn per_op_medians(n_ops: usize, samples: &[Sample], clock: fn(&Sample) -> f64) -> Vec<f64> {
    let mut by_op = vec![Vec::new(); n_ops];
    for s in samples {
        by_op[s.k].push(clock(s));
    }
    by_op.iter().map(|v| median(v)).collect()
}

/// The in-process reference answer of one op, from which every CLI output
/// is checked semantically.
enum Reference {
    /// `solve`: the proof-verified optimum.
    Solve { optimum: u64 },
    /// `schedule`/`online run`: lines the output must contain.
    Lines(Vec<String>),
}

struct Checked {
    reference: Result<Reference, String>,
    verify_ns: u64,
}

fn load(path: &Path) -> Result<Instance, String> {
    io::load(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_events(path: &Path) -> Result<Vec<mm_online::OnlineEvent>, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    mm_online::read_stream(std::io::BufReader::new(file)).map_err(|e| e.to_string())
}

/// The optimum of `inst`, checked, and the time `mm_opt::verify` took.
///
/// The optimum's proof is checked with `mm_opt::verify`. Where the proof
/// system cannot decide (times that are not integers, or a schedule witness
/// over `PROOF_WITNESS_CAP`), both sides are checked directly: the min-cut
/// witness at `m − 1` must carry more work than `m − 1` machines can do
/// (Theorem 1, exact arithmetic), and an `m`-machine schedule must pass
/// `mm_sim::verify`.
fn verified_optimum(inst: &Instance) -> Result<(u64, u64), String> {
    let m = mm_opt::optimal_machines(inst);
    let proof = mm_opt::proof_for_solve(inst, m);
    let (ns, v) = time_ns(|| mm_opt::verify(inst, &Claim::Optimal(m), &proof));
    match v {
        Verification::Verified => return Ok((m, ns)),
        Verification::Refuted => return Err(format!("optimum {m} refuted by its own proof")),
        Verification::Unverifiable => {}
    }
    if m > 0 {
        let below = Rat::from(m as i64 - 1);
        let set = mm_opt::FeasibilityProber::new(inst)
            .infeasible_witness(m - 1)
            .ok_or_else(|| format!("no Theorem-1 witness that {} machines are too few", m - 1))?;
        if inst.contribution(&set) <= &below * &set.length() {
            return Err(format!(
                "witness does not show {} machines are too few",
                m - 1
            ));
        }
    }
    let (_, mut schedule) = mm_opt::optimal_schedule(inst);
    let stats = mm_sim::verify(inst, &mut schedule, &VerifyOptions::migratory())
        .map_err(|e| format!("optimal schedule invalid: {e:?}"))?;
    if stats.machines_used as u64 > m {
        return Err(format!(
            "optimal schedule uses {} > {m} machines",
            stats.machines_used
        ));
    }
    Ok((m, ns))
}

/// Runs `policy` on `inst` the way `machmin schedule` and the serve
/// `schedule` request do (one machine per job available), with the
/// verification options that match the policy.
pub fn simulate(inst: &Instance, policy: &str) -> (Result<SimOutcome, String>, VerifyOptions) {
    let budget = inst.len().max(1);
    let (out, opts) = match policy {
        "edf" => (
            run_policy(inst, Edf, SimConfig::migratory(budget)),
            VerifyOptions::migratory(),
        ),
        "llf" => (
            run_policy(inst, Llf::new(), SimConfig::migratory(budget)),
            VerifyOptions::migratory(),
        ),
        "edf-ff" => (
            run_policy(inst, EdfFirstFit::new(), SimConfig::nonmigratory(budget)),
            VerifyOptions::nonmigratory(),
        ),
        "medium-fit" => (
            run_policy(inst, MediumFit::new(), SimConfig::nonmigratory(budget)),
            VerifyOptions::nonpreemptive(),
        ),
        other => unreachable!("policy list holds {other}"),
    };
    (out.map_err(|e| e.to_string()), opts)
}

fn reference(op: &Op, optima: &mut HashMap<PathBuf, Result<(u64, u64), String>>) -> Checked {
    let mut verify_ns = 0;
    let reference = (|| match &op.kind {
        Kind::Solve => {
            let inst = load(&op.path)?;
            let (optimum, ns) = optima
                .entry(op.path.clone())
                .or_insert_with(|| verified_optimum(&inst))
                .clone()?;
            verify_ns = ns;
            Ok(Reference::Solve { optimum })
        }
        Kind::Schedule(policy) => {
            let inst = load(&op.path)?;
            let (m, ns) = optima
                .entry(op.path.clone())
                .or_insert_with(|| verified_optimum(&inst))
                .clone()?;
            verify_ns = ns;
            let (outcome, opts) = simulate(&inst, policy);
            let mut outcome = outcome?;
            if !outcome.feasible() {
                return Err(format!(
                    "{policy} missed deadlines with one machine per job"
                ));
            }
            let stats = mm_sim::verify(&outcome.instance, &mut outcome.schedule, &opts)
                .map_err(|e| format!("{policy} schedule failed verification: {e:?}"))?;
            Ok(Reference::Lines(vec![
                format!(
                    "policy: {policy}, budget: {}, optimum m: {m}",
                    inst.len().max(1)
                ),
                format!(
                    "feasible: yes | machines used: {} | migrations: {} | preemptions: {}",
                    stats.machines_used, stats.migrations, stats.preemptions
                ),
            ]))
        }
        Kind::Online(member) => {
            let events = read_events(&op.path)?;
            let inst = mm_online::instance_of_stream(&events);
            let (m, ns) = optima
                .entry(op.path.clone())
                .or_insert_with(|| verified_optimum(&inst))
                .clone()?;
            verify_ns = ns;
            let row = mm_online::run_member(*member, "file", &events, m, &mut mm_trace::NoopSink)
                .map_err(|e| e.to_string())?;
            let own_class = (*member == Member::Agreeable && op.family == Family::Agreeable)
                || (*member == Member::Laminar && op.family == Family::Laminar);
            if own_class && row.misses > 0 {
                return Err(format!(
                    "{} missed {} deadline(s) on its own class",
                    member.label(),
                    row.misses
                ));
            }
            if *member == Member::Agreeable
                && op.family == Family::Agreeable
                && row.ratio_millis > 32_700
            {
                return Err(format!(
                    "agreeable ratio {} millis exceeds 32.70·m",
                    row.ratio_millis
                ));
            }
            Ok(Reference::Lines(vec![format!(
                "machines opened {} vs offline optimum {} -> ratio {}.{:03}, {} miss(es)",
                row.machines_opened,
                m,
                row.ratio_millis / 1000,
                row.ratio_millis % 1000,
                row.misses
            )]))
        }
    })();
    Checked {
        reference,
        verify_ns,
    }
}

/// Checks one CLI output against its op's reference.
fn check(out: &str, reference: &Reference) -> Result<(), String> {
    match reference {
        Reference::Solve { optimum } => {
            let want = format!("migratory optimum m(J): {optimum}\n");
            if !out.contains(&want) {
                return Err(format!("optimum differs from {optimum}: {out}"));
            }
            let bound = out
                .lines()
                .find_map(|l| l.strip_prefix("Theorem 1 certificate: "))
                .and_then(|l| l.split(" = ").nth(1))
                .and_then(|l| l.split(' ').next())
                .and_then(|b| b.parse::<u64>().ok())
                .ok_or_else(|| format!("no certificate bound in: {out}"))?;
            if bound > *optimum {
                return Err(format!(
                    "certificate bound {bound} exceeds optimum {optimum}"
                ));
            }
            Ok(())
        }
        Reference::Lines(lines) => match lines.iter().find(|l| !out.contains(l.as_str())) {
            Some(missing) => Err(format!("output lacks `{missing}`: {out}")),
            None => Ok(()),
        },
    }
}

/// Loads an instance file the way the CLI's `load` does. The JSON parse
/// inside `io::from_json` is attributed to mm-json after the op.
fn traced_load(t: &mut Tracer, text_path: &Path) -> Result<Instance, String> {
    let text = std::fs::read_to_string(text_path).map_err(|e| e.to_string())?;
    let inst = t.span("mm-instance.build", || {
        io::from_json(&text).map_err(|e| e.to_string())
    })?;
    let report = t.span("mm-instance.validate", || inst.validate());
    if !report.is_ok() {
        return Err(format!("invalid instance: {report}"));
    }
    Ok(inst)
}

/// The traced mirror of `cli::execute` for one op. Returns the op's
/// instance (for the out-of-op classifier timing).
fn traced(t: &mut Tracer, op: &Op, counts: &mut Counts) -> Result<(String, Instance), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match &op.kind {
        Kind::Solve | Kind::Schedule(_) => {
            let mut probe_counter = ProbeCounter::default();
            let res = t.op(|t| -> Result<Instance, String> {
                let _cmd = machmin::cli::parse(&op.args).map_err(|e| e.to_string())?;
                let inst = traced_load(t, &op.path)?;
                let _ = writeln!(out, "jobs: {}", inst.len());
                let m = t.span("mm-opt.optimum", || {
                    mm_opt::optimal_machines_traced(&inst, &mut probe_counter)
                });
                match &op.kind {
                    Kind::Solve => {
                        let _ = writeln!(out, "migratory optimum m(J): {m}");
                        let cert =
                            t.span("mm-opt.certificate", || mm_opt::contribution_bound(&inst));
                        let _ = writeln!(
                            out,
                            "Theorem 1 certificate: ⌈{}⌉ = {} on witness {}",
                            cert.density, cert.bound, cert.witness
                        );
                    }
                    Kind::Schedule(policy) => {
                        let budget = inst.len().max(1);
                        let (outcome, opts) = t.span("mm-sim.run", || simulate(&inst, policy));
                        let mut outcome = outcome?;
                        counts.jobs_simulated += inst.len() as u64;
                        let _ = writeln!(out, "policy: {policy}, budget: {budget}, optimum m: {m}");
                        let stats = t
                            .span("mm-sim.verify", || {
                                mm_sim::verify(&outcome.instance, &mut outcome.schedule, &opts)
                            })
                            .map_err(|e| format!("schedule failed verification: {e:?}"))?;
                        counts.machines_opened += stats.machines_used as u64;
                        let _ = writeln!(
                            out,
                            "feasible: yes | machines used: {} | migrations: {} | preemptions: {}",
                            stats.machines_used, stats.migrations, stats.preemptions
                        );
                        let gantt = t.span("mm-sim.render", || {
                            outcome.schedule.compact_machines();
                            mm_sim::render_gantt(&mut outcome.schedule, 72)
                        });
                        out.push_str(&gantt);
                    }
                    Kind::Online(_) => unreachable!(),
                }
                Ok(inst)
            });
            probe_counter.add_to(counts);
            // The parse that io::from_json ran, timed on the same text.
            let text = std::fs::read_to_string(&op.path).map_err(|e| e.to_string())?;
            let (parse_ns, _) = time_ns(|| mm_json::parse(&text).map(|_| ()));
            t.derived("mm-instance.build", "mm-json.parse", parse_ns);
            counts.parse_bytes += text.len() as u64;
            Ok((out, res?))
        }
        Kind::Online(member) => {
            let res = t.op(|t| -> Result<Instance, String> {
                let _cmd = machmin::cli::parse(&op.args).map_err(|e| e.to_string())?;
                let events = t.span("mm-online.read_stream", || read_events(&op.path))?;
                let inst = t.span("mm-online.instance", || {
                    mm_online::instance_of_stream(&events)
                });
                // The body of mm_opt::optimal_machines_fast, kept open so
                // the dispatch counters stay readable.
                let (optimum, dispatch) = t.span("mm-opt.optimum", || {
                    let mut prober = mm_opt::FastProber::new(&inst);
                    (prober.optimal_machines(), prober.dispatch())
                });
                counts.probes += dispatch.total();
                counts.certified += dispatch.certified();
                counts.flow_probes += dispatch.flow;
                counts.rescued += dispatch.rescued;
                let row = t
                    .span("mm-online.replay", || {
                        mm_online::run_member(
                            *member,
                            "file",
                            &events,
                            optimum,
                            &mut mm_trace::NoopSink,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                counts.machines_opened += row.machines_opened;
                counts.ratio_millis_sum += row.ratio_millis;
                counts.releases += events.len() as u64;
                let _ = writeln!(
                    out,
                    "machines opened {} vs offline optimum {} -> ratio {}.{:03}, {} miss(es)",
                    row.machines_opened,
                    row.optimum,
                    row.ratio_millis / 1000,
                    row.ratio_millis % 1000,
                    row.misses
                );
                Ok(inst)
            });
            // The per-line parses read_stream ran, timed on the same lines.
            let text = std::fs::read_to_string(&op.path).map_err(|e| e.to_string())?;
            let (parse_ns, _) = time_ns(|| {
                text.lines()
                    .filter(|l| !l.trim().is_empty())
                    .all(|l| mm_json::parse(l.trim()).is_ok())
            });
            t.derived("mm-online.read_stream", "mm-json.parse", parse_ns);
            counts.parse_bytes += text.len() as u64;
            Ok((out, res?))
        }
    }
}

/// Runs one CLI workload.
pub fn run(ctx: &Ctx, spec: &Spec) -> Report {
    let mut report = Report::default();
    let w = spec.workload;
    let secs = ctx.seconds;
    let (main_secs, quarter_secs) = if ctx.trace {
        (0.4 * secs, 0.0)
    } else {
        (0.75 * secs, 0.25 * secs)
    };
    let main = closed_loop(&spec.ops, main_secs);
    let quarter = if ctx.trace {
        Vec::new()
    } else {
        closed_loop(&spec.quarter, quarter_secs)
    };

    // Traced run: the layer mirror over the same op list.
    let mut tracer = Tracer::new();
    let mut pass_counts: Vec<Counts> = Vec::new();
    let mut classify_ns: Vec<u64> = Vec::new();
    let mut traced_outputs: Vec<(usize, Result<String, String>)> = Vec::new();
    if ctx.trace {
        let mut counts = Counts::default();
        run_passes(0.6 * secs, spec.ops.len(), |k| {
            // From a trimmed heap, as the untraced ops start.
            crate::reset_peak_rss();
            match traced(&mut tracer, &spec.ops[k], &mut counts) {
                Ok((out, inst)) => {
                    classify_ns.push(time_ns(|| inst.classify()).0);
                    traced_outputs.push((k, Ok(out)));
                }
                Err(e) => traced_outputs.push((k, Err(e))),
            }
            if k + 1 == spec.ops.len() {
                pass_counts.push(std::mem::take(&mut counts));
            }
        });
    }

    // Output checks, outside every timed region.
    let mut optima = HashMap::new();
    let refs: Vec<Checked> = spec.ops.iter().map(|o| reference(o, &mut optima)).collect();
    let qrefs: Vec<Checked> = spec
        .quarter
        .iter()
        .map(|o| reference(o, &mut optima))
        .collect();
    let verify_ns: Vec<u64> = refs.iter().chain(&qrefs).map(|c| c.verify_ns).collect();
    let mut check_all =
        |ops: &[Op],
         refs: &[Checked],
         outputs: &mut dyn Iterator<Item = (usize, &Result<String, String>)>| {
            for (k, out) in outputs {
                report.attempted += 1;
                let verdict = match (&refs[k].reference, out) {
                    (Err(e), _) => Err(format!("reference for {:?}: {e}", ops[k].args)),
                    (_, Err(e)) => Err(format!("{:?} failed: {e}", ops[k].args)),
                    (Ok(r), Ok(out)) => check(out, r),
                };
                if let Err(e) = verdict {
                    report.fail(&e);
                }
            }
        };
    check_all(&spec.ops, &refs, &mut main.iter().map(|s| (s.k, &s.out)));
    check_all(
        &spec.quarter,
        &qrefs,
        &mut quarter.iter().map(|s| (s.k, &s.out)),
    );
    check_all(
        &spec.ops,
        &refs,
        &mut traced_outputs.iter().map(|(k, o)| (*k, o)),
    );
    if let Some(first) = pass_counts.first() {
        if let Some(bad) = pass_counts.iter().find(|c| *c != first) {
            report.fail(&format!(
                "work counts differ between passes over the same ops: {first:?} vs {bad:?}"
            ));
        }
    }

    // End-to-end times are CPU times: the CLI paths run on one thread, and
    // CPU time leaves out the stretches in which the shared host hands the
    // cores to other tenants (steal time).
    let times_ms: Vec<f64> = main.iter().map(|s| s.cpu * 1e3).collect();
    if !ctx.trace {
        let full = per_op_medians(spec.ops.len(), &main, |s| s.cpu);
        let small = per_op_medians(spec.quarter.len(), &quarter, |s| s.cpu);
        let wall = per_op_medians(spec.ops.len(), &main, |s| s.wall);
        let passes: Vec<String> = main
            .chunks(spec.ops.len())
            .map(|p| format!("{:.0}", p.iter().map(|s| s.cpu).sum::<f64>() * 1e3))
            .collect();
        eprintln!("{w}: CPU ms per pass: {}", passes.join(" "));
        eprintln!(
            "{w}: mean over ops of the median op time: {:.3} ms CPU, {:.3} ms wall",
            mean(&full) * 1e3,
            mean(&wall) * 1e3
        );
        // Completions per second of one client, from per-op medians, so that
        // a stall of the shared host does not set the figure.
        let ops_per_s = 1.0 / mean(&full);
        for (o, (f, q)) in spec.ops.iter().zip(full.iter().zip(&small)) {
            let file = o
                .path
                .file_name()
                .map(|f| f.to_string_lossy())
                .unwrap_or_default();
            let what = o
                .args
                .last()
                .filter(|_| o.args.len() > 2)
                .cloned()
                .unwrap_or_default();
            eprintln!(
                "  {file:<28} {what:<11} {:>10.2} ms  quarter {:>9.2} ms",
                f * 1e3,
                q * 1e3
            );
        }
        let scale_exp = crate::stats::scale_exp(&full, &small);
        // Each op's own peak: one CLI invocation's memory. A peak over the
        // whole run would be set by its one hungriest op, which some seeds
        // draw and others do not.
        let rss_mb = mean(&main.iter().map(|s| s.rss_mb).collect::<Vec<_>>());
        let slo_ms = crate::slo_ms(w);
        // A failed op misses the limit too.
        let over = main
            .iter()
            .filter(|s| s.cpu * 1e3 > slo_ms || s.out.is_err())
            .count() as u64;
        report.end_to_end(
            ctx,
            &times_ms,
            ops_per_s,
            over,
            main.len() as u64,
            scale_exp,
            rss_mb,
        );
        return report;
    }

    // Per-layer metrics.
    // Spans are wall-clock, so the traced run is set against wall time.
    let untraced = per_op_medians(spec.ops.len(), &main, |s| s.wall);
    let pass = pass_counts.first().cloned().unwrap_or_default();
    let m = &mut report.metrics;
    let totals = layers::put(
        m,
        &Traced {
            tracer: &tracer,
            pass: &pass,
            ops_per_pass: spec.ops.len(),
            classify_ns: &classify_ns,
            verify_ns: &verify_ns,
        },
    );
    crate::serve::zero_serve_metrics(m);
    layers::put_bench(
        m,
        &totals,
        traced_outputs.iter().map(|(k, _)| untraced[*k] * 1e9),
    );
    report.counts = Some(pass.fields());
    report.spans = Some(tracer.to_jsonl());
    report
}
