//! The `serve-mixed` workload: one client connection against an in-process
//! `mm_serve::Service` on loopback TCP.
//!
//! Phase 1 is an open loop at a fixed rate (latency is timed from each
//! request's due time); phase 2 is a closed loop keeping `nproc` requests
//! outstanding (throughput); phase 3 repeats phase 2 with quarter-size
//! requests (scaling).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mm_json::Json;
use mm_online::Member;
use mm_opt::{Claim, Proof, Verification};
use mm_serve::{exec, DynSink, Request, RequestKind, Response, ServeConfig, Service};
use mm_trace::NoopSink;

use crate::cli_paths::POLICIES;
use crate::inputs::{self, Family};
use crate::layers::{self, time_ns, Counts, ProbeCounter, Traced};
use crate::stats::{beyond, cpu_seconds, median, quantile, run_passes, SplitMix};
use crate::trace::Tracer;
use crate::{Ctx, Metrics, Report};

/// Requests in the pool; sends cycle through it.
const POOL: usize = 192;
/// Jobs per request, spread evenly over this range.
const JOBS: (usize, usize) = (20, 400);
/// Open-loop send rate (requests per second): about half the capacity of
/// one pipelined connection, the open loop's own, measured on 2 cores
/// (~150 req/s; replies on one connection wait on Nagle's algorithm).
pub const OPEN_RATE: f64 = 75.0;
/// A request sent more than this after its due time counts as late. On a
/// 2-vCPU guest a sleeping generator thread wakes up to ~10 ms late while
/// both workers run.
const LATE_MS: f64 = 10.0;
/// The run is invalid when more than this share of sends ran late.
const LATE_SHARE: f64 = 0.05;
pub const KINDS: [&str; 4] = ["solve", "probe", "schedule", "online"];

/// One pool entry: the request (id 0) and its wire line minus the id.
#[derive(Clone)]
struct Entry {
    req: Request,
    /// The line after `{"id":0,`.
    tail: String,
}

impl Entry {
    fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.tail)
    }
}

pub struct Spec {
    seed: u64,
    pool: Vec<Entry>,
    quarter: Vec<Entry>,
}

/// Builds the request pools (no files: requests travel on the wire).
///
/// The pool is stratified so that every seed sends the same mix: each kind
/// gets the same spread of sizes, and policies, members and probe machine
/// counts rotate over the kind's entries. The seed picks the jobs and the
/// sending order.
pub fn setup(seed: u64) -> Spec {
    let per_kind = POOL / KINDS.len();
    let sizes = inputs::spread(JOBS.0, JOBS.1, per_kind);
    let mut rng = SplitMix::new(seed ^ 0x5e4e);
    let mut order: Vec<(u64, usize)> = (0..POOL).map(|i| (rng.next_u64(), i)).collect();
    order.sort();
    let mut pool = Vec::new();
    let mut quarter = Vec::new();
    for &(_, i) in &order {
        let (kind, j) = (KINDS[i % KINDS.len()], i / KINDS.len());
        let family = if j % 2 == 0 {
            Family::Agreeable
        } else {
            Family::Uniform
        };
        let gen_seed = seed.wrapping_mul(7_919).wrapping_add(i as u64);
        for (div, out) in [(1, &mut pool), (4, &mut quarter)] {
            let inst = inputs::instance(family, sizes[j] / div, gen_seed);
            let jobs = inputs::int_triples(&inst).expect("integer families");
            let kind = match kind {
                "solve" => RequestKind::Solve { jobs },
                "probe" => {
                    let volume: i64 = jobs.iter().map(|j| j.2).sum();
                    let span = jobs.iter().map(|j| j.1).max().unwrap_or(1)
                        - jobs.iter().map(|j| j.0).min().unwrap_or(0);
                    let lb = (volume + span - 1) / span.max(1);
                    let machines = [lb, lb + 1, lb + 2, 2 * lb][j % 4].max(1);
                    RequestKind::Probe {
                        jobs,
                        machines: machines as u64,
                    }
                }
                "schedule" => RequestKind::Schedule {
                    jobs,
                    policy: POLICIES[j % POLICIES.len()].into(),
                    machines: None,
                },
                _ => RequestKind::Online {
                    jobs,
                    member: Member::ALL[j % Member::ALL.len()].label().into(),
                },
            };
            let mut req = Request::new(0, kind);
            // Half of the solves ask for a proof.
            req.want_proof = matches!(req.kind, RequestKind::Solve { .. }) && j % 2 == 1;
            let line = req.to_line();
            let tail = line
                .strip_prefix("{\"id\":0,")
                .expect("request lines start with the id")
                .to_owned();
            out.push(Entry { req, tail });
        }
    }
    Spec {
        seed,
        pool,
        quarter,
    }
}

/// One request on the wire.
struct Sent {
    id: u64,
    entry: usize,
    due: Instant,
    sent: Instant,
}

/// A phase's sends and the response lines with their arrival times.
struct Phase {
    sends: Vec<Sent>,
    replies: Vec<(Instant, String)>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_owned())
    }
}

/// Open loop: exponential gaps (mean `1/rate`) for `secs` seconds, as
/// independent users would send. Every seed uses the same set of gaps, the
/// quantiles of the exponential distribution, in a seeded order, so seeds
/// differ in burst order but not in burstiness.
fn open_loop(conn: &mut Conn, pool: &[Entry], rate: f64, secs: f64, base: u64, seed: u64) -> Phase {
    let total = (rate * secs).floor() as usize;
    let mut rng = SplitMix::new(seed ^ 0x0a11_0c8e);
    let mut gaps: Vec<(u64, f64)> = (0..total)
        .map(|k| {
            let q = (k as f64 + 0.5) / total as f64;
            (rng.next_u64(), -(1.0 - q).ln() / rate)
        })
        .collect();
    gaps.sort_by_key(|g| g.0);
    let offsets: Vec<f64> = gaps
        .iter()
        .scan(0.0, |at, g| {
            *at += g.1;
            Some(*at)
        })
        .collect();
    let expected = Arc::new(AtomicUsize::new(usize::MAX));
    let mut reader = conn.reader.get_ref().try_clone().map(BufReader::new);
    let (sends, replies) = std::thread::scope(|s| {
        let expected_r = Arc::clone(&expected);
        let reader = s.spawn(move || {
            let mut replies = Vec::new();
            let Ok(reader) = reader.as_mut() else {
                return replies;
            };
            let mut line = String::new();
            while replies.len() < expected_r.load(Ordering::SeqCst) {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => replies.push((Instant::now(), line.trim_end().to_owned())),
                }
                // Keep delayed ACKs on, as a client settles into under
                // steady traffic. Linux otherwise flips between quick and
                // delayed ACKs from run to run, and since the server leaves
                // Nagle on, that flip moves every reply's release time.
                let _ = reader.get_ref().set_quickack(false);
            }
            replies
        });
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut sends = Vec::with_capacity(total);
        for (i, offset) in offsets.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(*offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let entry = i % pool.len();
            let sent = Instant::now();
            if conn.send(&pool[entry].line(base + i as u64)).is_err() {
                break;
            }
            sends.push(Sent {
                id: base + i as u64,
                entry,
                due,
                sent,
            });
        }
        // One inline-answered `join` so the reader wakes up after the last
        // worker reply even if every reply already arrived.
        expected.store(sends.len() + 1, Ordering::SeqCst);
        let _ = conn.send(&format!(
            "{{\"id\":{},\"kind\":\"join\"}}",
            base + total as u64
        ));
        (sends, reader.join().expect("reader thread"))
    });
    Phase { sends, replies }
}

/// Closed loop: `clients` connections, each with one request outstanding,
/// for `secs` seconds (at least one pass over the pool). Request `k` of
/// client `c` is send number `k·clients + c`.
fn closed_loop(addr: &str, pool: &[Entry], clients: usize, secs: f64, base: u64) -> Phase {
    let start = Instant::now();
    let per_client: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut phase = Phase {
                        sends: Vec::new(),
                        replies: Vec::new(),
                    };
                    let Ok(mut conn) = Conn::connect(addr) else {
                        return phase;
                    };
                    let mut k = 0usize;
                    loop {
                        let n = k * clients + c;
                        if start.elapsed().as_secs_f64() >= secs && n >= pool.len() {
                            break;
                        }
                        let entry = n % pool.len();
                        let id = base + n as u64;
                        let sent = Instant::now();
                        if conn.send(&pool[entry].line(id)).is_err() {
                            break;
                        }
                        phase.sends.push(Sent {
                            id,
                            entry,
                            due: sent,
                            sent,
                        });
                        let Ok(line) = conn.recv() else { break };
                        phase.replies.push((Instant::now(), line));
                        k += 1;
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Phase {
        sends: Vec::new(),
        replies: Vec::new(),
    };
    for p in per_client {
        all.sends.extend(p.sends);
        all.replies.extend(p.replies);
    }
    all
}

/// In-process reference answers, one per pool entry.
struct Reference {
    fields: Result<BTreeMap<String, Json>, String>,
}

fn reference(req: &Request) -> Reference {
    let inst = req.instance().expect("pool requests carry jobs");
    let fields = (|| -> Result<BTreeMap<String, Json>, String> {
        let mut f = BTreeMap::new();
        match &req.kind {
            RequestKind::Solve { .. } => {
                f.insert(
                    "machines".into(),
                    Json::Int(mm_opt::optimal_machines(&inst) as i64),
                );
            }
            RequestKind::Probe { machines, .. } => {
                f.insert(
                    "feasible".into(),
                    Json::Bool(mm_opt::feasible_on(&inst, *machines)),
                );
            }
            RequestKind::Schedule { policy, .. } => {
                let (out, opts) = crate::cli_paths::simulate(&inst, policy);
                let mut out = out?;
                if out.feasible() {
                    mm_sim::verify(&out.instance, &mut out.schedule, &opts)
                        .map_err(|e| format!("reference schedule invalid: {e:?}"))?;
                }
                f.insert("feasible".into(), Json::Bool(out.feasible()));
                f.insert(
                    "machines_used".into(),
                    Json::Int(out.machines_used() as i64),
                );
                f.insert("misses".into(), Json::Int(out.misses.len() as i64));
            }
            RequestKind::Online { member, .. } => {
                let member = Member::parse(member).expect("pool members are valid");
                let m = mm_opt::optimal_machines(&inst);
                let events = mm_online::stream_of_instance(&inst);
                let row = mm_online::run_member(member, "serve", &events, m, &mut NoopSink)
                    .map_err(|e| e.to_string())?;
                f.insert("member".into(), Json::str(member.label()));
                f.insert(
                    "machines_opened".into(),
                    Json::Int(row.machines_opened as i64),
                );
                f.insert("optimum".into(), Json::Int(m as i64));
                f.insert("ratio_millis".into(), Json::Int(row.ratio_millis as i64));
                f.insert("misses".into(), Json::Int(row.misses as i64));
            }
            _ => unreachable!("pool holds solve/probe/schedule/online"),
        }
        Ok(f)
    })();
    Reference { fields }
}

/// Outcome of one send, checked against its reference.
enum Verdict {
    Ok,
    /// Shed, refused, degraded or missing: a failure, not a wrong answer.
    Failed(String),
    /// An `ok` answer that disagrees with the reference or whose proof
    /// does not verify.
    Wrong(String),
}

fn judge(
    req: &Request,
    reference: &Reference,
    reply: Option<&Response>,
    verify_ns: &mut Vec<u64>,
) -> Verdict {
    let Some(reply) = reply else {
        return Verdict::Failed("no response".into());
    };
    let Response::Ok { fields, .. } = reply else {
        return Verdict::Failed(format!("status {}", reply.status()));
    };
    let want = match &reference.fields {
        Ok(w) => w,
        Err(e) => return Verdict::Wrong(format!("reference failed: {e}")),
    };
    let got: BTreeMap<&str, &Json> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
    for (k, v) in want {
        if got.get(k.as_str()) != Some(&v) {
            return Verdict::Wrong(format!(
                "{} field `{k}`: got {:?}, want {v:?}",
                req.kind.tag(),
                got.get(k.as_str())
            ));
        }
    }
    if req.want_proof {
        let Some(proof) = got.get("proof") else {
            return Verdict::Wrong("want_proof answer carries no proof".into());
        };
        let m = want["machines"].as_i64().expect("solve reference") as u64;
        let inst = req.instance().expect("solve carries jobs");
        let proof = match Proof::from_json(proof) {
            Ok(p) => p,
            Err(e) => return Verdict::Wrong(format!("unreadable proof: {e}")),
        };
        let t0 = Instant::now();
        let v = mm_opt::verify(&inst, &Claim::Optimal(m), &proof);
        verify_ns.push(t0.elapsed().as_nanos() as u64);
        if v != Verification::Verified {
            return Verdict::Wrong(format!("proof {}", v.tag()));
        }
    }
    Verdict::Ok
}

/// Per-phase tallies and latency samples.
struct Tally {
    sent: usize,
    ok: usize,
    failed: usize,
    /// Per successful send: (entry, due→reply ms, sent→reply ms).
    lat: Vec<(usize, f64, f64)>,
}

fn tally(
    name: &str,
    phase: &Phase,
    pool: &[Entry],
    refs: &[Reference],
    report: &mut Report,
    verify_ns: &mut Vec<u64>,
) -> Tally {
    let mut by_id: BTreeMap<u64, (Instant, Response)> = BTreeMap::new();
    for (at, line) in &phase.replies {
        match Response::parse(line) {
            Ok(r) => {
                by_id.insert(r.id(), (*at, r));
            }
            Err(e) => report.fail(&format!("{name}: unreadable reply: {e}")),
        }
    }
    let mut t = Tally {
        sent: phase.sends.len(),
        ok: 0,
        failed: 0,
        lat: Vec::new(),
    };
    for s in &phase.sends {
        let reply = by_id.get(&s.id);
        report.attempted += 1;
        match judge(
            &pool[s.entry].req,
            &refs[s.entry],
            reply.map(|r| &r.1),
            verify_ns,
        ) {
            Verdict::Ok => {
                t.ok += 1;
                let at = reply.expect("an ok verdict has a reply").0;
                t.lat.push((
                    s.entry,
                    (at - s.due).as_secs_f64() * 1e3,
                    (at - s.sent).as_secs_f64() * 1e3,
                ));
            }
            Verdict::Failed(why) => {
                t.failed += 1;
                report.failed += 1;
                if t.failed == 1 {
                    eprintln!("{name}: request failed: {why}");
                }
            }
            Verdict::Wrong(why) => {
                t.failed += 1;
                report.fail(&format!("{name}: wrong answer: {why}"));
            }
        }
    }
    eprintln!(
        "serve-mixed {name}: sent {}, succeeded {}, failed {}",
        t.sent, t.ok, t.failed
    );
    t
}

/// Runs `serve-mixed`.
pub fn run(ctx: &Ctx, spec: &Spec) -> Report {
    let mut report = Report::default();
    let workers = crate::nproc();
    let service = match Service::start(
        ServeConfig {
            workers,
            ..Default::default()
        },
        DynSink::new(Box::new(NoopSink)),
    ) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            report.fail(&format!("service failed to start: {e}"));
            return report;
        }
    };
    let (listener, addr) = match mm_serve::tcp::bind("127.0.0.1:0") {
        Ok(x) => x,
        Err(e) => {
            report.fail(&format!("bind failed: {e}"));
            return report;
        }
    };
    let acceptor = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || mm_serve::tcp::serve(listener, service))
    };
    let secs = ctx.seconds;
    let open_secs = if ctx.trace { 0.5 * secs } else { 0.6 * secs };
    // Each phase numbers its requests from its own base.
    let (open_base, closed_base, quarter_base) = (1, 1 << 32, 2 << 32);
    let open = match Conn::connect(&addr) {
        Ok(mut conn) => open_loop(
            &mut conn, &spec.pool, OPEN_RATE, open_secs, open_base, spec.seed,
        ),
        Err(e) => {
            report.fail(&format!("connect failed: {e}"));
            return report;
        }
    };
    let (closed, quarter) = if ctx.trace {
        (None, None)
    } else {
        // The closed phases are costed in CPU time of the whole process,
        // server and client: a round trip passes four thread hand-offs,
        // each of which a shared host delays by milliseconds at random,
        // while the CPU a request costs does not change with the host.
        let c0 = cpu_seconds();
        let c = closed_loop(&addr, &spec.pool, workers, 0.25 * secs, closed_base);
        let c1 = cpu_seconds();
        let q = closed_loop(&addr, &spec.quarter, workers, 0.15 * secs, quarter_base);
        let c2 = cpu_seconds();
        (Some((c, c1 - c0)), Some((q, c2 - c1)))
    };
    let rss_mb = crate::peak_rss_mb();
    let shed = service.stats().shed;
    service.shutdown();
    service.wait_stopped();
    let _ = acceptor.join();

    // Checks, outside every timed region.
    let refs: Vec<Reference> = spec.pool.iter().map(|e| reference(&e.req)).collect();
    let mut verify_ns = Vec::new();
    let open_t = tally(
        "open-loop",
        &open,
        &spec.pool,
        &refs,
        &mut report,
        &mut verify_ns,
    );
    let late = open
        .sends
        .iter()
        .filter(|s| (s.sent - s.due).as_secs_f64() * 1e3 > LATE_MS)
        .count();
    let lag_ms: Vec<f64> = open
        .sends
        .iter()
        .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
        .collect();
    if late as f64 > LATE_SHARE * open.sends.len() as f64 {
        report.fail(&format!(
            "invalid run: generator sent {late} of {} requests more than {LATE_MS} ms late",
            open.sends.len()
        ));
    }
    let tail_q = crate::tail_quantile("serve-mixed");
    let due_ms: Vec<f64> = open_t.lat.iter().map(|l| l.1).collect();
    if beyond(due_ms.len(), tail_q) < 10 {
        eprintln!("serve-mixed: fewer than 10 samples beyond the tail percentile");
    }

    if !ctx.trace {
        let (closed, closed_cpu) = closed.expect("untraced run has a closed phase");
        let (quarter, quarter_cpu) = quarter.expect("untraced run has a quarter phase");
        let closed_t = tally(
            "closed-loop",
            &closed,
            &spec.pool,
            &refs,
            &mut report,
            &mut verify_ns,
        );
        let qrefs: Vec<Reference> = spec.quarter.iter().map(|e| reference(&e.req)).collect();
        let quarter_t = tally(
            "quarter",
            &quarter,
            &spec.quarter,
            &qrefs,
            &mut report,
            &mut verify_ns,
        );
        // CPU seconds per completed request at both sizes; `workers` cores
        // complete `workers` / that many requests per second.
        let per_req = closed_cpu / closed_t.ok.max(1) as f64;
        let per_req_quarter = quarter_cpu / quarter_t.ok.max(1) as f64;
        eprintln!(
            "serve-mixed: CPU per request {:.3} ms, at a quarter of the size {:.3} ms",
            per_req * 1e3,
            per_req_quarter * 1e3
        );
        let ops_per_s = workers as f64 / per_req;
        let scale_exp = (per_req / per_req_quarter).ln() / 4f64.ln();
        let slo = crate::slo_ms("serve-mixed");
        let over = open_t.lat.iter().filter(|l| l.1 > slo).count() as u64;
        report.end_to_end(
            ctx,
            &due_ms,
            ops_per_s,
            over + open_t.failed as u64,
            open_t.sent as u64,
            scale_exp,
            rss_mb,
        );
        return report;
    }

    // Per-layer metrics: per-kind round trips and wait from the open loop,
    // layer split from in-process calls of the same request lines.
    let kind_of = |e: usize| spec.pool[e].req.kind.tag();
    let real = time_real(&spec.pool, 0.2 * secs);
    let mut tracer = Tracer::new();
    let mut classify_ns = Vec::new();
    let pass = traced_passes(
        &mut tracer,
        &spec.pool,
        0.3 * secs,
        &mut classify_ns,
        &mut report,
    );
    let real_sum: Vec<f64> = real.iter().map(|r| r.0 + r.1 + r.2).collect();
    let wait: Vec<f64> = open_t
        .lat
        .iter()
        .map(|(e, _, rtt)| rtt - real_sum[*e] * 1e3)
        .collect();
    let m = &mut report.metrics;
    let totals = layers::put(
        m,
        &Traced {
            tracer: &tracer,
            pass: &pass,
            ops_per_pass: spec.pool.len(),
            classify_ns: &classify_ns,
            verify_ns: &verify_ns,
        },
    );
    let med = |f: fn(&(f64, f64, f64)) -> f64| median(&real.iter().map(f).collect::<Vec<_>>());
    m.put("mm-serve.decode_us", med(|r| r.0 * 1e6), "us");
    m.put("mm-serve.exec_p50_ms", med(|r| r.1 * 1e3), "ms");
    m.put("mm-serve.encode_us", med(|r| r.2 * 1e6), "us");
    m.put("mm-serve.wait_p50_ms", median(&wait), "ms");
    m.put("mm-serve.wait_tail_ms", quantile(&wait, tail_q), "ms");
    m.put("mm-serve.shed", shed as f64, "count");
    m.put("mm-serve.gen_lag_ms", quantile(&lag_ms, tail_q), "ms");
    for kind in KINDS {
        let lat: Vec<f64> = open_t
            .lat
            .iter()
            .filter(|l| kind_of(l.0) == kind)
            .map(|l| l.1)
            .collect();
        m.put_owned(format!("mm-serve.lat_p50_ms.{kind}"), median(&lat), "ms");
        m.put_owned(
            format!("mm-serve.lat_tail_ms.{kind}"),
            quantile(&lat, tail_with_10_beyond(lat.len())),
            "ms",
        );
    }
    // The untraced in-process cost of the same request is each traced
    // op's reference for coverage and overhead.
    let untraced = (0..).map(|i| real_sum[i % spec.pool.len()] * 1e9);
    layers::put_bench(m, &totals, untraced);
    report.counts = Some(pass.fields());
    report.spans = Some(tracer.to_jsonl());
    report
}

/// The highest whole percentile with at least 10 of `n` samples beyond it
/// (the median when there are too few samples).
fn tail_with_10_beyond(n: usize) -> f64 {
    ((100.0 * (1.0 - 10.0 / n.max(1) as f64)).floor() / 100.0).max(0.5)
}

/// Untraced in-process decode/execute/encode seconds per pool entry
/// (medians over repeats).
fn time_real(pool: &[Entry], secs: f64) -> Vec<(f64, f64, f64)> {
    let mut samples = vec![Vec::new(); pool.len()];
    run_passes(secs, pool.len(), |e| {
        let line = pool[e].line(1);
        let t0 = Instant::now();
        let req = Request::parse(&line).expect("pool lines parse");
        let t1 = Instant::now();
        let resp = exec::execute(&req, None, false, &mut exec::NoProgress);
        let t2 = Instant::now();
        let out = std::hint::black_box(resp.to_line());
        let t3 = Instant::now();
        drop(out);
        samples[e].push((t1 - t0, t2 - t1, t3 - t2));
    });
    samples
        .iter()
        .map(|v| {
            let pick = |f: fn(&(Duration, Duration, Duration)) -> Duration| {
                median(&v.iter().map(|s| f(s).as_secs_f64()).collect::<Vec<_>>())
            };
            (pick(|s| s.0), pick(|s| s.1), pick(|s| s.2))
        })
        .collect()
}

/// The traced mirror of one request through decode, `exec::execute` and
/// encode, over the pool for `secs` seconds (whole passes). Returns the
/// first pass's counts.
fn traced_passes(
    t: &mut Tracer,
    pool: &[Entry],
    secs: f64,
    classify_ns: &mut Vec<u64>,
    report: &mut Report,
) -> Counts {
    let mut passes: Vec<Counts> = Vec::new();
    let mut counts = Counts::default();
    run_passes(secs, pool.len(), |e| {
        let line = pool[e].line(1);
        let res = t.op(|t| -> Result<Request, String> {
            let req = t.span("mm-serve.decode", || Request::parse(&line))?;
            let fields = t.span_with("mm-serve.exec", |t| exec_mirror(t, &req, &mut counts))?;
            t.span_with("mm-serve.encode", |t| {
                let mut all = vec![
                    ("id".to_string(), Json::Int(req.id as i64)),
                    ("status".to_string(), Json::str("ok")),
                ];
                all.extend(fields);
                let doc = Json::obj(all);
                std::hint::black_box(t.span("mm-json.encode", || doc.to_compact()));
            });
            Ok(req)
        });
        // The parse inside Request::parse, timed on the same line.
        let (parse_ns, _) = time_ns(|| mm_json::parse(&line).is_ok());
        t.derived("mm-serve.decode", "mm-json.parse", parse_ns);
        counts.parse_bytes += line.len() as u64;
        match res {
            Ok(req) => {
                let inst = req.instance().expect("pool requests carry jobs");
                classify_ns.push(time_ns(|| inst.classify()).0);
            }
            Err(e) => report.fail(&format!("traced request failed: {e}")),
        }
        if e + 1 == pool.len() {
            passes.push(std::mem::take(&mut counts));
        }
    });
    if let Some(bad) = passes.iter().find(|c| **c != passes[0]) {
        report.fail(&format!(
            "work counts differ between passes over the same requests: {:?} vs {bad:?}",
            passes[0]
        ));
    }
    passes.swap_remove(0)
}

/// The calls `mm_serve::exec::execute` makes for one request, each under a
/// layer span. Returns the response fields.
fn exec_mirror(
    t: &mut Tracer,
    req: &Request,
    counts: &mut Counts,
) -> Result<Vec<(String, Json)>, String> {
    let inst = t.span("mm-instance.build", || {
        req.instance().expect("pool requests carry jobs")
    });
    let budget = exec::request_budget(req, false);
    Ok(match &req.kind {
        RequestKind::Solve { .. } => {
            let mut probes = ProbeCounter::default();
            let search = t.span("mm-opt.optimum", || {
                mm_opt::optimal_machines_budgeted_traced(&inst, &budget, &mut probes)
            });
            probes.add_to(counts);
            let m = search.exact.ok_or("solve degraded without a budget")?;
            let mut fields = vec![("machines".to_string(), Json::Int(m as i64))];
            if req.want_proof {
                let proof = t.span("mm-opt.witness", || {
                    mm_opt::proof_for_solve(&inst, m).to_json()
                });
                fields.push(("proof".into(), proof));
            }
            fields
        }
        RequestKind::Probe { machines, .. } => {
            let feasible = t.span("mm-opt.optimum", || {
                let mut fast = mm_opt::FastProber::new(&inst);
                let verdict = fast.try_certify(*machines);
                let d = fast.dispatch();
                counts.probes += d.total();
                counts.certified += d.certified();
                counts.rescued += d.rescued;
                match verdict {
                    Some(v) => Ok(v),
                    None => {
                        counts.probes += 1;
                        counts.flow_probes += 1;
                        mm_opt::FeasibilityProber::new(&inst)
                            .probe_budgeted(*machines, &budget)
                            .decided()
                            .ok_or("probe undecided without a budget")
                    }
                }
            })?;
            vec![("feasible".to_string(), Json::Bool(feasible))]
        }
        RequestKind::Schedule { policy, .. } => {
            let (out, _) = t.span("mm-sim.run", || crate::cli_paths::simulate(&inst, policy));
            let out = out?;
            counts.jobs_simulated += inst.len() as u64;
            counts.machines_opened += out.machines_used() as u64;
            vec![
                ("feasible".to_string(), Json::Bool(out.feasible())),
                (
                    "machines_used".to_string(),
                    Json::Int(out.machines_used() as i64),
                ),
                ("misses".to_string(), Json::Int(out.misses.len() as i64)),
            ]
        }
        RequestKind::Online { member, .. } => {
            let member = Member::parse(member).ok_or("unknown member")?;
            let (optimum, d) = t.span("mm-opt.optimum", || {
                let mut fast = mm_opt::FastProber::new(&inst);
                (fast.optimal_machines(), fast.dispatch())
            });
            counts.probes += d.total();
            counts.certified += d.certified();
            counts.flow_probes += d.flow;
            counts.rescued += d.rescued;
            let events = t.span("mm-online.instance", || {
                mm_online::stream_of_instance(&inst)
            });
            let row = t
                .span("mm-online.replay", || {
                    mm_online::run_member(member, "serve", &events, optimum, &mut NoopSink)
                })
                .map_err(|e| e.to_string())?;
            counts.machines_opened += row.machines_opened;
            counts.ratio_millis_sum += row.ratio_millis;
            counts.releases += events.len() as u64;
            vec![
                ("member".to_string(), Json::str(member.label())),
                (
                    "machines_opened".to_string(),
                    Json::Int(row.machines_opened as i64),
                ),
                ("optimum".to_string(), Json::Int(optimum as i64)),
                (
                    "ratio_millis".to_string(),
                    Json::Int(row.ratio_millis as i64),
                ),
                ("misses".to_string(), Json::Int(row.misses as i64)),
            ]
        }
        _ => return Err("pool holds solve/probe/schedule/online".into()),
    })
}

/// The serve-only per-layer metrics, zero on the CLI workloads.
pub fn zero_serve_metrics(m: &mut Metrics) {
    for (name, unit) in [
        ("mm-serve.decode_us", "us"),
        ("mm-serve.exec_p50_ms", "ms"),
        ("mm-serve.encode_us", "us"),
        ("mm-serve.wait_p50_ms", "ms"),
        ("mm-serve.wait_tail_ms", "ms"),
        ("mm-serve.shed", "count"),
        ("mm-serve.gen_lag_ms", "ms"),
    ] {
        m.put(name, 0.0, unit);
    }
    for kind in KINDS {
        m.put_owned(format!("mm-serve.lat_p50_ms.{kind}"), 0.0, "ms");
        m.put_owned(format!("mm-serve.lat_tail_ms.{kind}"), 0.0, "ms");
    }
}
