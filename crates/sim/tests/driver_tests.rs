//! Behavioural tests for the online driver: event ordering, exact time
//! accounting, pinning, migration enforcement, deadline misses, and adaptive
//! injection.

use std::collections::BTreeMap;

use mm_instance::{Instance, JobId};
use mm_numeric::Rat;
use mm_sim::{
    run_policy, Decision, OnlinePolicy, SimConfig, SimError, SimState, Simulation, VerifyOptions,
};

fn rat(v: i64) -> Rat {
    Rat::from(v)
}

/// Multi-machine EDF: runs the `machines` active jobs with earliest
/// deadlines, machine `i` gets the `i`-th earliest. Migratory.
struct EdfTest;

impl OnlinePolicy for EdfTest {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        let mut jobs: Vec<_> = state.active.values().collect();
        jobs.sort_by(|a, b| {
            a.job
                .deadline
                .cmp(&b.job.deadline)
                .then(a.job.id.cmp(&b.job.id))
        });
        Decision {
            run: jobs
                .iter()
                .take(state.machines)
                .enumerate()
                .map(|(m, a)| (m, a.job.id))
                .collect(),
            wake_at: None,
        }
    }
    fn name(&self) -> &'static str {
        "edf-test"
    }
}

/// Non-migratory first-fit: assigns each new job to the lowest machine with
/// no currently-assigned unfinished job, then always runs assigned jobs.
struct PinnedFirstFit {
    assignment: BTreeMap<JobId, usize>,
}

impl PinnedFirstFit {
    fn new() -> Self {
        PinnedFirstFit {
            assignment: BTreeMap::new(),
        }
    }
}

impl OnlinePolicy for PinnedFirstFit {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        self.assignment
            .retain(|id, _| state.active.contains_key(id));
        for a in state.active.values() {
            if !self.assignment.contains_key(&a.job.id) {
                let used: Vec<usize> = self.assignment.values().copied().collect();
                let machine = (0..state.machines).find(|m| !used.contains(m)).unwrap_or(0);
                self.assignment.insert(a.job.id, machine);
            }
        }
        Decision {
            run: self.assignment.iter().map(|(j, m)| (*m, *j)).collect(),
            wake_at: None,
        }
    }
}

#[test]
fn single_job_runs_exactly() {
    let inst = Instance::from_ints([(1, 5, 3)]);
    let mut out = run_policy(&inst, EdfTest, SimConfig::migratory(1)).unwrap();
    assert!(out.feasible());
    let segs = out.schedule.segments();
    assert_eq!(segs.len(), 1);
    assert_eq!(segs[0].interval.start, rat(1));
    assert_eq!(segs[0].interval.end, rat(4));
}

#[test]
fn two_jobs_one_machine_edf_order() {
    // j0 (0,10,3), j1 (1,4,2): EDF must preempt j0 for j1.
    let inst = Instance::from_ints([(0, 10, 3), (1, 4, 2)]);
    let mut out = run_policy(&inst, EdfTest, SimConfig::migratory(1)).unwrap();
    assert!(out.feasible());
    mm_sim::verify(
        &out.instance,
        &mut out.schedule,
        &VerifyOptions::migratory(),
    )
    .unwrap();
    assert_eq!(out.schedule.preemptions(), 1);
}

#[test]
fn parallel_machines_used() {
    let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
    let mut out = run_policy(&inst, EdfTest, SimConfig::migratory(3)).unwrap();
    assert!(out.feasible());
    assert_eq!(out.machines_used(), 3);
    mm_sim::verify(
        &out.instance,
        &mut out.schedule,
        &VerifyOptions::migratory(),
    )
    .unwrap();
}

#[test]
fn overload_records_miss() {
    // Two full-window jobs, one machine: exactly one must miss.
    let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2)]);
    let out = run_policy(&inst, EdfTest, SimConfig::migratory(1)).unwrap();
    assert_eq!(out.misses.len(), 1);
    assert!(!out.feasible());
}

#[test]
fn deadline_miss_partial_progress() {
    // j0 needs 4 in [0,4) but j1 (0,2,2) has an earlier deadline and takes
    // the machine first: j0 can only get 2 units and misses.
    let inst = Instance::from_ints([(0, 4, 4), (0, 2, 2)]);
    let out = run_policy(&inst, EdfTest, SimConfig::migratory(1)).unwrap();
    assert_eq!(out.misses.len(), 1);
    // The missing job is the long one (by canonical order: (0,4,4) has the
    // larger deadline, so it is j0).
    assert_eq!(out.instance.job(out.misses[0]).processing, rat(4));
}

#[test]
fn speed_augmentation_halves_time() {
    let inst = Instance::from_ints([(0, 4, 4)]);
    let cfg = SimConfig::migratory(1).with_speed(rat(2));
    let mut out = run_policy(&inst, EdfTest, cfg).unwrap();
    assert!(out.feasible());
    let segs = out.schedule.segments();
    assert_eq!(segs.len(), 1);
    assert_eq!(segs[0].interval.end, rat(2)); // 4 units at speed 2
                                              // Verification must allow speed 2.
    mm_sim::verify(
        &out.instance,
        &mut out.schedule,
        &VerifyOptions::migratory().with_speed(rat(2)),
    )
    .unwrap();
}

#[test]
fn migration_forbidden_is_enforced() {
    /// Deliberately bounces the only job between machines 0 and 1.
    struct Bouncer {
        flip: bool,
    }
    impl OnlinePolicy for Bouncer {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            self.flip = !self.flip;
            let m = if self.flip { 0 } else { 1 };
            let run = state.active.keys().take(1).map(|j| (m, *j)).collect();
            // wake up midway so the second decision happens before completion
            Decision {
                run,
                wake_at: Some(state.time + Rat::one()),
            }
        }
    }
    let inst = Instance::from_ints([(0, 10, 5)]);
    let err = run_policy(&inst, Bouncer { flip: false }, SimConfig::nonmigratory(2)).unwrap_err();
    assert!(matches!(err, SimError::MigrationForbidden { .. }));
    // Same policy is fine when migration is allowed.
    let out = run_policy(&inst, Bouncer { flip: false }, SimConfig::migratory(2)).unwrap();
    assert!(out.feasible());
}

#[test]
fn pinned_first_fit_is_nonmigratory() {
    let inst = Instance::from_ints([(0, 4, 2), (0, 4, 2), (2, 8, 3), (3, 9, 2)]);
    let mut out = run_policy(&inst, PinnedFirstFit::new(), SimConfig::nonmigratory(4)).unwrap();
    assert!(out.feasible());
    mm_sim::verify(
        &out.instance,
        &mut out.schedule,
        &VerifyOptions::nonmigratory(),
    )
    .unwrap();
}

#[test]
fn invalid_decisions_are_rejected() {
    struct BadMachine;
    impl OnlinePolicy for BadMachine {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            Decision {
                run: state.active.keys().map(|j| (99, *j)).collect(),
                wake_at: None,
            }
        }
    }
    let inst = Instance::from_ints([(0, 2, 1)]);
    let err = run_policy(&inst, BadMachine, SimConfig::migratory(2)).unwrap_err();
    assert!(matches!(err, SimError::MachineOutOfRange { machine: 99 }));

    struct DoubleBook;
    impl OnlinePolicy for DoubleBook {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            let j = *state.active.keys().next().unwrap();
            Decision {
                run: vec![(0, j), (1, j)],
                wake_at: None,
            }
        }
    }
    let err = run_policy(&inst, DoubleBook, SimConfig::migratory(2)).unwrap_err();
    assert!(matches!(err, SimError::DuplicateJob { .. }));

    struct SameMachineTwice;
    impl OnlinePolicy for SameMachineTwice {
        fn decide(&mut self, _state: &SimState<'_>) -> Decision {
            Decision {
                run: vec![(0, JobId(0)), (0, JobId(1))],
                wake_at: None,
            }
        }
    }
    let inst2 = Instance::from_ints([(0, 2, 1), (0, 2, 1)]);
    let err = run_policy(&inst2, SameMachineTwice, SimConfig::migratory(2)).unwrap_err();
    assert!(matches!(err, SimError::DuplicateMachine { machine: 0 }));

    struct GhostJob;
    impl OnlinePolicy for GhostJob {
        fn decide(&mut self, _state: &SimState<'_>) -> Decision {
            Decision {
                run: vec![(0, JobId(77))],
                wake_at: None,
            }
        }
    }
    let err = run_policy(&inst, GhostJob, SimConfig::migratory(2)).unwrap_err();
    assert!(matches!(err, SimError::UnknownJob { job: JobId(77) }));
}

#[test]
fn idle_policy_misses_everything() {
    struct Lazy;
    impl OnlinePolicy for Lazy {
        fn decide(&mut self, _state: &SimState<'_>) -> Decision {
            Decision::idle()
        }
    }
    let inst = Instance::from_ints([(0, 2, 1), (1, 3, 1)]);
    let out = run_policy(&inst, Lazy, SimConfig::migratory(2)).unwrap();
    assert_eq!(out.misses.len(), 2);
}

#[test]
fn wake_at_reinvokes_policy() {
    /// Counts invocations; finishes the job but asks for a wake-up at t+1/2.
    struct Waker {
        calls: std::rc::Rc<std::cell::Cell<usize>>,
    }
    impl OnlinePolicy for Waker {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            self.calls.set(self.calls.get() + 1);
            Decision {
                run: state.active.keys().take(1).map(|j| (0, *j)).collect(),
                wake_at: Some(state.time + Rat::half()),
            }
        }
    }
    let calls = std::rc::Rc::new(std::cell::Cell::new(0));
    let inst = Instance::from_ints([(0, 4, 2)]);
    let out = run_policy(
        &inst,
        Waker {
            calls: calls.clone(),
        },
        SimConfig::migratory(1),
    )
    .unwrap();
    assert!(out.feasible());
    // job of length 2 with wake-ups every 1/2: 4 running decisions
    assert_eq!(calls.get(), 4);
}

#[test]
fn step_limit_guards_runaway_wakeups() {
    struct Spinner;
    impl OnlinePolicy for Spinner {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            // Never runs anything; wakes up in halving steps so the deadline
            // is approached but decision count explodes.
            let quarter = Rat::ratio(1, 4);
            let gap = (Rat::from(2i64) - state.time) * quarter;
            Decision {
                run: vec![],
                wake_at: Some(state.time + gap),
            }
        }
    }
    let inst = Instance::from_ints([(0, 2, 1)]);
    let mut cfg = SimConfig::migratory(1);
    cfg.max_steps = 100;
    let err = run_policy(&inst, Spinner, cfg).unwrap_err();
    // The error reports how far the run got before the budget ran out.
    assert!(matches!(
        err,
        SimError::StepLimitExceeded { steps: 100, .. }
    ));
}

#[test]
fn adaptive_injection_reacts_to_policy() {
    // The "adversary" watches where the first job is pinned and injects a
    // second job; the pinned machine must be observable at inspection time.
    let cfg = SimConfig::nonmigratory(2);
    let mut sim = Simulation::new(cfg, PinnedFirstFit::new());
    let j0 = sim.inject(rat(0), rat(10), rat(6));
    sim.run_until(&rat(2)).unwrap();
    let m0 = sim.machine_of(j0).expect("j0 must have started");
    // Inject a conflicting job released *now*.
    let j1 = sim.inject(rat(2), rat(6), rat(3));
    sim.run_until(&rat(3)).unwrap();
    let m1 = sim.machine_of(j1).expect("j1 must have started");
    assert_ne!(m0, m1, "first-fit must use the free machine");
    let out = sim.finish().unwrap();
    assert!(out.feasible());
    assert_eq!(out.instance.len(), 2);
}

#[test]
fn run_until_stops_exactly_and_preserves_state() {
    let cfg = SimConfig::migratory(1);
    let mut sim = Simulation::new(cfg, EdfTest);
    sim.inject(rat(0), rat(10), rat(4));
    sim.run_until(&Rat::ratio(5, 2)).unwrap();
    assert_eq!(sim.time(), &Rat::ratio(5, 2));
    // 5/2 units processed, 3/2 remaining
    assert_eq!(sim.remaining(JobId(0)), Some(Rat::ratio(3, 2)));
    sim.run_until(&rat(4)).unwrap();
    assert!(sim.is_finished(JobId(0)));
}

#[test]
fn instance_ids_match_schedule_ids() {
    // Inject jobs out of canonical order; the outcome instance must resolve
    // ids to the right jobs.
    let cfg = SimConfig::migratory(3);
    let mut sim = Simulation::new(cfg, EdfTest);
    let a = sim.inject(rat(0), rat(5), rat(1)); // earlier deadline
    let b = sim.inject(rat(0), rat(9), rat(1)); // later deadline, same release
    let out = sim.finish().unwrap();
    assert_eq!(out.instance.job(a).deadline, rat(5));
    assert_eq!(out.instance.job(b).deadline, rat(9));
    assert!(out.feasible());
    let _ = (a, b);
}

#[test]
fn fractional_times_are_exact() {
    // Windows with denominator 7; completion times must be exact.
    let inst = Instance::from_triples([(Rat::ratio(1, 7), Rat::ratio(6, 7), Rat::ratio(2, 7))]);
    let mut out = run_policy(&inst, EdfTest, SimConfig::migratory(1)).unwrap();
    assert!(out.feasible());
    let segs = out.schedule.segments();
    assert_eq!(segs[0].interval.start, Rat::ratio(1, 7));
    assert_eq!(segs[0].interval.end, Rat::ratio(3, 7));
}

#[test]
fn machine_failure_fault_drops_work_deterministically() {
    use mm_fault::{FaultInjector, FaultPlan, FaultSite};
    // One machine, one job that exactly fits its window: any dropped step
    // turns into a deadline miss.
    let run = |plan: FaultPlan| {
        let cfg = SimConfig::migratory(1);
        let mut sim = Simulation::new(cfg, EdfTest).with_faults(FaultInjector::new(plan));
        sim.inject(rat(0), rat(4), rat(4));
        let out = sim.finish().unwrap();
        (out.misses.len(), out.steps)
    };
    let clean = run(FaultPlan::none());
    assert_eq!(clean.0, 0);
    let faulty = run(FaultPlan::once(FaultSite::MachineFailure, 1));
    assert_eq!(faulty.0, 1, "a failed step on a tight job forces a miss");
    // Determinism: identical plans give identical outcomes.
    assert_eq!(faulty, run(FaultPlan::once(FaultSite::MachineFailure, 1)));
}

#[test]
fn machine_slowdown_fault_halves_speed_and_verifies() {
    use mm_fault::{FaultInjector, FaultPlan, FaultSite};
    // A loose window tolerates the slow segment; the schedule stays valid
    // under the default speed *cap* of 1.
    let cfg = SimConfig::migratory(1);
    let mut sim = Simulation::new(cfg, EdfTest).with_faults(FaultInjector::new(FaultPlan::once(
        FaultSite::MachineSlowdown,
        1,
    )));
    sim.inject(rat(0), rat(10), rat(2));
    let mut out = sim.finish().unwrap();
    assert!(out.feasible());
    let slow = out
        .schedule
        .segments()
        .iter()
        .filter(|s| s.speed == Rat::ratio(1, 2))
        .count();
    assert!(
        slow >= 1,
        "the slowdown fault must leave a half-speed segment"
    );
    mm_sim::verify(&out.instance, &mut out.schedule, &VerifyOptions::default()).unwrap();
}

#[test]
fn with_max_steps_is_honored_with_trace_event() {
    use mm_trace::{TraceEvent, VecSink};
    // A wake-up-loop policy that never finishes its job.
    struct Spinner;
    impl OnlinePolicy for Spinner {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            Decision {
                run: vec![],
                wake_at: Some(state.time + &Rat::ratio(1, 1000)),
            }
        }
    }
    let cfg = SimConfig::migratory(1).with_max_steps(10);
    let mut sink = VecSink::new();
    let mut sim = Simulation::with_sink(cfg, Spinner, &mut sink);
    sim.inject(rat(0), rat(1_000_000), rat(1));
    let err = sim.finish().expect_err("step limit must trip");
    assert!(matches!(err, SimError::StepLimitExceeded { steps: 10, .. }));
    assert_eq!(
        sink.count(|e| matches!(e, TraceEvent::StepLimitExceeded { .. })),
        1
    );
}

/// Release order under the original pending-queue rule: every push re-sorts
/// the queue by release, descending, with a stable sort, and due jobs pop
/// from the back. Returns the ids in the order they are released.
fn stable_sort_release_order(batches: &[(i64, Vec<(JobId, i64)>)]) -> Vec<JobId> {
    let mut pending: Vec<(JobId, i64)> = Vec::new();
    let mut order = Vec::new();
    for (until, batch) in batches {
        for &job in batch {
            pending.push(job);
            pending.sort_by_key(|&(_, r)| std::cmp::Reverse(r));
        }
        while pending.last().is_some_and(|&(_, r)| r < *until) {
            order.push(pending.pop().unwrap().0);
        }
    }
    order
}

fn released_ids(sink: &mm_trace::VecSink) -> Vec<JobId> {
    sink.events
        .iter()
        .filter_map(|e| match e {
            mm_trace::TraceEvent::JobReleased { job, .. } => Some(JobId(*job)),
            _ => None,
        })
        .collect()
}

#[test]
fn out_of_order_injections_release_ties_in_stable_sort_order() {
    let first = [3, 1, 3, 0, 2, 1, 3, 0, 2, 5];
    let second = [5, 2, 4, 2, 5, 3];
    let mut sink = mm_trace::VecSink::new();
    let mut sim = Simulation::with_sink(SimConfig::migratory(64), EdfTest, &mut sink);
    let mut batches = Vec::new();
    let batch: Vec<_> = first
        .iter()
        .map(|&r| (sim.inject(rat(r), rat(r + 10), rat(1)), r))
        .collect();
    batches.push((2, batch));
    sim.run_until(&rat(2)).unwrap();
    let batch: Vec<_> = second
        .iter()
        .map(|&r| (sim.inject(rat(r), rat(r + 10), rat(1)), r))
        .collect();
    batches.push((i64::MAX, batch));
    let out = sim.finish().unwrap();
    assert!(out.feasible());
    assert_eq!(released_ids(&sink), stable_sort_release_order(&batches));
    assert_eq!(released_ids(&sink).len(), first.len() + second.len());

    // A preloaded instance releases its ties the same way.
    let inst = Instance::from_ints([(2, 9, 1), (0, 9, 1), (2, 9, 1), (0, 5, 1), (2, 7, 1)]);
    let mut sink = mm_trace::VecSink::new();
    mm_sim::run_policy_traced(&inst, EdfTest, SimConfig::migratory(8), &mut sink).unwrap();
    let loaded: Vec<_> = inst
        .iter()
        .map(|j| (j.id, j.release.ceil_u64() as i64))
        .collect();
    assert_eq!(
        released_ids(&sink),
        stable_sort_release_order(&[(i64::MAX, loaded)])
    );
}

#[test]
fn decision_errors_keep_their_order() {
    struct Fixed(Vec<(usize, JobId)>);
    impl OnlinePolicy for Fixed {
        fn decide(&mut self, _state: &SimState<'_>) -> Decision {
            Decision {
                run: self.0.clone(),
                wake_at: None,
            }
        }
    }
    let inst = Instance::from_ints([(0, 4, 1), (0, 4, 1)]);
    let (j0, j1, ghost) = (JobId(0), JobId(1), JobId(9));
    let cases = [
        // The machine is checked before the job.
        (
            vec![(0, j0), (0, j0)],
            SimError::DuplicateMachine { machine: 0 },
        ),
        // The first bad pair wins, whatever a later pair does wrong.
        (
            vec![(0, j0), (1, j0), (1, j1)],
            SimError::DuplicateJob { job: j0 },
        ),
        (
            vec![(1, j0), (7, j0)],
            SimError::MachineOutOfRange { machine: 7 },
        ),
        (
            vec![(0, ghost), (0, j0)],
            SimError::UnknownJob { job: ghost },
        ),
        (
            vec![(1, ghost), (0, ghost)],
            SimError::UnknownJob { job: ghost },
        ),
        (
            vec![(3, j1), (0, j0), (3, j0)],
            SimError::DuplicateMachine { machine: 3 },
        ),
    ];
    for (run, want) in cases {
        let err = run_policy(&inst, Fixed(run.clone()), SimConfig::migratory(4)).unwrap_err();
        assert_eq!(err, want, "{run:?}");
    }
}
