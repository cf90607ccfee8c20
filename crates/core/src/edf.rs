//! Earliest Deadline First policies.
//!
//! Three variants used throughout the paper:
//!
//! * [`Edf`] — classic migratory EDF: at any time the `m'` unfinished jobs
//!   with smallest deadlines run (Theorem 13: feasible on `m/(1−α)²` machines
//!   for α-loose instances; Phillips et al. show it degrades like `Ω(Δ)` in
//!   general, which experiment E10 reproduces).
//! * [`NonpreemptiveEdf`] — list-scheduling EDF: a started job runs to
//!   completion; free machines pick the waiting job with the earliest
//!   deadline. On agreeable instances this coincides with [`Edf`]
//!   (Corollary 1) and is the loose-job half of the Theorem 12 algorithm.
//! * [`EdfFirstFit`] — non-migratory EDF: each job is assigned to a machine
//!   *at release* (first machine that can still meet all deadlines of its
//!   assigned jobs, by the exact single-machine test) and never moves;
//!   machines run their own jobs by EDF.

use std::collections::BTreeMap;

use mm_instance::JobId;
use mm_numeric::Rat;
use mm_sim::{ActiveJob, Decision, OnlinePolicy, SimState};

/// Migratory EDF on the driver-provided machines.
#[derive(Debug, Default)]
pub struct Edf;

impl OnlinePolicy for Edf {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        let mut jobs: Vec<&ActiveJob> = state.active.values().collect();
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
        "edf"
    }
}

/// Non-preemptive list-scheduling EDF: started jobs are never interrupted;
/// a free machine starts the waiting job with the earliest deadline.
#[derive(Debug, Default)]
pub struct NonpreemptiveEdf {
    running: BTreeMap<usize, JobId>,
}

impl NonpreemptiveEdf {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OnlinePolicy for NonpreemptiveEdf {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        // Drop finished jobs from the running map.
        self.running.retain(|_, id| state.active.contains_key(id));
        let mut waiting: Vec<&ActiveJob> = state
            .active
            .values()
            .filter(|a| !self.running.values().any(|r| *r == a.job.id))
            .collect();
        waiting.sort_by(|a, b| {
            a.job
                .deadline
                .cmp(&b.job.deadline)
                .then(a.job.id.cmp(&b.job.id))
        });
        let mut waiting = waiting.into_iter();
        for m in 0..state.machines {
            if let std::collections::btree_map::Entry::Vacant(e) = self.running.entry(m) {
                match waiting.next() {
                    Some(a) => {
                        e.insert(a.job.id);
                    }
                    None => break,
                }
            }
        }
        Decision {
            run: self.running.iter().map(|(m, j)| (*m, *j)).collect(),
            wake_at: None,
        }
    }

    fn name(&self) -> &'static str {
        "edf-nonpreemptive"
    }
}

/// Exact admission test used by the non-migratory first-fit policies: given
/// jobs all available *now* (time `t`) with remaining volumes and deadlines,
/// a single unit-speed machine can finish all of them iff for every deadline
/// `d`, the total remaining volume of jobs with deadline ≤ `d` fits in
/// `[t, d)`. (All-released single-machine feasibility; EDF realizes it.)
pub fn fits_single_machine(t: &Rat, speed: &Rat, jobs: &[(Rat, Rat)]) -> bool {
    // jobs: (deadline, remaining volume)
    let mut sorted: Vec<&(Rat, Rat)> = jobs.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut acc = Rat::zero();
    for (d, rem) in sorted {
        acc += rem;
        if &acc / speed > d - t {
            return false;
        }
    }
    true
}

/// Non-migratory first-fit EDF.
///
/// On each release the job is assigned to the lowest-indexed machine that
/// passes the exact admission test [`fits_single_machine`] (a fresh machine
/// always passes, since `p_j ≤ d_j − r_j`); every machine then runs its own
/// assigned jobs in EDF order. The assignment never changes, so the schedule
/// is non-migratory by construction.
#[derive(Debug, Default)]
pub struct EdfFirstFit {
    assignment: BTreeMap<JobId, usize>,
    /// Jobs assigned to each machine, indexed by machine up to the highest
    /// one assigned so far; finished jobs are pruned before each admission
    /// round, so admission reads a machine's load without scanning every
    /// active job.
    loads: Vec<Vec<JobId>>,
}

impl EdfFirstFit {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Machine assigned to `job`, if any.
    pub fn machine_of(&self, job: JobId) -> Option<usize> {
        self.assignment.get(&job).copied()
    }
}

impl OnlinePolicy for EdfFirstFit {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        // Assign newly released jobs in id order.
        let mut new: Vec<&ActiveJob> = state
            .active
            .values()
            .filter(|a| !self.assignment.contains_key(&a.job.id))
            .collect();
        new.sort_by_key(|a| a.job.id);
        if !new.is_empty() {
            for load in &mut self.loads {
                load.retain(|id| state.active.contains_key(id));
            }
        }
        for a in new {
            let own = (a.job.deadline.clone(), a.remaining.clone());
            let fits_with = |ids: &[JobId]| {
                let mut load: Vec<(Rat, Rat)> = ids
                    .iter()
                    .map(|id| {
                        let o = &state.active[id];
                        (o.job.deadline.clone(), o.remaining.clone())
                    })
                    .collect();
                load.push(own.clone());
                fits_single_machine(state.time, state.speed, &load)
            };
            // Machines past the last one in `loads` are all empty, so the
            // first of them answers for the rest.
            let opened = self.loads.len();
            let chosen = (0..opened)
                .find(|&m| fits_with(&self.loads[m]))
                .or_else(|| (opened < state.machines && fits_with(&[])).then_some(opened));
            // If no machine fits (budget exhausted), overload the last
            // machine; the job will miss and the outcome records it.
            let m = chosen.unwrap_or(state.machines - 1);
            self.assignment.insert(a.job.id, m);
            if self.loads.len() <= m {
                self.loads.resize_with(m + 1, Vec::new);
            }
            self.loads[m].push(a.job.id);
        }
        // Per machine: run the assigned active job with the earliest deadline.
        let mut best: BTreeMap<usize, (&Rat, JobId)> = BTreeMap::new();
        for a in state.active.values() {
            let Some(&m) = self.assignment.get(&a.job.id) else {
                continue;
            };
            match best.get(&m) {
                Some((d, id)) if (*d, *id) <= (&a.job.deadline, a.job.id) => {}
                _ => {
                    best.insert(m, (&a.job.deadline, a.job.id));
                }
            }
        }
        Decision {
            run: best.into_iter().map(|(m, (_, j))| (m, j)).collect(),
            wake_at: None,
        }
    }

    fn name(&self) -> &'static str {
        "edf-first-fit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_instance::Instance;
    use mm_sim::{run_policy, verify, SimConfig, VerifyOptions};

    fn rat(v: i64) -> Rat {
        Rat::from(v)
    }

    #[test]
    fn fits_single_machine_cases() {
        let t = Rat::zero();
        let one = Rat::one();
        // two jobs, deadlines 2 and 4, volumes 2 and 2: exactly fits
        assert!(fits_single_machine(
            &t,
            &one,
            &[(rat(2), rat(2)), (rat(4), rat(2))]
        ));
        // same with volumes 2 and 3: second misses
        assert!(!fits_single_machine(
            &t,
            &one,
            &[(rat(2), rat(2)), (rat(4), rat(3))]
        ));
        // earliest deadline overloaded
        assert!(!fits_single_machine(
            &t,
            &one,
            &[(rat(1), rat(2)), (rat(9), rat(1))]
        ));
        // doubling the speed rescues it
        assert!(fits_single_machine(
            &t,
            &rat(2),
            &[(rat(1), rat(2)), (rat(9), rat(1))]
        ));
        // empty set fits
        assert!(fits_single_machine(&t, &one, &[]));
    }

    #[test]
    fn edf_meets_feasible_single_machine() {
        let inst = Instance::from_ints([(0, 10, 3), (1, 4, 2), (5, 9, 2)]);
        let mut out = run_policy(&inst, Edf, SimConfig::migratory(1)).unwrap();
        assert!(out.feasible());
        verify(
            &out.instance,
            &mut out.schedule,
            &VerifyOptions::migratory(),
        )
        .unwrap();
    }

    #[test]
    fn edf_loose_jobs_theorem13_budget() {
        // α-loose jobs with α = 1/2: EDF needs at most m/(1-α)² = 4m machines.
        use mm_instance::generators::{loose, UniformCfg};
        use mm_opt::optimal_machines;
        let alpha = Rat::half();
        for seed in 0..4 {
            let inst = loose(
                &UniformCfg {
                    n: 40,
                    ..Default::default()
                },
                &alpha,
                seed,
            );
            let m = optimal_machines(&inst);
            let budget = (4 * m) as usize;
            let mut out = run_policy(&inst, Edf, SimConfig::migratory(budget)).unwrap();
            assert!(out.feasible(), "seed {seed}: EDF infeasible on 4m machines");
            verify(
                &out.instance,
                &mut out.schedule,
                &VerifyOptions::migratory(),
            )
            .unwrap();
        }
    }

    #[test]
    fn nonpreemptive_edf_never_preempts() {
        use mm_instance::generators::{agreeable, AgreeableCfg};
        for seed in 0..4 {
            let inst = agreeable(&AgreeableCfg::default(), seed);
            let budget = inst.len();
            let mut out = run_policy(
                &inst,
                NonpreemptiveEdf::new(),
                SimConfig::nonmigratory(budget),
            )
            .unwrap();
            assert!(out.feasible(), "seed {seed}");
            let stats = verify(
                &out.instance,
                &mut out.schedule,
                &VerifyOptions::nonpreemptive(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_eq!(stats.preemptions, 0);
        }
    }

    #[test]
    fn edf_first_fit_is_nonmigratory_and_feasible_with_headroom() {
        use mm_instance::generators::{uniform, UniformCfg};
        for seed in 0..4 {
            let inst = uniform(
                &UniformCfg {
                    n: 30,
                    ..Default::default()
                },
                seed,
            );
            let budget = inst.len(); // ample headroom: first-fit must not miss
            let mut out =
                run_policy(&inst, EdfFirstFit::new(), SimConfig::nonmigratory(budget)).unwrap();
            assert!(out.feasible(), "seed {seed}");
            let stats = verify(
                &out.instance,
                &mut out.schedule,
                &VerifyOptions::nonmigratory(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert_eq!(stats.migrations, 0);
        }
    }

    #[test]
    fn edf_first_fit_packs_disjoint_jobs_on_one_machine() {
        let inst = Instance::from_ints([(0, 2, 1), (3, 5, 1), (6, 8, 1)]);
        let mut out = run_policy(&inst, EdfFirstFit::new(), SimConfig::nonmigratory(5)).unwrap();
        assert!(out.feasible());
        assert_eq!(out.machines_used(), 1);
        let _ = out.schedule.segments();
    }

    #[test]
    fn edf_first_fit_splits_conflicting_tight_jobs() {
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2)]);
        let out = run_policy(&inst, EdfFirstFit::new(), SimConfig::nonmigratory(2)).unwrap();
        assert!(out.feasible());
        assert_eq!(out.machines_used(), 2);
    }

    /// The original admission rule, kept as an independent reference: for
    /// every machine tried, rebuild its load by scanning all active jobs.
    #[derive(Default)]
    struct ScanFirstFit {
        assignment: BTreeMap<JobId, usize>,
    }

    impl OnlinePolicy for ScanFirstFit {
        fn decide(&mut self, state: &SimState<'_>) -> Decision {
            let mut new: Vec<&ActiveJob> = state
                .active
                .values()
                .filter(|a| !self.assignment.contains_key(&a.job.id))
                .collect();
            new.sort_by_key(|a| a.job.id);
            for a in new {
                let mut chosen = None;
                for m in 0..state.machines {
                    let mut load: Vec<(Rat, Rat)> = state
                        .active
                        .values()
                        .filter(|o| self.assignment.get(&o.job.id) == Some(&m))
                        .map(|o| (o.job.deadline.clone(), o.remaining.clone()))
                        .collect();
                    load.push((a.job.deadline.clone(), a.remaining.clone()));
                    if fits_single_machine(state.time, state.speed, &load) {
                        chosen = Some(m);
                        break;
                    }
                }
                let m = chosen.unwrap_or(state.machines - 1);
                self.assignment.insert(a.job.id, m);
            }
            let mut best: BTreeMap<usize, (&Rat, JobId)> = BTreeMap::new();
            for a in state.active.values() {
                let Some(&m) = self.assignment.get(&a.job.id) else {
                    continue;
                };
                match best.get(&m) {
                    Some((d, id)) if (*d, *id) <= (&a.job.deadline, a.job.id) => {}
                    _ => {
                        best.insert(m, (&a.job.deadline, a.job.id));
                    }
                }
            }
            Decision {
                run: best.into_iter().map(|(m, (_, j))| (m, j)).collect(),
                wake_at: None,
            }
        }
    }

    #[test]
    fn edf_first_fit_matches_the_scanning_reference() {
        use mm_instance::generators::{agreeable, loose, uniform, AgreeableCfg, UniformCfg};
        let cfg = UniformCfg {
            n: 80,
            ..Default::default()
        };
        let mut instances = Vec::new();
        for seed in 0..3 {
            instances.push(uniform(&cfg, seed));
            instances.push(agreeable(
                &AgreeableCfg {
                    n: 80,
                    ..Default::default()
                },
                seed,
            ));
            instances.push(loose(&cfg, &Rat::half(), seed));
        }
        let mut overloaded = 0;
        for inst in &instances {
            // Ample budget, then budgets small enough that every machine
            // is full and the last one takes the overflow.
            for budget in [inst.len(), 3, 1] {
                let mut fast = EdfFirstFit::new();
                let mut reference = ScanFirstFit::default();
                let cfg = SimConfig::nonmigratory(budget);
                let mut a = run_policy(inst, &mut fast, cfg.clone()).unwrap();
                let mut b = run_policy(inst, &mut reference, cfg).unwrap();
                assert_eq!(a.schedule.segments(), b.schedule.segments());
                assert_eq!(a.misses, b.misses);
                assert_eq!(a.steps, b.steps);
                assert_eq!(fast.assignment, reference.assignment);
                if !a.misses.is_empty() {
                    overloaded += 1;
                }
            }
        }
        assert!(overloaded > 0, "no run exhausted its machine budget");
    }

    #[test]
    fn edf_overload_degrades_gracefully() {
        // Two conflicting jobs, one machine: exactly one miss, no panic.
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2)]);
        let out = run_policy(&inst, EdfFirstFit::new(), SimConfig::nonmigratory(1)).unwrap();
        assert_eq!(out.misses.len(), 1);
    }
}
