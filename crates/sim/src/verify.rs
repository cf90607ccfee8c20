//! Independent schedule verification.
//!
//! Every schedule produced anywhere in the workspace — by online policies,
//! offline solvers, or transformations — is validated by [`verify`] against
//! the instance it claims to schedule. The checks implement the feasibility
//! definition of Section 2 of the paper verbatim:
//!
//! 1. each job is processed for exactly `p_j` units within `[r_j, d_j)`;
//! 2. each machine processes at most one job at a time;
//! 3. no job runs on two machines simultaneously;
//! 4. (optional) no job ever migrates between machines;
//! 5. (optional) no job is ever preempted.

use mm_instance::{Instance, Interval, JobId};
use mm_numeric::Rat;

use crate::{Schedule, Segment};

/// What to require beyond plain feasibility.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Reject schedules where any job uses more than one machine.
    pub require_nonmigratory: bool,
    /// Reject schedules where any job is preempted.
    pub require_nonpreemptive: bool,
    /// Maximum machine speed assumed available; segments faster than this
    /// are rejected. `None` means speed 1 (the unit-speed setting).
    pub speed_limit: Option<Rat>,
    /// Accept partial schedules: jobs may be processed *less* than `p_j`
    /// (never more). Used to structurally validate overloaded runs whose
    /// misses are analyzed separately.
    pub allow_partial: bool,
}

impl VerifyOptions {
    /// Plain migratory preemptive feasibility at unit speed.
    pub fn migratory() -> Self {
        VerifyOptions::default()
    }

    /// Non-migratory preemptive feasibility at unit speed.
    pub fn nonmigratory() -> Self {
        VerifyOptions {
            require_nonmigratory: true,
            ..Default::default()
        }
    }

    /// Non-preemptive (hence non-migratory) feasibility at unit speed.
    pub fn nonpreemptive() -> Self {
        VerifyOptions {
            require_nonmigratory: true,
            require_nonpreemptive: true,
            ..Default::default()
        }
    }

    /// Allows machine speed up to `s` (speed-augmentation setting).
    pub fn with_speed(mut self, s: Rat) -> Self {
        self.speed_limit = Some(s);
        self
    }

    /// Accepts under-processed jobs (see [`VerifyOptions::allow_partial`]).
    pub fn partial(mut self) -> Self {
        self.allow_partial = true;
        self
    }
}

/// A feasibility violation found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Two segments overlap on one machine.
    MachineOverlap {
        /// The machine where the overlap occurs.
        machine: usize,
        /// First overlapping segment's job.
        first: JobId,
        /// Second overlapping segment's job.
        second: JobId,
        /// Start of the overlap.
        at: Rat,
    },
    /// A job runs on two machines at the same time.
    ParallelSelf {
        /// The job running in parallel with itself.
        job: JobId,
        /// Start of the overlap.
        at: Rat,
    },
    /// A segment lies (partially) outside the job's window.
    OutsideWindow {
        /// The offending job.
        job: JobId,
        /// The offending segment interval.
        segment: Interval,
    },
    /// Total processed volume differs from `p_j`.
    WrongVolume {
        /// The job with wrong total volume.
        job: JobId,
        /// Volume the schedule delivers.
        processed: Rat,
        /// Volume the instance requires.
        required: Rat,
    },
    /// A job appears in the schedule but not in the instance.
    UnknownJob {
        /// The unknown id.
        job: JobId,
    },
    /// Migration found although `require_nonmigratory` was set.
    Migration {
        /// The migrating job.
        job: JobId,
        /// The machines it touches.
        machines: Vec<usize>,
    },
    /// Preemption found although `require_nonpreemptive` was set.
    Preemption {
        /// The preempted job.
        job: JobId,
    },
    /// A segment exceeds the allowed machine speed.
    Overspeed {
        /// The offending job.
        job: JobId,
        /// The segment's speed.
        speed: Rat,
    },
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::MachineOverlap {
                machine,
                first,
                second,
                at,
            } => write!(
                f,
                "machine {machine} runs {first} and {second} simultaneously at t={at}"
            ),
            ScheduleError::ParallelSelf { job, at } => {
                write!(f, "{job} runs on two machines at t={at}")
            }
            ScheduleError::OutsideWindow { job, segment } => {
                write!(f, "{job} runs outside its window during {segment}")
            }
            ScheduleError::WrongVolume {
                job,
                processed,
                required,
            } => {
                write!(f, "{job} processed {processed}, requires {required}")
            }
            ScheduleError::UnknownJob { job } => write!(f, "unknown job {job}"),
            ScheduleError::Migration { job, machines } => {
                write!(f, "{job} migrates across machines {machines:?}")
            }
            ScheduleError::Preemption { job } => write!(f, "{job} is preempted"),
            ScheduleError::Overspeed { job, speed } => {
                write!(f, "{job} runs at disallowed speed {speed}")
            }
        }
    }
}

/// Summary statistics of a verified schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Distinct machines with at least one segment.
    pub machines_used: usize,
    /// Total migrations (distinct machines per job − 1, summed).
    pub migrations: usize,
    /// Total preemptions (maximal runs per job − 1, summed).
    pub preemptions: usize,
    /// Number of maximal segments.
    pub segments: usize,
}

/// Verifies `schedule` against `instance`. Returns statistics on success or
/// the complete list of violations.
pub fn verify(
    instance: &Instance,
    schedule: &mut Schedule,
    opts: &VerifyOptions,
) -> Result<ScheduleStats, Vec<ScheduleError>> {
    schedule.normalize();
    let mut errors = Vec::new();
    let speed_cap = opts.speed_limit.clone().unwrap_or_else(Rat::one);

    // Known jobs and window / volume checks.
    let n = instance.len() as u32;
    for seg in schedule.raw_segments() {
        if seg.job.0 >= n {
            errors.push(ScheduleError::UnknownJob { job: seg.job });
            continue;
        }
        let job = instance.job(seg.job);
        if !job.window().contains_interval(&seg.interval) {
            errors.push(ScheduleError::OutsideWindow {
                job: seg.job,
                segment: seg.interval.clone(),
            });
        }
        if seg.speed > speed_cap {
            errors.push(ScheduleError::Overspeed {
                job: seg.job,
                speed: seg.speed.clone(),
            });
        }
    }

    // Each job's volume in one pass over the segments, summed in segment
    // order as `Schedule::processed` does.
    let mut volumes = vec![Rat::zero(); instance.len()];
    for seg in schedule.raw_segments() {
        if let Some(v) = volumes.get_mut(seg.job.index()) {
            *v += seg.volume();
        }
    }
    for job in instance.iter() {
        let processed = std::mem::take(&mut volumes[job.id.index()]);
        let ok = if opts.allow_partial {
            processed <= job.processing
        } else {
            processed == job.processing
        };
        if !ok {
            errors.push(ScheduleError::WrongVolume {
                job: job.id,
                processed,
                required: job.processing.clone(),
            });
        }
    }

    // Per-machine overlap: segments are sorted by (machine, start).
    let segs = schedule.raw_segments();
    for pair in segs.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.machine == b.machine && b.interval.start < a.interval.end {
            errors.push(ScheduleError::MachineOverlap {
                machine: a.machine,
                first: a.job,
                second: b.job,
                at: b.interval.start.clone(),
            });
        }
    }

    // Per-job self-parallelism across machines.
    let mut by_job: std::collections::BTreeMap<JobId, Vec<&Segment>> = Default::default();
    for s in segs {
        by_job.entry(s.job).or_default().push(s);
    }
    for (&job, list) in &mut by_job {
        list.sort_by(|a, b| a.interval.start.cmp(&b.interval.start));
        for pair in list.windows(2) {
            if pair[1].interval.start < pair[0].interval.end {
                errors.push(ScheduleError::ParallelSelf {
                    job,
                    at: pair[1].interval.start.clone(),
                });
            }
        }
    }

    // Migration / preemption requirements.
    if opts.require_nonmigratory {
        for (job, list) in &by_job {
            let mut ms: Vec<usize> = list.iter().map(|s| s.machine).collect();
            ms.sort_unstable();
            ms.dedup();
            if ms.len() > 1 {
                errors.push(ScheduleError::Migration {
                    job: *job,
                    machines: ms,
                });
            }
        }
    }
    if opts.require_nonpreemptive {
        for (job, list) in &by_job {
            // After normalization a non-preempted job is exactly one segment.
            if list.len() > 1 {
                errors.push(ScheduleError::Preemption { job: *job });
            }
        }
    }

    if errors.is_empty() {
        Ok(ScheduleStats {
            machines_used: schedule.machines_used(),
            migrations: schedule.migrations(),
            preemptions: schedule.preemptions(),
            segments: schedule.raw_segments().len(),
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_instance::Instance;

    fn rat(v: i64) -> Rat {
        Rat::from(v)
    }

    /// j0: (0,4,2), j1: (1,5,2)
    fn two_jobs() -> Instance {
        Instance::from_ints([(0, 4, 2), (1, 5, 2)])
    }

    #[test]
    fn accepts_valid_schedule() {
        let inst = two_jobs();
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(2));
        s.push_unit(0, JobId(1), rat(2), rat(4));
        let stats = verify(&inst, &mut s, &VerifyOptions::nonpreemptive()).unwrap();
        assert_eq!(stats.machines_used, 1);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.preemptions, 0);
    }

    #[test]
    fn rejects_machine_overlap() {
        let inst = two_jobs();
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(2));
        s.push_unit(0, JobId(1), rat(1), rat(3));
        let errs = verify(&inst, &mut s, &VerifyOptions::migratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::MachineOverlap { machine: 0, .. })));
    }

    #[test]
    fn rejects_self_parallelism() {
        let inst = Instance::from_ints([(0, 4, 4)]);
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(2));
        s.push_unit(1, JobId(0), rat(1), rat(3));
        let errs = verify(&inst, &mut s, &VerifyOptions::migratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::ParallelSelf { .. })));
    }

    #[test]
    fn rejects_outside_window() {
        let inst = two_jobs();
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(3), rat(5)); // deadline is 4
        s.push_unit(1, JobId(1), rat(1), rat(3));
        let errs = verify(&inst, &mut s, &VerifyOptions::migratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::OutsideWindow { .. })));
    }

    #[test]
    fn rejects_wrong_volume() {
        let inst = two_jobs();
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(1)); // needs 2
        s.push_unit(1, JobId(1), rat(1), rat(3));
        let errs = verify(&inst, &mut s, &VerifyOptions::migratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::WrongVolume { job: JobId(0), .. })));
    }

    #[test]
    fn rejects_unknown_job() {
        let inst = two_jobs();
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(2));
        s.push_unit(1, JobId(1), rat(1), rat(3));
        s.push_unit(2, JobId(9), rat(0), rat(1));
        let errs = verify(&inst, &mut s, &VerifyOptions::migratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::UnknownJob { job: JobId(9) })));
    }

    #[test]
    fn reports_every_violation_in_order() {
        let inst = two_jobs();
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(2));
        s.push_unit(0, JobId(1), rat(1), rat(3)); // overlaps j0 on machine 0
        s.push_unit(1, JobId(0), rat(1), rat(2)); // j0 in parallel with itself
        s.push_unit(2, JobId(9), rat(0), rat(1)); // not in the instance
        s.push_unit(3, JobId(1), rat(0), rat(1)); // before j1's release
        let errs = verify(&inst, &mut s, &VerifyOptions::nonpreemptive()).unwrap_err();
        assert_eq!(
            errs,
            vec![
                ScheduleError::UnknownJob { job: JobId(9) },
                ScheduleError::OutsideWindow {
                    job: JobId(1),
                    segment: Interval::ints(0, 1),
                },
                ScheduleError::WrongVolume {
                    job: JobId(0),
                    processed: rat(3),
                    required: rat(2),
                },
                ScheduleError::WrongVolume {
                    job: JobId(1),
                    processed: rat(3),
                    required: rat(2),
                },
                ScheduleError::MachineOverlap {
                    machine: 0,
                    first: JobId(0),
                    second: JobId(1),
                    at: rat(1),
                },
                ScheduleError::ParallelSelf {
                    job: JobId(0),
                    at: rat(1),
                },
                ScheduleError::Migration {
                    job: JobId(0),
                    machines: vec![0, 1],
                },
                ScheduleError::Migration {
                    job: JobId(1),
                    machines: vec![0, 3],
                },
                ScheduleError::Preemption { job: JobId(0) },
                ScheduleError::Preemption { job: JobId(1) },
            ]
        );
    }

    #[test]
    fn migration_flag() {
        let inst = Instance::from_ints([(0, 4, 2)]);
        let mut s = Schedule::new();
        s.push_unit(0, JobId(0), rat(0), rat(1));
        s.push_unit(1, JobId(0), rat(1), rat(2));
        assert!(verify(&inst, &mut s, &VerifyOptions::migratory()).is_ok());
        let errs = verify(&inst, &mut s, &VerifyOptions::nonmigratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::Migration { .. })));
    }

    #[test]
    fn preemption_flag() {
        let inst = Instance::from_ints([(0, 6, 2), (1, 3, 2)]);
        let mut s = Schedule::new();
        // j0 preempted by j1
        s.push_unit(0, JobId(0), rat(0), rat(1));
        s.push_unit(0, JobId(1), rat(1), rat(3));
        s.push_unit(0, JobId(0), rat(3), rat(4));
        assert!(verify(&inst, &mut s, &VerifyOptions::nonmigratory()).is_ok());
        let errs = verify(&inst, &mut s, &VerifyOptions::nonpreemptive()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::Preemption { job: JobId(0) })));
    }

    #[test]
    fn speed_limit_enforced() {
        let inst = Instance::from_ints([(0, 4, 4)]);
        let mut s = Schedule::new();
        s.push(crate::Segment {
            machine: 0,
            interval: mm_instance::Interval::ints(0, 2),
            job: JobId(0),
            speed: Rat::from(2i64),
        });
        // At unit speed this is overspeed...
        let errs = verify(&inst, &mut s, &VerifyOptions::migratory()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ScheduleError::Overspeed { .. })));
        // ...but fine when speed 2 is allowed.
        assert!(verify(
            &inst,
            &mut s,
            &VerifyOptions::migratory().with_speed(Rat::from(2i64))
        )
        .is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScheduleError::WrongVolume {
            job: JobId(3),
            processed: rat(1),
            required: rat(2),
        };
        assert_eq!(e.to_string(), "j3 processed 1, requires 2");
    }
}
