//! Exhaustive Theorem 1 oracle for small instances.
//!
//! Theorem 1 states `m(J) = max_I ⌈C(S,I)/|I|⌉` with the maximum attained.
//! A maximizing union can always be chosen with endpoints at event points
//! (the contribution of a union is piecewise linear in each endpoint with
//! breakpoints only at releases, deadlines and points where some job's
//! overlap hits its laxity — sliding an endpoint to the nearest event point
//! in the direction that does not decrease density loses nothing). For
//! small instances we can therefore *enumerate all unions of elementary
//! intervals* and compute the exact maximum density — a second, completely
//! independent implementation of the optimum that the property tests run
//! against the flow-based solver. Agreement between the two is an
//! end-to-end machine check of Theorem 1 itself on those instances.

use mm_instance::{Instance, IntervalSet};
use mm_numeric::Rat;

use crate::certificate::Certificate;
use crate::feasibility::elementary_intervals;

/// Upper bound on elementary-interval count accepted by
/// [`exhaustive_contribution_bound`] (the enumeration is `2^k`).
pub const EXHAUSTIVE_LIMIT: usize = 18;

/// Computes the *exact* maximum contribution density over all unions of
/// elementary intervals by full enumeration. By Theorem 1 the returned
/// bound equals `m(J)`.
///
/// # Panics
/// Panics if the instance has more than [`EXHAUSTIVE_LIMIT`] elementary
/// intervals (the enumeration would be too large).
pub fn exhaustive_contribution_bound(instance: &Instance) -> Certificate {
    if instance.is_empty() {
        return Certificate {
            bound: 0,
            density: Rat::zero(),
            witness: IntervalSet::empty(),
        };
    }
    let cells = elementary_intervals(instance);
    let k = cells.len();
    assert!(
        k <= EXHAUSTIVE_LIMIT,
        "{k} elementary intervals exceed the exhaustive enumeration limit"
    );
    // Precompute per-cell data: length and per-job overlap with each job's
    // window (a cell is fully inside or fully outside every window).
    let jobs = instance.jobs();
    let inside: Vec<Vec<bool>> = cells
        .iter()
        .map(|cell| {
            jobs.iter()
                .map(|j| j.window().contains_interval(cell))
                .collect()
        })
        .collect();
    let lengths: Vec<Rat> = cells.iter().map(|c| c.length()).collect();
    let laxities: Vec<Rat> = jobs.iter().map(|j| j.laxity()).collect();

    let mut best_density = Rat::zero();
    let mut best_mask = 0usize;
    for mask in 1usize..(1 << k) {
        let mut total_len = Rat::zero();
        for (i, len) in lengths.iter().enumerate() {
            if mask & (1 << i) != 0 {
                total_len += len;
            }
        }
        // C(S, I) = Σ_j max(0, overlap_j − ℓ_j)
        let mut contribution = Rat::zero();
        for (ji, lax) in laxities.iter().enumerate() {
            let mut overlap = Rat::zero();
            for i in 0..k {
                if mask & (1 << i) != 0 && inside[i][ji] {
                    overlap += &lengths[i];
                }
            }
            let slack = &overlap - lax;
            if slack.is_positive() {
                contribution += slack;
            }
        }
        let density = contribution / &total_len;
        if density > best_density {
            best_density = density;
            best_mask = mask;
        }
    }
    let witness = IntervalSet::from_intervals(
        cells
            .iter()
            .enumerate()
            .filter(|(i, _)| best_mask & (1 << i) != 0)
            .map(|(_, c)| c.clone()),
    );
    Certificate {
        bound: best_density.ceil_u64(),
        density: best_density,
        witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::contribution_bound;
    use crate::feasibility::{optimal_machines, FeasibilityProber};

    #[test]
    fn empty_and_single() {
        assert_eq!(exhaustive_contribution_bound(&Instance::empty()).bound, 0);
        let one = Instance::from_ints([(0, 4, 2)]);
        let c = exhaustive_contribution_bound(&one);
        assert_eq!(c.bound, 1);
    }

    #[test]
    fn matches_flow_optimum_exactly_on_small_instances() {
        use mm_instance::generators::{uniform, UniformCfg};
        for seed in 0..20 {
            let inst = uniform(
                &UniformCfg {
                    n: 7,
                    horizon: 12,
                    min_window: 1,
                    max_window: 6,
                },
                seed,
            );
            let cells = elementary_intervals(&inst).len();
            if cells > EXHAUSTIVE_LIMIT {
                continue;
            }
            let exhaustive = exhaustive_contribution_bound(&inst);
            let m = optimal_machines(&inst);
            // Theorem 1, both directions, machine-checked:
            assert_eq!(
                exhaustive.bound, m,
                "seed {seed}: exhaustive {} vs flow {m}",
                exhaustive.bound
            );
            // and the greedy certificate sits in between
            let greedy = contribution_bound(&inst);
            assert!(greedy.bound <= exhaustive.bound);
            // A deep affine image has 7^24 denominators, so the prober
            // leaves integer ticks for the exact `Rat` network; Theorem 1
            // by enumeration checks that backend independently. Enumerating
            // with such denominators is slow, so only the smaller instances
            // (12 of the 20 seeds) take this second pass.
            if cells > 8 {
                continue;
            }
            let (scale, offset) = (Rat::ratio(3, 7), Rat::ratio(1, 9));
            let mut deep = inst.clone();
            for _ in 0..24 {
                deep = deep.affine(&Rat::zero(), &offset, &scale);
            }
            assert!(!FeasibilityProber::new(&deep).uses_integer_ticks());
            assert_eq!(
                optimal_machines(&deep),
                exhaustive_contribution_bound(&deep).bound,
                "seed {seed}: deep affine image"
            );
        }
    }

    #[test]
    fn union_witness_recovered() {
        // The two-burst + low-laxity background construction from the
        // certificate tests: the exhaustive oracle must find density 5/2.
        let inst = Instance::from_ints([(0, 10, 9), (0, 1, 1), (0, 1, 1), (9, 10, 1), (9, 10, 1)]);
        let c = exhaustive_contribution_bound(&inst);
        assert_eq!(c.density, Rat::ratio(5, 2));
        assert_eq!(c.bound, 3);
        assert_eq!(c.witness.parts().len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceed the exhaustive enumeration limit")]
    fn refuses_large_instances() {
        use mm_instance::generators::{uniform, UniformCfg};
        let inst = uniform(
            &UniformCfg {
                n: 40,
                ..Default::default()
            },
            1,
        );
        let _ = exhaustive_contribution_bound(&inst);
    }
}
