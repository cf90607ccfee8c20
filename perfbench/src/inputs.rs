//! Seeded input generation: instance families, event streams and request
//! pools. Everything here is a pure function of its arguments.

use mm_adversary::MigrationGapAdversary;
use mm_core::EdfFirstFit;
use mm_instance::generators::{self, AgreeableCfg, LaminarCfg, UniformCfg};
use mm_instance::Instance;
use mm_numeric::Rat;

use crate::stats::SplitMix;

/// The instance families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Agreeable,
    Uniform,
    Loose,
    Laminar,
    /// The migration-gap adversary's forced-release construction, replayed
    /// back to back in disjoint time windows until it holds `n` jobs.
    Adversary,
}

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::Agreeable => "agreeable",
            Family::Uniform => "uniform",
            Family::Loose => "loose",
            Family::Laminar => "laminar",
            Family::Adversary => "adversary",
        }
    }
}

/// Adversary depth: 31 forced releases per copy. Deeper constructions carry
/// rationals with hundreds of digits and take seconds to build.
const ADVERSARY_DEPTH: usize = 4;

/// Builds an `n`-job instance of `family` (laminar and adversary round `n`
/// to whole copies of their building block).
pub fn instance(family: Family, n: usize, seed: u64) -> Instance {
    // Horizons grow with n so the machine count stays flat across sizes:
    // a size sweep then measures how cost grows with n, not with density.
    let horizon = (n as i64).max(100);
    match family {
        Family::Agreeable => generators::agreeable(
            &AgreeableCfg {
                n,
                ..Default::default()
            },
            seed,
        ),
        Family::Uniform => generators::uniform(
            &UniformCfg {
                n,
                horizon,
                ..Default::default()
            },
            seed,
        ),
        Family::Loose => generators::loose(
            &UniformCfg {
                n,
                horizon,
                ..Default::default()
            },
            &Rat::ratio(1, 2),
            seed,
        ),
        Family::Laminar => {
            // A forest of depth-3 binary nesting trees (15 jobs each).
            let cfg = LaminarCfg {
                depth: 3,
                branching: 2,
                root_length: 1024,
                ..Default::default()
            };
            let trees = n.div_ceil(15).max(1);
            // Tree seeds are drawn, not counted up from `seed`: files whose
            // seeds differ by a little must not share trees.
            let mut rng = SplitMix::new(seed);
            tile((0..trees).map(|_| generators::laminar(&cfg, rng.next_u64())))
        }
        Family::Adversary => tile_block(&adversary_block(), n),
    }
}

/// The adversary's forced-release construction against EDF first-fit.
pub fn adversary_block() -> Instance {
    MigrationGapAdversary::new(EdfFirstFit::new(), 16)
        .run(ADVERSARY_DEPTH)
        .expect("the migration-gap adversary runs at its default budget")
        .instance
}

/// `block` repeated in consecutive windows until it holds at least `n` jobs.
pub fn tile_block(block: &Instance, n: usize) -> Instance {
    let copies = n.div_ceil(block.len().max(1)).max(1);
    tile((0..copies).map(|_| block.clone()))
}

/// Concatenates instances in disjoint, consecutive time windows.
fn tile(parts: impl Iterator<Item = Instance>) -> Instance {
    let mut triples = Vec::new();
    let mut offset = Rat::zero();
    for part in parts {
        let mut end = Rat::zero();
        for j in part.iter() {
            triples.push((
                &j.release + &offset,
                &j.deadline + &offset,
                j.processing.clone(),
            ));
            if j.deadline > end {
                end = j.deadline.clone();
            }
        }
        let width = end.ceil().to_i64().expect("block width fits i64") + 1;
        offset = &offset + &Rat::from(width);
    }
    Instance::sanitize_triples(triples).0
}

/// The instance as integer `(release, deadline, processing)` triples, as
/// the serve wire carries them. `None` if a time is not an integer.
pub fn int_triples(inst: &Instance) -> Option<Vec<(i64, i64, i64)>> {
    let int = |r: &Rat| -> Option<i64> {
        if r.is_integer() {
            r.floor().to_i64()
        } else {
            None
        }
    };
    inst.iter()
        .map(|j| Some((int(&j.release)?, int(&j.deadline)?, int(&j.processing)?)))
        .collect()
}

/// `count` sizes spread evenly over `lo..=hi`.
pub fn spread(lo: usize, hi: usize, count: usize) -> Vec<usize> {
    if count <= 1 {
        return vec![lo];
    }
    (0..count)
        .map(|i| lo + (hi - lo) * i / (count - 1))
        .collect()
}
