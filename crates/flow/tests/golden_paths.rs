//! Golden path-order table for `ArenaNetwork`.
//!
//! Flow *values* are checked against an independent Edmonds–Karp reference
//! in `prop_flow.rs`, but two correct Dinic implementations can route the
//! same value along different augmenting paths. The deterministic counters
//! that the bench gates compare (augmentations, budget trips) depend on that
//! path order, so this table freezes it: the flow value and augmenting-path
//! count of 64 seeded random graphs, and the result of the budget-meter
//! protocol under every augmentation limit from starving to generous.
//!
//! The values were produced once by the pointer-based `Vec<Vec<Edge>>`
//! Dinic that preceded the arena, and the arena reproduced every row. The
//! graphs come from a SplitMix64 generator in this file, so the table
//! depends on no external crate.

use mm_fault::{Budget, BudgetExceeded, BudgetMeter};
use mm_flow::ArenaNetwork;

/// SplitMix64 (Steele, Lea and Flood): a fixed, dependency-free stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The `arb_graph` shape of `prop_flow.rs`: 3–9 nodes, 0–29 edges without
/// self-loops, capacities 1–19. Source is node 0, sink node `n − 1`.
fn graph(seed: u64) -> (usize, Vec<(usize, usize, u64)>) {
    let mut rng = SplitMix64(seed);
    let n = 3 + rng.below(7) as usize;
    let m = rng.below(30) as usize;
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.below(n as u64) as usize;
        let v = rng.below(n as u64) as usize;
        let c = 1 + rng.below(19);
        if u != v {
            edges.push((u, v, c));
        }
    }
    (n, edges)
}

/// `(max_flow, augmentations)` of `graph(seed)`, indexed by seed.
const GOLDEN: [(u64, u64); 64] = [
    (0, 0),   // seed 0: n 5, 0 edges
    (24, 7),  // seed 1: n 5, 19 edges
    (31, 5),  // seed 2: n 7, 26 edges
    (22, 5),  // seed 3: n 5, 21 edges
    (0, 0),   // seed 4: n 9, 4 edges
    (0, 0),   // seed 5: n 6, 4 edges
    (44, 5),  // seed 6: n 6, 23 edges
    (21, 2),  // seed 7: n 5, 24 edges
    (14, 1),  // seed 8: n 7, 17 edges
    (35, 4),  // seed 9: n 5, 16 edges
    (32, 5),  // seed 10: n 4, 14 edges
    (57, 9),  // seed 11: n 4, 25 edges
    (85, 12), // seed 12: n 4, 27 edges
    (47, 7),  // seed 13: n 5, 21 edges
    (3, 1),   // seed 14: n 8, 24 edges
    (67, 9),  // seed 15: n 3, 16 edges
    (0, 0),   // seed 16: n 5, 13 edges
    (19, 1),  // seed 17: n 9, 13 edges
    (18, 2),  // seed 18: n 4, 18 edges
    (52, 5),  // seed 19: n 4, 20 edges
    (1, 1),   // seed 20: n 8, 17 edges
    (51, 11), // seed 21: n 5, 29 edges
    (19, 1),  // seed 22: n 5, 6 edges
    (71, 10), // seed 23: n 3, 19 edges
    (36, 6),  // seed 24: n 6, 25 edges
    (37, 5),  // seed 25: n 3, 20 edges
    (41, 8),  // seed 26: n 6, 27 edges
    (0, 0),   // seed 27: n 9, 4 edges
    (2, 1),   // seed 28: n 7, 26 edges
    (69, 9),  // seed 29: n 3, 16 edges
    (25, 4),  // seed 30: n 7, 18 edges
    (10, 1),  // seed 31: n 5, 10 edges
    (0, 0),   // seed 32: n 8, 2 edges
    (13, 1),  // seed 33: n 6, 8 edges
    (0, 0),   // seed 34: n 4, 3 edges
    (0, 0),   // seed 35: n 9, 4 edges
    (0, 0),   // seed 36: n 9, 3 edges
    (62, 9),  // seed 37: n 4, 22 edges
    (0, 0),   // seed 38: n 5, 6 edges
    (14, 1),  // seed 39: n 9, 20 edges
    (7, 1),   // seed 40: n 7, 11 edges
    (0, 0),   // seed 41: n 9, 20 edges
    (0, 0),   // seed 42: n 8, 1 edges
    (31, 3),  // seed 43: n 4, 13 edges
    (0, 0),   // seed 44: n 3, 0 edges
    (14, 1),  // seed 45: n 5, 8 edges
    (1, 1),   // seed 46: n 6, 13 edges
    (0, 0),   // seed 47: n 8, 11 edges
    (30, 7),  // seed 48: n 4, 29 edges
    (0, 0),   // seed 49: n 3, 1 edges
    (19, 2),  // seed 50: n 6, 17 edges
    (0, 0),   // seed 51: n 9, 1 edges
    (12, 3),  // seed 52: n 3, 18 edges
    (55, 7),  // seed 53: n 3, 22 edges
    (32, 7),  // seed 54: n 8, 26 edges
    (0, 0),   // seed 55: n 6, 11 edges
    (0, 0),   // seed 56: n 4, 7 edges
    (0, 0),   // seed 57: n 9, 14 edges
    (40, 5),  // seed 58: n 4, 15 edges
    (0, 0),   // seed 59: n 4, 8 edges
    (0, 0),   // seed 60: n 9, 5 edges
    (0, 0),   // seed 61: n 5, 11 edges
    (0, 0),   // seed 62: n 8, 4 edges
    (25, 5),  // seed 63: n 5, 29 edges
];

#[test]
fn flow_and_path_count_match_the_table() {
    for (seed, &expected) in GOLDEN.iter().enumerate() {
        let (n, edges) = graph(seed as u64);
        let mut net = ArenaNetwork::<u64>::new(n);
        for &(u, v, c) in &edges {
            net.add_edge(u, v, c);
        }
        let flow = net.max_flow(0, n - 1);
        assert_eq!((flow, net.augmentations()), expected, "seed {seed}");
    }
}

/// Two source branches feeding three sink-side paths; the full flow of 3
/// takes 3 augmentations in one phase.
const METER_EDGES: [(usize, usize, u64); 7] = [
    (0, 1, 2),
    (0, 2, 2),
    (1, 3, 1),
    (1, 4, 1),
    (2, 4, 2),
    (3, 5, 2),
    (4, 5, 2),
];

#[test]
fn meter_protocol_matches_the_table() {
    use BudgetExceeded::Augmentations;
    // `(augmentation limit, result, augmentations)`.
    let golden: [(u64, Result<u64, BudgetExceeded>, u64); 7] = [
        (1, Err(Augmentations { limit: 1 }), 1),
        (2, Err(Augmentations { limit: 2 }), 2),
        (3, Err(Augmentations { limit: 3 }), 3),
        (4, Ok(3), 3),
        (5, Ok(3), 3),
        (6, Ok(3), 3),
        (7, Ok(3), 3),
    ];
    for (limit, expected, augmentations) in golden {
        let mut net = ArenaNetwork::<u64>::new(6);
        for &(u, v, c) in &METER_EDGES {
            net.add_edge(u, v, c);
        }
        let budget = Budget::unlimited().with_augmentations(limit);
        let result = net.max_flow_budgeted(0, 5, &mut BudgetMeter::new(&budget));
        assert_eq!(result, expected, "limit {limit}");
        assert_eq!(net.augmentations(), augmentations, "limit {limit}");
    }
}
