//! Structure-of-arrays flow arena: Dinic on flat parallel arrays.
//!
//! Per-node edge vectors scatter the residual graph across the heap, and at
//! 10^5–10^6 jobs every DFS step would chase pointers. The arena keeps the
//! whole network in a few CSR-style arrays instead:
//!
//! * edges live in flat parallel arrays (`next`/`to`/`cap`, plus per-node
//!   `head`/`tail` cursors) — one allocation each, grown once;
//! * an edge and its reverse are adjacent (`e ^ 1`), so the residual update
//!   needs no `rev` pointer array;
//! * per-node adjacency is an intrusive list appended in insertion order, so
//!   traversal order — and therefore the sequence of augmenting paths and
//!   every deterministic counter — is fixed by the order edges are added;
//! * the blocking-flow DFS is iterative (an explicit edge stack), so a
//!   million-node path cannot overflow the call stack;
//! * [`ArenaNetwork::clear`] rewinds the arena to an empty network *without
//!   freeing anything*, so a prober can rebuild for a new instance
//!   allocation-free.
//!
//! Flow values are checked against an independent Edmonds–Karp reference
//! on random graphs (`tests/prop_flow.rs`); path order, augmentation counts
//! and the budget-meter protocol are frozen by a committed golden table
//! (`tests/golden_paths.rs`).

use mm_fault::{BudgetExceeded, BudgetMeter};

use crate::{EdgeHandle, FlowNum};

const NONE: u32 = u32::MAX;

/// A directed flow network with exact capacities on a flat edge arena,
/// tuned for networks with 10^5+ nodes.
#[derive(Debug, Clone)]
pub struct ArenaNetwork<N: FlowNum> {
    /// First edge out of each node (`NONE` when isolated).
    head: Vec<u32>,
    /// Last edge out of each node, for insertion-order append.
    tail: Vec<u32>,
    /// Next edge in the same node's list (`NONE` at the end).
    next: Vec<u32>,
    /// Head endpoint of each edge; the reverse of edge `e` is `e ^ 1`.
    to: Vec<u32>,
    /// Residual capacity of each edge.
    cap: Vec<N>,
    /// Original capacity of each *forward* edge, by handle.
    original_caps: Vec<N>,
    /// Total augmenting paths found over the arena's lifetime.
    augmentations: u64,
    // Scratch reused across phases, calls, and `clear`s.
    level: Vec<u32>,
    iter: Vec<u32>,
    queue: Vec<u32>,
    path: Vec<u32>,
}

impl<N: FlowNum> ArenaNetwork<N> {
    /// Creates an arena with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        ArenaNetwork {
            head: vec![NONE; n],
            tail: vec![NONE; n],
            next: Vec::new(),
            to: Vec::new(),
            cap: Vec::new(),
            original_caps: Vec::new(),
            augmentations: 0,
            level: Vec::new(),
            iter: Vec::new(),
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Rewinds to an empty network with `n` nodes, keeping every allocation
    /// (edge arrays, adjacency cursors, scratch). The lifetime
    /// [`Self::augmentations`] counter is preserved, matching the way
    /// [`Self::reset`] preserves it.
    pub fn clear(&mut self, n: usize) {
        self.head.clear();
        self.head.resize(n, NONE);
        self.tail.clear();
        self.tail.resize(n, NONE);
        self.next.clear();
        self.to.clear();
        self.cap.clear();
        self.original_caps.clear();
    }

    /// Adds a directed edge `from → to` with the given capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: N) -> EdgeHandle {
        assert!(
            from < self.head.len() && to < self.head.len(),
            "node out of range"
        );
        assert!(from != to, "self-loops are not supported");
        assert!(self.original_caps.len() < (NONE / 2) as usize, "arena full");
        let fwd = self.push_half(from, to, cap.clone());
        self.push_half(to, from, N::zero());
        self.original_caps.push(cap);
        debug_assert_eq!(fwd as usize, 2 * (self.original_caps.len() - 1));
        EdgeHandle(self.original_caps.len() - 1)
    }

    /// Appends one directed half-edge at the tail of `from`'s list so that
    /// adjacency order equals insertion order.
    fn push_half(&mut self, from: usize, to: usize, cap: N) -> u32 {
        let e = self.to.len() as u32;
        self.to.push(to as u32);
        self.cap.push(cap);
        self.next.push(NONE);
        match self.tail[from] {
            NONE => self.head[from] = e,
            t => self.next[t as usize] = e,
        }
        self.tail[from] = e;
        e
    }

    /// Flow currently routed through an edge (valid after `max_flow`).
    pub fn flow(&self, handle: EdgeHandle) -> N {
        self.original_caps[handle.0].sub(&self.cap[2 * handle.0])
    }

    /// Original capacity of an edge.
    pub fn capacity(&self, handle: EdgeHandle) -> N {
        self.original_caps[handle.0].clone()
    }

    /// Total augmenting paths found over the arena's lifetime (preserved by
    /// [`Self::reset`] and [`Self::clear`]).
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Clears all flow in place: forward edges return to their original
    /// capacity, reverse edges to zero. Keeps nodes, edges, allocations.
    pub fn reset(&mut self) {
        for (h, orig) in self.original_caps.iter().enumerate() {
            self.cap[2 * h] = orig.clone();
            self.cap[2 * h + 1] = N::zero();
        }
    }

    /// Replaces an edge's capacity, clearing any flow on it. Conservation
    /// at the endpoints is *not* restored — callers [`Self::reset`] first
    /// or otherwise re-solve from a consistent state.
    pub fn set_capacity(&mut self, handle: EdgeHandle, cap: N) {
        self.cap[2 * handle.0] = cap.clone();
        self.cap[2 * handle.0 + 1] = N::zero();
        self.original_caps[handle.0] = cap;
    }

    /// Raises an edge's capacity to `cap` (≥ the current capacity),
    /// preserving routed flow so the next solve continues incrementally.
    pub fn raise_capacity(&mut self, handle: EdgeHandle, cap: N) {
        let old = self.original_caps[handle.0].clone();
        assert!(cap >= old, "raise_capacity would lower the capacity");
        let delta = cap.sub(&old);
        self.cap[2 * handle.0] = self.cap[2 * handle.0].add(&delta);
        self.original_caps[handle.0] = cap;
    }

    /// Computes the maximum `source → sink` flow (Dinic, iterative blocking
    /// flow). Calling again continues from the current residual state.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> N {
        match self.max_flow_budgeted(source, sink, &mut BudgetMeter::unlimited()) {
            Ok(total) => total,
            Err(_) => unreachable!("unlimited meter never trips"),
        }
    }

    /// [`Self::max_flow`] with cooperative cancellation. The meter is ticked
    /// once per BFS phase and once per augmenting-path *attempt* (so a phase
    /// that finds `k` paths ticks `k + 1` times, and a tripped meter never
    /// routes more than `max_augmentations` paths in this call). On
    /// `Err(BudgetExceeded)` the network holds a valid partial flow that a
    /// later call with a fresh meter resumes; on `Ok` the value is the flow
    /// added by *this* call, as with [`Self::max_flow`].
    pub fn max_flow_budgeted(
        &mut self,
        source: usize,
        sink: usize,
        meter: &mut BudgetMeter,
    ) -> Result<N, BudgetExceeded> {
        assert!(source != sink, "source must differ from sink");
        let n = self.head.len();
        self.level.resize(n, NONE);
        self.iter.resize(n, NONE);
        let mut total = N::zero();
        loop {
            meter.tick_phase()?;
            if !self.bfs(source, sink) {
                return Ok(total);
            }
            self.iter.copy_from_slice(&self.head);
            self.path.clear();
            let mut u = source as u32;
            meter.tick_augmentation()?;
            // Iterative advance/augment/retreat. Equivalent to the recursive
            // pointer DFS: after an augmentation, restarting from the source
            // would re-follow the same unsaturated prefix, so retreating to
            // the first saturated edge yields the identical path sequence.
            loop {
                if u as usize == sink {
                    let f = self.augment();
                    self.augmentations += 1;
                    total = total.add(&f);
                    meter.tick_augmentation()?;
                    u = self.retreat_saturated(source);
                    continue;
                }
                // Advance along the first admissible edge out of `u`.
                let mut e = self.iter[u as usize];
                while e != NONE {
                    let v = self.to[e as usize];
                    if !self.cap[e as usize].is_zero()
                        && self.level[v as usize] == self.level[u as usize] + 1
                    {
                        break;
                    }
                    e = self.next[e as usize];
                }
                self.iter[u as usize] = e;
                if e != NONE {
                    self.path.push(e);
                    u = self.to[e as usize];
                } else if u as usize == source {
                    break; // phase blocked
                } else {
                    // Dead end: drop the incoming edge and back up past it.
                    let pe = self.path.pop().expect("non-source node has a path");
                    u = self.to[pe as usize ^ 1];
                    self.iter[u as usize] = self.next[pe as usize];
                }
            }
        }
    }

    /// BFS level graph over residual edges; `true` iff the sink is reached.
    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        self.level.fill(NONE);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push(source as u32);
        let mut qi = 0;
        while qi < self.queue.len() {
            let u = self.queue[qi] as usize;
            qi += 1;
            let mut e = self.head[u];
            while e != NONE {
                let v = self.to[e as usize] as usize;
                if !self.cap[e as usize].is_zero() && self.level[v] == NONE {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v as u32);
                }
                e = self.next[e as usize];
            }
        }
        self.level[sink] != NONE
    }

    /// Pushes the bottleneck of the current source→sink path through its
    /// residual edges and returns it.
    fn augment(&mut self) -> N {
        debug_assert!(!self.path.is_empty());
        let mut f = self.cap[self.path[0] as usize].clone();
        for &e in &self.path[1..] {
            if self.cap[e as usize] < f {
                f = self.cap[e as usize].clone();
            }
        }
        for &e in &self.path {
            self.cap[e as usize] = self.cap[e as usize].sub(&f);
            self.cap[e as usize ^ 1] = self.cap[e as usize ^ 1].add(&f);
        }
        f
    }

    /// Truncates the path at its first saturated edge and returns the node
    /// the next advance starts from (the source if the whole path
    /// survived — impossible right after an augmentation — or the tail of
    /// the first zero-capacity edge).
    fn retreat_saturated(&mut self, source: usize) -> u32 {
        let mut keep = self.path.len();
        for (i, &e) in self.path.iter().enumerate() {
            if self.cap[e as usize].is_zero() {
                keep = i;
                break;
            }
        }
        self.path.truncate(keep);
        match self.path.last() {
            Some(&e) => self.to[e as usize],
            None => source as u32,
        }
    }

    /// After [`Self::max_flow`], marks the nodes reachable from `source` in
    /// the residual graph — the source side of a minimum cut. The interval
    /// nodes on this side are exactly the Theorem-1 witness intervals the
    /// infeasibility certificate is extracted from.
    pub fn residual_reachable(&self, source: usize) -> Vec<bool> {
        let n = self.head.len();
        let mut seen = vec![false; n];
        seen[source] = true;
        let mut stack = vec![source];
        while let Some(u) = stack.pop() {
            let mut e = self.head[u];
            while e != NONE {
                let v = self.to[e as usize] as usize;
                if !self.cap[e as usize].is_zero() && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
                e = self.next[e as usize];
            }
        }
        seen
    }

    /// After [`Self::max_flow`], returns a minimum `s`–`t` cut as the
    /// saturated forward edges out of the source-reachable residual side.
    pub fn min_cut(&self, source: usize) -> Vec<EdgeHandle> {
        let seen = self.residual_reachable(source);
        let mut cut = Vec::new();
        for h in 0..self.original_caps.len() {
            let from = self.to[2 * h + 1] as usize;
            let to = self.to[2 * h] as usize;
            if seen[from] && !seen[to] {
                cut.push(EdgeHandle(h));
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_numeric::Rat;
    use std::fmt::Debug;

    /// Solves `edges` from node 0 to node `n − 1` twice — with `max_flow`
    /// and with an unlimited meter — and checks both against the expected
    /// flow value and augmenting-path count.
    fn check<N: FlowNum + Debug>(
        name: &str,
        n: usize,
        edges: &[(usize, usize, N)],
        flow: N,
        paths: u64,
    ) {
        let build = || {
            let mut net = ArenaNetwork::<N>::new(n);
            for (u, v, c) in edges {
                net.add_edge(*u, *v, c.clone());
            }
            net
        };
        let (mut plain, mut metered) = (build(), build());
        assert_eq!(plain.max_flow(0, n - 1), flow, "{name}");
        assert_eq!(plain.augmentations(), paths, "{name}");
        let unlimited = metered.max_flow_budgeted(0, n - 1, &mut BudgetMeter::unlimited());
        assert_eq!(unlimited, Ok(flow), "{name}: unlimited meter");
        assert_eq!(metered.augmentations(), paths, "{name}: unlimited meter");
        // A second solve finds no further path.
        assert_eq!(plain.max_flow(0, n - 1), N::zero(), "{name}: re-run");
        assert_eq!(plain.augmentations(), paths, "{name}: re-run");
    }

    /// `(name, nodes, edges, max flow, augmenting paths)`.
    type Case = (
        &'static str,
        usize,
        &'static [(usize, usize, u64)],
        u64,
        u64,
    );

    #[test]
    fn known_graphs() {
        #[rustfmt::skip]
        let cases: &[Case] = &[
            ("single edge", 2, &[(0, 1, 7)], 7, 1),
            ("disconnected", 4, &[(0, 1, 5), (2, 3, 5)], 0, 0),
            ("bottleneck path", 4, &[(0, 1, 10), (1, 2, 1), (2, 3, 10)], 1, 1),
            ("two unit paths", 4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 2, 2),
            // 3 × 3 bipartite matching L1–{R1,R2}, L2–{R1}, L3–{R2,R3}: the
            // third unit needs a second phase that reroutes L1 and L3.
            ("bipartite matching", 8, &[
                (0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 7, 1), (5, 7, 1), (6, 7, 1),
                (1, 4, 1), (1, 5, 1), (2, 4, 1), (3, 5, 1), (3, 6, 1),
            ], 3, 3),
        ];
        for &(name, n, edges, flow, paths) in cases {
            check(name, n, edges, flow, paths);
        }
        let r = Rat::ratio;
        let mixed = [(0, 1, r(1, 2)), (0, 1, r(1, 3)), (1, 2, r(1, 7))];
        check("mixed denominators", 3, &mixed, r(1, 7), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        ArenaNetwork::<u64>::new(2).add_edge(1, 1, 3);
    }

    #[test]
    #[should_panic(expected = "lower the capacity")]
    fn raise_capacity_rejects_decrease() {
        let mut net = ArenaNetwork::<u64>::new(2);
        let e = net.add_edge(0, 1, 5);
        net.raise_capacity(e, 3);
    }

    #[test]
    fn diamond_and_readback() {
        let mut net = ArenaNetwork::<u64>::new(4);
        let e1 = net.add_edge(0, 1, 3);
        let e2 = net.add_edge(0, 2, 2);
        let e3 = net.add_edge(1, 3, 2);
        let e4 = net.add_edge(2, 3, 3);
        let e5 = net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
        assert_eq!(net.flow(e1) + net.flow(e2), 5);
        assert_eq!(net.flow(e3) + net.flow(e4), 5);
        assert_eq!(net.flow(e1), net.flow(e3) + net.flow(e5));
        // Idempotent re-run.
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn reset_set_raise() {
        let mut net = ArenaNetwork::<u64>::new(3);
        net.add_edge(0, 1, 10);
        let mid = net.add_edge(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
        net.raise_capacity(mid, 6);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.flow(mid), 6);
        net.reset();
        assert_eq!(net.flow(mid), 0);
        net.set_capacity(mid, 1);
        assert_eq!(net.max_flow(0, 2), 1);
    }

    #[test]
    fn clear_reuses_arena() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(1, 3, 3);
        assert_eq!(net.max_flow(0, 3), 3);
        let lifetime = net.augmentations();
        net.clear(3);
        assert_eq!(net.len(), 3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert!(net.augmentations() > lifetime);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 2, 5);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        let f = net.max_flow(0, 3);
        let cut = net.min_cut(0);
        let cut_cap: u64 = cut.iter().map(|h| net.capacity(*h)).sum();
        assert_eq!(cut_cap, f);
        for h in cut {
            assert_eq!(net.flow(h), net.capacity(h));
        }
    }

    #[test]
    fn budgeted_cancellation_resumes() {
        use mm_fault::{Budget, BudgetExceeded, BudgetMeter};
        let mut net = ArenaNetwork::<u64>::new(6);
        for mid in 1..5 {
            net.add_edge(0, mid, 1);
            net.add_edge(mid, 5, 1);
        }
        let budget = Budget::unlimited().with_augmentations(2);
        let mut meter = BudgetMeter::new(&budget);
        let err = net.max_flow_budgeted(0, 5, &mut meter).unwrap_err();
        assert!(matches!(err, BudgetExceeded::Augmentations { limit: 2 }));
        assert_eq!(net.max_flow(0, 5), 2);
        assert_eq!(net.augmentations(), 4);
    }

    #[test]
    fn i128_capacities() {
        let big = 1i128 << 90;
        let mut net = ArenaNetwork::<i128>::new(3);
        net.add_edge(0, 1, big);
        net.add_edge(1, 2, big / 2);
        assert_eq!(net.max_flow(0, 2), big / 2);
    }
}
