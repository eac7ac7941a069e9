//! BPRIM: the bounded-Prim baseline of Cong et al. (paper §2).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use bmst_geom::{le_tol, NeighborIndex, Net};
use bmst_graph::Edge;
use bmst_tree::RoutingTree;

use crate::{BmstError, PathConstraint, ProblemContext};

/// Constructs a bounded path length spanning tree with the BPRIM heuristic
/// of Cong et al. ("Provably Good Performance-Driven Global Routing",
/// IEEE TCAD 1992), the baseline the paper compares against.
///
/// BPRIM grows a single tree from the source, Prim-style: at each step it
/// adds the cheapest edge `(u, v)` with `u` in the tree and `v` outside such
/// that the new node meets its *per-node* radius bound,
/// `path(S, u) + dist(u, v) <= (1 + eps) * dist(S, v)` (Cong et al.'s
/// formulation; it implies the global bound `(1 + eps) * R`). A direct
/// source edge is always admissible, so the construction always completes —
/// but, as the paper's Figure 1 shows, the per-node budget is quickly
/// exhausted along grown paths, far-away clusters end up star-connected to
/// the source, and the worst-case performance ratio is unbounded.
///
/// `O(V^2)`.
///
/// # Errors
///
/// [`BmstError::InvalidEpsilon`] for negative/NaN `eps`.
///
/// # Examples
///
/// ```
/// use bmst_core::{bkrus, bprim};
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(6.0, 0.0),
///     Point::new(6.0, 1.0),
/// ])?;
/// let t = bprim(&net, 0.2)?;
/// assert!(t.source_radius() <= 1.2 * net.source_radius() + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bprim(net: &Net, eps: f64) -> Result<RoutingTree, BmstError> {
    // Validates eps; the per-node bounds below are tighter than
    // constraint.upper.
    let cx = ProblemContext::new(net, eps)?;
    run(&cx)
}

/// Context-based BPRIM driver; the per-node budget uses the context's raw
/// `eps`, the audit its validated constraint. Candidates come from the
/// grid neighbor index through a per-tree-node candidate heap, which
/// resolves ties with the same lowest-`(weight, u, v)` rule as a full scan
/// of every (tree node, outside node) pair each step.
pub(crate) fn run(cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    // BPRIM/BRBC promise only the upper bound; audit with the lower
    // bound dropped so a two-sided window is not mis-attributed to them.
    let constraint = PathConstraint {
        lower: 0.0,
        upper: cx.constraint().upper,
    };
    let n = net.len();
    let s = net.source();
    if n == 1 {
        let tree = RoutingTree::from_edges(1, s, [])?;
        crate::audit::debug_audit(net, &tree, Some(&constraint));
        return Ok(tree);
    }
    let edges = attach_all(cx)?;
    let tree = RoutingTree::from_edges(n, s, edges)?;
    crate::audit::debug_audit(net, &tree, Some(&constraint));
    Ok(tree)
}

/// A candidate attachment `(w, u, v)`: tree node `u` offering outside
/// node `v` at distance `w`. `Ord` is the full scan's exact tie-break —
/// weight (`total_cmp`), then `u`, then `v` — so the heap's minimum is
/// always the pair a full scan would have chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    w: f64,
    u: usize,
    v: usize,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.w
            .total_cmp(&other.w)
            .then(self.u.cmp(&other.u))
            .then(self.v.cmp(&other.v))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Expanding nearest-neighbor enumeration for one tree node: yields all
/// other terminals in exact increasing `(dist, id)` order by growing a
/// half-open weight window over the grid index. Each refill appends a
/// locally-sorted batch whose weights all exceed the previous window's
/// cap, so the concatenated list stays globally sorted.
struct NearestSearch {
    list: Vec<(f64, usize)>,
    cursor: usize,
    lo: f64,
    hi: f64,
    exhausted: bool,
}

impl NearestSearch {
    fn new(index: &NeighborIndex<'_>) -> Self {
        let diameter = index.diameter_bound();
        let first = index
            .cell_size()
            .max(diameter * 1e-6)
            .max(f64::MIN_POSITIVE);
        NearestSearch {
            list: Vec::new(),
            cursor: 0,
            lo: -1.0,
            hi: first.min(diameter),
            exhausted: false,
        }
    }

    /// The enumeration's next `(dist, id)` pair, expanding the window on
    /// demand; `None` once every other terminal has been yielded.
    // analyze: allow(cancel-liveness) — refill is bounded by annulus doubling; the BPRIM attachment loop polls per iteration
    fn next(&mut self, origin: usize, index: &NeighborIndex<'_>) -> Option<(f64, usize)> {
        while self.cursor >= self.list.len() {
            if self.exhausted {
                return None;
            }
            let filled = self.list.len();
            index.neighbors_in_annulus(origin, self.lo, self.hi, &mut self.list);
            self.list[filled..].sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            if self.hi >= index.diameter_bound() {
                self.exhausted = true;
            } else {
                self.lo = self.hi;
                self.hi = (self.hi * 2.0).min(index.diameter_bound());
            }
        }
        let pair = self.list[self.cursor];
        self.cursor += 1;
        Some(pair)
    }
}

/// The attachment loop: a min-heap holds, for every tree node `u`, `u`'s
/// cheapest not-yet-dismissed outside neighbor. Stale candidates (target
/// already absorbed) advance `u`'s enumeration and retry; bound-infeasible
/// candidates are dismissed permanently — `path(S, u)` is fixed once `u`
/// joins the tree and `v`'s per-node bound is fixed while `v` is outside,
/// so an infeasible pair can never become feasible (a full scan would
/// re-check and re-reject it every step; dismissing it is equivalent).
// analyze: complexity(n^2)
fn attach_all(cx: &ProblemContext<'_>) -> Result<Vec<Edge>, BmstError> {
    let net = cx.net();
    let eps = cx.eps();
    let n = net.len();
    let s = net.source();
    let index = cx.neighbor_index();
    let dist_s: Vec<f64> = (0..n).map(|v| cx.dist(s, v)).collect();

    let mut in_tree = vec![false; n];
    let mut path_s = vec![0.0; n]; // path(S, x) for tree nodes
    in_tree[s] = true;
    let mut searches: Vec<Option<NearestSearch>> = (0..n).map(|_| None).collect();
    let mut heap: BinaryHeap<Reverse<Cand>> = BinaryHeap::with_capacity(n);
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let obs_span = bmst_obs::span("bprim");
    let mut scanned = 0u64;
    let mut bound_rejects = 0u64;

    // Offers a tree node's next enumerated neighbor to the heap.
    let offer = |u: usize,
                 searches: &mut Vec<Option<NearestSearch>>,
                 heap: &mut BinaryHeap<Reverse<Cand>>| {
        if let Some(search) = &mut searches[u] {
            if let Some((w, v)) = search.next(u, index) {
                heap.push(Reverse(Cand { w, u, v }));
            }
        }
    };

    searches[s] = Some(NearestSearch::new(index));
    offer(s, &mut searches, &mut heap);

    for _ in 1..n {
        // One attachment per iteration, each a cancellation poll.
        cx.check_cancelled()?;
        // Pop until the minimum candidate is live and feasible; by the
        // dismissal argument above it is exactly a full scan's pick.
        let attachment = loop {
            let Some(Reverse(cand)) = heap.pop() else {
                break None;
            };
            offer(cand.u, &mut searches, &mut heap);
            if in_tree[cand.v] {
                continue; // stale: target joined through another node
            }
            scanned += 1;
            let node_bound = if eps.is_infinite() {
                f64::INFINITY
            } else {
                (1.0 + eps) * dist_s[cand.v]
            };
            if !le_tol(path_s[cand.u] + cand.w, node_bound) {
                bound_rejects += 1;
                continue; // permanently infeasible for this (u, v)
            }
            break Some(cand);
        };
        match attachment {
            Some(Cand { w, u, v }) => {
                in_tree[v] = true;
                path_s[v] = path_s[u] + w;
                edges.push(Edge::new(u, v, w));
                searches[v] = Some(NearestSearch::new(index));
                offer(v, &mut searches, &mut heap);
            }
            None => {
                // Unreachable for eps >= 0 (direct source edges are always
                // feasible); report rather than assert.
                let connected = in_tree.iter().filter(|&&b| b).count();
                return Err(BmstError::Infeasible {
                    connected,
                    total: n,
                    min_feasible_eps: None,
                });
            }
        }
    }

    if bmst_obs::enabled() {
        bmst_obs::counter("bprim.attachments_scanned", scanned);
        bmst_obs::counter("bprim.rejected_bound", bound_rejects);
    }
    drop(obs_span);

    Ok(edges)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::{bkrus, mst_tree};
    use bmst_geom::Point;

    fn cluster_net() -> Net {
        // Source far to the left; a tight cluster of sinks on the right.
        let mut pts = vec![Point::new(0.0, 0.0)];
        for i in 0..6 {
            pts.push(Point::new(
                20.0 + 0.2 * (i % 3) as f64,
                0.2 * (i / 3) as f64,
            ));
        }
        Net::with_source_first(pts).unwrap()
    }

    #[test]
    fn respects_bound() {
        let net = cluster_net();
        for eps in [0.0, 0.1, 0.3, 1.0] {
            let t = bprim(&net, eps).unwrap();
            assert!(t.is_spanning());
            assert!(t.source_radius() <= (1.0 + eps) * net.source_radius() + 1e-9);
        }
    }

    #[test]
    fn infinite_eps_matches_mst() {
        let net = cluster_net();
        let t = bprim(&net, f64::INFINITY).unwrap();
        assert!((t.cost() - mst_tree(&net).cost()).abs() < 1e-9);
    }

    #[test]
    fn bkrus_dominates_bprim_on_average() {
        // The paper's Table 4: BKRUS's average perf ratio beats BPRIM's at
        // every net size and eps. Aggregate over seeded random nets; single
        // instances can go either way (BPRIM occasionally wins a layout).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for eps in [0.0, 0.2] {
            let mut pb_total = 0.0;
            let mut bk_total = 0.0;
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let pts = (0..10)
                    .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                    .collect();
                let net = Net::with_source_first(pts).unwrap();
                pb_total += bprim(&net, eps).unwrap().cost();
                bk_total += bkrus(&net, eps).unwrap().cost();
            }
            assert!(
                bk_total < pb_total,
                "eps {eps}: BKRUS total {bk_total} vs BPRIM total {pb_total}"
            );
        }
    }

    #[test]
    fn bprim_per_node_bound_holds() {
        // Cong et al.'s invariant is per sink, stronger than the global
        // radius bound.
        let net = cluster_net();
        for eps in [0.0, 0.1, 0.5] {
            let t = bprim(&net, eps).unwrap();
            for v in net.sinks() {
                assert!(
                    t.dist_from_root(v) <= (1.0 + eps) * net.dist(net.source(), v) + 1e-9,
                    "eps {eps} node {v}"
                );
            }
        }
    }

    #[test]
    fn negative_eps_rejected() {
        assert!(matches!(
            bprim(&cluster_net(), -1.0),
            Err(BmstError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn trivial_nets() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0)]).unwrap();
        assert_eq!(bprim(&net, 0.0).unwrap().cost(), 0.0);
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).unwrap();
        assert_eq!(bprim(&net, 0.0).unwrap().cost(), 2.0);
    }

    #[test]
    fn cost_at_least_mst() {
        let net = cluster_net();
        let mst = mst_tree(&net).cost();
        for eps in [0.0, 0.2, 0.5] {
            assert!(bprim(&net, eps).unwrap().cost() + 1e-9 >= mst);
        }
    }
}
