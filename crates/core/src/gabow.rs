//! BMST_G: exact bounded path length MST by enumerating spanning trees in
//! nondecreasing cost order (paper §4, after Gabow 1977).
//!
//! Gabow's algorithm generates all spanning trees in order of increasing
//! cost via minimal T-exchanges; the first generated tree that satisfies the
//! path-length bound is an optimal BMST. We implement the standard
//! partition-refinement formulation of that enumeration: a priority queue of
//! subproblems `(forced edges, banned edges)`, each represented by its
//! constrained MST, popped in order of tree cost and split along the popped
//! tree's free edges. The enumeration order is exactly nondecreasing tree
//! cost, as in Gabow's method, with polynomially bounded state per queued
//! partition.
//!
//! The paper's Lemmas 4.1-4.3 shrink the search space before enumeration
//! starts and are implemented in [`preprocess_edges`].

use bmst_geom::Net;
use bmst_graph::{complete_edges, Edge, SpanningTreeEnumerator};
use bmst_tree::RoutingTree;

use crate::{BmstError, PathConstraint, ProblemContext};

/// Configuration for the exact enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GabowConfig {
    /// Maximum number of spanning trees to examine before giving up with
    /// [`BmstError::TreeLimitExceeded`]. The paper reports its Gabow
    /// implementation failing with memory overflow beyond ~15 sinks; the
    /// budget turns that failure mode into a clean error.
    pub max_trees: usize,
    /// Apply the paper's Lemma 4.1-4.3 (and 6.1) edge preprocessing before
    /// enumerating. On by default; disabling it exists for the ablation
    /// benchmark that measures how much the lemmas shrink the search.
    pub use_pruning: bool,
}

impl Default for GabowConfig {
    fn default() -> Self {
        GabowConfig {
            max_trees: 2_000_000,
            use_pruning: true,
        }
    }
}

/// Result of a successful exact search.
#[derive(Debug, Clone)]
pub struct GabowOutcome {
    /// The optimal bounded path length spanning tree.
    pub tree: RoutingTree,
    /// How many spanning trees were examined (in nondecreasing cost order)
    /// before the first feasible one appeared.
    pub trees_examined: usize,
}

/// Edge preprocessing per the paper's Lemmas 4.1, 4.2, 4.3 (and 6.1 when a
/// lower bound is active).
///
/// Returns `(kept, forced)`:
///
/// * Lemma 4.1 — a sink-sink edge strictly heavier than both endpoints'
///   direct source edges cannot appear in an optimal solution → dropped.
///   (Skipped when a lower bound is active: its replacement argument can
///   shorten paths below the lower bound.)
/// * Lemma 4.2 — a sink-sink edge that would push one of its endpoints over
///   the upper bound no matter how the tree is completed → dropped.
/// * Lemma 4.3 — a sink whose every indirect route violates the upper bound
///   must use its direct source edge → forced.
/// * Lemma 6.1 — direct source edges shorter than the lower bound → dropped.
///
/// # Examples
///
/// ```
/// use bmst_core::{preprocess_edges, PathConstraint};
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(-10.0, 0.0),
/// ])?;
/// // eps = 0: each sink must be reached directly; both source edges are
/// // forced and the sink-sink edge is eliminated.
/// let c = PathConstraint::from_eps(&net, 0.0)?;
/// let (kept, forced) = preprocess_edges(&net, c);
/// assert_eq!(forced.len(), 2);
/// assert_eq!(kept.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn preprocess_edges(net: &Net, constraint: PathConstraint) -> (Vec<Edge>, Vec<Edge>) {
    let cx = ProblemContext::with_constraint(net, constraint);
    preprocess_edges_cx(&cx)
}

/// [`preprocess_edges`] over a shared [`ProblemContext`] (reuses the cached
/// distance matrix).
// analyze: allow(cancel-liveness) — flat filter passes with no error channel; BKRUS polls per merge downstream
pub(crate) fn preprocess_edges_cx(cx: &ProblemContext<'_>) -> (Vec<Edge>, Vec<Edge>) {
    let net = cx.net();
    let constraint = *cx.constraint();
    let d = cx.matrix();
    let s = net.source();
    let upper = constraint.upper;
    let mut kept = Vec::new();
    let mut forced = Vec::new();

    for e in complete_edges(d) {
        // Lemma 6.1.
        if constraint.has_lower() && e.connects(s) && e.weight < constraint.lower {
            continue;
        }
        if !e.connects(s) && upper.is_finite() {
            let (a, b) = e.endpoints();
            // Lemma 4.2.
            let beyond_a = d[(s, a)] + e.weight > upper + bmst_geom::EPS_TOL;
            let beyond_b = d[(s, b)] + e.weight > upper + bmst_geom::EPS_TOL;
            if beyond_a && beyond_b {
                continue;
            }
            // Lemma 4.1 (upper-bound-only reasoning).
            if !constraint.has_lower()
                && e.weight > d[(s, a)] + bmst_geom::EPS_TOL
                && e.weight > d[(s, b)] + bmst_geom::EPS_TOL
            {
                continue;
            }
        }
        kept.push(e);
    }

    // Lemma 4.3: force direct source edges whose sink has no admissible
    // indirect route.
    if upper.is_finite() {
        for a in net.sinks() {
            let all_indirect_violate = (0..net.len())
                .filter(|&x| x != a && x != s)
                .all(|x| d[(s, x)] + d[(x, a)] > upper + bmst_geom::EPS_TOL);
            if all_indirect_violate {
                if let Some(&e) = kept.iter().find(|e| e.connects(s) && e.connects(a)) {
                    forced.push(e);
                }
                // If the direct edge was eliminated by Lemma 6.1 the
                // instance is infeasible; the enumeration will discover this
                // (no spanning tree can satisfy the constraints).
            }
        }
    }

    (kept, forced)
}

/// Exact optimum BMST via Gabow-style enumeration with default
/// configuration; see [`gabow_bmst_with`].
///
/// # Errors
///
/// Same conditions as [`gabow_bmst_with`].
pub fn gabow_bmst(net: &Net, eps: f64) -> Result<RoutingTree, BmstError> {
    let cx = ProblemContext::new(net, eps)?;
    run(&cx, GabowConfig::default()).map(|o| o.tree)
}

/// Exact optimum bounded path length spanning tree: spanning trees are
/// generated in nondecreasing cost order and the first one satisfying
/// `constraint` is returned. Supports two-sided constraints (§6).
///
/// # Errors
///
/// * [`BmstError::Infeasible`] when no spanning tree satisfies the
///   constraints (possible with a lower bound, or with pathological edge
///   eliminations);
/// * [`BmstError::TreeLimitExceeded`] when more than `config.max_trees`
///   trees were examined.
///
/// # Examples
///
/// ```
/// use bmst_core::{gabow_bmst_with, GabowConfig, PathConstraint};
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(5.0, 0.0),
///     Point::new(5.0, 2.0),
/// ])?;
/// let c = PathConstraint::from_eps(&net, 0.1)?;
/// let out = gabow_bmst_with(&net, c, GabowConfig::default())?;
/// assert!(out.trees_examined >= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gabow_bmst_with(
    net: &Net,
    constraint: PathConstraint,
    config: GabowConfig,
) -> Result<GabowOutcome, BmstError> {
    let cx = ProblemContext::with_constraint(net, constraint);
    run(&cx, config)
}

/// Context-based exact enumeration driver.
pub(crate) fn run(cx: &ProblemContext<'_>, config: GabowConfig) -> Result<GabowOutcome, BmstError> {
    let net = cx.net();
    let constraint = *cx.constraint();
    let n = net.len();
    let s = net.source();
    if n == 1 {
        let tree = RoutingTree::from_edges(1, s, [])?;
        crate::audit::debug_audit(net, &tree, Some(&constraint));
        return Ok(GabowOutcome {
            tree,
            trees_examined: 1,
        });
    }

    let _obs_span = bmst_obs::span("gabow");
    let (edges, forced_edges) = if config.use_pruning {
        preprocess_edges_cx(cx)
    } else {
        (complete_edges(cx.matrix()), Vec::new())
    };
    if bmst_obs::enabled() {
        let total = net.complete_edge_count();
        let kept = edges.len();
        bmst_obs::counter(
            "gabow.edges_pruned",
            u64::try_from(total.saturating_sub(kept)).unwrap_or(u64::MAX),
        );
        bmst_obs::counter(
            "gabow.edges_forced",
            u64::try_from(forced_edges.len()).unwrap_or(u64::MAX),
        );
    }
    let forced_pairs: Vec<(usize, usize)> = forced_edges.iter().map(Edge::endpoints).collect();

    let sinks: Vec<usize> = net.sinks().collect();
    let enumerator = SpanningTreeEnumerator::with_forced(n, edges, &forced_pairs);
    let mut examined = 0usize;
    for candidate in enumerator {
        // Cooperative cancellation: every candidate costs a tree build, so
        // a strided poll keeps a never-token free and a live one cheap.
        if examined & 0x3f == 0 {
            cx.check_cancelled()?;
        }
        examined += 1;
        if examined > config.max_trees {
            bmst_obs::counter("gabow.budget_exhausted", 1);
            return Err(BmstError::TreeLimitExceeded {
                limit: config.max_trees,
            });
        }
        let tree = RoutingTree::from_edges(n, s, candidate.edges)?;
        if constraint.is_satisfied_by(&tree, sinks.iter().copied()) {
            bmst_obs::counter(
                "gabow.trees_examined",
                u64::try_from(examined).unwrap_or(u64::MAX),
            );
            crate::audit::debug_audit(net, &tree, Some(&constraint));
            return Ok(GabowOutcome {
                tree,
                trees_examined: examined,
            });
        }
    }

    Err(BmstError::Infeasible {
        connected: 1,
        total: n,
        min_feasible_eps: None,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::{bkrus, mst_tree, spt_tree};
    use bmst_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_net(seed: u64, n: usize) -> Net {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
            .collect();
        Net::with_source_first(pts).unwrap()
    }

    /// Brute force optimum by enumerating all spanning trees (tiny n).
    fn brute_force_opt(net: &Net, eps: f64) -> Option<f64> {
        let n = net.len();
        let d = net.distance_matrix();
        let all = complete_edges(&d);
        let bound = net.path_bound(eps);
        let mut best: Option<f64> = None;
        // Choose n-1 edges out of all: enumerate bitmasks.
        let m = all.len();
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != n - 1 {
                continue;
            }
            let chosen: Vec<Edge> = (0..m)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| all[i])
                .collect();
            if let Ok(t) = RoutingTree::from_edges(n, net.source(), chosen) {
                if t.is_spanning() && t.satisfies_upper_bound(bound, net.sinks()) {
                    let c = t.cost();
                    best = Some(best.map_or(c, |b: f64| b.min(c)));
                }
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_small_nets() {
        for seed in 0..6 {
            let net = random_net(seed, 5);
            for eps in [0.0, 0.2, 0.5, 1.0] {
                let exact = gabow_bmst(&net, eps).unwrap();
                let brute = brute_force_opt(&net, eps).unwrap();
                assert!(
                    (exact.cost() - brute).abs() < 1e-9,
                    "seed {seed} eps {eps}: gabow {} vs brute {brute}",
                    exact.cost()
                );
            }
        }
    }

    #[test]
    fn result_satisfies_bound() {
        let net = random_net(42, 8);
        for eps in [0.0, 0.3, 1.0] {
            let t = gabow_bmst(&net, eps).unwrap();
            assert!(t.source_radius() <= (1.0 + eps) * net.source_radius() + 1e-9);
        }
    }

    #[test]
    fn infinite_eps_returns_mst_immediately() {
        let net = random_net(7, 9);
        let c = PathConstraint::from_eps(&net, f64::INFINITY).unwrap();
        let out = gabow_bmst_with(&net, c, GabowConfig::default()).unwrap();
        assert_eq!(out.trees_examined, 1);
        assert!((out.tree.cost() - mst_tree(&net).cost()).abs() < 1e-9);
    }

    #[test]
    fn never_worse_than_bkrus() {
        for seed in 0..5 {
            let net = random_net(seed + 100, 7);
            for eps in [0.0, 0.2, 0.5] {
                let exact = gabow_bmst(&net, eps).unwrap().cost();
                let heur = bkrus(&net, eps).unwrap().cost();
                assert!(exact <= heur + 1e-9, "seed {seed} eps {eps}");
            }
        }
    }

    #[test]
    fn never_worse_than_spt() {
        // The SPT is always feasible for eps >= 0, so the optimum is at most
        // its cost.
        let net = random_net(3, 8);
        let exact = gabow_bmst(&net, 0.0).unwrap().cost();
        assert!(exact <= spt_tree(&net).cost() + 1e-9);
    }

    #[test]
    fn tree_limit_respected() {
        // A bound so tight relative to an adversarial layout that many trees
        // must be enumerated; with budget 1, only the MST is examined and it
        // is infeasible.
        // Seed chosen so the (pruned) constrained MST is infeasible at
        // eps = 0: the enumeration must request a second tree and trip the
        // budget. (On some seeds pruning alone already yields a feasible
        // first tree, which returns Ok without touching the limit.)
        let net = random_net(6, 8);
        let c = PathConstraint::from_eps(&net, 0.0).unwrap();
        let mst_radius = mst_tree(&net).source_radius();
        assert!(
            mst_radius > net.source_radius() + 1e-9,
            "need a non-star MST"
        );
        let res = gabow_bmst_with(
            &net,
            c,
            GabowConfig {
                max_trees: 1,
                ..GabowConfig::default()
            },
        );
        assert!(matches!(
            res,
            Err(BmstError::TreeLimitExceeded { limit: 1 })
        ));
    }

    #[test]
    fn lub_infeasible_window_detected() {
        // Sinks at distances 2 and 10; require all paths in [9, 10.5]:
        // the near sink cannot reach the window floor with a spanning tree
        // that also respects the ceiling for itself... actually its direct
        // edge (length 2) is banned by Lemma 6.1 and every detour via the
        // far sink gives 10 + 8 = 18 > 10.5.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap();
        let c = PathConstraint::explicit(9.0, 10.5).unwrap();
        let res = gabow_bmst_with(&net, c, GabowConfig::default());
        assert!(matches!(res, Err(BmstError::Infeasible { .. })), "{res:?}");
    }

    #[test]
    fn lub_feasible_window_found() {
        // Sinks at 8 and 10 on a line; window [7, 12] admits the chain
        // S -> a(8) -> ... and direct edges.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap();
        let c = PathConstraint::explicit(7.0, 12.0).unwrap();
        let out = gabow_bmst_with(&net, c, GabowConfig::default()).unwrap();
        for v in net.sinks() {
            let p = out.tree.dist_from_root(v);
            assert!((7.0..=12.0 + 1e-9).contains(&p));
        }
        // Optimal: S-a (8) + a-b (2) = 10, paths 8 and 10.
        assert!((out.tree.cost() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn preprocess_lemma_4_2_eliminates_hopeless_edges() {
        // Sinks a and b both far from S and from each other; with eps = 0 the
        // edge (a, b) pushes either endpoint over the bound.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let c = PathConstraint::from_eps(&net, 0.0).unwrap();
        let (kept, _) = preprocess_edges(&net, c);
        assert!(!kept.iter().any(|e| e.endpoints() == (1, 2)));
    }

    #[test]
    fn preprocess_lemma_4_1_eliminates_heavy_sink_edges() {
        // Sink-sink edge heavier than both direct edges, bound loose enough
        // that Lemma 4.2 does not fire.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(-3.0, 0.0),
        ])
        .unwrap();
        let c = PathConstraint::from_eps(&net, 10.0).unwrap();
        let (kept, _) = preprocess_edges(&net, c);
        // (1,2) has weight 6 > 3 on both sides -> eliminated by 4.1.
        assert!(!kept.iter().any(|e| e.endpoints() == (1, 2)));
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn preprocess_keeps_everything_when_unbounded() {
        let net = random_net(0, 6);
        let c = PathConstraint::from_eps(&net, f64::INFINITY).unwrap();
        let (kept, forced) = preprocess_edges(&net, c);
        assert_eq!(kept.len(), net.complete_edge_count());
        assert!(forced.is_empty());
    }

    #[test]
    fn single_node() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0)]).unwrap();
        assert_eq!(gabow_bmst(&net, 0.0).unwrap().cost(), 0.0);
    }
}
