//! BRBC: the bounded-radius-bounded-cost baseline of Cong et al. (paper §2).

use bmst_geom::Net;
use bmst_graph::{dijkstra, prim_mst_with, AdjacencyList, Edge};
use bmst_tree::RoutingTree;

use crate::{BmstError, PathConstraint, ProblemContext};

/// Constructs a bounded-radius spanning tree with the BRBC algorithm of
/// Cong et al.
///
/// BRBC starts from the MST and walks its depth-first tour from the source,
/// accumulating traversed wirelength. Whenever the accumulated length since
/// the last "shortcut" reaches `eps * dist(S, v)` at a newly visited node
/// `v`, the shortest source path to `v` (the direct edge, in a metric
/// complete graph) is added to a working graph `Q` and the accumulator
/// resets. The returned tree is the shortest path tree of
/// `Q = MST + shortcuts`, which guarantees the radius bound
/// `path(S, v) <= (1 + eps) * R` for every sink (and, per node,
/// `path(S, v) <= (1 + 2 eps) * dist(S, v)` by the triangle inequality
/// along the walk), with `cost <= (1 + 2 / eps) * cost(MST)`.
///
/// The paper notes BRBC "may introduce unnecessary routing cost" because the
/// shortcut paths ignore the tree built so far; its ratios in Table 4 are
/// consistently the worst of the bounded constructions.
///
/// # Errors
///
/// [`BmstError::InvalidEpsilon`] for negative/NaN `eps`.
///
/// # Examples
///
/// ```
/// use bmst_core::brbc;
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(4.0, 4.0),
///     Point::new(0.0, 4.0),
/// ])?;
/// let t = brbc(&net, 0.5)?;
/// assert!(t.source_radius() <= 1.5 * net.source_radius() + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn brbc(net: &Net, eps: f64) -> Result<RoutingTree, BmstError> {
    // Validate eps through the shared constraint machinery.
    let cx = ProblemContext::new(net, eps)?;
    run(&cx)
}

/// Context-based BRBC driver; the shortcut trigger uses the context's raw
/// `eps`, the audit its validated constraint.
#[allow(clippy::expect_used)] // connectivity invariant, justified inline
pub(crate) fn run(cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    let eps = cx.eps();
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
    let mst = prim_mst_with(n, s, |i, j| cx.dist(i, j));

    if eps.is_infinite() {
        // No shortcut ever triggers; the result is the MST itself.
        let tree = RoutingTree::from_edges(n, s, mst)?;
        crate::audit::debug_audit(net, &tree, None);
        return Ok(tree);
    }

    // Q starts as the MST.
    let mut q = AdjacencyList::from_edges(n, &mst);
    let mst_tree = RoutingTree::from_edges(n, s, mst.clone())?;

    // Depth-first tour from the source over the MST, accumulating traversed
    // length (forward and backtrack edges both count, as in the Euler tour
    // formulation of BRBC).
    let mut accumulated = 0.0_f64;
    // Iterative DFS that also records backtracking steps.
    enum Step {
        Visit { node: usize, via_len: f64 },
        Backtrack { len: f64 },
    }
    let mut stack = vec![Step::Visit {
        node: s,
        via_len: 0.0,
    }];
    while let Some(step) = stack.pop() {
        match step {
            Step::Backtrack { len } => accumulated += len,
            Step::Visit { node: v, via_len } => {
                accumulated += via_len;
                if v != s {
                    let direct = cx.dist(s, v);
                    if accumulated >= eps * direct {
                        // Add the shortest source path to v: the direct edge.
                        q.add_edge(s, v, direct);
                        accumulated = 0.0;
                    }
                }
                // Children in reverse order so traversal follows tree order.
                for &c in mst_tree.children(v).iter().rev() {
                    cx.check_cancelled()?;
                    let len = mst_tree.parent_edge_weight(c);
                    stack.push(Step::Backtrack { len });
                    stack.push(Step::Visit {
                        node: c,
                        via_len: len,
                    });
                }
            }
        }
    }

    // Final tree: shortest path tree of Q from the source.
    let sp = dijkstra(&q, s);
    let edges = (0..n).filter(|&v| v != s).map(|v| {
        // lint: allow(no-panic) — Q contains the MST edges, so every node is reachable
        let p = sp.parent[v].expect("Q contains the MST, so it is connected");
        Edge::new(p, v, sp.dist[v] - sp.dist[p])
    });
    let tree = RoutingTree::from_edges(n, s, edges)?;
    crate::audit::debug_audit(net, &tree, Some(&constraint));
    Ok(tree)
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
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        Net::with_source_first(pts).unwrap()
    }

    #[test]
    fn radius_bound_holds_per_node() {
        // BRBC's theorem is the global radius bound
        // `path(S, v) <= (1 + eps) * R`; per node the accumulated-walk
        // trigger only yields `path(S, v) <= (1 + 2 eps) * dist(S, v)`
        // (the walk from the last shortcut vertex u to v bounds both the
        // extra wire and, via the triangle inequality, `dist(S, u)`).
        for seed in 0..5 {
            let net = random_net(seed, 12);
            let r = net.source_radius();
            for eps in [0.1, 0.5, 1.0] {
                let t = brbc(&net, eps).unwrap();
                for v in net.sinks() {
                    let path = t.dist_from_root(v);
                    assert!(
                        path <= (1.0 + eps) * r + 1e-9,
                        "seed {seed} eps {eps} node {v}: radius bound"
                    );
                    assert!(
                        path <= (1.0 + 2.0 * eps) * net.dist(net.source(), v) + 1e-9,
                        "seed {seed} eps {eps} node {v}: per-node bound"
                    );
                }
            }
        }
    }

    #[test]
    fn infinite_eps_is_mst() {
        let net = random_net(1, 10);
        let t = brbc(&net, f64::INFINITY).unwrap();
        assert!((t.cost() - mst_tree(&net).cost()).abs() < 1e-9);
    }

    #[test]
    fn eps_zero_is_spt() {
        // Every first visit triggers a shortcut, so Q contains all direct
        // edges and the SPT of Q is the star.
        let net = random_net(2, 8);
        let t = brbc(&net, 0.0).unwrap();
        assert!((t.source_radius() - spt_tree(&net).source_radius()).abs() < 1e-9);
        for v in net.sinks() {
            assert!((t.dist_from_root(v) - net.dist(net.source(), v)).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_bound_holds() {
        // cost(BRBC) <= (1 + 2/eps) * cost(MST).
        for seed in 0..5 {
            let net = random_net(seed + 10, 14);
            for eps in [0.25, 0.5, 1.0] {
                let t = brbc(&net, eps).unwrap();
                let mst = mst_tree(&net).cost();
                assert!(
                    t.cost() <= (1.0 + 2.0 / eps) * mst + 1e-9,
                    "seed {seed} eps {eps}: {} vs {}",
                    t.cost(),
                    mst
                );
            }
        }
    }

    #[test]
    fn bkrus_usually_no_worse_than_brbc() {
        // The paper's Table 4: BKRUS dominates BRBC on average. Check the
        // aggregate over a few seeds rather than each instance.
        let mut bk_total = 0.0;
        let mut br_total = 0.0;
        for seed in 0..8 {
            let net = random_net(seed + 20, 10);
            bk_total += bkrus(&net, 0.2).unwrap().cost();
            br_total += brbc(&net, 0.2).unwrap().cost();
        }
        assert!(
            bk_total <= br_total + 1e-9,
            "BKRUS {bk_total} vs BRBC {br_total}"
        );
    }

    #[test]
    fn negative_eps_rejected() {
        assert!(brbc(&random_net(0, 5), -0.2).is_err());
    }

    #[test]
    fn trivial_nets() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0)]).unwrap();
        assert_eq!(brbc(&net, 0.5).unwrap().cost(), 0.0);
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        assert_eq!(brbc(&net, 0.5).unwrap().cost(), 1.0);
    }

    #[test]
    fn spanning_and_rooted_at_source() {
        let net = random_net(3, 15);
        let t = brbc(&net, 0.4).unwrap();
        assert!(t.is_spanning());
        assert_eq!(t.root(), net.source());
    }
}
