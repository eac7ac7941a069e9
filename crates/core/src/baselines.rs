//! Baseline trees: MST, SPT, and the maximal spanning tree.
//!
//! Every table in the paper reports ratios against these references:
//! `perf ratio = cost(T) / cost(MST)` and
//! `path ratio = longest path(T) / longest path(SPT)`.

use bmst_geom::Net;
use bmst_graph::{prim_mst_with, Edge};
use bmst_tree::RoutingTree;

use crate::ProblemContext;

/// The minimum spanning tree of the net, rooted at the source.
///
/// This is the `eps = inf` end of the trade-off: minimal routing cost,
/// unconstrained (possibly very long) source-sink paths.
///
/// # Examples
///
/// ```
/// use bmst_core::mst_tree;
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(2.0, 0.0),
/// ])?;
/// let mst = mst_tree(&net);
/// assert_eq!(mst.cost(), 2.0);
/// // The MST chains the collinear points, so the radius equals the cost.
/// assert_eq!(mst.source_radius(), 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mst_tree(net: &Net) -> RoutingTree {
    mst_tree_cx(&ProblemContext::unbounded(net))
}

/// [`mst_tree`] over a shared [`ProblemContext`]. Distances come from
/// `cx.dist`, so a baseline ratio report never forces the O(n²) matrix.
#[allow(clippy::expect_used)] // construction invariant, justified inline
pub(crate) fn mst_tree_cx(cx: &ProblemContext<'_>) -> RoutingTree {
    let net = cx.net();
    let edges = prim_mst_with(net.len(), net.source(), |i, j| cx.dist(i, j));
    let tree = RoutingTree::from_edges(net.len(), net.source(), edges)
        // lint: allow(no-panic) — Prim on a complete graph always spans
        .expect("Prim's algorithm produces a spanning tree");
    crate::audit::debug_audit(net, &tree, None);
    tree
}

/// The shortest path tree of the net: every sink connected to the source by
/// a direct edge.
///
/// On a complete graph in a metric space the direct edge *is* the shortest
/// path (triangle inequality), so the SPT is the star centred at the source.
/// Its radius `R` is minimal among all spanning trees, and its cost is the
/// worst of all the constructions considered in the paper (Figure 11).
#[allow(clippy::expect_used)] // construction invariant, justified inline
pub fn spt_tree(net: &Net) -> RoutingTree {
    let s = net.source();
    let edges = net.sinks().map(|v| Edge::new(s, v, net.dist(s, v)));
    // lint: allow(no-panic) — a star over every sink is a spanning tree by construction
    let tree = RoutingTree::from_edges(net.len(), s, edges).expect("a star is a spanning tree");
    crate::audit::debug_audit(net, &tree, None);
    tree
}

/// The *maximal* spanning tree: the most expensive spanning tree of the
/// complete graph.
///
/// It appears at the top of the paper's routing-cost chart (Figure 11) as
/// the cost ceiling. Computed by running Prim on negated weights.
#[allow(clippy::expect_used)] // construction invariant, justified inline
                              // analyze: complexity(n^2)
pub fn maximal_spanning_tree(net: &Net) -> RoutingTree {
    let n = net.len();
    let s = net.source();
    // Prim with maximum selection over the dense matrix.
    let d = net.distance_matrix();
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::NEG_INFINITY; n];
    let mut best_from = vec![usize::MAX; n];
    in_tree[s] = true;
    for v in 0..n {
        if v != s {
            best[v] = d[(s, v)];
            best_from[v] = s;
        }
    }
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut key = f64::NEG_INFINITY;
        for v in 0..n {
            if !in_tree[v] && best[v] > key {
                pick = v;
                key = best[v];
            }
        }
        in_tree[pick] = true;
        edges.push(Edge::new(best_from[pick], pick, key));
        for v in 0..n {
            if !in_tree[v] && d[(pick, v)] > best[v] {
                best[v] = d[(pick, v)];
                best_from[v] = pick;
            }
        }
    }
    // lint: allow(no-panic) — max-Prim on a complete graph always spans
    let tree = RoutingTree::from_edges(n, s, edges).expect("Prim produces a spanning tree");
    crate::audit::debug_audit(net, &tree, None);
    tree
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::Point;

    fn sample_net() -> Net {
        Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
            Point::new(0.0, 3.0),
            Point::new(2.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn spt_is_a_star_with_radius_r() {
        let net = sample_net();
        let spt = spt_tree(&net);
        assert!(spt.is_spanning());
        for v in net.sinks() {
            assert_eq!(spt.parent(v), Some(net.source()));
            assert_eq!(spt.dist_from_root(v), net.dist(net.source(), v));
        }
        assert_eq!(spt.source_radius(), net.source_radius());
    }

    #[test]
    fn mst_cost_at_most_spt_cost() {
        let net = sample_net();
        assert!(mst_tree(&net).cost() <= spt_tree(&net).cost() + 1e-9);
    }

    #[test]
    fn mst_radius_at_least_spt_radius() {
        let net = sample_net();
        assert!(mst_tree(&net).source_radius() + 1e-9 >= spt_tree(&net).source_radius());
    }

    #[test]
    fn maximal_spanning_tree_dominates_all() {
        let net = sample_net();
        let maxst = maximal_spanning_tree(&net);
        assert!(maxst.is_spanning());
        assert!(maxst.cost() >= spt_tree(&net).cost() - 1e-9);
        assert!(maxst.cost() >= mst_tree(&net).cost());
    }

    #[test]
    fn single_sink_net_all_trees_coincide() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(3.0, 1.0)]).unwrap();
        assert_eq!(mst_tree(&net).cost(), 4.0);
        assert_eq!(spt_tree(&net).cost(), 4.0);
        assert_eq!(maximal_spanning_tree(&net).cost(), 4.0);
    }

    #[test]
    fn source_only_net() {
        let net = Net::with_source_first(vec![Point::new(1.0, 1.0)]).unwrap();
        assert_eq!(mst_tree(&net).cost(), 0.0);
        assert_eq!(spt_tree(&net).cost(), 0.0);
        assert_eq!(maximal_spanning_tree(&net).cost(), 0.0);
    }

    #[test]
    fn non_first_source_respected() {
        let net = Net::new(
            vec![
                Point::new(5.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(9.0, 0.0),
            ],
            1,
            bmst_geom::Metric::L1,
        )
        .unwrap();
        let spt = spt_tree(&net);
        assert_eq!(spt.root(), 1);
        assert_eq!(spt.dist_from_root(2), 9.0);
    }
}
