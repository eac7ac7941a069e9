//! Minimum spanning trees: Kruskal (edge-list) and Prim (dense).

use std::error::Error;
use std::fmt;

use bmst_geom::DistanceMatrix;

use crate::{sort_edges, DisjointSets, Edge};

/// Errors produced by graph algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The input graph does not connect all nodes, so no spanning tree
    /// exists.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Disconnected { components } => {
                write!(f, "graph is disconnected ({components} components)")
            }
        }
    }
}

impl Error for GraphError {}

/// Kruskal's minimum spanning tree over `n` nodes.
///
/// Edges are considered in the canonical `(weight, u, v)` order, so the
/// result is deterministic even with tied weights. This is the cost baseline
/// `cost(MST)` against which every performance ratio in the paper's tables
/// is computed, and BKRUS degenerates to exactly this construction when
/// `eps = inf`.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] when the edges do not connect all
/// `n` nodes.
///
/// # Examples
///
/// ```
/// use bmst_graph::{kruskal_mst, Edge};
///
/// let edges = [
///     Edge::new(0, 1, 1.0),
///     Edge::new(1, 2, 2.0),
///     Edge::new(0, 2, 3.0),
/// ];
/// let mst = kruskal_mst(3, &edges)?;
/// assert_eq!(mst.len(), 2);
/// assert_eq!(bmst_graph::tree_cost(&mst), 3.0);
/// # Ok::<(), bmst_graph::GraphError>(())
/// ```
pub fn kruskal_mst(n: usize, edges: &[Edge]) -> Result<Vec<Edge>, GraphError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut sorted: Vec<Edge> = edges.to_vec();
    sort_edges(&mut sorted);
    let mut dsu = DisjointSets::new(n);
    let mut tree = Vec::with_capacity(n - 1);
    for e in sorted {
        if dsu.union(e.u, e.v) {
            tree.push(e);
            if tree.len() == n - 1 {
                break;
            }
        }
    }
    if tree.len() + 1 != n {
        return Err(GraphError::Disconnected {
            components: dsu.num_sets(),
        });
    }
    Ok(tree)
}

/// Prim's minimum spanning tree over a dense distance matrix, rooted at
/// `root`. Returns the tree's edges.
///
/// `O(V^2)` time, which is optimal for the complete graphs the paper works
/// on. Produces a tree of the same cost as [`kruskal_mst`] (the edge sets may
/// differ when weights tie).
///
/// # Panics
///
/// Panics if `root` is out of bounds of the matrix, or the matrix is empty.
///
/// # Examples
///
/// ```
/// use bmst_geom::{DistanceMatrix, Metric, Point};
/// use bmst_graph::{prim_mst, tree_cost};
///
/// let d = DistanceMatrix::from_points(
///     &[Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
///     Metric::L1,
/// );
/// let mst = prim_mst(&d, 0);
/// assert_eq!(tree_cost(&mst), 2.0);
/// ```
pub fn prim_mst(d: &DistanceMatrix, root: usize) -> Vec<Edge> {
    // Documented contract: panic on an empty matrix too, which the n == 0
    // early return in `prim_mst_with` would otherwise soften.
    assert!(
        root < d.len(),
        "root {root} out of bounds for {} nodes",
        d.len()
    );
    prim_mst_with(d.len(), root, |i, j| d[(i, j)])
}

/// [`prim_mst`] over an on-demand distance oracle instead of a materialized
/// matrix: `dist(i, j)` must return the edge weight between nodes `i` and
/// `j` of a complete graph on `n` nodes. Same `O(V^2)` selection — and the
/// same tree, bit for bit, when `dist` returns the bits the matrix would
/// hold — but `O(V)` memory, which is what matrix-free callers need.
///
/// # Panics
///
/// Panics if `root >= n` and `n > 0`.
pub fn prim_mst_with<F: Fn(usize, usize) -> f64>(n: usize, root: usize, dist: F) -> Vec<Edge> {
    if n == 0 {
        return Vec::new();
    }
    assert!(root < n, "root {root} out of bounds for {n} nodes");
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![usize::MAX; n];
    in_tree[root] = true;
    for v in 0..n {
        if v != root {
            best[v] = dist(root, v);
            best_from[v] = root;
        }
    }
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        // Deterministic pick: smallest key, lowest index on ties.
        let mut pick = usize::MAX;
        let mut pick_key = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best[v] < pick_key {
                pick = v;
                pick_key = best[v];
            }
        }
        debug_assert!(pick != usize::MAX, "complete graph cannot be disconnected");
        in_tree[pick] = true;
        edges.push(Edge::new(best_from[pick], pick, pick_key));
        for v in 0..n {
            if !in_tree[v] {
                let w = dist(pick, v);
                if w < best[v] {
                    best[v] = w;
                    best_from[v] = pick;
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::{complete_edges, tree_cost};
    use bmst_geom::{Metric, Point};

    fn line_points(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn kruskal_on_triangle_drops_heaviest() {
        let edges = [
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(0, 2, 3.0),
        ];
        let mst = kruskal_mst(3, &edges).unwrap();
        assert_eq!(tree_cost(&mst), 3.0);
        assert!(!mst.iter().any(|e| e.endpoints() == (0, 2)));
    }

    #[test]
    fn kruskal_detects_disconnection() {
        let edges = [Edge::new(0, 1, 1.0)];
        let err = kruskal_mst(3, &edges).unwrap_err();
        assert_eq!(err, GraphError::Disconnected { components: 2 });
    }

    #[test]
    fn kruskal_empty_graph() {
        assert_eq!(kruskal_mst(0, &[]).unwrap(), vec![]);
        assert_eq!(kruskal_mst(1, &[]).unwrap(), vec![]);
        assert!(kruskal_mst(2, &[]).is_err());
    }

    #[test]
    fn prim_and_kruskal_agree_on_cost() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(2.0, 5.0),
            Point::new(7.0, 3.0),
            Point::new(1.0, 2.0),
        ];
        let d = bmst_geom::DistanceMatrix::from_points(&pts, Metric::L1);
        let kruskal = kruskal_mst(5, &complete_edges(&d)).unwrap();
        let prim = prim_mst(&d, 0);
        assert!((tree_cost(&kruskal) - tree_cost(&prim)).abs() < 1e-9);
    }

    #[test]
    fn mst_on_a_line_chains_neighbors() {
        let d = bmst_geom::DistanceMatrix::from_points(&line_points(6), Metric::L1);
        let mst = prim_mst(&d, 0);
        assert_eq!(tree_cost(&mst), 5.0);
        // Every edge is unit length between consecutive points.
        for e in &mst {
            assert_eq!(e.weight, 1.0);
            assert_eq!(e.v - e.u, 1);
        }
    }

    #[test]
    fn prim_single_node() {
        let d = bmst_geom::DistanceMatrix::from_points(&line_points(1), Metric::L1);
        assert!(prim_mst(&d, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn prim_bad_root_panics() {
        let d = bmst_geom::DistanceMatrix::from_points(&line_points(2), Metric::L1);
        prim_mst(&d, 7);
    }

    #[test]
    fn disconnected_error_display() {
        let e = GraphError::Disconnected { components: 3 };
        assert!(e.to_string().contains("3 components"));
    }
}
