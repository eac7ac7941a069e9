//! Structural and semantic invariant auditing for [`RoutingTree`].
//!
//! Every construction algorithm in this workspace maintains derived state
//! (the parent array, the source-distance table, the cached cost) alongside
//! bound bookkeeping. [`RoutingTree::audit`] recomputes all of it from first
//! principles and cross-checks:
//!
//! 1. **Structure** — the parent/children arrays describe one rooted,
//!    acyclic tree covering exactly the nodes marked covered;
//! 2. **Path table** — the stored `dist_from_root` values match a fresh
//!    root-to-node accumulation of the parent edge weights;
//! 3. **Cost and radius** — the cached cost and the reported source radius
//!    match recomputation;
//! 4. **Merge consistency** (paper §3.1) — every tree edge's weight equals
//!    the metric distance between its endpoints, so the tree really is a
//!    subgraph of the complete metric graph the merges drew from;
//! 5. **Path bounds** — `path(S, x) <= (1 + eps) * R` for every bounded
//!    node, and the §6 LUB lower bound `path(S, x) >= eps1 * R` when a
//!    window is in force.
//!
//! The checks are `O(V^2)` at worst (dominated by nothing — each pass is
//! linear; the matrix lookup is constant), cheap enough to run after every
//! construction in debug builds and behind an explicit `--audit` flag in
//! release binaries.

use std::error::Error;
use std::fmt;

use bmst_geom::{DistanceMatrix, EPS_TOL};

use crate::RoutingTree;

/// A violated [`RoutingTree`] invariant found by [`RoutingTree::audit`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// Following parent pointers from `node` never reaches the root
    /// (the parent array contains a cycle).
    ParentCycle {
        /// A node whose ancestor chain loops.
        node: usize,
    },
    /// A covered non-root node's parent is not covered, or an uncovered
    /// node carries tree state.
    BrokenCoverage {
        /// The offending node.
        node: usize,
    },
    /// `children[parent(v)]` does not list `v`, or lists a node whose
    /// parent pointer disagrees.
    BrokenChildLink {
        /// The parent side of the broken link.
        parent: usize,
        /// The child side of the broken link.
        child: usize,
    },
    /// The stored source-distance of `node` disagrees with the distance
    /// recomputed from the parent edge weights.
    StalePathTable {
        /// The node with the stale entry.
        node: usize,
        /// The value in the table.
        stored: f64,
        /// The freshly recomputed value.
        recomputed: f64,
    },
    /// The stored depth of `node` disagrees with recomputation.
    StaleDepth {
        /// The node with the stale entry.
        node: usize,
        /// The value in the table.
        stored: usize,
        /// The freshly recomputed value.
        recomputed: usize,
    },
    /// The cached total cost disagrees with the sum of parent edge weights.
    StaleCost {
        /// The cached cost.
        stored: f64,
        /// The freshly recomputed cost.
        recomputed: f64,
    },
    /// The cached covered-node count disagrees with the coverage flags.
    StaleCoveredCount {
        /// The cached count.
        stored: usize,
        /// The number of nodes actually flagged covered.
        recomputed: usize,
    },
    /// A tree edge has a negative or non-finite weight.
    BadEdgeWeight {
        /// Child endpoint of the edge.
        node: usize,
        /// The offending weight.
        weight: f64,
    },
    /// §3.1 merge consistency: a tree edge's weight differs from the metric
    /// distance between its endpoints, so the edge cannot have come from
    /// the complete metric graph the merges select from.
    MergeInconsistent {
        /// Parent endpoint of the edge.
        u: usize,
        /// Child endpoint of the edge.
        v: usize,
        /// The edge weight stored in the tree.
        weight: f64,
        /// The metric distance between the endpoints.
        distance: f64,
    },
    /// The paper's bound is violated: `path(S, node)` exceeds the
    /// admissible maximum `(1 + eps) * R`.
    UpperBoundViolated {
        /// The out-of-bound node.
        node: usize,
        /// Its source-to-node path length.
        path: f64,
        /// The bound it had to satisfy.
        bound: f64,
    },
    /// The §6 LUB lower bound is violated: `path(S, node)` falls short of
    /// the admissible minimum `eps1 * R`.
    LowerBoundViolated {
        /// The out-of-bound node.
        node: usize,
        /// Its source-to-node path length.
        path: f64,
        /// The bound it had to satisfy.
        bound: f64,
    },
}

impl AuditViolation {
    /// Stable machine-readable name of the violated invariant, used as the
    /// `kind` field of the `audit.violation` observability event.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditViolation::ParentCycle { .. } => "ParentCycle",
            AuditViolation::BrokenCoverage { .. } => "BrokenCoverage",
            AuditViolation::BrokenChildLink { .. } => "BrokenChildLink",
            AuditViolation::StalePathTable { .. } => "StalePathTable",
            AuditViolation::StaleDepth { .. } => "StaleDepth",
            AuditViolation::StaleCost { .. } => "StaleCost",
            AuditViolation::StaleCoveredCount { .. } => "StaleCoveredCount",
            AuditViolation::BadEdgeWeight { .. } => "BadEdgeWeight",
            AuditViolation::MergeInconsistent { .. } => "MergeInconsistent",
            AuditViolation::UpperBoundViolated { .. } => "UpperBoundViolated",
            AuditViolation::LowerBoundViolated { .. } => "LowerBoundViolated",
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::ParentCycle { node } => {
                write!(f, "parent array cycles through node {node}")
            }
            AuditViolation::BrokenCoverage { node } => {
                write!(f, "coverage flags inconsistent at node {node}")
            }
            AuditViolation::BrokenChildLink { parent, child } => {
                write!(
                    f,
                    "parent/children arrays disagree on edge ({parent}, {child})"
                )
            }
            AuditViolation::StalePathTable {
                node,
                stored,
                recomputed,
            } => write!(
                f,
                "path table stale at node {node}: stored {stored}, recomputed {recomputed}"
            ),
            AuditViolation::StaleDepth {
                node,
                stored,
                recomputed,
            } => write!(
                f,
                "depth table stale at node {node}: stored {stored}, recomputed {recomputed}"
            ),
            AuditViolation::StaleCost { stored, recomputed } => {
                write!(
                    f,
                    "cached cost {stored} disagrees with recomputed {recomputed}"
                )
            }
            AuditViolation::StaleCoveredCount { stored, recomputed } => write!(
                f,
                "cached covered count {stored} disagrees with recomputed {recomputed}"
            ),
            AuditViolation::BadEdgeWeight { node, weight } => {
                write!(f, "edge into node {node} has invalid weight {weight}")
            }
            AuditViolation::MergeInconsistent {
                u,
                v,
                weight,
                distance,
            } => write!(
                f,
                "edge ({u}, {v}) weight {weight} differs from metric distance {distance}"
            ),
            AuditViolation::UpperBoundViolated { node, path, bound } => {
                write!(f, "path(S, {node}) = {path} exceeds the bound {bound}")
            }
            AuditViolation::LowerBoundViolated { node, path, bound } => {
                write!(
                    f,
                    "path(S, {node}) = {path} falls short of the lower bound {bound}"
                )
            }
        }
    }
}

impl Error for AuditViolation {}

/// Optional semantic context for [`RoutingTree::audit`].
///
/// With the default (empty) context only the structural invariants are
/// checked. Supplying a distance matrix enables the §3.1 merge-consistency
/// check; supplying bounds enables the path-window checks.
///
/// # Examples
///
/// ```
/// use bmst_graph::Edge;
/// use bmst_tree::{AuditContext, RoutingTree};
///
/// let tree = RoutingTree::from_edges(3, 0, vec![
///     Edge::new(0, 1, 5.0),
///     Edge::new(1, 2, 5.0),
/// ])?;
/// // A structural audit needs no context at all:
/// assert!(tree.audit(&AuditContext::default()).is_ok());
/// // Bound checks kick in once the context carries them:
/// let ctx = AuditContext::default().with_upper_bound(6.0);
/// assert!(tree.audit(&ctx).is_err()); // path(S, 2) = 10 > 6
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Default, Clone, Copy)]
pub struct AuditContext<'a> {
    distances: Option<&'a DistanceMatrix>,
    upper_bound: Option<f64>,
    lower_bound: Option<f64>,
    bounded_nodes: Option<&'a [usize]>,
}

impl<'a> AuditContext<'a> {
    /// Enables the §3.1 merge-consistency check: every tree edge between
    /// nodes the matrix covers must have the metric distance as its weight.
    #[must_use]
    pub fn with_distances(mut self, d: &'a DistanceMatrix) -> Self {
        self.distances = Some(d);
        self
    }

    /// Enables the upper path bound check `path(S, x) <= bound`.
    #[must_use]
    pub fn with_upper_bound(mut self, bound: f64) -> Self {
        self.upper_bound = Some(bound);
        self
    }

    /// Enables the §6 LUB lower bound check `path(S, x) >= bound`.
    #[must_use]
    pub fn with_lower_bound(mut self, bound: f64) -> Self {
        self.lower_bound = Some(bound);
        self
    }

    /// Restricts the bound checks to the given nodes (e.g. the net's sinks,
    /// exempting Steiner points). Without this, bounds apply to every
    /// covered node except the root.
    #[must_use]
    pub fn with_bounded_nodes(mut self, nodes: &'a [usize]) -> Self {
        self.bounded_nodes = Some(nodes);
        self
    }
}

impl fmt::Debug for AuditContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditContext")
            .field("has_distances", &self.distances.is_some())
            .field("upper_bound", &self.upper_bound)
            .field("lower_bound", &self.lower_bound)
            .field("bounded_nodes", &self.bounded_nodes)
            .finish()
    }
}

impl RoutingTree {
    /// Recomputes every derived invariant of this tree from first
    /// principles and cross-checks it against the stored state, plus the
    /// semantic checks enabled by `ctx` (see the `audit` module docs).
    ///
    /// Returns the first violation found; checks run cheapest-first so a
    /// structural corruption is reported before any semantic noise it may
    /// cause downstream.
    ///
    /// # Errors
    ///
    /// An [`AuditViolation`] describing the first broken invariant.
    pub fn audit(&self, ctx: &AuditContext<'_>) -> Result<(), AuditViolation> {
        let result = self.audit_inner(ctx);
        if let Err(ref violation) = result {
            bmst_obs::event(
                "audit.violation",
                &[
                    ("kind", bmst_obs::Field::from(violation.kind())),
                    ("detail", bmst_obs::Field::from(violation.to_string())),
                ],
            );
        }
        result
    }

    fn audit_inner(&self, ctx: &AuditContext<'_>) -> Result<(), AuditViolation> {
        self.audit_structure()?;
        self.audit_tables()?;
        if let Some(d) = ctx.distances {
            self.audit_merge_consistency(d)?;
        }
        if ctx.upper_bound.is_some() || ctx.lower_bound.is_some() {
            self.audit_bounds(ctx)?;
        }
        Ok(())
    }

    /// Coverage flags, parent/children cross-links, and acyclicity.
    // analyze: complexity(n^2) analyze: allow(cancel-liveness) — debug-assertions audit path; bmst-tree has no CancelToken dependency
    fn audit_structure(&self) -> Result<(), AuditViolation> {
        let n = self.universe();
        let root = self.root();
        if !self.is_covered(root) || self.parent(root).is_some() {
            return Err(AuditViolation::BrokenCoverage { node: root });
        }
        let recomputed = (0..n).filter(|&v| self.is_covered(v)).count();
        if recomputed != self.covered_count() {
            return Err(AuditViolation::StaleCoveredCount {
                stored: self.covered_count(),
                recomputed,
            });
        }
        for v in 0..n {
            if self.is_covered(v) {
                if v != root {
                    match self.parent(v) {
                        None => return Err(AuditViolation::BrokenCoverage { node: v }),
                        Some(p) if !self.is_covered(p) => {
                            return Err(AuditViolation::BrokenCoverage { node: v })
                        }
                        Some(p) if !self.children(p).contains(&v) => {
                            return Err(AuditViolation::BrokenChildLink {
                                parent: p,
                                child: v,
                            })
                        }
                        Some(_) => {}
                    }
                }
            } else if self.parent(v).is_some() || !self.children(v).is_empty() {
                return Err(AuditViolation::BrokenCoverage { node: v });
            }
            for &c in self.children(v) {
                if self.parent(c) != Some(v) {
                    return Err(AuditViolation::BrokenChildLink {
                        parent: v,
                        child: c,
                    });
                }
            }
        }
        // Acyclicity: every covered node's ancestor chain must terminate at
        // the root within `n` steps.
        for v in 0..n {
            if !self.is_covered(v) {
                continue;
            }
            let mut cur = v;
            let mut steps = 0usize;
            while let Some(p) = self.parent(cur) {
                cur = p;
                steps += 1;
                if steps > n {
                    return Err(AuditViolation::ParentCycle { node: v });
                }
            }
            if cur != root {
                return Err(AuditViolation::ParentCycle { node: v });
            }
        }
        Ok(())
    }

    /// Path table, depth table, and cached cost versus recomputation.
    fn audit_tables(&self) -> Result<(), AuditViolation> {
        let n = self.universe();
        let root = self.root();
        let mut recomputed_cost = 0.0;
        // Children-order traversal from the root: by the structural checks
        // above this visits every covered node exactly once.
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            let (expect_dist, expect_depth) = match self.parent(u) {
                Some(p) => {
                    let w = self.parent_edge_weight(u);
                    if !w.is_finite() || w < 0.0 {
                        return Err(AuditViolation::BadEdgeWeight { node: u, weight: w });
                    }
                    recomputed_cost += w;
                    (self.dist_from_root(p) + w, self.depth(p) + 1)
                }
                None => (0.0, 0),
            };
            if (self.dist_from_root(u) - expect_dist).abs() > EPS_TOL {
                return Err(AuditViolation::StalePathTable {
                    node: u,
                    stored: self.dist_from_root(u),
                    recomputed: expect_dist,
                });
            }
            if self.depth(u) != expect_depth {
                return Err(AuditViolation::StaleDepth {
                    node: u,
                    stored: self.depth(u),
                    recomputed: expect_depth,
                });
            }
            stack.extend(self.children(u).iter().copied());
        }
        // lint: allow(no-as-cast) — node count scales a tolerance; precision loss above 2^53 nodes is irrelevant
        if (self.cost() - recomputed_cost).abs() > EPS_TOL * (n.max(1)) as f64 {
            return Err(AuditViolation::StaleCost {
                stored: self.cost(),
                recomputed: recomputed_cost,
            });
        }
        Ok(())
    }

    /// §3.1 merge consistency: tree edges are edges of the metric graph.
    fn audit_merge_consistency(&self, d: &DistanceMatrix) -> Result<(), AuditViolation> {
        for v in self.covered_nodes() {
            let Some(p) = self.parent(v) else { continue };
            if v >= d.len() || p >= d.len() {
                continue; // materialised Steiner points are outside the matrix
            }
            let w = self.parent_edge_weight(v);
            let dist = d[(p, v)];
            if (w - dist).abs() > EPS_TOL {
                return Err(AuditViolation::MergeInconsistent {
                    u: p,
                    v,
                    weight: w,
                    distance: dist,
                });
            }
        }
        Ok(())
    }

    /// Path-window checks against the context's bounds.
    fn audit_bounds(&self, ctx: &AuditContext<'_>) -> Result<(), AuditViolation> {
        let root = self.root();
        let check = |v: usize| -> Result<(), AuditViolation> {
            if v == root || !self.is_covered(v) {
                return Ok(());
            }
            let path = self.dist_from_root(v);
            if let Some(bound) = ctx.upper_bound {
                if path > bound + EPS_TOL {
                    return Err(AuditViolation::UpperBoundViolated {
                        node: v,
                        path,
                        bound,
                    });
                }
            }
            if let Some(bound) = ctx.lower_bound {
                if path < bound - EPS_TOL {
                    return Err(AuditViolation::LowerBoundViolated {
                        node: v,
                        path,
                        bound,
                    });
                }
            }
            Ok(())
        };
        match ctx.bounded_nodes {
            Some(nodes) => nodes.iter().try_for_each(|&v| check(v)),
            None => (0..self.universe()).try_for_each(check),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::{Metric, Point};
    use bmst_graph::Edge;

    fn chain() -> RoutingTree {
        RoutingTree::from_edges(
            4,
            0,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
                Edge::new(2, 3, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn healthy_tree_passes_plain_audit() {
        assert_eq!(chain().audit(&AuditContext::default()), Ok(()));
    }

    #[test]
    fn corrupted_parent_cycle_is_detected() {
        let mut t = chain();
        // Corrupt the parent array directly: 1 -> 3 closes 1-2-3-1.
        t.parent[1] = 3;
        t.children[0].retain(|&c| c != 1);
        t.children[3].push(1);
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::ParentCycle { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn stale_path_table_is_detected() {
        let mut t = chain();
        t.dist_root[3] = 1.0; // truth is 6.0
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::StalePathTable {
                node: 3,
                stored: 1.0,
                recomputed: 6.0
            }
        );
    }

    #[test]
    fn stale_depth_is_detected() {
        let mut t = chain();
        t.depth[2] = 7;
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::StaleDepth { node: 2, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn stale_cost_is_detected() {
        let mut t = chain();
        t.cost = 100.0;
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::StaleCost { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn stale_covered_count_is_detected() {
        let mut t = chain();
        t.covered_count = 2;
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::StaleCoveredCount { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn broken_child_link_is_detected() {
        let mut t = chain();
        t.children[1].clear(); // parent[2] still says 1
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::BrokenChildLink {
                parent: 1,
                child: 2
            }
        );
    }

    #[test]
    fn uncovered_node_with_state_is_detected() {
        let mut t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0)]).unwrap();
        t.children[2].push(1);
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert_eq!(err, AuditViolation::BrokenCoverage { node: 2 });
    }

    #[test]
    fn negative_edge_weight_is_detected() {
        let mut t = chain();
        t.parent_weight[1] = -1.0;
        t.dist_root[1] = -1.0;
        t.dist_root[2] = 1.0;
        t.dist_root[3] = 4.0;
        t.cost = 4.0;
        let err = t.audit(&AuditContext::default()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::BadEdgeWeight { node: 1, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn epsilon_radius_violation_is_detected() {
        // Chain of length 6; bound from eps = 0.2 on a radius-5 net is 6,
        // so tightening the bound below the true radius must be rejected.
        let t = chain();
        let ctx = AuditContext::default().with_upper_bound(5.0);
        let err = t.audit(&ctx).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::UpperBoundViolated {
                node: 3,
                path: 6.0,
                bound: 5.0
            }
        );
        // The true radius passes.
        let ctx = AuditContext::default().with_upper_bound(6.0);
        assert_eq!(t.audit(&ctx), Ok(()));
    }

    #[test]
    fn lub_lower_bound_violation_is_detected() {
        let t = chain();
        let ctx = AuditContext::default().with_lower_bound(2.0);
        let err = t.audit(&ctx).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::LowerBoundViolated {
                node: 1,
                path: 1.0,
                bound: 2.0
            }
        );
    }

    #[test]
    fn bounded_nodes_restrict_the_window_checks() {
        let t = chain();
        // Only node 3 is checked, and it satisfies the window [5, 7].
        let ctx = AuditContext::default()
            .with_lower_bound(5.0)
            .with_upper_bound(7.0)
            .with_bounded_nodes(&[3]);
        assert_eq!(t.audit(&ctx), Ok(()));
    }

    #[test]
    fn merge_consistency_checks_metric_distances() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let d = DistanceMatrix::from_points(&pts, Metric::L1);
        let good = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)])
            .unwrap();
        assert_eq!(
            good.audit(&AuditContext::default().with_distances(&d)),
            Ok(())
        );

        // An edge whose weight is not the metric distance fails.
        let bad = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 5.0)])
            .unwrap();
        let err = bad
            .audit(&AuditContext::default().with_distances(&d))
            .unwrap_err();
        assert_eq!(
            err,
            AuditViolation::MergeInconsistent {
                u: 1,
                v: 2,
                weight: 5.0,
                distance: 2.0
            }
        );
    }

    #[test]
    fn steiner_nodes_outside_the_matrix_are_exempt() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let d = DistanceMatrix::from_points(&pts, Metric::L1);
        // Node 2 is a materialised Steiner point beyond the matrix.
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 2, 1.0), Edge::new(2, 1, 1.0)])
            .unwrap();
        assert_eq!(t.audit(&AuditContext::default().with_distances(&d)), Ok(()));
    }

    #[test]
    fn violations_display_cleanly() {
        let texts = [
            AuditViolation::ParentCycle { node: 3 }.to_string(),
            AuditViolation::StalePathTable {
                node: 1,
                stored: 2.0,
                recomputed: 3.0,
            }
            .to_string(),
            AuditViolation::UpperBoundViolated {
                node: 4,
                path: 9.0,
                bound: 6.0,
            }
            .to_string(),
            AuditViolation::MergeInconsistent {
                u: 0,
                v: 1,
                weight: 2.0,
                distance: 1.0,
            }
            .to_string(),
        ];
        assert!(texts[0].contains("cycle"));
        assert!(texts[1].contains("stale"));
        assert!(texts[2].contains("exceeds"));
        assert!(texts[3].contains("differs"));
    }
}
