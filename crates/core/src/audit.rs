//! Construction-time invariant auditing.
//!
//! Every construction in this crate finishes by handing its tree to
//! [`debug_audit`], which in debug builds recomputes the tree's derived
//! state and checks the paper's path bounds via
//! [`RoutingTree::audit`](bmst_tree::RoutingTree::audit). Release builds
//! compile the hook away; the CLI re-exposes the same check behind an
//! explicit `--audit` flag through [`audit_construction`].

use bmst_geom::Net;
use bmst_tree::{AuditContext, AuditViolation, RoutingTree};

use crate::PathConstraint;

/// Audits a tree constructed from `net` against the full invariant set:
/// structure, derived tables, §3.1 merge consistency against the net's
/// metric, and — when a `constraint` is given — the paper's path window
/// `lower <= path(S, x) <= upper` over the net's sinks.
///
/// Pass `None` for constructions whose feasibility is not a geometric path
/// window (Elmore-delay variants, unconstrained baselines).
///
/// # Errors
///
/// The first [`AuditViolation`] found, if any.
pub fn audit_construction(
    net: &Net,
    tree: &RoutingTree,
    constraint: Option<&PathConstraint>,
) -> Result<(), AuditViolation> {
    let mut ctx = AuditContext::default().with_net(net);
    if let Some(c) = constraint {
        if c.upper.is_finite() {
            ctx = ctx.with_upper_bound(c.upper);
        }
        if c.lower > 0.0 {
            ctx = ctx.with_lower_bound(c.lower);
        }
    }
    tree.audit(&ctx)
}

/// Debug-build audit hook: panics when a construction hands back a tree
/// that fails [`audit_construction`]. Compiled out of release builds.
#[inline]
pub(crate) fn debug_audit(net: &Net, tree: &RoutingTree, constraint: Option<&PathConstraint>) {
    #[cfg(debug_assertions)]
    if let Err(violation) = audit_construction(net, tree, constraint) {
        // lint: allow(no-panic) — debug-only invariant check; a failed audit is a construction bug
        panic!("construction audit failed: {violation}");
    }
    #[cfg(not(debug_assertions))]
    let _ = (net, tree, constraint);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::Point;
    use bmst_graph::Edge;

    fn net() -> Net {
        Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn metric_tree_passes() {
        let net = net();
        let tree = crate::mst_tree(&net);
        assert!(audit_construction(&net, &tree, None).is_ok());
    }

    #[test]
    fn non_metric_edge_weight_fails() {
        let net = net();
        // d(0, 1) = 4 in L1, but the edge claims 1.0.
        let tree = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 3.0)])
            .unwrap();
        let err = audit_construction(&net, &tree, None).unwrap_err();
        assert!(
            matches!(err, AuditViolation::MergeInconsistent { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn constraint_window_is_enforced() {
        let net = net();
        let tree = crate::spt_tree(&net);
        // SPT paths are the direct distances 4 and 7; a window demanding
        // at least 5 rejects the near sink.
        let c = PathConstraint {
            lower: 5.0,
            upper: 100.0,
        };
        let err = audit_construction(&net, &tree, Some(&c)).unwrap_err();
        assert!(
            matches!(err, AuditViolation::LowerBoundViolated { node: 1, .. }),
            "got {err:?}"
        );
        // The unconstrained audit passes.
        assert!(audit_construction(&net, &tree, None).is_ok());
    }
}
