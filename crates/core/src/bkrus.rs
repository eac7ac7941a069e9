//! BKRUS: the bounded path length Kruskal construction (paper §3.1).

use bmst_geom::Net;
use bmst_graph::Edge;
use bmst_tree::RoutingTree;

use crate::forest::KruskalForest;
use crate::{BmstError, ProblemContext};

/// Why an edge was accepted into or rejected from the tree under
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeDecision {
    /// The edge was feasible and merged two partial trees.
    Accepted,
    /// Both endpoints were already in the same partial tree
    /// (violates condition (2)).
    RejectedCycle,
    /// The merge would violate the path-length bound
    /// (violates condition (3)).
    RejectedBound,
}

/// One entry of a BKRUS construction trace (used to regenerate the paper's
/// Figure 4 walk-through).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The edge that was considered.
    pub edge: Edge,
    /// What BKRUS decided about it.
    pub decision: EdgeDecision,
}

/// Constructs a Bounded path length Kruskal Tree (BKT): a spanning tree with
/// `path(S, x) <= (1 + eps) * R` for every sink `x`, at small routing cost.
///
/// This is Algorithm BKRUS of the paper: edges of the complete terminal
/// graph are scanned in nondecreasing weight order; an edge `(u, v)` merges
/// two partial trees when it is not a cycle edge and the merge passes the
/// feasibility conditions (3-a)/(3-b). By Lemma 3.1 a rejected edge can
/// never become feasible later, so the single scan suffices. `O(V^3)`.
///
/// With `eps = f64::INFINITY` the construction degenerates to the classical
/// Kruskal MST.
///
/// # Errors
///
/// * [`BmstError::InvalidEpsilon`] for negative/NaN `eps`;
/// * [`BmstError::Infeasible`] if the scan terminates without a spanning
///   tree. (This cannot happen for `eps >= 0` — every component keeps a
///   feasible node, making its direct source edge admissible — but the
///   error is reported rather than asserted so the invariant is checked in
///   release builds too.)
///
/// # Examples
///
/// ```
/// use bmst_core::bkrus;
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(8.0, 0.0),
///     Point::new(8.0, 1.0),
///     Point::new(9.0, 1.0),
/// ])?;
/// let bkt = bkrus(&net, 0.1)?;
/// let bound = 1.1 * net.source_radius();
/// assert!(bkt.source_radius() <= bound + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bkrus(net: &Net, eps: f64) -> Result<RoutingTree, BmstError> {
    let cx = ProblemContext::new(net, eps)?;
    run(&cx, None)
}

/// Like [`bkrus`], but records the decision taken for every edge considered
/// before the tree completed (the paper's Figure 4 walk-through).
///
/// # Errors
///
/// Same conditions as [`bkrus`].
pub fn bkrus_trace(net: &Net, eps: f64) -> Result<(RoutingTree, Vec<TraceEvent>), BmstError> {
    let cx = ProblemContext::new(net, eps)?;
    let mut trace = Vec::new();
    let tree = run(&cx, Some(&mut trace))?;
    Ok((tree, trace))
}

/// Shared BKRUS driver, also used by the lower/upper bounded variant.
///
/// `constraint.lower > 0` activates the §6 extensions: Lemma 6.1 edge
/// elimination and the lower-bound merge condition.
pub(crate) fn run(
    cx: &ProblemContext<'_>,
    mut trace: Option<&mut Vec<TraceEvent>>,
) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    let constraint = *cx.constraint();
    let n = net.len();
    let source = net.source();
    if n == 1 {
        let tree = RoutingTree::from_edges(1, source, [])?;
        crate::audit::debug_audit(net, &tree, Some(&constraint));
        return Ok(tree);
    }

    let dist_s: Vec<f64> = (0..n).map(|v| cx.dist(source, v)).collect();

    // Build the stream's neighbor index before opening the construction
    // span, so its cost is attributed to the context, not this run.
    let stream = cx.edge_stream();

    let mut forest = KruskalForest::new(n, source);
    let mut tree_edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let obs_span = bmst_obs::span("bkrus");
    let mut scanned = 0u64;
    let mut cycle_rejects = 0u64;
    let mut bound_rejects = 0u64;

    // The stream yields the total canonical (weight, u, v) order, so
    // skipping Lemma 6.1 edges here visits the surviving edges in
    // exactly the order the pre-context code produced by filtering first.
    for e in stream {
        if tree_edges.len() == n - 1 {
            break; // early exit after V - 1 unions
        }
        // Cooperative cancellation: poll at a stride so a never-token
        // costs one branch and a live token's clock read is amortized.
        if scanned & 0x3f == 0 {
            cx.check_cancelled()?;
        }
        if constraint.has_lower() && e.connects(source) && e.weight < constraint.lower {
            // Lemma 6.1: direct source edges shorter than the lower bound
            // can never appear in a feasible tree.
            continue;
        }
        scanned += 1;
        if forest.same_component(e.u, e.v) {
            cycle_rejects += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent {
                    edge: e,
                    decision: EdgeDecision::RejectedCycle,
                });
            }
            continue;
        }
        let upper_ok = forest.is_feasible_merge(e.u, e.v, e.weight, &dist_s, constraint.upper);
        let lower_ok = forest.clears_lower_bound(e.u, e.v, e.weight, constraint.lower, n);
        if upper_ok && lower_ok {
            forest.merge(e.u, e.v, e.weight);
            tree_edges.push(e);
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent {
                    edge: e,
                    decision: EdgeDecision::Accepted,
                });
            }
        } else {
            bound_rejects += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.push(TraceEvent {
                    edge: e,
                    decision: EdgeDecision::RejectedBound,
                });
            }
        }
    }

    if bmst_obs::enabled() {
        bmst_obs::counter("bkrus.edges_scanned", scanned);
        bmst_obs::counter("bkrus.rejected_cycle", cycle_rejects);
        bmst_obs::counter("bkrus.rejected_bound", bound_rejects);
        bmst_obs::counter(
            "bkrus.edges_accepted",
            u64::try_from(tree_edges.len()).unwrap_or(u64::MAX),
        );
    }
    drop(obs_span);

    if tree_edges.len() != n - 1 {
        // A fired token truncates the edge stream, so an
        // incomplete scan may mean cancellation rather than infeasibility
        // — surface the deadline, not a bogus Infeasible.
        cx.check_cancelled()?;
        return Err(BmstError::Infeasible {
            connected: tree_edges.len() + 1,
            total: n,
            min_feasible_eps: None,
        });
    }
    let tree = RoutingTree::from_edges(n, source, tree_edges)?;
    crate::audit::debug_audit(net, &tree, Some(&constraint));
    Ok(tree)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::mst_tree;
    use bmst_geom::Point;

    /// The paper's Figure 4 instance: source at origin, four sinks, R = 8,
    /// bound 12 at eps = 0.5.
    ///
    /// Coordinates are chosen to match the figure's labelled distances:
    /// d(a,d) = 2, d(c,d) = 3, d(b,c) = 2 (accepted chain), d(S,b) = 5,
    /// and rejected candidates d(c,d)... The figure's essential behaviour is
    /// what we test: the far cluster chains internally, connects to the
    /// source through its nearest member, and over-long direct edges are
    /// rejected.
    fn figure4_like_net() -> Net {
        Net::with_source_first(vec![
            Point::new(0.0, 0.0), // S
            Point::new(8.0, 0.0), // a: the farthest sink, R = 8
            Point::new(5.0, 0.0), // b
            Point::new(6.0, 1.0), // c
            Point::new(7.0, 1.0), // d
        ])
        .unwrap()
    }

    #[test]
    fn respects_bound_on_figure4_net() {
        let net = figure4_like_net();
        for eps in [0.0, 0.1, 0.25, 0.5, 1.0] {
            let t = bkrus(&net, eps).unwrap();
            assert!(t.is_spanning());
            let bound = (1.0 + eps) * net.source_radius();
            assert!(
                t.source_radius() <= bound + 1e-9,
                "eps={eps}: radius {} > bound {bound}",
                t.source_radius()
            );
        }
    }

    #[test]
    fn infinite_eps_gives_mst_cost() {
        let net = figure4_like_net();
        let bkt = bkrus(&net, f64::INFINITY).unwrap();
        let mst = mst_tree(&net);
        assert!((bkt.cost() - mst.cost()).abs() < 1e-9);
    }

    #[test]
    fn cost_monotone_nonincreasing_in_eps() {
        let net = figure4_like_net();
        let costs: Vec<f64> = [0.0, 0.1, 0.2, 0.5, 1.0, f64::INFINITY]
            .iter()
            .map(|&e| bkrus(&net, e).unwrap().cost())
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "costs not monotone: {costs:?}");
        }
    }

    #[test]
    fn eps_zero_is_not_necessarily_star() {
        // With eps = 0 every sink must be reached at exactly its direct
        // distance... or less is impossible, so paths are direct-length, but
        // collinear sinks can still chain.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ])
        .unwrap();
        let t = bkrus(&net, 0.0).unwrap();
        assert!((t.cost() - 3.0).abs() < 1e-9); // chains: same as MST
        assert!(t.source_radius() <= net.source_radius() + 1e-9);
    }

    #[test]
    fn negative_eps_rejected() {
        let net = figure4_like_net();
        assert!(matches!(
            bkrus(&net, -0.5),
            Err(BmstError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn single_terminal_and_single_sink() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0)]).unwrap();
        let t = bkrus(&net, 0.0).unwrap();
        assert_eq!(t.cost(), 0.0);

        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(2.0, 2.0)]).unwrap();
        let t = bkrus(&net, 0.0).unwrap();
        assert_eq!(t.cost(), 4.0);
        assert_eq!(t.parent(1), Some(0));
    }

    #[test]
    fn trace_records_acceptances_and_rejections() {
        let net = figure4_like_net();
        let (tree, trace) = bkrus_trace(&net, 0.0).unwrap();
        let accepted: Vec<_> = trace
            .iter()
            .filter(|e| e.decision == EdgeDecision::Accepted)
            .map(|e| e.edge.endpoints())
            .collect();
        assert_eq!(accepted.len(), net.len() - 1);
        // Every accepted edge is a tree edge.
        for (u, v) in accepted {
            assert!(tree.contains_edge(u, v));
        }
        // With eps = 0 on this net at least one bound rejection must occur
        // (the far cluster cannot fully chain through b).
        assert!(trace
            .iter()
            .any(|e| e.decision == EdgeDecision::RejectedBound));
    }

    #[test]
    fn trace_cycle_rejections_happen() {
        // Equilateral-ish triangle of sinks close together far from S: the
        // third intra-cluster edge always closes a cycle.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.5, 0.0),
            Point::new(10.25, 0.4),
        ])
        .unwrap();
        let (_, trace) = bkrus_trace(&net, 1.0).unwrap();
        assert!(trace
            .iter()
            .any(|e| e.decision == EdgeDecision::RejectedCycle));
    }

    #[test]
    fn figure1_style_pathology_bkrus_stays_cheap() {
        // The paper's Figure 1 story: a far cluster of sinks. BPRIM-style
        // star connections are wasteful; BKRUS should chain the cluster and
        // pay roughly MST cost for moderate eps.
        let mut pts = vec![Point::new(0.0, 0.0)];
        for i in 0..8 {
            pts.push(Point::new(
                16.0 + 0.3 * (i % 4) as f64,
                0.3 * (i / 4) as f64,
            ));
        }
        let net = Net::with_source_first(pts).unwrap();
        let mst = mst_tree(&net).cost();
        let t = bkrus(&net, 0.25).unwrap();
        assert!(t.cost() <= 1.3 * mst, "cost {} vs mst {mst}", t.cost());
    }

    #[test]
    fn all_sinks_covered_and_parented() {
        let net = figure4_like_net();
        let t = bkrus(&net, 0.3).unwrap();
        for v in net.sinks() {
            assert!(t.is_covered(v));
            assert!(t.parent(v).is_some());
        }
    }
}
