//! BKST on an arbitrary rectilinear routing graph (paper §3.3, the
//! "channel intersection graph" form).
//!
//! The construction is the same candidate-pair heap as [`crate::bkst`], but
//! distances and routes come from the graph: candidate pair distances are
//! graph shortest-path lengths, a feasible pair is connected by an actual
//! shortest path (instead of an L), and the nodes on that path become new
//! sinks. Because subpaths of shortest paths are shortest, the completion
//! argument of the Hanan-grid case carries over verbatim with graph
//! distances in place of Manhattan ones.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use bmst_core::forest::KruskalForest;
use bmst_core::{BmstError, PathConstraint};
use bmst_graph::Edge;
use bmst_tree::RoutingTree;

use crate::{RoutingGraph, SteinerTree};

#[derive(Debug, PartialEq)]
struct Cand {
    dist: f64,
    a: usize, // forest ids
    b: usize,
}

impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then(other.a.cmp(&self.a))
            .then(other.b.cmp(&self.b))
    }
}

/// Bounded path length Steiner tree on a routing graph, with the bound
/// `(1 + eps) * R` where `R` is the largest *graph* shortest-path distance
/// from the source to a sink (in obstructed routing that, not the Manhattan
/// distance, is the attainable minimum).
///
/// Returns a [`SteinerTree`] whose node ids are: `0` = source,
/// `1..=sinks.len()` = the sinks in the given order, higher ids = routing
/// nodes materialised along the way.
///
/// # Errors
///
/// * [`BmstError::InvalidEpsilon`] for negative/NaN `eps`;
/// * [`BmstError::Infeasible`] when a sink is unreachable in the graph or
///   the construction dead-ends.
///
/// # Panics
///
/// Panics if `source` or a sink id is out of bounds of the graph, or if
/// `sinks` contains the source.
///
/// # Examples
///
/// ```
/// use bmst_geom::{BoundingBox, Point};
/// use bmst_steiner::{bkst_on_graph, RoutingGraph};
///
/// let terminals = [Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
/// let wall = BoundingBox { lo: Point::new(1.0, -3.0), hi: Point::new(3.0, 1.0) };
/// let g = RoutingGraph::with_obstacles(&terminals, &[wall]);
/// let s = g.locate(terminals[0]).unwrap();
/// let t = g.locate(terminals[1]).unwrap();
/// let st = bkst_on_graph(&g, s, &[t], 0.2)?;
/// // The route detours around the wall: 6 instead of the blocked 4.
/// assert!((st.wirelength() - 6.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bkst_on_graph(
    graph: &RoutingGraph,
    source: usize,
    sinks: &[usize],
    eps: f64,
) -> Result<SteinerTree, BmstError> {
    if eps.is_nan() || eps < 0.0 {
        return Err(BmstError::InvalidEpsilon { eps });
    }
    let sp = graph.shortest_paths(source);
    let mut r = 0.0f64;
    for &t in sinks {
        if !sp.dist[t].is_finite() {
            return Err(BmstError::Infeasible {
                connected: 1,
                total: sinks.len() + 1,
                min_feasible_eps: None,
            });
        }
        r = r.max(sp.dist[t]);
    }
    let upper = if eps.is_infinite() {
        f64::INFINITY
    } else {
        (1.0 + eps) * r
    };
    let constraint = PathConstraint::explicit(0.0, upper)?;
    bkst_on_graph_with(graph, source, sinks, constraint)
}

/// [`bkst_on_graph`] with an explicit constraint (including two-sided
/// windows; the lower bound applies to the sinks only).
///
/// # Errors
///
/// Same conditions as [`bkst_on_graph`].
///
/// # Panics
///
/// Same conditions as [`bkst_on_graph`].
pub fn bkst_on_graph_with(
    graph: &RoutingGraph,
    source: usize,
    sinks: &[usize],
    constraint: PathConstraint,
) -> Result<SteinerTree, BmstError> {
    let m = graph.len();
    assert!(source < m, "source {source} out of bounds");
    for &t in sinks {
        assert!(t < m, "sink {t} out of bounds");
        assert!(t != source, "sink {t} equals the source");
    }
    let nt = sinks.len() + 1;
    if sinks.is_empty() {
        return Ok(SteinerTree {
            tree: RoutingTree::from_edges(1, 0, [])?,
            points: vec![graph.point(source)],
            num_terminals: 1,
        });
    }

    // Forest over *touched* graph nodes: terminals first, path nodes lazily.
    let mut forest = KruskalForest::new(nt, 0);
    let mut graph_of: Vec<usize> = Vec::with_capacity(nt);
    graph_of.push(source);
    graph_of.extend_from_slice(sinks);
    let mut forest_of: BTreeMap<usize, usize> =
        graph_of.iter().enumerate().map(|(f, &g)| (g, f)).collect();
    let mut points: Vec<_> = graph_of.iter().map(|&g| graph.point(g)).collect();

    // dist_s[forest id] = graph shortest-path distance from the source
    // (this is what the feasibility condition (3-b) needs: the best
    // possible future direct connection).
    let sp_source = graph.shortest_paths(source);
    let mut dist_s: Vec<f64> = graph_of.iter().map(|&g| sp_source.dist[g]).collect();
    if dist_s.iter().any(|d| !d.is_finite()) {
        return Err(BmstError::Infeasible {
            connected: 1,
            total: nt,
            min_feasible_eps: None,
        });
    }

    // Initial candidates: all terminal pairs at graph distance.
    let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
    for fa in 0..nt {
        let spa = graph.shortest_paths(graph_of[fa]);
        for (fb, &gb) in graph_of.iter().enumerate().skip(fa + 1) {
            let d = spa.dist[gb];
            if d.is_finite() {
                heap.push(Cand {
                    dist: d,
                    a: fa,
                    b: fb,
                });
            }
        }
    }

    let mut edges: Vec<Edge> = Vec::new();
    let terminals_connected = |forest: &mut KruskalForest| -> usize {
        (0..nt).filter(|&t| forest.contains_source(t)).count()
    };
    let mut edges_at_last_fallback = usize::MAX;

    while terminals_connected(&mut forest) < nt {
        let Some(Cand { dist, a, b }) = heap.pop() else {
            // Exhaustion fallback, as in the Hanan-grid construction: every
            // live component keeps a feasible node; its direct shortest
            // route from the source is segment-wise feasible.
            if edges_at_last_fallback == edges.len() {
                let connected = terminals_connected(&mut forest);
                return Err(BmstError::Infeasible {
                    connected,
                    total: nt,
                    min_feasible_eps: None,
                });
            }
            edges_at_last_fallback = edges.len();
            let mut offered = false;
            for (x, &dsx) in dist_s.iter().enumerate() {
                if !forest.contains_source(x)
                    && bmst_geom::le_tol(dsx + forest.radius(x), constraint.upper)
                {
                    heap.push(Cand {
                        dist: dsx,
                        a: 0,
                        b: x,
                    });
                    offered = true;
                }
            }
            if !offered {
                let connected = terminals_connected(&mut forest);
                return Err(BmstError::Infeasible {
                    connected,
                    total: nt,
                    min_feasible_eps: None,
                });
            }
            continue;
        };
        if forest.same_component(a, b) {
            continue;
        }
        if !forest.is_feasible_merge(a, b, dist, &dist_s, constraint.upper)
            || !forest.clears_lower_bound(a, b, dist, constraint.lower, nt)
        {
            continue;
        }

        // Route: actual shortest path on the graph from a to b.
        let spa = graph.shortest_paths(graph_of[a]);
        let Some(route) = spa.path_to(graph_of[b]) else {
            continue; // components mutually unreachable in the graph
        };

        let mut merged_any = false;
        let mut cur = a; // forest id
        let mut pending = 0.0f64; // accumulated pass-through length
        let mut prev_graph = graph_of[a];
        let mut new_on_path: Vec<usize> = vec![a];
        for &gw in route.iter().skip(1) {
            let seg = graph.point(prev_graph).manhattan(graph.point(gw));
            prev_graph = gw;
            let fid = match forest_of.get(&gw).copied() {
                Some(fid) => fid,
                None => {
                    let fid = forest.add_node();
                    forest_of.insert(gw, fid);
                    graph_of.push(gw);
                    points.push(graph.point(gw));
                    dist_s.push(sp_source.dist[gw]);
                    fid
                }
            };
            let w = pending + seg;
            if forest.same_component(cur, fid) {
                if forest.path(cur, fid) <= w + bmst_geom::EPS_TOL {
                    // Reuse the existing wire.
                    new_on_path.push(fid);
                    cur = fid;
                    pending = 0.0;
                } else {
                    pending = w; // cross over without adopting
                }
            } else if forest.is_feasible_merge(cur, fid, w, &dist_s, constraint.upper)
                && forest.clears_lower_bound(cur, fid, w, constraint.lower, nt)
            {
                forest.merge(cur, fid, w);
                edges.push(Edge::new(cur, fid, w));
                merged_any = true;
                new_on_path.push(fid);
                cur = fid;
                pending = 0.0;
            } else if forest_of.len() > nt && forest.component(fid).len() == 1 {
                // Fresh singleton we cannot afford to attach: abandon the
                // rest of the route.
                break;
            } else {
                pending = w; // cross over a foreign wire
            }
        }

        if merged_any {
            for &p in &new_on_path {
                for q in 0..points.len() {
                    if q != p && !forest.same_component(p, q) {
                        let d = points[p].manhattan(points[q]);
                        // Manhattan is a lower bound on the graph distance;
                        // using it as the heap key only reorders candidates,
                        // feasibility is re-checked on the actual route.
                        heap.push(Cand {
                            dist: d,
                            a: p,
                            b: q,
                        });
                    }
                }
            }
        }
    }

    let tree = RoutingTree::from_edges(points.len(), 0, edges)?;
    if !constraint.is_satisfied_by(&tree, 1..nt) {
        return Err(BmstError::Infeasible {
            connected: nt,
            total: nt,
            min_feasible_eps: None,
        });
    }
    Ok(SteinerTree {
        tree,
        points,
        num_terminals: nt,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::{BoundingBox, Point};

    fn wall_case() -> (RoutingGraph, usize, Vec<usize>) {
        let terminals = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
        ];
        let wall = BoundingBox {
            lo: Point::new(1.0, -3.0),
            hi: Point::new(3.0, 1.0),
        };
        let g = RoutingGraph::with_obstacles(&terminals, &[wall]);
        let s = g.locate(terminals[0]).unwrap();
        let t1 = g.locate(terminals[1]).unwrap();
        let t2 = g.locate(terminals[2]).unwrap();
        (g, s, vec![t1, t2])
    }

    #[test]
    fn routes_around_obstacles() {
        let (g, s, sinks) = wall_case();
        let st = bkst_on_graph(&g, s, &sinks, 0.5).unwrap();
        // All terminals covered, and no tree edge uses a blocked segment —
        // guaranteed because edges follow graph routes, but verify lengths:
        // the detour makes every sink path at least its graph distance.
        let sp = g.shortest_paths(s);
        for (i, &t) in sinks.iter().enumerate() {
            let fid = i + 1;
            assert!(st.tree.is_covered(fid));
            assert!(st.tree.dist_from_root(fid) + 1e-9 >= sp.dist[t]);
        }
    }

    #[test]
    fn bound_uses_graph_radius() {
        let (g, s, sinks) = wall_case();
        let sp = g.shortest_paths(s);
        let r = sinks.iter().map(|&t| sp.dist[t]).fold(0.0f64, f64::max);
        for eps in [0.0, 0.3, 1.0] {
            let st = bkst_on_graph(&g, s, &sinks, eps).unwrap();
            let radius = st.tree.max_dist_from_root(1..=sinks.len());
            assert!(
                radius <= (1.0 + eps) * r + 1e-9,
                "eps {eps}: {radius} > {}",
                (1.0 + eps) * r
            );
        }
    }

    #[test]
    fn unobstructed_grid_matches_manhattan_star() {
        // Single sink: tree is the shortest route.
        let pts = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let g = RoutingGraph::grid(&pts);
        let s = g.locate(pts[0]).unwrap();
        let t = g.locate(pts[1]).unwrap();
        let st = bkst_on_graph(&g, s, &[t], 0.0).unwrap();
        assert!((st.wirelength() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn shares_trunks_like_hanan_bkst() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 2.0),
            Point::new(10.0, -2.0),
        ];
        let g = RoutingGraph::grid(&pts);
        let s = g.locate(pts[0]).unwrap();
        let sinks: Vec<usize> = pts[1..].iter().map(|&p| g.locate(p).unwrap()).collect();
        let st = bkst_on_graph(&g, s, &sinks, 1.0).unwrap();
        assert!(
            st.wirelength() <= 14.0 + 1e-9,
            "wirelength {}",
            st.wirelength()
        );
    }

    #[test]
    fn unreachable_sink_is_infeasible() {
        let terminals = [Point::new(0.0, 0.0), Point::new(10.0, 10.0)];
        let ring = [
            BoundingBox {
                lo: Point::new(8.0, 8.0),
                hi: Point::new(12.0, 9.0),
            },
            BoundingBox {
                lo: Point::new(8.0, 11.0),
                hi: Point::new(12.0, 12.0),
            },
            BoundingBox {
                lo: Point::new(8.0, 8.5),
                hi: Point::new(9.0, 11.5),
            },
            BoundingBox {
                lo: Point::new(11.0, 8.5),
                hi: Point::new(12.0, 11.5),
            },
        ];
        let g = RoutingGraph::with_obstacles(&terminals, &ring);
        let s = g.locate(terminals[0]).unwrap();
        let t = g.locate(terminals[1]).unwrap();
        let sp = g.shortest_paths(s);
        if sp.dist[t].is_infinite() {
            assert!(matches!(
                bkst_on_graph(&g, s, &[t], 1.0),
                Err(BmstError::Infeasible { .. })
            ));
        }
    }

    #[test]
    fn no_sinks_trivial() {
        let g = RoutingGraph::grid(&[Point::new(1.0, 1.0)]);
        let st = bkst_on_graph(&g, 0, &[], 0.0).unwrap();
        assert_eq!(st.wirelength(), 0.0);
        assert_eq!(st.num_terminals, 1);
    }

    #[test]
    fn negative_eps_rejected() {
        let g = RoutingGraph::grid(&[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        assert!(matches!(
            bkst_on_graph(&g, 0, &[1], -1.0),
            Err(BmstError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn tighter_eps_not_cheaper_on_average() {
        // Several sinks around an obstacle: loose bound allows more sharing.
        let terminals = [
            Point::new(0.0, 0.0),
            Point::new(6.0, 3.0),
            Point::new(6.0, -3.0),
            Point::new(8.0, 0.0),
        ];
        let wall = BoundingBox {
            lo: Point::new(2.0, -1.0),
            hi: Point::new(4.0, 1.0),
        };
        let g = RoutingGraph::with_obstacles(&terminals, &[wall]);
        let s = g.locate(terminals[0]).unwrap();
        let sinks: Vec<usize> = terminals[1..]
            .iter()
            .map(|&p| g.locate(p).unwrap())
            .collect();
        let tight = bkst_on_graph(&g, s, &sinks, 0.0).unwrap().wirelength();
        let loose = bkst_on_graph(&g, s, &sinks, 2.0).unwrap().wirelength();
        assert!(loose <= tight + 1e-9, "loose {loose} > tight {tight}");
    }
}
