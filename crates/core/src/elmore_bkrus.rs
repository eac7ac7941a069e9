//! BKRUS under the Elmore delay model (paper §3.2).
//!
//! The geometric path length is replaced by the Elmore RC delay. Because the
//! delay from the source to a node depends on the *whole* tree topology and
//! its capacitive load — attaching a subtree raises the delay of every node
//! that shares wire upstream — the incremental `P`/`r` update of geometric
//! BKRUS no longer applies: radii "must be completely recomputed after a
//! tentative merger of the two subtrees", making the feasibility test
//! `O(V^2)` and the whole construction `O(E V^2)` in the paper.
//!
//! Here the recomputation is one walk of the tentatively merged component.
//! The scan runs on the same [`KruskalForest`] as geometric BKRUS, whose
//! adjacency gives every node its tree edges in acceptance order, with the
//! candidate edge appended last. A walk from the source yields each
//! downstream capacitance in reverse preorder and each delay in preorder,
//! for (3-a). For (3-b) a second, rerooting pass yields every node's
//! Elmore radius: the delay across a directed edge `p → k` loads it with
//! `C_k` going down and with `C_total − C_k − c_s·len` going up, and each
//! node keeps its two longest downward branches. So a candidate merging
//! `k` nodes costs `O(k)`, on scratch the run allocates once.

use bmst_geom::{le_tol, Net};
use bmst_graph::Edge;
use bmst_tree::{ElmoreDelays, ElmoreParams, RoutingTree};

use crate::forest::KruskalForest;
use crate::{BmstError, ProblemContext};

/// The Elmore reference radius `R`: the worst source-to-sink Elmore delay of
/// the shortest path tree (the star).
///
/// The paper sets the delay bound to `(1 + eps) * R` with this `R`, noting
/// the driver must be strong enough that the SPT itself is a solution.
///
/// # Examples
///
/// ```
/// use bmst_core::elmore_spt_radius;
/// use bmst_geom::{Net, Point};
/// use bmst_tree::ElmoreParams;
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
/// ])?;
/// let params = ElmoreParams::uniform_loads(2, 0, 0.5, 0.2, 10.0, 1.0, 2.0);
/// // Matches the hand computation of the two-node net.
/// assert!((elmore_spt_radius(&net, &params) - 42.8).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn elmore_spt_radius(net: &Net, params: &ElmoreParams) -> f64 {
    let spt = crate::spt_tree(net);
    let delays = ElmoreDelays::from_source(&spt, params);
    delays.max_delay_over(net.sinks())
}

/// BKRUS with Elmore-delay feasibility: constructs a spanning tree whose
/// worst source-to-sink Elmore delay is at most `(1 + eps) * R`, where `R`
/// is [`elmore_spt_radius`].
///
/// The Kruskal scan is unchanged; the feasibility conditions become:
///
/// * (3-a) if the merged tree contains the source:
///   `r[source] <= (1 + eps) * R` in the tentatively merged tree, where
///   `r[source]` is the worst driver-inclusive delay — this re-checks
///   *existing* nodes too, because added capacitance slows them down;
/// * (3-b) otherwise there must be a node `x` in the merged tree such that a
///   hypothetical direct source wire to `x` would meet the bound:
///   `r_d (c_d + c_s d(S,x) + C') + r_s d(S,x) (c_s d(S,x)/2 + C') + r[x]
///   <= (1 + eps) * R`, with `C'` the total capacitance of the merged tree.
///
/// # Errors
///
/// * [`BmstError::InvalidEpsilon`] on negative/NaN `eps`;
/// * [`BmstError::Infeasible`] when the scan ends without spanning — unlike
///   the geometric case this can genuinely happen (Lemma 3.1's monotonicity
///   argument does not carry over to the Elmore model), typically for very
///   small `eps` or weak drivers.
///
/// # Panics
///
/// Panics if `params.load_cap.len() < net.len()`.
pub fn bkrus_elmore(net: &Net, eps: f64, params: &ElmoreParams) -> Result<RoutingTree, BmstError> {
    if eps.is_nan() || eps < 0.0 {
        return Err(BmstError::InvalidEpsilon { eps });
    }
    let cx = ProblemContext::new(net, eps)?.with_elmore(params.clone());
    run(&cx)
}

/// Context-based Elmore BKRUS driver: candidate edges come from the
/// context's lazy [`ProblemContext::edge_stream`], the delay model from
/// [`ProblemContext::elmore_params`].
pub(crate) fn run(cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    let eps = cx.eps();
    let params = cx.elmore_params();
    let n = net.len();
    let s = net.source();
    assert!(params.load_cap.len() >= n, "load_cap too short for net");
    if n == 1 {
        let tree = RoutingTree::from_edges(1, s, [])?;
        crate::audit::debug_audit(net, &tree, None);
        return Ok(tree);
    }

    let bound = if eps.is_infinite() {
        f64::INFINITY
    } else {
        (1.0 + eps) * elmore_spt_radius(net, params)
    };

    // Build the stream's neighbor index before opening the construction
    // span, so its cost is attributed to the context, not this run.
    let stream = cx.edge_stream();
    let _obs_span = bmst_obs::span("elmore_bkrus");

    let mut forest = KruskalForest::new(n, s);
    // Accepted edges in acceptance order: the final tree is built once.
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut merged = MergedTree::default();

    for e in stream {
        if edges.len() == n - 1 {
            break;
        }
        if forest.same_component(e.u, e.v) {
            continue;
        }
        // Poll before every tentative merge: each one walks the merged
        // component, and the stream itself polls only when it refills.
        cx.check_cancelled()?;
        let feasible = bound.is_infinite() || {
            bmst_obs::counter("elmore.evaluations", 1);
            if forest.contains_source(e.u) || forest.contains_source(e.v) {
                merged.walk(&forest, e, s, params);
                le_tol(merged.max_source_delay(params), bound)
            } else {
                merged.walk(&forest, e, e.u, params);
                merged.radii(params);
                let total_cap = merged.cap[0];
                merged.node.iter().zip(&merged.delay).any(|(&x, &radius)| {
                    let dsx = cx.dist(s, x);
                    let direct = params.driver_res
                        * (params.driver_cap + params.unit_cap * dsx + total_cap)
                        + params.unit_res * dsx * (params.unit_cap * dsx / 2.0 + total_cap)
                        + radius;
                    le_tol(direct, bound)
                })
            }
        };
        if feasible {
            forest.merge(e.u, e.v, e.weight);
            edges.push(e);
        }
    }

    if edges.len() != n - 1 {
        // A fired token truncates the edge stream: surface the deadline,
        // not a bogus Infeasible.
        cx.check_cancelled()?;
        return Err(BmstError::Infeasible {
            connected: edges.len() + 1,
            total: n,
            min_feasible_eps: None,
        });
    }
    let tree = RoutingTree::from_edges(n, s, edges)?;
    // The feasibility bound here is an Elmore delay, not a geometric path
    // window, so only the structural and merge invariants are audited.
    crate::audit::debug_audit(net, &tree, None);
    Ok(tree)
}

const NONE: usize = usize::MAX;

/// Elmore delay across one wire of length `len` driving `cap` downstream.
#[inline]
fn wire_delay(params: &ElmoreParams, len: f64, cap: f64) -> f64 {
    params.unit_res * len * (params.unit_cap / 2.0 * len + cap)
}

/// One tentatively merged component, walked from a root and indexed by
/// preorder position. The run allocates it once; every walk reuses its
/// capacity, so no per-candidate allocation grows with `n`.
#[derive(Debug, Default)]
struct MergedTree {
    /// `node[i]`: the node at preorder position `i`.
    node: Vec<usize>,
    /// `parent[i]`: the preorder position of `node[i]`'s parent, `NONE` at
    /// the root.
    parent: Vec<usize>,
    /// `len[i]`: the length of the wire from `node[i]` to its parent.
    len: Vec<f64>,
    /// `cap[i]`: the capacitance downstream of `node[i]` (the paper's `C_k`);
    /// `cap[0]` is the component's total capacitance.
    cap: Vec<f64>,
    /// `delay[i]`: the delay from the root ([`MergedTree::max_source_delay`])
    /// or the Elmore radius ([`MergedTree::radii`]) of `node[i]`.
    delay: Vec<f64>,
    /// `down[i]`: the two longest delays from `node[i]` into its subtree,
    /// and the child position the first runs through.
    down: Vec<(f64, f64, usize)>,
    /// Nodes still to visit, as `(node, parent position, wire length)`.
    stack: Vec<(usize, usize, f64)>,
}

impl MergedTree {
    /// Walks the partial trees of `e.u` and `e.v`, joined by `e`, from
    /// `root`, and takes every downstream capacitance in reverse preorder.
    ///
    /// Each node's tree edges come in acceptance order with `e` last, the
    /// order in which a routing tree built from the merged edge list would
    /// list its children, so the preorder and every capacitance sum match
    /// [`ElmoreDelays::from_source`] on that tree bit for bit.
    // analyze: allow(cancel-liveness) — one walk of a single merged component per call; run polls before every tentative merge
    fn walk(&mut self, forest: &KruskalForest, e: Edge, root: usize, params: &ElmoreParams) {
        self.node.clear();
        self.parent.clear();
        self.len.clear();
        self.stack.push((root, NONE, 0.0));
        while let Some((x, p, wire)) = self.stack.pop() {
            let i = self.node.len();
            self.node.push(x);
            self.parent.push(p);
            self.len.push(wire);
            let from = if p == NONE { NONE } else { self.node[p] };
            let candidate = if x == e.u {
                Some((e.v, e.weight))
            } else if x == e.v {
                Some((e.u, e.weight))
            } else {
                None
            };
            for &(y, w) in forest.neighbors(x).iter().chain(&candidate) {
                if y != from {
                    self.stack.push((y, i, w));
                }
            }
        }
        self.cap.clear();
        self.cap.resize(self.node.len(), 0.0);
        for i in (0..self.node.len()).rev() {
            self.cap[i] += params.load_cap[self.node[i]];
            let p = self.parent[i];
            if p != NONE {
                self.cap[p] += self.cap[i] + params.unit_cap * self.len[i];
            }
        }
    }

    /// The worst delay from the root, driver term included: condition
    /// (3-a) when the root is the source.
    // analyze: complexity(n)
    fn max_source_delay(&mut self, params: &ElmoreParams) -> f64 {
        self.delay.clear();
        let mut worst = 0.0_f64;
        for (i, &p) in self.parent.iter().enumerate() {
            let delay = if p == NONE {
                params.driver_res * (params.driver_cap + self.cap[i])
            } else {
                self.delay[p] + wire_delay(params, self.len[i], self.cap[i])
            };
            self.delay.push(delay);
            worst = worst.max(delay);
        }
        worst
    }

    /// Writes every node's Elmore radius `max_y delay(x, y)`, without the
    /// driver term, to `delay`: the longest branch into its subtree, from
    /// `down` in reverse preorder, against the longest path leaving through
    /// its parent, in preorder.
    // analyze: complexity(n)
    fn radii(&mut self, params: &ElmoreParams) {
        let k = self.node.len();
        let total = self.cap[0];
        self.down.clear();
        self.down.resize(k, (0.0, 0.0, NONE));
        for i in (1..k).rev() {
            let reach = wire_delay(params, self.len[i], self.cap[i]) + self.down[i].0;
            let best = &mut self.down[self.parent[i]];
            if reach > best.0 {
                *best = (reach, best.0, i);
            } else if reach > best.1 {
                best.1 = reach;
            }
        }
        // `delay[i]` first holds the longest path leaving `node[i]` through
        // its parent, then, once every such value is known, the radius.
        self.delay.clear();
        self.delay.resize(k, 0.0);
        for i in 1..k {
            let p = self.parent[i];
            let len = self.len[i];
            let upstream = total - self.cap[i] - params.unit_cap * len;
            let (first, second, via) = self.down[p];
            let sideways = if via == i { second } else { first };
            self.delay[i] = wire_delay(params, len, upstream) + self.delay[p].max(sideways);
        }
        for (radius, &(first, _, _)) in self.delay.iter_mut().zip(&self.down) {
            *radius = radius.max(first);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::mst_tree;
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

    fn strong_driver(n: usize) -> ElmoreParams {
        // A strong driver so the SPT is comfortably feasible (paper's
        // requirement).
        ElmoreParams::uniform_loads(n, 0, 0.1, 0.2, 1.0, 0.5, 1.0)
    }

    /// The walk against `ElmoreDelays` on random trees held in a forest
    /// with one edge left out as the candidate: from the source, the worst
    /// delay matches bit for bit; after rerooting, every radius and the
    /// total capacitance match one `from_node` evaluation per node to a
    /// relative 1e-12.
    #[test]
    fn walk_matches_per_node_delays() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let n = rng.gen_range(2..40);
            let mut edges: Vec<Edge> = (1..n)
                .map(|v| Edge::new(rng.gen_range(0..v), v, rng.gen_range(0.5..40.0)))
                .collect();
            let held = edges.remove(rng.gen_range(0..n - 1));
            let params = ElmoreParams::uniform_loads(
                n,
                0,
                rng.gen_range(0.01..1.0),
                rng.gen_range(0.01..1.0),
                rng.gen_range(0.0..5.0),
                rng.gen_range(0.0..2.0),
                rng.gen_range(0.0..3.0),
            );
            let mut forest = KruskalForest::new(n, 0);
            for e in &edges {
                forest.merge(e.u, e.v, e.weight);
            }
            // The candidate comes last, as in the run's edge list.
            edges.push(held);
            let tree = RoutingTree::from_edges(n, 0, edges.iter().copied()).unwrap();
            let mut merged = MergedTree::default();

            merged.walk(&forest, held, 0, &params);
            let from_source = ElmoreDelays::from_source(&tree, &params).max_delay();
            assert_eq!(
                merged.max_source_delay(&params).to_bits(),
                from_source.to_bits()
            );

            merged.walk(&forest, held, held.u, &params);
            merged.radii(&params);
            assert_eq!(merged.node.len(), n);
            let wire: f64 = edges.iter().map(|e| params.unit_cap * e.weight).sum();
            let total = wire + params.load_cap.iter().sum::<f64>();
            assert!(close(merged.cap[0], total), "{} vs {total}", merged.cap[0]);
            for (&x, &radius) in merged.node.iter().zip(&merged.delay) {
                let exact = ElmoreDelays::from_node(&tree, x, &params)
                    .unwrap()
                    .max_delay();
                assert!(close(radius, exact), "radius of {x}: {radius} vs {exact}");
            }
        }
    }

    #[test]
    fn delay_bound_respected() {
        // Seeds chosen so the greedy Elmore scan spans at every eps; see
        // `infeasibility_is_reported_cleanly` for the other outcome.
        for seed in [0, 1, 3, 4, 6] {
            let net = random_net(seed, 9);
            let params = strong_driver(net.len());
            let r = elmore_spt_radius(&net, &params);
            for eps in [0.2, 0.5, 1.0] {
                let t = bkrus_elmore(&net, eps, &params).unwrap();
                assert!(t.is_spanning());
                let worst = ElmoreDelays::from_source(&t, &params).max_delay_over(net.sinks());
                assert!(
                    worst <= (1.0 + eps) * r + 1e-6,
                    "seed {seed} eps {eps}: {worst} > {}",
                    (1.0 + eps) * r
                );
            }
        }
    }

    #[test]
    fn infeasibility_is_reported_cleanly() {
        // Unlike geometric BKRUS, the Elmore scan can paint itself into a
        // corner (Lemma 3.1's monotonicity does not carry over): early
        // sink-sink merges add capacitance that makes every remaining
        // source-side merge exceed the bound. The contract is a clean
        // `Infeasible` error, never a bound-violating tree.
        let net = random_net(2, 9);
        let params = strong_driver(net.len());
        match bkrus_elmore(&net, 0.2, &params) {
            Err(BmstError::Infeasible {
                connected, total, ..
            }) => {
                assert!(connected < total);
                assert_eq!(total, net.len());
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn infinite_eps_matches_mst() {
        let net = random_net(1, 10);
        let params = strong_driver(net.len());
        let t = bkrus_elmore(&net, f64::INFINITY, &params).unwrap();
        assert!((t.cost() - mst_tree(&net).cost()).abs() < 1e-9);
    }

    #[test]
    fn tighter_bound_costs_more() {
        let net = random_net(2, 10);
        let params = strong_driver(net.len());
        let tight = bkrus_elmore(&net, 0.1, &params).unwrap().cost();
        let loose = bkrus_elmore(&net, 2.0, &params).unwrap().cost();
        assert!(loose <= tight + 1e-9);
    }

    #[test]
    fn eps_zero_star_is_feasible_fallback() {
        // At eps = 0 only SPT-delay-equalling trees fit; the construction
        // either succeeds within the bound or reports infeasibility — never
        // silently violates.
        let net = random_net(3, 7);
        let params = strong_driver(net.len());
        let r = elmore_spt_radius(&net, &params);
        match bkrus_elmore(&net, 0.0, &params) {
            Ok(t) => {
                let worst = ElmoreDelays::from_source(&t, &params).max_delay_over(net.sinks());
                assert!(worst <= r + 1e-6);
            }
            Err(BmstError::Infeasible { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn spt_radius_positive_for_nontrivial_net() {
        let net = random_net(4, 5);
        let params = strong_driver(net.len());
        assert!(elmore_spt_radius(&net, &params) > 0.0);
    }

    #[test]
    fn negative_eps_rejected() {
        let net = random_net(5, 4);
        let params = strong_driver(net.len());
        assert!(matches!(
            bkrus_elmore(&net, -0.5, &params),
            Err(BmstError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn trivial_nets() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0)]).unwrap();
        let params = strong_driver(1);
        assert_eq!(bkrus_elmore(&net, 0.5, &params).unwrap().cost(), 0.0);

        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)]).unwrap();
        let params = strong_driver(2);
        assert_eq!(bkrus_elmore(&net, 0.0, &params).unwrap().cost(), 3.0);
    }
}
