//! Elmore delay evaluation on routing trees.
//!
//! Section 3.2 of the paper extends BKRUS from geometric path length to the
//! Elmore RC delay model: the "radius" of a node becomes its worst-case
//! Elmore delay to any node of its tree, and the bound `(1 + eps) * R` is a
//! delay bound, with `R` the worst source-sink Elmore delay of the shortest
//! path tree.
//!
//! For a tree `T` re-rooted at the signal origin `u`, with `T_k` the subtree
//! hanging at `k` and `p(k)` the parent of `k`:
//!
//! ```text
//! C_k        = sum over x in T_k, x != k of c_s * dist(x, p(x))   (wire cap)
//!            + sum over x in T_k of C_L(x)                        (load cap)
//! delay(u,y) = sum over k on path u->y, k != u of
//!                r_s * dist(k, p(k)) * (c_s/2 * dist(k, p(k)) + C_k)
//! ```
//!
//! and when the origin is the driving source, the driver contributes
//! `r_d * (c_d + C_S)` where `C_S` is the total capacitance hanging off the
//! source.

use crate::{RoutingTree, TreeError};

/// Electrical parameters of the Elmore delay model.
///
/// # Examples
///
/// ```
/// use bmst_tree::ElmoreParams;
///
/// // 0.1 ohm and 0.2 fF per unit length, a strong driver, 1.0 fF sink loads
/// // on a 4-terminal net whose source is terminal 0.
/// let params = ElmoreParams::uniform_loads(4, 0, 0.1, 0.2, 25.0, 2.0, 1.0);
/// assert_eq!(params.load_cap[0], 0.0); // the source carries no sink load
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ElmoreParams {
    /// Wire resistance per unit length (`r_s`).
    pub unit_res: f64,
    /// Wire capacitance per unit length (`c_s`).
    pub unit_cap: f64,
    /// Driver output resistance (`r_d`).
    pub driver_res: f64,
    /// Driver intrinsic capacitance (`c_d`).
    pub driver_cap: f64,
    /// Load capacitance per node (`C_L`); Steiner points and the source
    /// should carry `0.0`.
    pub load_cap: Vec<f64>,
}

impl ElmoreParams {
    /// Creates parameters with the same load on every node except `source`
    /// (which gets zero — the driver's capacitance is modelled separately by
    /// `driver_cap`).
    ///
    /// # Panics
    ///
    /// Panics if any electrical value is negative or non-finite, or if
    /// `source >= n`.
    pub fn uniform_loads(
        n: usize,
        source: usize,
        unit_res: f64,
        unit_cap: f64,
        driver_res: f64,
        driver_cap: f64,
        sink_load: f64,
    ) -> Self {
        assert!(source < n, "source {source} out of bounds for {n} nodes");
        for (name, v) in [
            ("unit_res", unit_res),
            ("unit_cap", unit_cap),
            ("driver_res", driver_res),
            ("driver_cap", driver_cap),
            ("sink_load", sink_load),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative, got {v}"
            );
        }
        let mut load_cap = vec![sink_load; n];
        load_cap[source] = 0.0;
        ElmoreParams {
            unit_res,
            unit_cap,
            driver_res,
            driver_cap,
            load_cap,
        }
    }
}

/// Elmore delays from a fixed origin node to every covered node of a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ElmoreDelays {
    /// The origin the delays are measured from.
    pub from: usize,
    /// `delay[v]` = Elmore delay from `from` to `v`
    /// (`f64::INFINITY` for uncovered nodes).
    pub delay: Vec<f64>,
}

impl ElmoreDelays {
    /// Computes delays from an arbitrary origin `from` (no driver term).
    ///
    /// This is the paper's `delay(u, v)`: the tree is conceptually re-rooted
    /// at `u` and subtree capacitances are taken with respect to that
    /// orientation. `O(V)`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeNotCovered`] if `from` is not covered, and
    /// propagates a mismatch between the parameter vector and the node
    /// universe as a panic (see Panics).
    ///
    /// # Panics
    ///
    /// Panics if `params.load_cap.len() < tree.universe()`.
    pub fn from_node(
        tree: &RoutingTree,
        from: usize,
        params: &ElmoreParams,
    ) -> Result<Self, TreeError> {
        Self::compute(tree, from, params, false)
    }

    /// Computes delays from the tree's root including the driver term
    /// `r_d * (c_d + C_S)`; this is the paper's `delay(S, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `params.load_cap.len() < tree.universe()`.
    #[allow(clippy::expect_used)] // coverage invariant, justified inline
    pub fn from_source(tree: &RoutingTree, params: &ElmoreParams) -> Self {
        Self::compute(tree, tree.root(), params, true)
            // lint: allow(no-panic) — the root is covered in every RoutingTree
            .expect("tree root is always covered")
    }

    // analyze: allow(cancel-liveness) — single tree traversal; bmst-tree has no CancelToken dependency
    fn compute(
        tree: &RoutingTree,
        from: usize,
        params: &ElmoreParams,
        driver: bool,
    ) -> Result<Self, TreeError> {
        bmst_obs::counter("elmore.evaluations", 1);
        let n = tree.universe();
        assert!(
            params.load_cap.len() >= n,
            "load_cap has {} entries for {} nodes",
            params.load_cap.len(),
            n
        );
        if from >= n || !tree.is_covered(from) {
            return Err(TreeError::NodeNotCovered { node: from });
        }

        // Orientation from `from`: undirected preorder traversal.
        const NONE: usize = usize::MAX;
        let mut parent = vec![NONE; n];
        let mut edge_len = vec![0.0; n];
        let mut order = Vec::with_capacity(tree.covered_count());
        let mut stack = vec![from];
        let mut seen = vec![false; n];
        seen[from] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            let push = |v: usize,
                        w: f64,
                        parent_arr: &mut Vec<usize>,
                        len_arr: &mut Vec<f64>,
                        seen: &mut Vec<bool>,
                        stack: &mut Vec<usize>| {
                if !seen[v] {
                    seen[v] = true;
                    parent_arr[v] = u;
                    len_arr[v] = w;
                    stack.push(v);
                }
            };
            if let Some(p) = tree.parent(u) {
                push(
                    p,
                    tree.parent_edge_weight(u),
                    &mut parent,
                    &mut edge_len,
                    &mut seen,
                    &mut stack,
                );
            }
            for &c in tree.children(u) {
                push(
                    c,
                    tree.parent_edge_weight(c),
                    &mut parent,
                    &mut edge_len,
                    &mut seen,
                    &mut stack,
                );
            }
        }

        // Downstream capacitance C_k in reverse preorder.
        let mut cap = vec![0.0; n];
        for &k in order.iter().rev() {
            cap[k] += params.load_cap[k];
            if let Some(&p) = parent.get(k).filter(|&&p| p != NONE) {
                cap[p] += cap[k] + params.unit_cap * edge_len[k];
            }
        }

        // Delay accumulation in preorder.
        let mut delay = vec![f64::INFINITY; n];
        delay[from] = if driver {
            params.driver_res * (params.driver_cap + cap[from])
        } else {
            0.0
        };
        for &k in &order {
            if k == from {
                continue;
            }
            let p = parent[k];
            let len = edge_len[k];
            delay[k] = delay[p] + params.unit_res * len * (params.unit_cap / 2.0 * len + cap[k]);
        }

        Ok(ElmoreDelays { from, delay })
    }

    /// Largest finite delay (the Elmore radius of `from`).
    pub fn max_delay(&self) -> f64 {
        self.delay
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Largest delay over a node subset.
    ///
    /// # Panics
    ///
    /// Panics if a subset node is uncovered (infinite delay).
    pub fn max_delay_over(&self, nodes: impl IntoIterator<Item = usize>) -> f64 {
        nodes
            .into_iter()
            .map(|v| {
                let d = self.delay[v];
                assert!(d.is_finite(), "node {v} is not covered by the delay query");
                d
            })
            .fold(0.0, f64::max)
    }
}

/// Elmore radius of every covered node: `r[u] = max_v delay(u, v)`.
///
/// `O(V^2)`; this is the quantity the Elmore-extended BKRUS recomputes after
/// each tentative merger (the paper notes the geometric incremental update no
/// longer applies under the Elmore model).
///
/// Uncovered nodes get `f64::INFINITY`.
///
/// # Panics
///
/// Panics if `params.load_cap.len() < tree.universe()`.
#[allow(clippy::expect_used)] // coverage invariant, justified inline
pub fn elmore_radii(tree: &RoutingTree, params: &ElmoreParams) -> Vec<f64> {
    let n = tree.universe();
    let mut radii = vec![f64::INFINITY; n];
    for u in tree.covered_nodes() {
        let d = ElmoreDelays::from_node(tree, u, params)
            // lint: allow(no-panic) — from_node accepts exactly the covered nodes being iterated
            .expect("covered nodes are valid origins");
        radii[u] = d.max_delay();
    }
    radii
}

/// Total capacitance of the tree: all wire capacitance plus all node loads.
///
/// Used by the Elmore feasibility condition (3-b), where a candidate direct
/// source connection must drive the entire merged component.
pub fn total_capacitance(tree: &RoutingTree, params: &ElmoreParams) -> f64 {
    let wire: f64 = tree
        .edges()
        .iter()
        .map(|e| params.unit_cap * e.weight)
        .sum();
    let loads: f64 = tree.covered_nodes().map(|v| params.load_cap[v]).sum();
    wire + loads
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_graph::Edge;

    fn params(n: usize) -> ElmoreParams {
        ElmoreParams::uniform_loads(n, 0, 0.5, 0.2, 10.0, 1.0, 2.0)
    }

    /// Two-node net: source 0, sink 1 at wire length L.
    #[test]
    fn two_node_delay_matches_hand_computation() {
        let l = 4.0;
        let t = RoutingTree::from_edges(2, 0, vec![Edge::new(0, 1, l)]).unwrap();
        let p = params(2);
        // C_1 = load = 2.0; C_S = wire + load = 0.2*4 + 2 = 2.8
        // delay(S,1) = r_d*(c_d + C_S) + r_s*L*(c_s/2*L + C_1)
        //            = 10*(1 + 2.8) + 0.5*4*(0.1*4 + 2) = 38 + 2*(2.4) = 42.8
        let d = ElmoreDelays::from_source(&t, &p);
        assert!((d.delay[1] - 42.8).abs() < 1e-9);
        assert!((d.delay[0] - 38.0).abs() < 1e-9);
    }

    #[test]
    fn from_node_has_no_driver_term() {
        let t = RoutingTree::from_edges(2, 0, vec![Edge::new(0, 1, 4.0)]).unwrap();
        let p = params(2);
        let d = ElmoreDelays::from_node(&t, 0, &p).unwrap();
        assert_eq!(d.delay[0], 0.0);
        // Only the wire term: 0.5*4*(0.1*4 + 2) = 4.8
        assert!((d.delay[1] - 4.8).abs() < 1e-9);
    }

    #[test]
    fn delay_is_topology_dependent_not_just_length() {
        // Path 0-1-2 vs star 0-{1,2}: sink 1 at same path length, but in the
        // path topology sink 1's wire also drives sink 2's subtree.
        let path = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 2.0)])
            .unwrap();
        let star = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 2.0), Edge::new(0, 2, 2.0)])
            .unwrap();
        let p = params(3);
        let dp = ElmoreDelays::from_node(&path, 0, &p).unwrap();
        let ds = ElmoreDelays::from_node(&star, 0, &p).unwrap();
        assert!(dp.delay[1] > ds.delay[1]);
    }

    #[test]
    fn reverse_delay_differs_from_forward() {
        // delay(u,v) != delay(v,u) in general: subtree caps differ.
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 5.0)])
            .unwrap();
        let p = params(3);
        let fwd = ElmoreDelays::from_node(&t, 0, &p).unwrap().delay[2];
        let rev = ElmoreDelays::from_node(&t, 2, &p).unwrap().delay[0];
        assert!((fwd - rev).abs() > 1e-9);
    }

    #[test]
    fn monotone_along_path() {
        let t = RoutingTree::from_edges(
            4,
            0,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 3, 1.0),
            ],
        )
        .unwrap();
        let d = ElmoreDelays::from_source(&t, &params(4));
        assert!(d.delay[0] < d.delay[1]);
        assert!(d.delay[1] < d.delay[2]);
        assert!(d.delay[2] < d.delay[3]);
        assert_eq!(d.max_delay(), d.delay[3]);
    }

    #[test]
    fn radii_symmetric_tree() {
        // Symmetric star: both sinks equidistant; radii of sinks equal.
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 3.0), Edge::new(0, 2, 3.0)])
            .unwrap();
        let mut p = params(3);
        p.load_cap = vec![0.0, 2.0, 2.0];
        let r = elmore_radii(&t, &p);
        assert!((r[1] - r[2]).abs() < 1e-12);
        assert!(r[0] < r[1]); // center sees less worst-case delay
    }

    #[test]
    fn uncovered_nodes_have_infinite_radius() {
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0)]).unwrap();
        let r = elmore_radii(&t, &params(3));
        assert!(r[2].is_infinite());
        assert!(r[0].is_finite());
    }

    #[test]
    fn from_node_uncovered_origin_errors() {
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0)]).unwrap();
        assert_eq!(
            ElmoreDelays::from_node(&t, 2, &params(3)).unwrap_err(),
            TreeError::NodeNotCovered { node: 2 }
        );
    }

    #[test]
    fn total_capacitance_sums_wires_and_loads() {
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 3.0)])
            .unwrap();
        let p = params(3);
        // wires: 0.2*(2+3) = 1.0; loads: 0 + 2 + 2 = 4.0
        assert!((total_capacitance(&t, &p) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rc_gives_zero_delay() {
        let t = RoutingTree::from_edges(2, 0, vec![Edge::new(0, 1, 7.0)]).unwrap();
        let p = ElmoreParams::uniform_loads(2, 0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let d = ElmoreDelays::from_source(&t, &p);
        assert_eq!(d.delay, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_resistance_rejected() {
        ElmoreParams::uniform_loads(2, 0, -1.0, 0.2, 1.0, 1.0, 1.0);
    }

    #[test]
    fn max_delay_over_subset() {
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)])
            .unwrap();
        let d = ElmoreDelays::from_source(&t, &params(3));
        assert_eq!(d.max_delay_over([1]), d.delay[1]);
        assert_eq!(d.max_delay_over([1, 2]), d.delay[2]);
    }
}
