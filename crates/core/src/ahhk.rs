//! The Prim-Dijkstra trade-off of Alpert, Hu, Huang and Kahng ("A direct
//! combination of the Prim and Dijkstra constructions for improved
//! performance-driven global routing", ISCAS 1993) — the paper's reference
//! [9], cited in §2 as an alternative way to trade source-sink path length
//! for routing cost.
//!
//! Unlike BKRUS, AHHK offers no hard path-length *bound*: it blends the
//! Prim key `dist(u, v)` with the Dijkstra key `path(S, u) + dist(u, v)` by
//! a parameter `c`, sliding the result between the MST (`c = 0`) and the
//! SPT (`c = 1`).

use bmst_geom::Net;
use bmst_graph::Edge;
use bmst_tree::RoutingTree;

use crate::{BmstError, ProblemContext};

/// Constructs a spanning tree with the AHHK Prim-Dijkstra blend: grow from
/// the source, always attaching the outside node `v` minimising
/// `c * path(S, u) + dist(u, v)` over tree nodes `u`.
///
/// * `c = 0.0` reproduces Prim's MST;
/// * `c = 1.0` reproduces Dijkstra's SPT (each sink reached at its shortest
///   distance);
/// * intermediate values trade radius for cost *without* a hard guarantee —
///   exactly the property the paper contrasts its bounded constructions
///   against.
///
/// `O(V^2)`.
///
/// # Errors
///
/// [`BmstError::InvalidEpsilon`] when `c` is NaN or outside `[0, 1]`
/// (reusing the parameter-validation error type).
///
/// # Examples
///
/// ```
/// use bmst_core::{mst_tree, prim_dijkstra, spt_tree};
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(5.0, 1.0),
///     Point::new(6.0, -1.0),
/// ])?;
/// let mst_like = prim_dijkstra(&net, 0.0)?;
/// let spt_like = prim_dijkstra(&net, 1.0)?;
/// assert!((mst_like.cost() - mst_tree(&net).cost()).abs() < 1e-9);
/// assert!((spt_like.source_radius() - spt_tree(&net).source_radius()).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn prim_dijkstra(net: &Net, c: f64) -> Result<RoutingTree, BmstError> {
    let cx = ProblemContext::unbounded(net).with_pd_blend(c);
    run(&cx)
}

/// Context-based AHHK driver; the blend parameter comes from
/// [`ProblemContext::pd_blend`].
// analyze: complexity(n^2)
pub(crate) fn run(cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    let c = cx.pd_blend();
    if c.is_nan() || !(0.0..=1.0).contains(&c) {
        return Err(BmstError::InvalidEpsilon { eps: c });
    }
    let n = net.len();
    let s = net.source();
    if n == 1 {
        let tree = RoutingTree::from_edges(1, s, [])?;
        crate::audit::debug_audit(net, &tree, None);
        return Ok(tree);
    }

    let mut in_tree = vec![false; n];
    let mut path_s = vec![0.0; n];
    // best[v] = min over tree u of c * path_s[u] + d(u, v), with arg.
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![usize::MAX; n];
    in_tree[s] = true;
    for v in 0..n {
        cx.check_cancelled()?;
        if v != s {
            best[v] = cx.dist(s, v);
            best_from[v] = s;
        }
    }

    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        cx.check_cancelled()?;
        let mut pick = usize::MAX;
        let mut key = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best[v] < key {
                pick = v;
                key = best[v];
            }
        }
        debug_assert!(pick != usize::MAX);
        let u = best_from[pick];
        in_tree[pick] = true;
        let w = cx.dist(u, pick);
        path_s[pick] = path_s[u] + w;
        edges.push(Edge::new(u, pick, w));
        for v in 0..n {
            if !in_tree[v] {
                let cand = c * path_s[pick] + cx.dist(pick, v);
                if cand < best[v] {
                    best[v] = cand;
                    best_from[v] = pick;
                }
            }
        }
    }
    let tree = RoutingTree::from_edges(n, s, edges)?;
    // AHHK has no hard path bound, so only the structural and merge
    // invariants are audited.
    crate::audit::debug_audit(net, &tree, None);
    Ok(tree)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::{mst_tree, spt_tree};
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
    fn c_zero_is_prim() {
        for seed in 0..5 {
            let net = random_net(seed, 12);
            let t = prim_dijkstra(&net, 0.0).unwrap();
            assert!((t.cost() - mst_tree(&net).cost()).abs() < 1e-9);
        }
    }

    #[test]
    fn c_one_is_dijkstra() {
        for seed in 0..5 {
            let net = random_net(seed + 10, 12);
            let t = prim_dijkstra(&net, 1.0).unwrap();
            // In a metric complete graph Dijkstra reaches every node at its
            // direct distance.
            for v in net.sinks() {
                assert!(
                    (t.dist_from_root(v) - net.dist(net.source(), v)).abs() < 1e-9,
                    "seed {seed} node {v}"
                );
            }
            assert!((t.source_radius() - spt_tree(&net).source_radius()).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_between_extremes() {
        for seed in 0..5 {
            let net = random_net(seed + 20, 12);
            let mst = mst_tree(&net).cost();
            let spt = spt_tree(&net).cost();
            for c in [0.25, 0.5, 0.75] {
                let t = prim_dijkstra(&net, c).unwrap();
                assert!(t.is_spanning());
                assert!(t.cost() + 1e-9 >= mst);
                assert!(t.cost() <= spt + 1e-9);
            }
        }
    }

    #[test]
    fn no_hard_bound_unlike_bkrus() {
        // AHHK controls the radius only softly: find an instance where the
        // mid-c tree exceeds the bound a comparable BKRUS honours — the
        // contrast the paper draws in §2.
        let mut found = false;
        for seed in 0..30 {
            let net = random_net(seed + 40, 12);
            let t = prim_dijkstra(&net, 0.25).unwrap();
            if t.source_radius() > 1.2 * net.source_radius() + 1e-9 {
                found = true;
                break;
            }
        }
        assert!(found, "expected some instance where c = 0.25 exceeds 1.2 R");
    }

    #[test]
    fn invalid_c_rejected() {
        let net = random_net(0, 4);
        assert!(prim_dijkstra(&net, -0.1).is_err());
        assert!(prim_dijkstra(&net, 1.5).is_err());
        assert!(prim_dijkstra(&net, f64::NAN).is_err());
    }

    #[test]
    fn trivial_nets() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0)]).unwrap();
        assert_eq!(prim_dijkstra(&net, 0.5).unwrap().cost(), 0.0);
    }
}
