//! BKH2: depth-2 negative-sum-exchange local search (paper §5).
//!
//! By Lemma 3.1 the BKRUS tree is already a local optimum with respect to a
//! *single* feasible T-exchange, so improving it requires sequences of at
//! least two exchanges. BKH2 is exactly that: the negative-sum-exchange
//! search limited to depth two, repeated until no improvement remains. It
//! finds a deeper local optimum than BKRUS at `O(E^2 V^3)` cost, and the
//! paper recommends it for nets of fewer than ~300 terminals.

use bmst_geom::Net;
use bmst_tree::RoutingTree;

use bmst_tree::{ElmoreDelays, ElmoreParams};

use crate::bkex::{bkex_from, BkexConfig};
use crate::{elmore_spt_radius, BmstError, PathConstraint, ProblemContext};

/// Bounded path length spanning tree via BKRUS followed by the BKH2
/// depth-2 exchange post-processing.
///
/// # Errors
///
/// Propagates [`bkrus`](fn@crate::bkrus)'s errors; the exchange phase itself cannot fail.
///
/// # Examples
///
/// ```
/// use bmst_core::{bkh2, bkrus};
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(5.0, 1.0),
///     Point::new(6.0, -1.0),
///     Point::new(7.0, 2.0),
/// ])?;
/// // BKH2 is never worse than plain BKRUS.
/// assert!(bkh2(&net, 0.2)?.cost() <= bkrus(&net, 0.2)?.cost() + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bkh2(net: &Net, eps: f64) -> Result<RoutingTree, BmstError> {
    let cx = ProblemContext::new(net, eps)?;
    run(&cx)
}

/// Context-based BKH2 driver: BKRUS start plus the depth-2 exchange search
/// over the shared distance matrix.
pub(crate) fn run(cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
    let _obs_span = bmst_obs::span("bkh2");
    crate::bkex::run(cx, BkexConfig::with_depth(2))
}

/// The BKH2 post-processing alone: repeatedly applies negative-sum
/// T-exchange sequences of depth at most two until none improves the tree.
///
/// Exposed separately so the post-processing can be applied to *any*
/// feasible starting tree (e.g. BPRIM's, or a lower/upper bounded BKRUS
/// tree — the constraint may carry a lower bound).
pub fn bkh2_from(net: &Net, constraint: PathConstraint, start: RoutingTree) -> RoutingTree {
    bkex_from(net, constraint, start, BkexConfig::with_depth(2))
}

/// BKH2 under the Elmore delay model: constructs the §3.2 Elmore-BKRUS tree
/// and post-optimises it with depth-2 negative-sum-exchanges whose
/// feasibility predicate is the worst source-sink *Elmore delay* staying
/// within `(1 + eps) * R_elmore`.
///
/// This combines the paper's two extensions (§3.2 and §5) — the exchange
/// machinery is model-agnostic once feasibility is a predicate.
///
/// # Errors
///
/// Propagates [`bkrus_elmore`](crate::bkrus_elmore)'s errors
/// ([`BmstError::Infeasible`] when the Elmore scan dead-ends,
/// [`BmstError::InvalidEpsilon`] for bad `eps`).
///
/// # Panics
///
/// Panics if `params.load_cap.len() < net.len()`.
pub fn bkh2_elmore(net: &Net, eps: f64, params: &ElmoreParams) -> Result<RoutingTree, BmstError> {
    let cx = ProblemContext::new(net, eps)?.with_elmore(params.clone());
    run_elmore(&cx)
}

/// Context-based Elmore BKH2: the §3.2 construction and the depth-2
/// exchange both draw the matrix (and Elmore parameters) from `cx`.
pub(crate) fn run_elmore(cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    let eps = cx.eps();
    let params = cx.elmore_params();
    let start = crate::elmore_bkrus::run(cx)?;
    let bound = if eps.is_infinite() {
        f64::INFINITY
    } else {
        (1.0 + eps) * elmore_spt_radius(net, params)
    };
    let sinks: Vec<usize> = net.sinks().collect();
    let feasible = move |t: &RoutingTree| -> bool {
        bound.is_infinite()
            || bmst_geom::le_tol(
                ElmoreDelays::from_source(t, params).max_delay_over(sinks.iter().copied()),
                bound,
            )
    };
    Ok(crate::bkex::exchange(
        cx,
        &feasible,
        start,
        BkexConfig::with_depth(2),
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::{bkex, bkrus, gabow_bmst, BkexConfig};
    use bmst_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_net(seed: u64, n: usize) -> Net {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
            .collect();
        Net::with_source_first(pts).unwrap()
    }

    #[test]
    fn sandwiched_between_bkrus_and_bkex() {
        for seed in 0..8 {
            let net = random_net(seed, 7);
            for eps in [0.0, 0.2, 0.5] {
                let upper = bkrus(&net, eps).unwrap().cost();
                let mid = bkh2(&net, eps).unwrap().cost();
                let lower = bkex(&net, eps, BkexConfig::default()).unwrap().cost();
                assert!(mid <= upper + 1e-9, "seed {seed} eps {eps}");
                assert!(lower <= mid + 1e-9, "seed {seed} eps {eps}");
            }
        }
    }

    #[test]
    fn feasibility_preserved() {
        for seed in 0..5 {
            let net = random_net(seed + 30, 10);
            let eps = 0.15;
            let t = bkh2(&net, eps).unwrap();
            assert!(t.is_spanning());
            assert!(t.source_radius() <= (1.0 + eps) * net.source_radius() + 1e-9);
        }
    }

    #[test]
    fn often_reaches_the_optimum_on_small_nets() {
        // The paper: depth 2 reaches 96.9% of optima. On a handful of tiny
        // nets we just require a large majority.
        let mut hits = 0;
        let total = 10;
        for seed in 0..total {
            let net = random_net(seed + 70, 6);
            let eps = 0.2;
            let h = bkh2(&net, eps).unwrap().cost();
            let o = gabow_bmst(&net, eps).unwrap().cost();
            if (h - o).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(hits >= total * 7 / 10, "only {hits}/{total} optimal");
    }

    #[test]
    fn post_processing_applies_to_bprim_start() {
        let net = random_net(11, 8);
        let eps = 0.1;
        let start = crate::bprim(&net, eps).unwrap();
        let c = PathConstraint::from_eps(&net, eps).unwrap();
        let out = bkh2_from(&net, c, start.clone());
        assert!(out.cost() <= start.cost() + 1e-9);
        assert!(out.source_radius() <= (1.0 + eps) * net.source_radius() + 1e-9);
    }

    #[test]
    fn elmore_post_optimisation_improves_or_ties() {
        use bmst_tree::{ElmoreDelays, ElmoreParams};
        for seed in 0..4 {
            let net = random_net(seed + 150, 8);
            let params =
                ElmoreParams::uniform_loads(net.len(), net.source(), 0.2, 0.2, 10.0, 1.0, 4.0);
            let eps = 0.5;
            let Ok(start) = crate::bkrus_elmore(&net, eps, &params) else {
                continue;
            };
            let out = bkh2_elmore(&net, eps, &params).unwrap();
            assert!(out.cost() <= start.cost() + 1e-9, "seed {seed}");
            // The delay bound still holds after the exchanges.
            let bound = (1.0 + eps) * crate::elmore_spt_radius(&net, &params);
            let worst = ElmoreDelays::from_source(&out, &params).max_delay_over(net.sinks());
            assert!(worst <= bound + 1e-6, "seed {seed}: {worst} > {bound}");
        }
    }

    #[test]
    fn trivial_net() {
        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        assert_eq!(bkh2(&net, 0.0).unwrap().cost(), 1.0);
    }
}
