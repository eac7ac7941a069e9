//! Oracle suite for the neighbor-index edge supply: every construction
//! that reads distances through `ProblemContext::dist` or drains
//! `ProblemContext::edge_stream` must match a reference built on the
//! materialized distance matrix, bit for bit. The references below are
//! the matrix-based bodies those constructions ran before the matrix was
//! reserved for the exact solvers. Property-tested over random lattice
//! nets (lots of ties, the hardest case for a total order).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats

use bmst_core::{
    bkrus_elmore, bprim, brbc, elmore_spt_radius, prim_dijkstra, BmstError, ProblemContext,
};
use bmst_geom::{le_tol, DistanceMatrix, Net, Point};
use bmst_graph::{
    complete_edges, dijkstra, prim_mst, sort_edges, AdjacencyList, DisjointSets, Edge,
};
use bmst_instances::uniform_cloud;
use bmst_tree::{ElmoreDelays, ElmoreParams, RoutingTree};
use proptest::prelude::*;

/// Small integer lattice scaled by 0.5 (the `proptest_invariants` shape):
/// hits many exactly-equal distances, stressing tie-breaks.
fn arb_net() -> impl Strategy<Value = Net> {
    proptest::collection::vec((0i32..40, 0i32..40), 2..=12).prop_filter_map(
        "needs >= 2 distinct points",
        |coords| {
            let pts: Vec<Point> = coords
                .iter()
                .map(|&(x, y)| Point::new(f64::from(x) * 0.5, f64::from(y) * 0.5))
                .collect();
            let net = Net::with_source_first(pts).ok()?;
            (net.source_radius() > 0.0).then_some(net)
        },
    )
}

fn arb_eps() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.1),
        Just(0.5),
        Just(1.0),
        Just(f64::INFINITY)
    ]
}

fn trees_bit_identical(a: &RoutingTree, b: &RoutingTree) -> Result<(), String> {
    if a.universe() != b.universe() || a.root() != b.root() {
        return Err("shape differs".into());
    }
    for v in 0..a.universe() {
        if a.parent(v) != b.parent(v) {
            return Err(format!("parent of {v} differs"));
        }
        let (da, db) = (a.dist_from_root(v), b.dist_from_root(v));
        if da.to_bits() != db.to_bits() && !(da.is_infinite() && db.is_infinite()) {
            return Err(format!("dist_from_root({v}) differs: {da} vs {db}"));
        }
    }
    if a.cost().to_bits() != b.cost().to_bits() {
        return Err(format!("cost differs: {} vs {}", a.cost(), b.cost()));
    }
    Ok(())
}

/// BPRIM reference: every step scans all (tree node, outside node) pairs
/// through the matrix and takes the lowest feasible `(weight, u, v)`.
/// `O(n^3)`.
fn bprim_reference(net: &Net, eps: f64) -> RoutingTree {
    let d = net.distance_matrix();
    let n = net.len();
    let s = net.source();
    let mut in_tree = vec![false; n];
    let mut path_s = vec![0.0; n];
    in_tree[s] = true;
    let mut edges = Vec::new();
    for _ in 1..n {
        let mut best: Option<(f64, usize, usize)> = None;
        for u in (0..n).filter(|&u| in_tree[u]) {
            for v in (0..n).filter(|&v| !in_tree[v]) {
                let w = d[(u, v)];
                let node_bound = if eps.is_infinite() {
                    f64::INFINITY
                } else {
                    (1.0 + eps) * d[(s, v)]
                };
                if !le_tol(path_s[u] + w, node_bound) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => (w, u, v) < b,
                };
                if better {
                    best = Some((w, u, v));
                }
            }
        }
        let (w, u, v) = best.expect("a direct source edge is always feasible");
        in_tree[v] = true;
        path_s[v] = path_s[u] + w;
        edges.push(Edge::new(u, v, w));
    }
    RoutingTree::from_edges(n, s, edges).unwrap()
}

/// AHHK (Prim/Dijkstra blend `c`) reference over the matrix.
fn ahhk_reference(net: &Net, c: f64) -> RoutingTree {
    let d = net.distance_matrix();
    let n = net.len();
    let s = net.source();
    let mut in_tree = vec![false; n];
    let mut path_s = vec![0.0; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![usize::MAX; n];
    in_tree[s] = true;
    for v in (0..n).filter(|&v| v != s) {
        best[v] = d[(s, v)];
        best_from[v] = s;
    }
    let mut edges = Vec::new();
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut key = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best[v] < key {
                pick = v;
                key = best[v];
            }
        }
        let u = best_from[pick];
        in_tree[pick] = true;
        path_s[pick] = path_s[u] + d[(u, pick)];
        edges.push(Edge::new(u, pick, d[(u, pick)]));
        for v in (0..n).filter(|&v| !in_tree[v]) {
            let cand = c * path_s[pick] + d[(pick, v)];
            if cand < best[v] {
                best[v] = cand;
                best_from[v] = pick;
            }
        }
    }
    RoutingTree::from_edges(n, s, edges).unwrap()
}

/// BRBC reference: the matrix MST, shortcuts along its depth-first tour,
/// then the shortest path tree of `MST + shortcuts`.
fn brbc_reference(net: &Net, eps: f64) -> RoutingTree {
    let d = net.distance_matrix();
    let n = net.len();
    let s = net.source();
    let mst = prim_mst(&d, s);
    if eps.is_infinite() {
        return RoutingTree::from_edges(n, s, mst).unwrap();
    }
    let mut q = AdjacencyList::from_edges(n, &mst);
    let mst_tree = RoutingTree::from_edges(n, s, mst).unwrap();
    let mut accumulated = 0.0_f64;
    // (node, length of the edge walked to reach it); `None` = backtrack.
    let mut stack: Vec<(Option<usize>, f64)> = vec![(Some(s), 0.0)];
    while let Some((step, len)) = stack.pop() {
        accumulated += len;
        let Some(v) = step else { continue };
        if v != s && accumulated >= eps * d[(s, v)] {
            q.add_edge(s, v, d[(s, v)]);
            accumulated = 0.0;
        }
        for &c in mst_tree.children(v).iter().rev() {
            let w = mst_tree.parent_edge_weight(c);
            stack.push((None, w));
            stack.push((Some(c), w));
        }
    }
    let sp = dijkstra(&q, s);
    let edges = (0..n).filter(|&v| v != s).map(|v| {
        let p = sp.parent[v].unwrap();
        Edge::new(p, v, sp.dist[v] - sp.dist[p])
    });
    RoutingTree::from_edges(n, s, edges).unwrap()
}

/// Elmore radius of every covered node, `r[u] = max_v delay(u, v)`, by
/// one delay evaluation per node: `O(V^2)`, the paper's full recomputation.
/// Uncovered nodes get `f64::INFINITY`.
fn elmore_radii(tree: &RoutingTree, params: &ElmoreParams) -> Vec<f64> {
    let n = tree.universe();
    let mut radii = vec![f64::INFINITY; n];
    for u in tree.covered_nodes() {
        let d = ElmoreDelays::from_node(tree, u, params).expect("covered nodes are valid origins");
        radii[u] = d.max_delay();
    }
    radii
}

/// Total capacitance of the tree: all wire capacitance plus all node loads.
fn total_capacitance(tree: &RoutingTree, params: &ElmoreParams) -> f64 {
    let wire: f64 = tree
        .edges()
        .iter()
        .map(|e| params.unit_cap * e.weight)
        .sum();
    let loads: f64 = tree.covered_nodes().map(|v| params.load_cap[v]).sum();
    wire + loads
}

/// Elmore-BKRUS reference: Kruskal over the fully sorted matrix edge
/// list, recomputing Elmore radii for every tentative merge. `None` when
/// the scan ends without spanning.
fn elmore_bkrus_reference(net: &Net, eps: f64, params: &ElmoreParams) -> Option<RoutingTree> {
    let d: DistanceMatrix = net.distance_matrix();
    let n = net.len();
    let s = net.source();
    let bound = if eps.is_infinite() {
        f64::INFINITY
    } else {
        (1.0 + eps) * elmore_spt_radius(net, params)
    };
    let mut sorted = complete_edges(&d);
    sort_edges(&mut sorted);
    let mut dsu = DisjointSets::new(n);
    let mut comp_edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut accepted = 0usize;
    for e in sorted {
        if accepted == n - 1 {
            break;
        }
        let (ru, rv) = (dsu.find(e.u), dsu.find(e.v));
        if ru == rv {
            continue;
        }
        let mut merged = comp_edges[ru].clone();
        merged.extend_from_slice(&comp_edges[rv]);
        merged.push(e);
        let feasible = if bound.is_infinite() {
            true
        } else if dsu.same_set(e.u, s) || dsu.same_set(e.v, s) {
            let t = RoutingTree::from_edges(n, s, merged).unwrap();
            le_tol(ElmoreDelays::from_source(&t, params).max_delay(), bound)
        } else {
            let t = RoutingTree::from_edges(n, e.u, merged).unwrap();
            let radii = elmore_radii(&t, params);
            let total_cap = total_capacitance(&t, params);
            let any_feasible = t.covered_nodes().any(|x| {
                let dsx = d[(s, x)];
                let direct = params.driver_res
                    * (params.driver_cap + params.unit_cap * dsx + total_cap)
                    + params.unit_res * dsx * (params.unit_cap * dsx / 2.0 + total_cap)
                    + radii[x];
                le_tol(direct, bound)
            });
            any_feasible
        };
        if feasible {
            dsu.union(e.u, e.v);
            let root = dsu.find(e.u);
            let (a, b) = (ru.min(rv), ru.max(rv));
            let mut list = std::mem::take(&mut comp_edges[b]);
            list.append(&mut comp_edges[a]);
            list.push(e);
            comp_edges[root] = list;
            accepted += 1;
        }
    }
    let root = dsu.find(s);
    (accepted == n - 1).then(|| RoutingTree::from_edges(n, s, comp_edges[root].clone()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On-demand `dist(i, j)` returns the same bits as the matrix for
    /// every pair.
    #[test]
    fn on_demand_distance_matches_matrix(net in arb_net()) {
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let matrix = net.distance_matrix();
        for i in 0..net.len() {
            for (j, &expected) in matrix.row(i).iter().enumerate() {
                prop_assert_eq!(
                    cx.dist(i, j).to_bits(),
                    expected.to_bits(),
                    "dist({}, {}) differs from the matrix", i, j
                );
            }
        }
    }

    /// The lazy expanding-window stream yields exactly the sorted
    /// complete edge list: same edges, same canonical order, same weight
    /// bits.
    #[test]
    fn edge_stream_equals_sorted_complete_edges(net in arb_net()) {
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let streamed: Vec<Edge> = cx.edge_stream().collect();
        let mut sorted = complete_edges(&net.distance_matrix());
        sort_edges(&mut sorted);
        prop_assert_eq!(streamed.len(), sorted.len(), "edge count differs");
        for (k, (s, d)) in streamed.iter().zip(&sorted).enumerate() {
            prop_assert_eq!((s.u, s.v), (d.u, d.v), "edge {} endpoints differ", k);
            prop_assert_eq!(
                s.weight.to_bits(),
                d.weight.to_bits(),
                "edge {} weight differs", k
            );
        }
    }

    /// BPRIM's candidate heap picks exactly the full scan's attachments.
    #[test]
    fn bprim_matches_full_scan_reference(net in arb_net(), eps in arb_eps()) {
        let outcome = trees_bit_identical(&bprim(&net, eps).unwrap(), &bprim_reference(&net, eps));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// AHHK on on-demand distances matches its matrix version.
    #[test]
    fn ahhk_matches_matrix_reference(net in arb_net(), c in prop_oneof![Just(0.0), Just(0.3), Just(0.5), Just(1.0)]) {
        let outcome =
            trees_bit_identical(&prim_dijkstra(&net, c).unwrap(), &ahhk_reference(&net, c));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// BRBC on on-demand distances matches its matrix version.
    #[test]
    fn brbc_matches_matrix_reference(net in arb_net(), eps in arb_eps()) {
        let outcome = trees_bit_identical(&brbc(&net, eps).unwrap(), &brbc_reference(&net, eps));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Elmore-BKRUS draining the stream matches the sorted-list scan,
    /// including which instances it fails to span.
    #[test]
    fn elmore_bkrus_matches_matrix_reference(net in arb_net(), eps in arb_eps()) {
        let params = ProblemContext::default_elmore_params(&net);
        match (bkrus_elmore(&net, eps, &params), elmore_bkrus_reference(&net, eps, &params)) {
            (Ok(t), Some(r)) => {
                let outcome = trees_bit_identical(&t, &r);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
            (Err(_), None) => {}
            (t, r) => prop_assert!(
                false,
                "feasibility diverged (stream ok={}, reference ok={})",
                t.is_ok(),
                r.is_some()
            ),
        }
    }
}

/// Elmore-BKRUS against the reference on seeded uniform clouds, larger
/// than the lattice nets above: the same trees bit for bit, and the same
/// nets left unspanned.
#[test]
fn elmore_bkrus_matches_reference_on_seeded_clouds() {
    let (mut spanned, mut unspanned) = (0, 0);
    for n in [20, 40, 80] {
        for seed in 0..4 {
            let net = uniform_cloud(n, 1000.0, seed);
            let params = ProblemContext::default_elmore_params(&net);
            for eps in [0.0, 0.2, 0.5, 1.0, f64::INFINITY] {
                let case = format!("{n} sinks, seed {seed}, eps {eps}");
                match (
                    bkrus_elmore(&net, eps, &params),
                    elmore_bkrus_reference(&net, eps, &params),
                ) {
                    (Ok(t), Some(r)) => {
                        if let Err(diff) = trees_bit_identical(&t, &r) {
                            panic!("{case}: {diff}");
                        }
                        spanned += 1;
                    }
                    (Err(BmstError::Infeasible { .. }), None) => unspanned += 1,
                    (t, r) => panic!(
                        "{case}: feasibility diverged (run {:?}, reference ok={})",
                        t.map(|t| t.cost()),
                        r.is_some()
                    ),
                }
            }
        }
    }
    eprintln!("spanned {spanned}, unspanned {unspanned}");
    assert!(
        spanned > 0 && unspanned > 0,
        "the corpus should hit both outcomes"
    );
}
