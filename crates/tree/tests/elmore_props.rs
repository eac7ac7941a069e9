//! Property-based tests of the Elmore delay evaluator against first
//! principles.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats

use bmst_graph::Edge;
use bmst_tree::{ElmoreDelays, ElmoreParams, RoutingTree};
use proptest::prelude::*;

/// Strategy: a random tree over n nodes (random parent for each node > 0)
/// with positive integer-ish edge lengths.
fn arb_tree() -> impl Strategy<Value = RoutingTree> {
    (2usize..10)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0usize..1000, 1u32..20), n - 1),
            )
        })
        .prop_map(|(n, raw)| {
            let edges: Vec<Edge> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (p, w))| {
                    let child = i + 1;
                    Edge::new(p % child, child, w as f64 * 0.5)
                })
                .collect();
            RoutingTree::from_edges(n, 0, edges).expect("parent pointers form a tree")
        })
}

/// Raw electrical parameters, instantiated per-tree inside each property.
type RawParams = (u32, u32, u32, u32, u32);

fn arb_raw_params() -> impl Strategy<Value = RawParams> {
    (1u32..10, 1u32..10, 0u32..20, 0u32..5, 0u32..10)
}

fn mk_params(n: usize, (ur, uc, dr, dc, load): RawParams) -> ElmoreParams {
    ElmoreParams::uniform_loads(
        n,
        0,
        ur as f64 * 0.1,
        uc as f64 * 0.1,
        dr as f64,
        dc as f64,
        load as f64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Delays from the source are non-negative and monotone along every
    /// root-to-node path (each wire segment only adds delay).
    #[test]
    fn source_delay_monotone_along_paths(tree in arb_tree(), raw in arb_raw_params()) {
        let params = mk_params(tree.universe(), raw);
        let d = ElmoreDelays::from_source(&tree, &params);
        for v in tree.covered_nodes() {
            prop_assert!(d.delay[v].is_finite());
            if let Some(p) = tree.parent(v) {
                prop_assert!(
                    d.delay[v] >= d.delay[p] - 1e-12,
                    "delay decreased from {p} to {v}"
                );
            }
        }
    }

    /// The driver term shifts every node's delay by the same constant:
    /// from_source(v) - from_node(v) = r_d * (c_d + C_total at the root).
    #[test]
    fn driver_term_is_a_constant_shift(tree in arb_tree(), raw in arb_raw_params()) {
        let params = mk_params(tree.universe(), raw);
        let with = ElmoreDelays::from_source(&tree, &params);
        let without = ElmoreDelays::from_node(&tree, tree.root(), &params).unwrap();
        let shift = with.delay[tree.root()];
        for v in tree.covered_nodes() {
            prop_assert!(
                (with.delay[v] - without.delay[v] - shift).abs() < 1e-9,
                "node {v}: shift not constant"
            );
        }
    }

    /// Adding load capacitance anywhere never speeds anything up.
    #[test]
    fn extra_load_never_helps(tree in arb_tree(), extra in 1u32..50) {
        let n = tree.universe();
        let base = ElmoreParams::uniform_loads(n, 0, 0.3, 0.2, 5.0, 1.0, 2.0);
        let mut heavier = base.clone();
        // Load up the deepest covered node.
        let deepest = tree
            .covered_nodes()
            .max_by_key(|&v| tree.depth(v))
            .expect("non-empty");
        heavier.load_cap[deepest] += extra as f64;

        let d0 = ElmoreDelays::from_source(&tree, &base);
        let d1 = ElmoreDelays::from_source(&tree, &heavier);
        for v in tree.covered_nodes() {
            prop_assert!(d1.delay[v] >= d0.delay[v] - 1e-12, "node {v} sped up");
        }
    }
}

#[test]
fn public_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RoutingTree>();
    assert_send_sync::<ElmoreParams>();
    assert_send_sync::<ElmoreDelays>();
    assert_send_sync::<bmst_tree::TreeError>();
}
