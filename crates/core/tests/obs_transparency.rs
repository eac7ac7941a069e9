//! Instrumentation must never change algorithm results: with a recorder
//! installed (even a discarding one) every construction must return a tree
//! bit-identical to the uninstrumented run.
#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bmst_core::{
    bkex, bkh2, bkrus, bkrus_elmore, bprim, gabow_bmst, registry, BkexConfig, ProblemContext,
};
use bmst_geom::{Net, Point};
use bmst_graph::{complete_edges, sort_edges, DisjointSets};
use bmst_obs::{NoopRecorder, SpanTreeRecorder, SummaryRecorder};
use bmst_tree::RoutingTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serialises the tests in this file. An installed recorder is
/// process-wide, so an uninstrumented baseline running on another test
/// thread would otherwise leak its spans into this test's recorder.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn test_net() -> Net {
    Net::with_source_first(vec![
        Point::new(0.0, 0.0),
        Point::new(8.0, 0.0),
        Point::new(5.0, 0.0),
        Point::new(6.0, 1.0),
        Point::new(7.0, 1.0),
        Point::new(2.0, 3.0),
    ])
    .unwrap()
}

fn run_all(net: &Net, eps: f64) -> Vec<RoutingTree> {
    vec![
        bkrus(net, eps).unwrap(),
        bprim(net, eps).unwrap(),
        bkh2(net, eps).unwrap(),
        bkex(net, eps, BkexConfig::default()).unwrap(),
        gabow_bmst(net, eps).unwrap(),
    ]
}

fn assert_identical(a: &RoutingTree, b: &RoutingTree) {
    assert_eq!(a.universe(), b.universe());
    assert_eq!(a.root(), b.root());
    for v in 0..a.universe() {
        assert_eq!(a.parent(v), b.parent(v), "parent of {v} differs");
        assert!(
            a.dist_from_root(v).to_bits() == b.dist_from_root(v).to_bits()
                || (a.dist_from_root(v).is_infinite() && b.dist_from_root(v).is_infinite()),
            "dist_from_root({v}) differs"
        );
    }
    assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "cost differs");
}

#[test]
fn recorders_leave_outputs_bit_identical() {
    let _serial = serial();
    let net = test_net();
    for eps in [0.0, 0.3, f64::INFINITY] {
        let baseline = run_all(&net, eps);

        let with_noop = {
            let _guard = bmst_obs::scoped(Arc::new(NoopRecorder));
            run_all(&net, eps)
        };
        let summary = Arc::new(SummaryRecorder::new());
        let with_summary = {
            let _guard = bmst_obs::scoped(summary.clone());
            run_all(&net, eps)
        };

        for (b, n) in baseline.iter().zip(&with_noop) {
            assert_identical(b, n);
        }
        for (b, s) in baseline.iter().zip(&with_summary) {
            assert_identical(b, s);
        }
        // The summary run must actually have recorded the hot paths.
        assert!(summary.counter("bkrus.edges_scanned") > 0);
        if eps.is_finite() {
            let snap = summary.snapshot();
            assert!(
                snap.counters.keys().any(|k| k.starts_with("forest.cond3")),
                "finite eps must exercise (3-a)/(3-b): {:?}",
                snap.counters.keys().collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn span_tree_recorder_is_transparent_and_sees_context_spans() {
    let _serial = serial();
    let net = test_net();
    for eps in [0.0, 0.3, f64::INFINITY] {
        let baseline = run_all(&net, eps);
        let tree = Arc::new(SpanTreeRecorder::new());
        let with_tree = {
            let _guard = bmst_obs::scoped(tree.clone());
            // No builder reads the sorted edge list; build it directly so
            // its span is profiled too.
            let _ = ProblemContext::unbounded(&net).sorted_edges().len();
            run_all(&net, eps)
        };
        for (b, t) in baseline.iter().zip(&with_tree) {
            assert_identical(b, t);
        }
        // The shared-context builders appear as spans in the profile...
        let paths: Vec<String> = tree.nodes().into_iter().map(|(p, _)| p).collect();
        for span in [
            "context.matrix",
            "context.sorted_edges",
            "context.neighbor_index",
            "context.edge_stream",
        ] {
            assert!(
                paths.iter().any(|p| p.ends_with(span)),
                "{span} span missing: {paths:?}"
            );
        }
        // ...and sorted_edges must NOT nest the matrix build (it is hoisted
        // out so each span reports honest self time).
        assert!(
            !paths.iter().any(|p| p.contains("context.sorted_edges/")),
            "sorted_edges should be a leaf span: {paths:?}"
        );
        // Counters still flow through the embedded summary.
        assert!(tree.summary().counter("bkrus.edges_scanned") > 0);
    }
}

#[test]
fn forest_merge_span_is_recorded_under_builders() {
    let _serial = serial();
    let net = test_net();
    let tree = Arc::new(SpanTreeRecorder::new());
    {
        let _guard = bmst_obs::scoped(tree.clone());
        let _ = bkrus(&net, 0.3).unwrap();
    }
    let merged: u64 = tree
        .nodes()
        .into_iter()
        .filter(|(p, _)| p.ends_with("forest.merge"))
        .map(|(_, n)| n.count)
        .sum();
    // A 6-terminal net needs exactly 5 merges to connect the forest.
    assert_eq!(merged, 5, "every accepted edge performs one merge");
}

/// `n` uniformly scattered terminals, source first.
fn scatter_net(n: usize) -> Net {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let pts = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
        .collect();
    Net::with_source_first(pts).unwrap()
}

#[test]
fn only_exact_builders_build_the_matrix() {
    let _serial = serial();
    // A small and a large net: no size may fall back to the matrix.
    for sinks in [20, 200] {
        let net = scatter_net(sinks + 1);
        for builder in registry() {
            let name = builder.descriptor().name;
            // The exact searches (and BKH2, BKEX's depth-2 exchange)
            // revisit every pair many times and keep the matrix.
            if matches!(name, "gabow" | "bkex" | "bkh2") {
                continue;
            }
            let cx = ProblemContext::new(&net, 0.5).unwrap();
            let tree = Arc::new(SpanTreeRecorder::new());
            {
                let _guard = bmst_obs::scoped(tree.clone());
                // Only the spans matter: an infeasible delay bound is fine.
                let _ = builder.build(&cx);
            }
            let paths: Vec<String> = tree.nodes().into_iter().map(|(p, _)| p).collect();
            assert!(
                !paths.iter().any(|p| p.ends_with("context.matrix")),
                "{name} at {sinks} sinks built the matrix: {paths:?}"
            );
        }
    }
}

#[test]
fn spans_nest_across_algorithm_layers() {
    let _serial = serial();
    let net = test_net();
    let rec = Arc::new(SummaryRecorder::new());
    {
        let _guard = bmst_obs::scoped(rec.clone());
        let _ = bkh2(&net, 0.2).unwrap();
    }
    // bkh2 wraps both the bkrus construction and the bkex exchange phase.
    assert!(rec.span_stats("bkh2").is_some());
    assert!(rec.span_stats("bkh2/bkrus").is_some());
    assert!(rec.span_stats("bkh2/bkex").is_some());
}

#[test]
fn elmore_bkrus_counts_one_evaluation_per_tentative_merge() {
    let _serial = serial();
    let net = scatter_net(30);
    let params = ProblemContext::default_elmore_params(&net);
    let rec = Arc::new(SummaryRecorder::new());
    let tree = {
        let _guard = bmst_obs::scoped(rec.clone());
        bkrus_elmore(&net, 0.1, &params).unwrap()
    };
    // Replay the scan on the accepted edges: every edge that joins two
    // partial trees before the last acceptance was a tentative merge.
    let mut sorted = complete_edges(&net.distance_matrix());
    sort_edges(&mut sorted);
    let mut dsu = DisjointSets::new(net.len());
    let (mut tentative, mut accepted) = (0, 0);
    for e in sorted {
        if accepted == net.len() - 1 {
            break;
        }
        if dsu.same_set(e.u, e.v) {
            continue;
        }
        tentative += 1;
        if tree.contains_edge(e.u, e.v) {
            dsu.union(e.u, e.v);
            accepted += 1;
        }
    }
    assert!(tentative > accepted, "the bound should reject some merges");
    assert_eq!(rec.span_stats("elmore_bkrus").map(|s| s.count), Some(1));
    // One more evaluation computes the reference radius `R`.
    assert_eq!(
        rec.counter("elmore.evaluations"),
        u64::try_from(tentative).unwrap() + 1
    );
}
