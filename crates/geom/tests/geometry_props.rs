//! Property tests for the geometric primitives.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats

use bmst_geom::{BoundingBox, Metric, Net, Point};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e6..1e6, -1e6..1e6).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both metrics are genuine metrics: non-negative, symmetric, zero on
    /// identical points, triangle inequality.
    #[test]
    fn metric_axioms(a in arb_point(), b in arb_point(), c in arb_point()) {
        for m in [Metric::L1, Metric::L2] {
            prop_assert!(m.dist(a, b) >= 0.0);
            prop_assert!((m.dist(a, b) - m.dist(b, a)).abs() < 1e-9);
            prop_assert_eq!(m.dist(a, a), 0.0);
            prop_assert!(m.dist(a, c) <= m.dist(a, b) + m.dist(b, c) + 1e-6);
        }
        // L1 dominates L2.
        prop_assert!(Metric::L1.dist(a, b) + 1e-9 >= Metric::L2.dist(a, b));
    }

    /// Bounding boxes contain their generators and the HPWL lower-bounds
    /// the pairwise diameter.
    #[test]
    fn bounding_box_contains_points(pts in proptest::collection::vec(arb_point(), 1..12)) {
        let bb = BoundingBox::of(pts.iter().copied()).expect("non-empty");
        for &p in &pts {
            prop_assert!(bb.contains(p));
        }
        let diameter = pts
            .iter()
            .flat_map(|&a| pts.iter().map(move |&b| a.manhattan(b)))
            .fold(0.0f64, f64::max);
        prop_assert!(bb.half_perimeter() + 1e-6 >= diameter);
    }

    /// Net invariants: R and r bracket every direct sink distance; the
    /// distance matrix agrees with Net::dist; path_bound scales correctly.
    #[test]
    fn net_radius_brackets(pts in proptest::collection::vec(arb_point(), 2..10)) {
        let net = Net::with_source_first(pts).expect("finite");
        let r_far = net.source_radius();
        let r_near = net.source_nearest();
        for v in net.sinks() {
            let d = net.dist(net.source(), v);
            prop_assert!(d <= r_far + 1e-9);
            prop_assert!(d + 1e-9 >= r_near);
        }
        let m = net.distance_matrix();
        for i in 0..net.len() {
            for j in 0..net.len() {
                prop_assert_eq!(m[(i, j)], net.dist(i, j));
            }
        }
        prop_assert!((net.path_bound(0.25) - 1.25 * r_far).abs() < 1e-9);
    }
}
