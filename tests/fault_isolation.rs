//! End-to-end fault isolation (the ISSUE's acceptance scenario): a netlist
//! carrying a NaN-coordinate net, a duplicate-sink net, and an
//! infeasible-window net routes to completion — the recoverable nets
//! succeed (one via the degradation ladder, marked degraded, with its
//! relaxation trail in the obs trace), the NaN net fails with a typed
//! diagnostic, and serial vs parallel reports stay byte-identical.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats

use std::sync::Arc;

use bmst_core::{BmstError, PathConstraint, ProblemContext};
use bmst_geom::{Net, Point};
use bmst_obs::JsonLinesRecorder;
use bmst_router::{Criticality, NamedNet, NetStatus, Netlist, RouteAlgorithm, RouterConfig};

/// The checked-in adversarial fixture (also driven by the CI smoke job
/// through the `bmst netlist` CLI).
fn adversarial_netlist() -> Netlist {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/netlists/adversarial.net"
    ))
    .unwrap();
    Netlist::from_str_block(&text).unwrap()
}

/// The plain MST pass: the one construction that actually produces an
/// infeasible first attempt on the `detour` net (the bound-aware
/// constructions would route it within the window directly).
fn mst_config() -> RouterConfig {
    RouterConfig {
        algorithm: RouteAlgorithm::from_name("mst").unwrap(),
        ..RouterConfig::default()
    }
}

#[test]
fn adversarial_netlist_routes_to_completion() {
    let nl = adversarial_netlist();
    assert_eq!(nl.nets.len(), 3);
    assert_eq!(nl.rejected.len(), 1);

    let report = nl.route(&mst_config());
    assert_eq!(report.nets.len(), 3);
    let by_name = |n: &str| report.nets.iter().find(|r| r.name == n).unwrap();

    // The infeasible-window net recovers through the ladder, not the SPT.
    let detour = by_name("detour");
    assert_eq!(detour.status(), NetStatus::Degraded);
    assert!(!detour.fallback_spt);
    assert_eq!(detour.relaxations.len(), 1);
    assert!(detour.eps > detour.requested_eps);
    assert!(detour.slack() >= -1e-9);

    // Duplicate sinks are a diagnostic, not a failure.
    assert_eq!(by_name("twin").status(), NetStatus::Ok);
    assert_eq!(by_name("good").status(), NetStatus::Ok);

    // The NaN net is a typed failure carrying its header line.
    assert_eq!(report.failures.len(), 1);
    let fail = &report.failures[0];
    assert_eq!(fail.name, "broken");
    assert_eq!(fail.index, None);
    match &fail.error {
        BmstError::DegenerateInput { detail } => {
            assert!(detail.contains("line 22"), "{detail}");
            assert!(detail.contains("non-finite"), "{detail}");
        }
        other => panic!("expected DegenerateInput, got {other:?}"),
    }
    assert!(!report.is_clean());
    assert_eq!(report.degraded_count(), 1);
}

#[test]
fn serial_and_parallel_reports_are_byte_identical() {
    let nl = adversarial_netlist();
    let cfg = mst_config();
    let serial = nl.route(&cfg);
    for jobs in [2, 4] {
        let par = nl.route_parallel(&cfg, jobs);
        assert_eq!(
            serial.to_json().to_string(),
            par.to_json().to_string(),
            "jobs={jobs}"
        );
        assert_eq!(serial.to_string(), par.to_string(), "jobs={jobs}");
    }
}

#[test]
fn relaxation_trail_lands_in_obs_trace() {
    let dir = std::env::temp_dir().join("bmst_fault_isolation");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let recorder = Arc::new(JsonLinesRecorder::create(&path).unwrap());
    {
        let _guard = bmst_obs::scoped(recorder.clone());
        let report = adversarial_netlist().route_parallel(&mst_config(), 4);
        assert_eq!(report.failures.len(), 1);
    }
    recorder.finish().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let has = |name: &str, net: &str| text.lines().any(|l| l.contains(name) && l.contains(net));
    assert!(has("router.relax", "detour"), "{text}");
    assert!(has("router.input_diagnostic", "twin"), "{text}");
    assert!(has("router.net_rejected", "broken"), "{text}");
}

/// Satellite conformance sweep: on a window no tree can reach, every
/// builder in the full registry — the Steiner construction included —
/// must return a typed `Infeasible`, not panic and not hand back a
/// silently out-of-window tree.
#[test]
fn every_registry_builder_reports_infeasible_on_unreachable_window() {
    // The longest possible source-sink path over these collinear points is
    // 10.2, so the explicit [15, 16] window is unreachable for any tree.
    let net = Net::with_source_first(vec![
        Point::new(0.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(10.1, 0.0),
    ])
    .unwrap();
    let constraint = PathConstraint::explicit(15.0, 16.0).unwrap();
    let cx = ProblemContext::with_constraint(&net, constraint);
    let mut checked = 0;
    for &builder in bmst_steiner::full_registry() {
        let res = builder.try_build(&cx);
        assert!(
            matches!(res, Err(BmstError::Infeasible { .. })),
            "{}: {res:?}",
            builder.descriptor().name
        );
        checked += 1;
    }
    assert!(checked >= 12, "registry unexpectedly small: {checked}");
}

/// The robustness layer is transparent on the happy path: on an
/// all-feasible netlist spanning every criticality, the guarded
/// `Netlist::route` (validation, `catch_unwind`, window post-check,
/// ladder) returns per net exactly the tree the configured builder
/// returns when called directly, with no relaxation attempt.
#[test]
fn guarded_route_equals_the_raw_builder_on_feasible_nets() {
    let classes = [
        Criticality::Critical,
        Criticality::Normal,
        Criticality::Relaxed,
    ];
    let nl = Netlist::new(
        (0..24u64)
            .map(|i| {
                let net = bmst_instances::uniform_cloud(6 + (i % 10) as usize, 200.0, 0xBE57 + i);
                NamedNet::new(format!("n{i}"), net, classes[(i % 3) as usize])
            })
            .collect(),
    );
    let config = RouterConfig::default();
    let builder = config.algorithm.builder();
    let report = nl.route(&config);
    assert!(report.is_clean(), "{:?}", report.failures);
    assert_eq!(report.nets.len(), nl.nets.len());
    for (routed, named) in report.nets.iter().zip(&nl.nets) {
        assert_eq!(routed.name, named.name);
        assert!(routed.relaxations.is_empty(), "{}", routed.name);
        assert!(!routed.fallback_spt, "{}", routed.name);
        let eps = config.eps_for(named.criticality);
        assert_eq!(routed.eps.to_bits(), eps.to_bits(), "{}", routed.name);
        let cx = ProblemContext::new(&named.net, eps).unwrap();
        let raw = builder.build(&cx).unwrap();
        assert_eq!(
            routed.wirelength.to_bits(),
            raw.cost().to_bits(),
            "{}",
            routed.name
        );
        assert_eq!(
            routed.radius.to_bits(),
            raw.max_dist_from_root(named.net.sinks()).to_bits(),
            "{}",
            routed.name
        );
        assert_eq!(routed.tree.edges(), raw.edges(), "{}", routed.name);
    }
}
