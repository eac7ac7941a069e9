//! Acceptance pins for prompt cancellation: a budget against an instance
//! that runs far longer uncancelled must come back as a typed
//! `DeadlineExceeded` failure in a small fraction of the uncancelled
//! runtime, with no panic and no malformed report. BKRUS gets a 50 ms
//! budget on a 5000-sink pathological instance (seconds per relaxation
//! rung at this scale). Elmore-BKRUS, BKEX and BKH2 get 200 ms budgets on
//! uniform clouds of 3000, 60 and 500 sinks, which run over 300 s, 93 s
//! and over 300 s uncancelled in a release build.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::time::{Duration, Instant};

use bmst_core::{BmstError, CancelToken};
use bmst_geom::Net;
use bmst_instances::{scaled_net, uniform_cloud, ScaleStyle};
use bmst_router::{Criticality, NamedNet, Netlist, RouteAlgorithm, RouterConfig};

/// Generous CI bound: far above anything a budgeted run here should
/// need (context setup at n=5000 is hundreds of milliseconds at worst),
/// far below the multi-second uncancelled ladders.
const WALL_BOUND: Duration = Duration::from_secs(3);

#[test]
fn pathological_instance_cancels_promptly() {
    let net = scaled_net(5000, 0xdead11e, ScaleStyle::Pathological);
    assert_cancels_promptly(net, RouteAlgorithm::bkrus(), 50);
}

/// Elmore-BKRUS re-evaluates the whole merged component on every
/// candidate, so a run must poll between candidates, not only when the
/// edge stream refills.
#[test]
fn elmore_bkrus_cancels_promptly() {
    let algorithm = RouteAlgorithm::from_name("elmore-bkrus").expect("registered");
    assert_cancels_promptly(uniform_cloud(3000, 1000.0, 7), algorithm, 200);
}

/// One exchange round scans every non-tree edge and walks its cycle at
/// every depth, so the search must poll inside a round, not only between
/// committed rounds.
#[test]
fn bkex_cancels_promptly() {
    let algorithm = RouteAlgorithm::from_name("bkex").expect("registered");
    assert_cancels_promptly(uniform_cloud(60, 1000.0, 7), algorithm, 200);
}

/// BKH2 runs the same exchange search at depth two, after BKRUS.
#[test]
fn bkh2_cancels_promptly() {
    assert_cancels_promptly(uniform_cloud(500, 1000.0, 7), RouteAlgorithm::bkh2(), 200);
}

fn assert_cancels_promptly(net: Net, algorithm: RouteAlgorithm, budget: u64) {
    let netlist = Netlist::new(vec![NamedNet::new("huge", net, Criticality::Critical)]);

    let token = CancelToken::with_budget(Duration::from_millis(budget));
    let config = RouterConfig {
        algorithm,
        cancel: token.clone(),
        ..RouterConfig::default()
    };

    let started = Instant::now();
    let report = netlist.route(&config);
    let elapsed = started.elapsed();

    assert!(
        elapsed < WALL_BOUND,
        "cancellation took {elapsed:?}, expected well under {WALL_BOUND:?}"
    );
    assert!(token.is_cancelled(), "the budget token should have fired");

    assert_eq!(
        report.nets.len(),
        0,
        "no tree should survive a fired deadline"
    );
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    match &failure.error {
        BmstError::DeadlineExceeded { budget_ms, .. } => assert_eq!(*budget_ms, budget),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // The trail must end at the rung where the deadline fired.
    let last = failure
        .attempts
        .last()
        .expect("at least one relaxation step");
    assert!(
        last.error.contains("deadline exceeded"),
        "trail should end with the deadline error, got: {}",
        last.error
    );
}
