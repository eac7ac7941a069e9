//! The profiling layer must be a pure observer: installing a
//! [`SpanTreeRecorder`] (and, under `--features alloc-profile`, the counting
//! global allocator) must leave every routing output bit-for-bit identical,
//! and the span-tree profile itself must be deterministic across `--jobs N`
//! thanks to record-time worker-path normalization.
#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::sync::Arc;

use bmst_instances::{scaled_net, ScaleStyle};
use bmst_obs::SpanTreeRecorder;
use bmst_router::{Criticality, NamedNet, Netlist, RouterConfig};

// When the workspace is tested with `--features alloc-profile`, this test
// binary itself runs under the counting allocator, so the bit-parity
// assertions below also prove the allocator hook changes nothing.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: bmst_obs::alloc::CountingAlloc = bmst_obs::alloc::CountingAlloc;

/// A netlist big enough that `route_parallel` actually spawns workers
/// (`bmst_router::PARALLEL_MIN_TERMINALS` is 64; this is 6 nets x 41 terminals).
fn test_netlist() -> Netlist {
    let nets = (0..6usize)
        .map(|i| {
            let seed = 0xBEEF + u64::try_from(i).unwrap();
            let net = scaled_net(40, seed, ScaleStyle::ALL[i % 3]);
            NamedNet::new(format!("net{i}"), net, Criticality::Normal)
        })
        .collect();
    Netlist::new(nets)
}

#[test]
fn span_tree_recorder_leaves_routing_bit_identical() {
    let netlist = test_netlist();
    let config = RouterConfig::default();

    let baseline = netlist.route(&config).to_json().to_string();

    let rec = Arc::new(SpanTreeRecorder::new());
    let profiled = {
        let _guard = bmst_obs::scoped(rec.clone());
        netlist.route(&config).to_json().to_string()
    };

    assert_eq!(baseline, profiled, "profiling must not perturb routing");
    // ... and the profile must have actually observed the run.
    let node = rec.node("router.net").expect("per-net span recorded");
    assert_eq!(node.count, 6);
    assert!(rec.summary().counter("bkrus.edges_scanned") > 0);
}

#[test]
fn profile_path_counts_identical_serial_vs_parallel() {
    let netlist = test_netlist();
    let config = RouterConfig::default();

    let serial_rec = Arc::new(SpanTreeRecorder::new());
    let serial = {
        let _guard = bmst_obs::scoped(serial_rec.clone());
        netlist.route(&config).to_json().to_string()
    };

    for jobs in [2, 4, 8] {
        let par_rec = Arc::new(SpanTreeRecorder::new());
        let parallel = {
            let _guard = bmst_obs::scoped(par_rec.clone());
            netlist.route_parallel(&config, jobs).to_json().to_string()
        };
        assert_eq!(serial, parallel, "jobs={jobs} output differs from serial");
        assert_eq!(
            serial_rec.path_counts(),
            par_rec.path_counts(),
            "jobs={jobs} span-tree paths differ from serial"
        );
        // Normalization must have erased every worker suffix.
        assert!(
            par_rec.nodes().iter().all(|(p, _)| !p.contains(".w")),
            "worker suffixes leaked into the profile"
        );
    }
}

#[test]
fn folded_profile_covers_the_routing_stack() {
    let netlist = test_netlist();
    let rec = Arc::new(SpanTreeRecorder::new());
    {
        let _guard = bmst_obs::scoped(rec.clone());
        let _ = netlist.route(&RouterConfig::default());
    }
    let folded = rec.render_folded();
    // Every line is `path;seg;...;seg <micros>`.
    for line in folded.lines() {
        let (stack, micros) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        micros.parse::<u64>().expect("numeric self-micros");
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("router.net;") || l.starts_with("router.net ")),
        "router.net missing from folded output: {folded}"
    );
}
