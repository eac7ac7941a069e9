//! Emits the machine-readable bench trajectory: `BENCH_table2.json` with one
//! record per `(benchmark, algorithm, eps)` — path/perf ratios, wall-clock,
//! and an instrumentation counter snapshot for each construction — plus the
//! `scaling.*` ladders that `cargo xtask check-perf` gates.
//!
//! The construction set is discovered from the builder registry rather than
//! hard-coded: every eps-driven builder (`Window` / `PerNode` bound) is
//! swept, with the exponential exact methods gated to small nets.
//!
//! End-to-end timings live in the repository benchmark (`benchmark/`),
//! which samples repeatedly and states spreads: serve latency and
//! throughput are its `serve-hot` workload, the pool speedup is
//! `router.route.pool_speedup` and the robustness-layer cost is
//! `router.route.ladder_overhead_ratio`.
//!
//! Run: `cargo run --release -p bmst-bench --bin bench_trajectory [--out DIR] [--quick]`
//!
//! * `--out DIR`   directory for the `BENCH_*.json` files (default `.`)
//! * `--quick`     CI mode: p1-p3 only, exact methods only below 15 points

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)] // demo/bench harness: fail fast, exact parameter matches

use std::path::PathBuf;
use std::sync::Arc;

use bmst_bench::emit::{write_bench_file, BenchRecord};
use bmst_bench::{fit_scaling_exponent, has_flag, timed, TABLE_EPS};
use bmst_core::{
    builders, mst_tree, spt_tree, BoundKind, CostClass, GabowConfig, ProblemContext, TreeBuilder,
    TreeReport,
};
use bmst_geom::Net;
use bmst_instances::{scaled_net, Benchmark, ScaleStyle};
use bmst_obs::SummaryRecorder;
use bmst_router::{Criticality, NamedNet, Netlist, RouterConfig};
use bmst_tree::RoutingTree;

/// Runs one construction under a fresh [`SummaryRecorder`], producing a
/// record with the counter snapshot of exactly that run.
fn measure(
    bench: &str,
    algorithm: &str,
    eps: f64,
    net: &Net,
    mst_cost: f64,
    spt_radius: f64,
    construct: impl FnOnce() -> Option<RoutingTree>,
) -> Option<BenchRecord> {
    let recorder = Arc::new(SummaryRecorder::new());
    let (tree, wall_s) = {
        let _guard = bmst_obs::scoped(recorder.clone());
        timed(construct)
    };
    let tree = tree?;
    let report = TreeReport::with_baselines(net, &tree, mst_cost, spt_radius);
    let mut record = BenchRecord {
        bench: bench.to_owned(),
        algorithm: algorithm.to_owned(),
        eps,
        cost: report.cost,
        longest_path: report.longest_path,
        perf_ratio: report.perf_ratio,
        path_ratio: report.path_ratio,
        wall_s,
        counters: Default::default(),
    };
    record.set_counters(&recorder.snapshot());
    Some(record)
}

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Sweeps every eps-driven registry builder over the special benchmarks.
fn sweep_registry(quick: bool, records: &mut Vec<BenchRecord>) {
    let exact_limit = if quick { 15 } else { 21 };
    // The registry's Gabow entry enumerates up to 2M trees; cap it to keep
    // the sweep's worst case bounded (the paper's nets stay far below this).
    let gabow_capped = builders::Gabow {
        config: GabowConfig {
            max_trees: 100_000,
            ..GabowConfig::default()
        },
    };

    for b in Benchmark::SPECIAL {
        if quick && b.num_points() > 20 {
            continue; // p4 (31 points) is too slow for a CI smoke run
        }
        let net = b.build();
        let mst_cost = mst_tree(&net).cost();
        let spt_radius = spt_tree(&net).source_radius();
        let small = net.len() < exact_limit;
        for eps in TABLE_EPS {
            for &builder in bmst_steiner::full_registry() {
                let d = builder.descriptor();
                if d.variant_of.is_some() {
                    continue; // the trace variant duplicates its base
                }
                if !matches!(d.bound, BoundKind::Window | BoundKind::PerNode) {
                    continue; // only eps-driven bounds make a sweep
                }
                if d.cost_class == CostClass::Exact && !small {
                    // The exact methods are exponential; keep them to the
                    // nets the paper itself ran them on.
                    continue;
                }
                let builder: &dyn TreeBuilder = if d.name == "gabow" {
                    &gabow_capped
                } else {
                    builder
                };
                records.extend(measure(
                    b.name(),
                    d.name,
                    eps,
                    &net,
                    mst_cost,
                    spt_radius,
                    || {
                        let cx = ProblemContext::new(&net, eps).ok()?;
                        builder.build(&cx).ok()
                    },
                ));
            }
        }
    }
}

/// A netlist of `count` scaled `sinks`-sink nets — big enough that
/// `bmst_router::PARALLEL_MIN_TERMINALS` admits the worker pool, so
/// parallel timings measure real work, not pool overhead.
fn scaled_netlist(count: usize, sinks: usize) -> Netlist {
    let classes = [
        Criticality::Critical,
        Criticality::Normal,
        Criticality::Relaxed,
    ];
    let nets: Vec<NamedNet> = (0..count)
        .map(|i| {
            let net = scaled_net(sinks, 0x5CA7E + i as u64, ScaleStyle::ALL[i % 3]);
            NamedNet::new(format!("s{i}"), net, classes[i % classes.len()])
        })
        .collect();
    Netlist::new(nets)
}

/// Representative bound for the scaling sweep: loose enough that every
/// builder succeeds on uniform clouds, tight enough that the bound-check
/// machinery stays on the measured path.
const SCALING_EPS: f64 = 0.5;

/// Times one construction on a scaled net and returns integer microseconds
/// (the unit of the `scaling.*` trajectory records).
fn time_scaled_build(builder: &dyn TreeBuilder, net: &Net) -> u64 {
    let (tree, wall_s) = timed(|| {
        let cx = ProblemContext::new(net, SCALING_EPS).expect("scaled nets are valid");
        builder
            .build(&cx)
            .expect("scaled uniform nets are feasible at eps 0.5")
    });
    assert!(tree.cost() > 0.0, "scaling build produced an empty tree");
    (wall_s * 1e6) as u64
}

/// One scaling record: `scaling.<algo>.<n>.micros` plus the size itself
/// under `scaling.n`, so `cargo xtask check-perf` can rebuild the curve
/// without parsing key strings for anything but the algorithm.
fn scaling_record(algo: &str, n: usize, micros: u64, extra: &[(String, u64)]) -> BenchRecord {
    let mut counters: std::collections::BTreeMap<String, u64> = [
        ("scaling.n".to_owned(), n as u64),
        (format!("scaling.{algo}.{n}.micros"), micros),
    ]
    .into();
    counters.extend(extra.iter().cloned());
    BenchRecord {
        bench: format!("scale-{n}"),
        algorithm: algo.to_owned(),
        eps: SCALING_EPS,
        cost: 0.0,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s: micros as f64 / 1e6,
        counters,
    }
}

/// Fits the scaling exponent of a sweep and appends the
/// `scaling.<algo>.exponent_milli` record (exponent x1000; ~2000 reads as
/// quadratic). Skipped (with a stderr note) for degenerate sweeps.
fn scaling_fit_record(algo: &str, points: &[(usize, u64)], records: &mut Vec<BenchRecord>) {
    let float_points: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, us)| (n as f64, us as f64))
        .collect();
    let Some(exponent) = fit_scaling_exponent(&float_points) else {
        eprintln!("scaling fit skipped for {algo}: degenerate sweep {points:?}");
        return;
    };
    records.push(BenchRecord {
        bench: "scaling-fit".to_owned(),
        algorithm: algo.to_owned(),
        eps: SCALING_EPS,
        cost: 0.0,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s: 0.0,
        counters: [(
            format!("scaling.{algo}.exponent_milli"),
            (exponent.max(0.0) * 1000.0) as u64,
        )]
        .into(),
    });
}

/// The n-sweep behind the scaling-curve regression gate: times BKRUS and
/// BPRIM on uniform scaled nets across two orders of magnitude of sink
/// count, and the router (serial and 4-jobs) on scaled netlists across two
/// orders of magnitude of total terminals. Ladders are per-algorithm —
/// BPRIM's near-cubic growth gets smaller sizes than BKRUS — and the quick
/// (CI smoke) ladders are two sizes, enough to exercise the record schema
/// without the multi-second builds.
fn scaling_sweep(quick: bool, records: &mut Vec<BenchRecord>) {
    let bkrus_ns: &[usize] = if quick { &[50, 200] } else { &[50, 500, 5000] };
    // BPRIM's heap path carries no dense matrix, so its ladder reaches
    // past the sizes an O(n^2) matrix affords.
    let bprim_ns: &[usize] = if quick {
        &[20, 100]
    } else {
        &[20, 200, 2000, 8000]
    };
    // Router sizes are total terminals: netlists of 50-sink nets.
    let router_ns: &[usize] = if quick {
        &[102, 510]
    } else {
        &[102, 1020, 10200]
    };

    for (algo, builder, ns) in [
        ("bkrus", &builders::Bkrus as &dyn TreeBuilder, bkrus_ns),
        ("bprim", &builders::Bprim, bprim_ns),
    ] {
        let mut points = Vec::new();
        for &n in ns {
            let net = scaled_net(n, 0x5CA1E + n as u64, ScaleStyle::Uniform);
            let micros = time_scaled_build(builder, &net);
            records.push(scaling_record(algo, n, micros, &[]));
            points.push((n, micros));
        }
        scaling_fit_record(algo, &points, records);
    }

    let config = RouterConfig::default();
    let jobs = 4;
    let mut points = Vec::new();
    for &n in router_ns {
        // 51 terminals per net (50 sinks + source).
        let netlist = scaled_netlist(n / 51, 50);
        let (serial, serial_s) = timed(|| netlist.route(&config));
        assert!(serial.is_clean(), "scaled netlist must route cleanly");
        let (_, parallel_s) = timed(|| netlist.route_parallel(&config, jobs));
        let micros = (serial_s * 1e6) as u64;
        let speedup_milli = if parallel_s > 0.0 {
            (serial_s / parallel_s * 1000.0) as u64
        } else {
            0
        };
        records.push(scaling_record(
            "router",
            n,
            micros,
            &[(format!("scaling.router.{n}.speedup_milli"), speedup_milli)],
        ));
        points.push((n, micros));
    }
    scaling_fit_record("router", &points, records);
}

fn main() {
    let quick = has_flag("--quick");
    let out_dir = PathBuf::from(arg_value("--out").unwrap_or_else(|| ".".to_owned()));
    let mut records = Vec::new();

    sweep_registry(quick, &mut records);
    scaling_sweep(quick, &mut records);

    match write_bench_file(&out_dir, "table2", &records) {
        Ok(path) => println!("{} records -> {}", records.len(), path.display()),
        Err(e) => {
            eprintln!("failed to write bench file: {e}");
            std::process::exit(1);
        }
    }
}
