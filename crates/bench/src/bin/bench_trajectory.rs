//! Emits the machine-readable bench trajectory: `BENCH_table2.json` with one
//! record per `(benchmark, algorithm, eps)` — path/perf ratios, wall-clock,
//! and an instrumentation counter snapshot for each construction — plus a
//! serial-vs-parallel netlist routing comparison.
//!
//! The construction set is discovered from the builder registry rather than
//! hard-coded: every eps-driven builder (`Window` / `PerNode` bound) is
//! swept, with the exponential exact methods gated to small nets.
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

/// The synthetic all-feasible netlist shared by the serial/parallel
/// comparison and the robustness-overhead measurement.
fn synthetic_netlist(num_nets: usize) -> Netlist {
    let classes = [
        Criticality::Critical,
        Criticality::Normal,
        Criticality::Relaxed,
    ];
    let nets: Vec<NamedNet> = (0..num_nets)
        .map(|i| {
            let net = bmst_instances::uniform_cloud(6 + (i % 10), 200.0, 0xBE57 + i as u64);
            NamedNet::new(format!("n{i}"), net, classes[i % classes.len()])
        })
        .collect();
    Netlist::new(nets)
}

/// Routes the same toy netlist serially and with 4 workers, asserts the
/// outputs are structurally identical, and records both timings. The nets
/// here are 6-15 sinks — far below `parallel_min_terminals` — so the
/// observed "speedup" is dominated by thread-pool overhead; the records
/// carry a `-toy` suffix (and the counter a `_toy` suffix) to say so.
/// They are kept for trajectory continuity; `netlist_comparison` below
/// holds the honest measurement.
fn netlist_comparison_toy(quick: bool, records: &mut Vec<BenchRecord>) {
    let num_nets = if quick { 8 } else { 24 };
    let netlist = synthetic_netlist(num_nets);
    // Threshold off: the jobs-4 record must measure the worker pool, not
    // the small-netlist serial bypass.
    let config = RouterConfig {
        parallel_min_terminals: 0,
        ..RouterConfig::default()
    };
    let bench_name = format!("netlist{num_nets}");

    let (serial, serial_s) = timed(|| netlist.route(&config));
    assert!(serial.is_clean(), "synthetic netlist must route cleanly");
    let jobs = 4;
    let (parallel, parallel_s) = timed(|| netlist.route_parallel(&config, jobs));
    assert_eq!(
        serial.to_json().to_string(),
        parallel.to_json().to_string(),
        "parallel routing must be byte-identical to serial"
    );

    let max_radius = serial.nets.iter().map(|n| n.radius).fold(0.0_f64, f64::max);
    let record = |algorithm: &str, wall_s: f64, jobs: u64, speedup_milli: u64| BenchRecord {
        bench: bench_name.clone(),
        algorithm: algorithm.to_owned(),
        eps: config.eps_normal,
        cost: serial.total_wirelength,
        longest_path: max_radius,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s,
        counters: [
            ("router.jobs".to_owned(), jobs),
            ("router.nets".to_owned(), num_nets as u64),
            ("router.speedup_milli_toy".to_owned(), speedup_milli),
        ]
        .into(),
    };
    let speedup_milli = if parallel_s > 0.0 {
        (serial_s / parallel_s * 1000.0) as u64
    } else {
        0
    };
    records.push(record("netlist-serial-toy", serial_s, 1, 1000));
    records.push(record(
        "netlist-jobs4-toy",
        parallel_s,
        jobs as u64,
        speedup_milli,
    ));
}

/// A netlist of `count` scaled `sinks`-sink nets — big enough that the
/// default `parallel_min_terminals` threshold admits the worker pool, so
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

/// The honest serial-vs-4-jobs comparison (the fix for the misleading
/// `router.speedup_milli` record): a netlist whose terminal count clears
/// the *default* `parallel_min_terminals` threshold by an order of
/// magnitude, routed under the default config. Outputs are asserted
/// byte-identical; `router.speedup_milli` is serial/parallel wall x1000,
/// so > 1000 means parallel routing actually won.
fn netlist_comparison(quick: bool, records: &mut Vec<BenchRecord>) {
    // Per-net work must dwarf thread-pool startup for the comparison to
    // measure routing rather than spawning: 120-sink nets take ~ms each.
    let (num_nets, sinks) = if quick { (8, 150) } else { (24, 150) };
    let netlist = scaled_netlist(num_nets, sinks);
    let config = RouterConfig::default();
    let total_terminals: usize = netlist.nets.iter().map(|n| n.net.len()).sum();
    assert!(
        total_terminals >= 10 * config.parallel_min_terminals,
        "honest comparison must dwarf the parallel threshold"
    );
    let bench_name = format!("scaled-netlist{num_nets}");

    let (serial, serial_s) = timed(|| netlist.route(&config));
    assert!(serial.is_clean(), "scaled netlist must route cleanly");
    let jobs = 4;
    let (parallel, parallel_s) = timed(|| netlist.route_parallel(&config, jobs));
    assert_eq!(
        serial.to_json().to_string(),
        parallel.to_json().to_string(),
        "parallel routing must be byte-identical to serial"
    );

    let max_radius = serial.nets.iter().map(|n| n.radius).fold(0.0_f64, f64::max);
    let speedup_milli = if parallel_s > 0.0 {
        (serial_s / parallel_s * 1000.0) as u64
    } else {
        0
    };
    let record = |algorithm: &str, wall_s: f64, jobs: u64, speedup_milli: u64| BenchRecord {
        bench: bench_name.clone(),
        algorithm: algorithm.to_owned(),
        eps: config.eps_normal,
        cost: serial.total_wirelength,
        longest_path: max_radius,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s,
        counters: [
            ("router.jobs".to_owned(), jobs),
            ("router.nets".to_owned(), num_nets as u64),
            ("router.terminals".to_owned(), total_terminals as u64),
            ("router.speedup_milli".to_owned(), speedup_milli),
        ]
        .into(),
    };
    records.push(record("netlist-serial", serial_s, 1, 1000));
    records.push(record(
        "netlist-jobs4",
        parallel_s,
        jobs as u64,
        speedup_milli,
    ));
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

/// Measures what the robustness layer costs when nothing goes wrong: the
/// guarded `route` pass (input validation, `catch_unwind`, window
/// post-check, ladder bookkeeping, report assembly) against a raw loop
/// calling the same builder directly on the same all-feasible netlist.
/// The `router.overhead_milli` counter is guarded/raw wall-clock x1000,
/// so the <2% happy-path budget reads as `<= 1020` in BENCH_table2.json.
fn robustness_overhead(quick: bool, records: &mut Vec<BenchRecord>) {
    let num_nets = if quick { 8 } else { 24 };
    let netlist = synthetic_netlist(num_nets);
    let config = RouterConfig::default();
    let builder = config.algorithm.builder();

    // Best-of-N on both paths to squeeze out scheduler noise; the two
    // loops interleave so frequency scaling hits them evenly.
    let rounds = if quick { 3 } else { 7 };
    let mut raw_s = f64::INFINITY;
    let mut guarded_s = f64::INFINITY;
    let mut guarded_cost = 0.0;
    for _ in 0..rounds {
        let (raw_cost, t) = timed(|| {
            let mut cost = 0.0;
            for n in &netlist.nets {
                let cx = ProblemContext::new(&n.net, config.eps_for(n.criticality))
                    .expect("synthetic nets are valid");
                cost += builder
                    .build(&cx)
                    .expect("synthetic nets are feasible")
                    .cost();
            }
            cost
        });
        raw_s = raw_s.min(t);
        let (report, t) = timed(|| netlist.route(&config));
        assert!(
            report.is_clean(),
            "overhead bench must stay on the happy path"
        );
        assert!((report.total_wirelength - raw_cost).abs() < 1e-6);
        guarded_cost = report.total_wirelength;
        guarded_s = guarded_s.min(t);
    }

    let overhead_milli = if raw_s > 0.0 {
        (guarded_s / raw_s * 1000.0) as u64
    } else {
        0
    };
    records.push(BenchRecord {
        bench: format!("netlist{num_nets}"),
        algorithm: "netlist-guarded".to_owned(),
        eps: config.eps_normal,
        cost: guarded_cost,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s: guarded_s,
        counters: [
            ("router.nets".to_owned(), num_nets as u64),
            ("router.overhead_milli".to_owned(), overhead_milli),
        ]
        .into(),
    });
}

/// Times the serving layer end to end: an in-process `bmst-serve` server
/// answers pipelined route requests over a real TCP loopback connection,
/// once with the report cache bypassed (`serve.roundtrip.micros`: parse,
/// admission, routing, render, write) and once against a warm LRU entry
/// (`serve.cache_hit.micros`: everything but the routing). Both loops are
/// guarded — every response must be `ok` with the expected `cached` flag,
/// so a protocol or cache regression fails the bench instead of skewing
/// the numbers.
fn serve_roundtrip(quick: bool, records: &mut Vec<BenchRecord>) {
    use std::io::{BufRead, BufReader, Write};

    let server = match bmst_serve::Server::bind(bmst_serve::ServeConfig {
        workers: 2,
        cache_entries: 16,
        ..bmst_serve::ServeConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve bench skipped: cannot bind loopback: {e}");
            return;
        }
    };
    let addr = server.local_addr();
    let run = std::thread::spawn(move || server.run());

    let mut stream = std::net::TcpStream::connect(addr).expect("connect to in-process server");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("socket timeout");
    // One write per request and no Nagle buffering: the bench measures
    // the serving layer, not the kernel's delayed-ACK timer.
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut roundtrip = |line: &str, want_cached: &str| {
        let mut framed = line.as_bytes().to_vec();
        framed.push(b'\n');
        stream.write_all(&framed).expect("write request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        assert!(response.contains("\"ok\":true"), "{response}");
        assert!(response.contains(want_cached), "{response}");
    };

    let netlist = "net a critical\\n0 0\\n10 0\\n9 5\\n3 7\\nend\\n";
    let uncached =
        format!("{{\"id\":1,\"op\":\"route\",\"netlist\":\"{netlist}\",\"cache\":false}}");
    let cached = format!("{{\"id\":2,\"op\":\"route\",\"netlist\":\"{netlist}\"}}");
    let rounds: u32 = if quick { 20 } else { 100 };

    // Warm both paths: first JIT-ish costs (lazy statics, allocator), then
    // the LRU entry the cached loop will hit.
    roundtrip(&uncached, "\"cached\":false");
    roundtrip(&cached, "\"cached\":false");

    let ((), uncached_s) = timed(|| {
        for _ in 0..rounds {
            roundtrip(&uncached, "\"cached\":false");
        }
    });
    let ((), cached_s) = timed(|| {
        for _ in 0..rounds {
            roundtrip(&cached, "\"cached\":true");
        }
    });

    roundtrip("{\"id\":9,\"op\":\"shutdown\"}", "\"ok\":true");
    drop(stream);
    drop(reader);
    run.join()
        .expect("server thread")
        .expect("clean server shutdown");

    let per_round = |total_s: f64| (total_s / f64::from(rounds) * 1e6) as u64;
    let record = |algorithm: &str, wall_s: f64, counter: &str| BenchRecord {
        bench: "serve-loopback".to_owned(),
        algorithm: algorithm.to_owned(),
        eps: 0.0,
        cost: 0.0,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s,
        counters: [
            (counter.to_owned(), per_round(wall_s)),
            ("serve.rounds".to_owned(), u64::from(rounds)),
        ]
        .into(),
    };
    records.push(record(
        "serve-roundtrip",
        uncached_s,
        "serve.roundtrip.micros",
    ));
    records.push(record(
        "serve-cache-hit",
        cached_s,
        "serve.cache_hit.micros",
    ));
}

/// Times a full `bmst-analyze` workspace pass so the cost of the
/// analysis gate stays visible in the trajectory: `lint.millis` is the
/// wall-clock of `cargo xtask lint`'s engine (sans process spawn), and
/// `lint.violations` must read zero on a healthy tree.
fn lint_gate(records: &mut Vec<BenchRecord>) {
    let mut root = bmst_analyze::workspace_root();
    if !root.join("crates").is_dir() {
        // Running from outside the checkout: fall back to the location
        // this binary was compiled from.
        root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or(root);
    }
    if !root.join("crates").is_dir() {
        eprintln!("lint gate skipped: workspace root not found");
        return;
    }
    let (report, wall_s) = timed(|| bmst_analyze::analyze_workspace(&root));
    records.push(BenchRecord {
        bench: "workspace".to_owned(),
        algorithm: "lint".to_owned(),
        eps: 0.0,
        cost: 0.0,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s,
        counters: [
            ("lint.millis".to_owned(), (wall_s * 1000.0) as u64),
            ("lint.files".to_owned(), report.files_scanned as u64),
            ("lint.emissions".to_owned(), report.emissions_seen as u64),
            ("lint.violations".to_owned(), report.violations.len() as u64),
        ]
        .into(),
    });

    // The semantic passes (call graph, panic-reach, complexity) cost
    // more than the token rules; track their wall-clock separately so a
    // regression in graph construction shows up in the trajectory.
    let (sem, sem_wall_s) = timed(|| bmst_analyze::analyze_semantic(&root));
    records.push(BenchRecord {
        bench: "workspace".to_owned(),
        algorithm: "analyze-semantic".to_owned(),
        eps: 0.0,
        cost: 0.0,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s: sem_wall_s,
        counters: [
            (
                "analyze.semantic.millis".to_owned(),
                (sem_wall_s * 1000.0) as u64,
            ),
            ("analyze.semantic.fns".to_owned(), sem.fns_indexed as u64),
            ("analyze.semantic.edges".to_owned(), sem.call_edges as u64),
            (
                "analyze.semantic.violations".to_owned(),
                sem.violations.len() as u64,
            ),
        ]
        .into(),
    });

    // The cancel-liveness and blocking-discipline passes ride on the same
    // index + call graph; time each candidate sweep on its own so a
    // regression in loop classification or guard-scope tracking is
    // attributable.
    let mut io_errors = Vec::new();
    let files = bmst_analyze::load_workspace(&root, &mut io_errors);
    let index = bmst_analyze::items::ItemIndex::build(&files);
    let graph = bmst_analyze::callgraph::CallGraph::build(&index);
    let (cancel_findings, cancel_wall_s) =
        timed(|| bmst_analyze::cancel::candidates(&index, &graph).len());
    let (blocking_findings, blocking_wall_s) =
        timed(|| bmst_analyze::blocking::candidates(&files).len());
    records.push(BenchRecord {
        bench: "workspace".to_owned(),
        algorithm: "analyze-liveness".to_owned(),
        eps: 0.0,
        cost: 0.0,
        longest_path: 0.0,
        perf_ratio: 1.0,
        path_ratio: 1.0,
        wall_s: cancel_wall_s + blocking_wall_s,
        counters: [
            (
                "analyze.cancel.millis".to_owned(),
                (cancel_wall_s * 1000.0) as u64,
            ),
            (
                "analyze.cancel.candidates".to_owned(),
                cancel_findings as u64,
            ),
            (
                "analyze.blocking.millis".to_owned(),
                (blocking_wall_s * 1000.0) as u64,
            ),
            (
                "analyze.blocking.candidates".to_owned(),
                blocking_findings as u64,
            ),
        ]
        .into(),
    });
}

fn main() {
    let quick = has_flag("--quick");
    let out_dir = PathBuf::from(arg_value("--out").unwrap_or_else(|| ".".to_owned()));
    let mut records = Vec::new();

    sweep_registry(quick, &mut records);
    netlist_comparison_toy(quick, &mut records);
    netlist_comparison(quick, &mut records);
    scaling_sweep(quick, &mut records);
    robustness_overhead(quick, &mut records);
    serve_roundtrip(quick, &mut records);
    lint_gate(&mut records);

    match write_bench_file(&out_dir, "table2", &records) {
        Ok(path) => println!("{} records -> {}", records.len(), path.display()),
        Err(e) => {
            eprintln!("failed to write bench file: {e}");
            std::process::exit(1);
        }
    }
}
