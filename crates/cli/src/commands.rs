//! Command implementations.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use bmst_obs::{JsonLinesRecorder, MultiRecorder, Recorder, SpanTreeRecorder};

use bmst_core::{
    audit_construction, lub_bkrus, mst_tree, spt_tree, BoundKind, BuilderDescriptor, CostClass,
    PathConstraint, ProblemContext,
};
use bmst_geom::{Net, Point};
use bmst_instances::Benchmark;
use bmst_io::{netfile, svg};
use bmst_tree::RoutingTree;

use bmst_clock::zero_skew_tree;
use bmst_router::{Netlist, RouteAlgorithm, RouterConfig};

use crate::args::{Algorithm, CliError, Command, GenSource, RouteArgs, ServeArgs};
use crate::USAGE;

/// Runs a parsed command, returning the text to print.
///
/// # Errors
///
/// [`CliError`] for I/O problems and infeasible instances.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Algorithms => Ok(algorithms()),
        Command::Serve(args) => serve(&args),
        Command::Stats { net } => stats(&net),
        Command::Gen { source, out } => gen(source, out),
        Command::Route(args) => {
            let trace = args.trace.clone();
            let profile = args.profile;
            let folded = args.profile_folded.clone();
            with_observability(trace.as_deref(), profile, folded.as_deref(), || route(args))
        }
        Command::Netlist {
            file,
            algorithm,
            jobs,
            trace,
            profile,
            profile_folded,
            max_relaxations,
            failure_log,
            strict,
        } => {
            // The strict gate runs after observability teardown so the
            // trace file is finished (counters line, flush) even when the
            // gate fails the invocation.
            let mut clean = true;
            let out =
                with_observability(trace.as_deref(), profile, profile_folded.as_deref(), || {
                    route_netlist(
                        &file,
                        algorithm,
                        jobs,
                        max_relaxations,
                        failure_log.as_deref(),
                        &mut clean,
                    )
                })?;
            if strict && !clean {
                return Err(CliError::with_code(
                    format!("netlist has failed or degraded nets (--strict)\n{out}"),
                    3,
                ));
            }
            Ok(out)
        }
    }
}

/// Runs `f` with the observability layer configured per `--trace` /
/// `--profile` / `--profile-folded`: a [`JsonLinesRecorder`] streaming to
/// `trace`, an in-memory [`SpanTreeRecorder`] whose span-tree profile is
/// appended to the report (`--profile`) and/or written as collapsed-stack
/// flamegraph lines (`--profile-folded PATH`), fanned out as needed — or,
/// the common case, nothing, leaving instrumentation disabled.
fn with_observability(
    trace: Option<&str>,
    profile: bool,
    folded: Option<&str>,
    f: impl FnOnce() -> Result<String, CliError>,
) -> Result<String, CliError> {
    if trace.is_none() && !profile && folded.is_none() {
        return f();
    }
    let jsonl = trace
        .map(|p| {
            JsonLinesRecorder::create(Path::new(p))
                .map(Arc::new)
                .map_err(|e| CliError::new(format!("--trace {p}: {e}")))
        })
        .transpose()?;
    let tree = (profile || folded.is_some()).then(|| Arc::new(SpanTreeRecorder::new()));
    let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(j) = &jsonl {
        sinks.push(j.clone());
    }
    if let Some(t) = &tree {
        sinks.push(t.clone());
    }
    let recorder: Arc<dyn Recorder> = if sinks.len() == 1 {
        sinks.remove(0)
    } else {
        Arc::new(MultiRecorder::new(sinks))
    };
    let guard = bmst_obs::scoped(recorder);
    let result = f();
    drop(guard);

    let mut out = result?;
    if let (Some(j), Some(p)) = (&jsonl, trace) {
        j.finish()
            .map_err(|e| CliError::new(format!("--trace {p}: {e}")))?;
        let _ = writeln!(out, "  trace -> {p}");
    }
    if let Some(t) = &tree {
        if profile {
            let _ = writeln!(out, "profile:");
            for line in t.render_text().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if let Some(p) = folded {
            std::fs::write(p, t.render_folded())
                .map_err(|e| CliError::new(format!("--profile-folded {p}: {e}")))?;
            let _ = writeln!(out, "  folded profile -> {p}");
        }
    }
    Ok(out)
}

fn route_netlist(
    path: &str,
    algorithm: RouteAlgorithm,
    jobs: usize,
    max_relaxations: Option<usize>,
    failure_log: Option<&str>,
    clean: &mut bool,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let netlist =
        Netlist::from_str_block(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let mut config = RouterConfig {
        algorithm,
        ..RouterConfig::default()
    };
    if let Some(n) = max_relaxations {
        config.relaxation.max_relaxations = n;
    }
    // The parallel pass assembles results in input order, so the printed
    // report is byte-identical for every jobs value.
    let report = netlist.route_parallel(&config, jobs);
    *clean = report.is_clean();
    let mut out = format!("[{}]\n{report}\n", algorithm.name());
    if let Some(p) = failure_log {
        let mut log = String::new();
        for f in &report.failures {
            log.push_str(&f.to_json().to_string());
            log.push('\n');
        }
        std::fs::write(p, log).map_err(|e| CliError::new(format!("--failure-log {p}: {e}")))?;
        let _ = writeln!(
            out,
            "  failure log -> {p} ({} failures)",
            report.failures.len()
        );
    }
    Ok(out)
}

/// Short label for a descriptor's cost class.
fn cost_class_name(c: CostClass) -> &'static str {
    match c {
        CostClass::Baseline => "baseline",
        CostClass::Heuristic => "heuristic",
        CostClass::LocalSearch => "local-search",
        CostClass::Exact => "exact",
    }
}

/// Short label for a descriptor's bound kind.
fn bound_kind_name(b: BoundKind) -> &'static str {
    match b {
        BoundKind::Window => "window",
        BoundKind::PerNode => "per-node",
        BoundKind::Soft => "soft",
        BoundKind::None => "none",
        BoundKind::Delay => "delay",
    }
}

/// `bmst algorithms`: the registry rendered as a table, plus the zero-skew
/// clock construction that lives outside it.
fn algorithms() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:<12} {:<9} summary",
        "name", "aliases", "class", "bound"
    );
    for alg in RouteAlgorithm::all() {
        let d = alg.descriptor();
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:<12} {:<9} {}",
            d.name,
            d.aliases.join(","),
            cost_class_name(d.cost_class),
            bound_kind_name(d.bound),
            d.summary
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:<12} {:<9} zero-skew clock tree (all sink paths equal)",
        "zskew", "dme", "heuristic", "skew"
    );
    out
}

/// `bmst serve`: bind, announce the port, and block until a termination
/// signal (or a `shutdown` request) drains the server. The summary text
/// is returned for `main` to print after shutdown; the listening line is
/// printed live because clients need the resolved port while the server
/// blocks in `run`.
fn serve(args: &ServeArgs) -> Result<String, CliError> {
    let server = bmst_serve::Server::bind(bmst_serve::ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_capacity: args.queue,
        drain_ms: args.drain_ms,
        cache_entries: args.cache,
        default_budget_ms: args.budget_ms,
        fault_seed: args.fault_seed,
    })
    .map_err(|e| CliError::new(e.to_string()))?;
    bmst_serve::signal::install();
    // lint: allow(no-print) — live announcement of the resolved port; run() blocks until shutdown
    println!("listening on {}", server.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let summary = server.run().map_err(|e| CliError::new(e.to_string()))?;
    Ok(format!(
        "shutdown complete\n\
         accepted = {}  completed = {}  shed = {}  malformed = {}\n\
         cache hits/misses = {}/{}  deadline exceeded = {}  internal = {}  cancelled at drain = {}\n",
        summary.accepted,
        summary.completed,
        summary.shed,
        summary.malformed,
        summary.cache_hits,
        summary.cache_misses,
        summary.deadline_exceeded,
        summary.internal_errors,
        summary.cancelled_stragglers,
    ))
}

fn load(path: &str) -> Result<Net, CliError> {
    netfile::read(path).map_err(|e| CliError::new(format!("{path}: {e}")))
}

fn stats(path: &str) -> Result<String, CliError> {
    let net = load(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "{path}:");
    let _ = writeln!(
        out,
        "  points = {} (1 source + {} sinks)",
        net.len(),
        net.num_sinks()
    );
    let _ = writeln!(
        out,
        "  complete-graph edges = {}",
        net.complete_edge_count()
    );
    let _ = writeln!(out, "  R = {} (farthest sink)", net.source_radius());
    let _ = writeln!(out, "  r = {} (nearest sink)", net.source_nearest());
    let bb = net.bounding_box();
    let _ = writeln!(
        out,
        "  bounding box = {} .. {}, HPWL = {}",
        bb.lo,
        bb.hi,
        bb.half_perimeter()
    );
    let _ = writeln!(out, "  cost(MST) = {:.3}", mst_tree(&net).cost());
    let _ = writeln!(out, "  cost(SPT) = {:.3}", spt_tree(&net).cost());
    Ok(out)
}

fn gen(source: GenSource, out: Option<String>) -> Result<String, CliError> {
    let (net, label) = match source {
        GenSource::Random { sinks, seed, side } => {
            // Reuse the instances generator for exact reproducibility.
            let n = bmst_instances::uniform_cloud(sinks, side, seed);
            (
                n,
                format!("uniform net: {sinks} sinks, seed {seed}, side {side}"),
            )
        }
        GenSource::Bench(name) => {
            let b = Benchmark::ALL
                .iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| CliError::new(format!("unknown benchmark {name:?}")))?;
            (b.build(), format!("paper benchmark {name}"))
        }
    };
    let text = netfile::to_string(&net);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
            Ok(format!("{label} -> {path} ({} sinks)\n", net.num_sinks()))
        }
        None => Ok(text),
    }
}

/// The outcome of routing: a tree over node coordinates (Steiner routing
/// materialises extra nodes).
struct Routed {
    tree: RoutingTree,
    points: Vec<Point>,
    terminals: usize,
    bound_note: String,
}

/// The human-readable guarantee line, derived from the descriptor's bound
/// kind and cost class rather than from the algorithm's name.
fn bound_note(d: &BuilderDescriptor, net: &Net, args: &RouteArgs) -> String {
    let prefix = if d.cost_class == CostClass::Exact {
        "optimal, "
    } else if d.steiner {
        "Steiner, "
    } else {
        ""
    };
    match d.bound {
        BoundKind::Window => format!("{prefix}longest path <= {}", net.path_bound(args.eps)),
        BoundKind::PerNode => format!("{prefix}per-node paths <= (1+{})*dist", args.eps),
        BoundKind::Soft => format!("soft blend c = {} (no hard bound)", args.pd_c),
        BoundKind::Delay => format!("Elmore delay <= (1+{}) * delay(SPT)", args.eps),
        BoundKind::None => d.summary.to_owned(),
    }
}

fn route(args: RouteArgs) -> Result<String, CliError> {
    let net = load(&args.net)?;
    let infeasible = |e: bmst_core::BmstError| CliError::new(format!("routing failed: {e}"));

    // `--eps1` selects the §6 lower/upper-bounded construction, which
    // post-validates the whole window; it is only defined for BKRUS.
    let lub_window = match (&args.algorithm, args.eps1) {
        (Algorithm::Builder(alg), Some(e1)) if alg.name() == "bkrus" => Some(e1),
        _ => None,
    };

    let routed = match args.algorithm {
        Algorithm::ZeroSkew => {
            let zst = zero_skew_tree(&net);
            Routed {
                tree: zst.tree,
                points: zst.points,
                terminals: zst.num_terminals,
                bound_note: "zero skew (all sink paths equal)".into(),
            }
        }
        Algorithm::Builder(alg) => {
            if let Some(e1) = lub_window {
                let tree = lub_bkrus(&net, e1, args.eps).map_err(infeasible)?;
                Routed {
                    tree,
                    points: net.points().to_vec(),
                    terminals: net.len(),
                    bound_note: format!(
                        "paths within [{} , {}]",
                        e1 * net.source_radius(),
                        net.path_bound(args.eps)
                    ),
                }
            } else {
                let cx = ProblemContext::new(&net, args.eps)
                    .map_err(infeasible)?
                    .with_pd_blend(args.pd_c);
                let d = alg.descriptor();
                let g = alg.builder().build_geometry(&cx).map_err(infeasible)?;
                Routed {
                    tree: g.tree,
                    points: g.points,
                    terminals: g.num_terminals,
                    bound_note: bound_note(d, &net, &args),
                }
            }
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "{} [{}]", args.net, args.algorithm.name());
    let _ = writeln!(out, "  {}", routed.bound_note);
    if args.audit {
        // Re-verify the finished tree against the net: structure, path
        // tables, merge consistency, and — where the algorithm gives a hard
        // guarantee — the path-length window. Steiner/clock trees add
        // non-terminal nodes and the soft heuristics promise no window:
        // for those, audit structure and tables only.
        let constraint = match args.algorithm {
            Algorithm::ZeroSkew => None,
            Algorithm::Builder(alg) => {
                let d = alg.descriptor();
                if d.steiner {
                    None
                } else {
                    match (d.bound, lub_window) {
                        (BoundKind::Window, Some(e1)) => Some(
                            PathConstraint::from_eps_window(&net, e1, args.eps)
                                .map_err(infeasible)?,
                        ),
                        (BoundKind::Window | BoundKind::PerNode, None) => {
                            Some(PathConstraint::from_eps(&net, args.eps).map_err(infeasible)?)
                        }
                        _ => None,
                    }
                }
            }
        };
        audit_construction(&net, &routed.tree, constraint.as_ref())
            .map_err(|v| CliError::new(format!("audit failed: {v}")))?;
        let _ = writeln!(out, "  audit = ok (structure, tables, merge, bounds)");
    }
    let _ = writeln!(out, "  cost = {:.4}", routed.tree.cost());
    let sinks = (0..routed.terminals).filter(|&v| v != routed.tree.root());
    let _ = writeln!(
        out,
        "  longest source-sink path (radius) = {:.4}",
        routed.tree.max_dist_from_root(sinks.clone())
    );
    let _ = writeln!(
        out,
        "  shortest path = {:.4}",
        routed.tree.min_dist_from_root(sinks)
    );
    let mst_cost = mst_tree(&net).cost();
    if mst_cost > 0.0 {
        let _ = writeln!(
            out,
            "  cost / cost(MST) = {:.4}",
            routed.tree.cost() / mst_cost
        );
    }
    let steiner_count = routed.tree.covered_count().saturating_sub(routed.terminals);
    if steiner_count > 0 {
        let _ = writeln!(out, "  steiner points = {steiner_count}");
    }
    if args.edges {
        let _ = writeln!(out, "  edges:");
        for e in routed.tree.edges() {
            let _ = writeln!(out, "    {} - {}  len {:.4}", e.u, e.v, e.weight);
        }
    }
    if let Some(path) = &args.svg {
        let opts = svg::SvgOptions {
            terminals: routed.terminals,
            ..Default::default()
        };
        svg::write_tree(path, &routed.points, &routed.tree, &opts)
            .map_err(|e| CliError::new(format!("{path}: {e}")))?;
        let _ = writeln!(out, "  svg -> {path}");
    }
    Ok(out)
}
