//! Per-layer measurement for the traced run, taken from outside the
//! program: each public call into a layer is timed with `Instant`, and the
//! spans and counters the program already emits are read back from a
//! `SpanTreeRecorder` installed with `bmst_obs::scoped`. The benchmark adds
//! no emission sites of its own.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmst_core::ProblemContext;
use bmst_geom::Net;
use bmst_obs::json::Json;
use bmst_obs::{SpanNode, SpanTreeRecorder};
use bmst_router::{Netlist, RouteAlgorithm, RouteReport, RouterConfig};
use bmst_serve::cache::ReportCache;
use bmst_serve::protocol::{parse_line, render_route_ok};

use crate::outcome::{Gate, Metrics};
use crate::stats::fnv;
use crate::workload::CACHE_ENTRIES;

/// The constructions whose `build` is timed on every replayed net.
const SPANNING: [&str; 4] = ["bkrus", "bprim", "brbc", "prim-dijkstra"];
/// `steiner` builds on a sub-net of at most this many sinks (the Hanan
/// grid grows quadratically).
const STEINER_SINKS: usize = 16;
/// Edges pulled from `ProblemContext::edge_stream` per terminal.
const STREAM_EDGES_PER_NODE: usize = 4;

/// Self nanoseconds of `path`: its cumulative time minus that of its
/// direct children.
pub fn self_nanos(nodes: &[(String, SpanNode)], path: &str) -> u64 {
    let Some((_, node)) = nodes.iter().find(|(p, _)| p == path) else {
        return 0;
    };
    let children: u64 = nodes
        .iter()
        .filter(|(p, _)| {
            p.len() > path.len()
                && p.starts_with(path)
                && p.as_bytes()[path.len()] == b'/'
                && !p[path.len() + 1..].contains('/')
        })
        .map(|(_, n)| n.cum_nanos)
        .sum();
    node.cum_nanos.saturating_sub(children)
}

/// Σ self time (ms) and Σ count over every path whose last segment is
/// `leaf`.
pub fn leaf_self(rec: &SpanTreeRecorder, leaf: &str) -> (f64, u64) {
    let nodes = rec.nodes();
    let mut ns = 0;
    let mut count = 0;
    for (path, node) in &nodes {
        if path.rsplit('/').next() == Some(leaf) {
            ns += self_nanos(&nodes, path);
            count += node.count;
        }
    }
    (ns as f64 / 1e6, count)
}

/// Mean cumulative ms of the spans whose last segment is `leaf`.
pub fn leaf_mean_ms(rec: &SpanTreeRecorder, leaf: &str) -> f64 {
    let (mut ns, mut count) = (0u64, 0u64);
    for (path, node) in rec.nodes() {
        if path.rsplit('/').next() == Some(leaf) {
            ns += node.cum_nanos;
            count += node.count;
        }
    }
    ratio(ns as f64 / 1e6, count as f64)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A router configuration for construction `algorithm` (router defaults
/// otherwise, as the server uses them).
pub fn config(algorithm: &str) -> Result<RouterConfig, String> {
    let algorithm = RouteAlgorithm::from_name(algorithm)
        .ok_or_else(|| format!("unknown algorithm {algorithm}"))?;
    Ok(RouterConfig {
        algorithm,
        ..RouterConfig::default()
    })
}

/// A direct, in-process route of `text`: the reference every served
/// report is compared against.
pub fn direct_report(text: &str, algorithm: &str) -> Result<String, String> {
    let netlist = Netlist::from_str_block(text).map_err(|e| e.to_string())?;
    Ok(netlist.route(&config(algorithm)?).to_json().to_string())
}

/// One replayed input: a netlist body, the construction it asks for and
/// its request line.
pub struct Unit {
    pub text: String,
    pub algorithm: &'static str,
    pub line: String,
}

/// Accumulates timed calls and how much of the wall time they cover.
struct Clock {
    busy: Duration,
}

impl Clock {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let out = black_box(f());
        let d = t.elapsed();
        self.busy += d;
        (out, d)
    }
}

#[derive(Default)]
struct Sum {
    total: Duration,
    n: usize,
}

impl Sum {
    fn add(&mut self, d: Duration) {
        self.total += d;
        self.n += 1;
    }

    fn mean(&self) -> Duration {
        if self.n == 0 {
            Duration::ZERO
        } else {
            self.total / self.n as u32
        }
    }
}

/// Replays `units` single-threaded through the protocol, netlist, router,
/// report, context and builder layers, and `keys` through a report cache of
/// the server's capacity. Emits the `serve.protocol`, `serve.cache`,
/// `router.netlist`, `router.report`, `router.route.ladder_overhead_ratio`,
/// `core.*`, `steiner.*` and `trace.coverage_ratio` metrics.
pub fn replay(
    units: &[Unit],
    keys: &[u64],
    m: &mut Metrics,
    traces: &mut Vec<(&'static str, Arc<SpanTreeRecorder>)>,
) -> Result<(), String> {
    let wall = Instant::now();
    let mut clock = Clock {
        busy: Duration::ZERO,
    };
    let (mut parse_line_t, mut render_t, mut parse_t, mut report_t) = (
        Sum::default(),
        Sum::default(),
        Sum::default(),
        Sum::default(),
    );
    let mut bytes = 0usize;
    let (mut route_total, mut ladder_parts) = (Duration::ZERO, Duration::ZERO);
    let mut nets: Vec<(Net, f64)> = Vec::new();
    let mut sample_report: Arc<str> = Arc::from("{}");

    for (k, u) in units.iter().enumerate() {
        let (parsed, d) = clock.time(|| parse_line(u.line.trim_end()));
        parsed.map_err(|(_, e)| format!("replay request line rejected: {e}"))?;
        parse_line_t.add(d);

        let (netlist, d) = clock.time(|| Netlist::from_str_block(&u.text));
        let netlist = netlist.map_err(|e| e.to_string())?;
        parse_t.add(d);

        let cfg = config(u.algorithm)?;
        let (report, d) = clock.time(|| netlist.route(&cfg));
        route_total += d;
        let (json, d) = clock.time(|| report.to_json().to_string());
        report_t.add(d);
        bytes += json.len();
        let (_, d) = clock.time(|| render_route_ok(&Json::from_u64(k as u64), false, &json));
        render_t.add(d);
        if k == 0 {
            sample_report = Arc::from(json.as_str());
        }

        // The ladder's first rung done by hand: context plus fault-isolated
        // build, without the router around it.
        for n in &netlist.nets {
            let eps = cfg.eps_for(n.criticality);
            let (_, d) = clock.time(|| {
                ProblemContext::new(&n.net, eps)
                    .map(|cx| cfg.algorithm.builder().try_build(&cx).is_ok())
            });
            ladder_parts += d;
            nets.push((n.net.clone(), eps));
        }
    }
    m.put("serve.protocol.parse_us", us(parse_line_t.mean()), "us");
    m.put("serve.protocol.render_us", us(render_t.mean()), "us");
    m.put("router.netlist.parse_ms", ms(parse_t.mean()), "ms");
    m.put("router.report.render_ms", ms(report_t.mean()), "ms");
    m.put(
        "router.report.bytes",
        bytes as f64 / units.len().max(1) as f64,
        "bytes",
    );
    m.put(
        "router.route.ladder_overhead_ratio",
        ratio(route_total.as_secs_f64(), ladder_parts.as_secs_f64()),
        "ratio",
    );

    // Report cache: the key sequence through a cache of the server's size.
    let mut cache = ReportCache::new(CACHE_ENTRIES);
    let (mut get_t, mut insert_t, mut hits) = (Sum::default(), Sum::default(), 0usize);
    for &key in keys {
        let (hit, d) = clock.time(|| cache.get(key));
        get_t.add(d);
        if hit.is_some() {
            hits += 1;
        } else {
            let (_, d) = clock.time(|| cache.insert(key, Arc::clone(&sample_report)));
            insert_t.add(d);
        }
    }
    m.put(
        "serve.cache.hit_ratio",
        ratio(hits as f64, keys.len() as f64),
        "ratio",
    );
    m.put("serve.cache.get_us", us(get_t.mean()), "us");
    m.put("serve.cache.insert_us", us(insert_t.mean()), "us");

    // Context layer, each lazy member on a fresh context.
    let (mut new_t, mut index_t, mut stream_t, mut matrix_t, mut sorted_t) = (
        Sum::default(),
        Sum::default(),
        Sum::default(),
        Sum::default(),
        Sum::default(),
    );
    for (net, eps) in &nets {
        let (cx, d) = clock.time(|| ProblemContext::new(net, *eps));
        let cx = cx.map_err(|e| e.to_string())?;
        new_t.add(d);
        let (_, d) = clock.time(|| cx.neighbor_index().len());
        index_t.add(d);
        let (cx, _) = clock.time(|| ProblemContext::new(net, *eps));
        let cx = cx.map_err(|e| e.to_string())?;
        let take = STREAM_EDGES_PER_NODE * net.len();
        let (_, d) = clock.time(|| cx.edge_stream().take(take).count());
        stream_t.add(d);
        let (cx, _) = clock.time(|| ProblemContext::new(net, *eps));
        let cx = cx.map_err(|e| e.to_string())?;
        let (_, d) = clock.time(|| cx.matrix().len());
        matrix_t.add(d);
        let (_, d) = clock.time(|| cx.sorted_edges().len());
        sorted_t.add(d);
    }
    m.put("core.context.new_us", us(new_t.mean()), "us");
    m.put("core.context.neighbor_index_ms", ms(index_t.mean()), "ms");
    m.put("core.context.edge_stream_ms", ms(stream_t.mean()), "ms");
    m.put("core.context.matrix_ms", ms(matrix_t.mean()), "ms");
    m.put("core.context.sorted_edges_ms", ms(sorted_t.mean()), "ms");

    // Builders on a warm context: one untimed build fills the context's
    // lazy state, the traced second build is timed.
    let builders = Arc::new(SpanTreeRecorder::new());
    for name in SPANNING.iter().chain(["steiner"].iter()) {
        let builder = RouteAlgorithm::from_name(name)
            .ok_or_else(|| format!("unknown algorithm {name}"))?
            .builder();
        let mut t = Sum::default();
        for (net, eps) in &nets {
            let sub;
            let net = if *name == "steiner" && net.num_sinks() > STEINER_SINKS {
                sub = Net::with_source_first(net.points()[..=STEINER_SINKS].to_vec())
                    .map_err(|e| e.to_string())?;
                &sub
            } else {
                net
            };
            let (cx, _) = clock.time(|| ProblemContext::new(net, *eps));
            let cx = cx.map_err(|e| e.to_string())?;
            clock.time(|| builder.build(&cx).is_ok());
            let _guard = bmst_obs::scoped(builders.clone());
            let (_, d) = clock.time(|| builder.build(&cx).is_ok());
            t.add(d);
        }
        let metric = match *name {
            "steiner" => "steiner.bkst.build_ms".to_owned(),
            other => format!("core.{other}.build_ms"),
        };
        m.put(&metric, ms(t.mean()), "ms");
    }
    let builds = nets.len().max(1) as f64;
    let c = |name: &str| builders.summary().counter(name) as f64;
    m.put(
        "core.bkrus.edges_scanned",
        c("bkrus.edges_scanned") / builds,
        "count",
    );
    m.put(
        "core.bkrus.accept_ratio",
        ratio(c("bkrus.edges_accepted"), c("bkrus.edges_scanned")),
        "ratio",
    );
    m.put(
        "core.bprim.attachments_scanned",
        c("bprim.attachments_scanned") / builds,
        "count",
    );
    m.put(
        "core.bprim.reject_ratio",
        ratio(c("bprim.rejected_bound"), c("bprim.attachments_scanned")),
        "ratio",
    );
    let (merge_ms, merges) = leaf_self(&builders, "forest.merge");
    m.put("core.forest.merge_ms", merge_ms / builds, "ms");
    m.put("core.forest.merges", merges as f64 / builds, "count");
    let cross = builders
        .summary()
        .snapshot()
        .histograms
        .get("forest.merge.cross_pairs")
        .map_or(0.0, |h| h.mean());
    m.put("core.forest.cross_pairs_mean", cross, "count");
    m.put(
        "core.forest.cond3b_reject_ratio",
        ratio(
            c("forest.cond3b.reject"),
            c("forest.cond3b.reject") + c("forest.cond3b.accept"),
        ),
        "ratio",
    );
    traces.push(("builders", builders));

    m.put(
        "trace.coverage_ratio",
        ratio(clock.busy.as_secs_f64(), wall.elapsed().as_secs_f64()),
        "ratio",
    );
    Ok(())
}

/// Fewest untraced and traced pool passes. The two kinds alternate so that
/// host drift hits both alike, and each reports its fastest.
const MIN_POOL_PASSES: usize = 2;

/// The router layer on one netlist: a serial pass, then untraced and
/// traced `route_parallel(2)` passes until `budget` has passed. Checks
/// that every report is byte-identical to the serial one and emits
/// `router.route.*`, `quality.degraded_ratio` and
/// `core.context.matrix_builds`. Returns the traced ÷ untraced pool time.
pub fn route_layer(
    netlist: &Netlist,
    budget: Duration,
    m: &mut Metrics,
    gate: &mut Gate,
    traces: &mut Vec<(&'static str, Arc<SpanTreeRecorder>)>,
) -> f64 {
    let cfg = RouterConfig::default();
    let timed = |f: &dyn Fn() -> RouteReport| {
        let t = Instant::now();
        let report = f();
        (
            t.elapsed(),
            fnv(report.to_json().to_string().as_bytes()),
            report,
        )
    };
    let (serial_t, serial, mut report) = timed(&|| netlist.route(&cfg));
    let (mut par_t, mut traced_t) = (Duration::MAX, Duration::MAX);
    let rec = Arc::new(SpanTreeRecorder::new());
    let mut identical = true;
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_POOL_PASSES || start.elapsed() < budget {
        let (t, par, _) = timed(&|| netlist.route_parallel(&cfg, 2));
        par_t = par_t.min(t);
        // Only the first traced pass is recorded, so counts are per pass.
        let scratch = Arc::new(SpanTreeRecorder::new());
        let (t, traced, r) = {
            let _guard = bmst_obs::scoped(if pass == 0 { rec.clone() } else { scratch });
            timed(&|| netlist.route_parallel(&cfg, 2))
        };
        traced_t = traced_t.min(t);
        identical &= par == serial && traced == serial;
        report = r;
        pass += 1;
    }
    gate.require(identical, || {
        "serial, parallel and traced parallel reports differ".to_owned()
    });
    m.put(
        "router.route.pool_speedup",
        ratio(serial_t.as_secs_f64(), par_t.as_secs_f64()),
        "ratio",
    );
    let s = rec.summary();
    m.put(
        "router.route.relax_events",
        s.event_count("router.relax") as f64,
        "count",
    );
    m.put(
        "router.route.spt_fallbacks",
        s.event_count("router.spt_fallback") as f64,
        "count",
    );
    m.put(
        "quality.degraded_ratio",
        ratio(report.degraded_count() as f64, netlist.len() as f64),
        "ratio",
    );
    m.put(
        "core.context.matrix_builds",
        leaf_self(&rec, "context.matrix").1 as f64,
        "count",
    );
    traces.push(("route", rec));
    ratio(traced_t.as_secs_f64(), par_t.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rec = SpanTreeRecorder::new();
        use bmst_obs::Recorder;
        rec.record_span("a", 1000);
        rec.record_span("a/b", 600);
        rec.record_span("a/b/c", 500);
        rec.record_span("x/b", 50);
        let nodes = rec.nodes();
        assert_eq!(self_nanos(&nodes, "a"), 400);
        assert_eq!(self_nanos(&nodes, "a/b"), 100);
        assert_eq!(leaf_self(&rec, "b"), (150.0 / 1e6, 2));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
