//! The route workloads (`netlist-batch`, `bkrus-large`): one netlist,
//! rendered once as block text, routed and rendered pass after pass with
//! no serve layer and no cache.

use std::time::{Duration, Instant};

use bmst_router::{Netlist, RouteReport, RouterConfig};
use bmst_tree::AuditContext;

use crate::layers::{self, ratio, Unit};
use crate::load::Live;
use crate::outcome::{Gate, Outcome};
use crate::serve::traced_step;
use crate::stats::{fnv, median, peak_rss_mb, percentile, tail};
use crate::workload::{poisson_arrivals, RouteInputs, RouteSpec, SETUP_REPEATS, WARM_SHARE};

/// Fewest measured passes, however long each takes.
const MIN_PASSES: usize = 3;
/// Budget of the serve-layer probe's requests: generous, since one
/// request carries a whole large net.
const PROBE_BUDGET_MS: u64 = 60_000;
/// Arrival rate of the serve-layer probe, requests per second.
const PROBE_RATE: f64 = 20.0;
/// Share of `--seconds` the traced run spends on pool passes.
const ROUTE_SHARE: f64 = 0.5;

/// Set-up: parsing the netlist text. Returns the netlist and the time.
fn set_up(inputs: &RouteInputs) -> Result<(Netlist, f64), String> {
    let t = Instant::now();
    let netlist = Netlist::from_str_block(&inputs.text).map_err(|e| e.to_string())?;
    Ok((netlist, t.elapsed().as_secs_f64()))
}

/// One measured pass: route (the worker pool unless `jobs == 1`) and
/// render the report.
fn pass(netlist: &Netlist, cfg: &RouterConfig, jobs: usize) -> (RouteReport, String) {
    let report = if jobs > 1 {
        netlist.route_parallel(cfg, jobs)
    } else {
        netlist.route(cfg)
    };
    let json = report.to_json().to_string();
    (report, json)
}

/// Every net routed, and every tree passes the structural audit plus its
/// `(1 + eps) * R` upper bound.
fn audit(report: &RouteReport, nets: usize, gate: &mut Gate) {
    gate.require(
        report.failures.is_empty() && report.nets.len() == nets,
        || {
            format!(
                "{} of {nets} nets routed, {} failed",
                report.nets.len(),
                report.failures.len()
            )
        },
    );
    for net in &report.nets {
        let ctx = AuditContext::default().with_upper_bound(net.bound);
        gate.check(
            net.tree
                .audit(&ctx)
                .map_err(|v| format!("net {}: audit failed: {v}", net.name)),
        );
    }
}

/// The untraced run: set-up, untimed warm-up passes for the first
/// `WARM_SHARE` of `seconds` (at least one, audited), then timed passes
/// until `seconds` are up (at least `MIN_PASSES`), each byte-identical to
/// the first. Set-up is timed again after every timed pass (at least
/// `SETUP_REPEATS` times in all), so its median samples the host over the
/// run, as the pass times do.
pub fn run(spec: &RouteSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = RouteInputs::generate(spec, seed);
    let (netlist, _) = set_up(&inputs)?;
    let mut setups = Vec::new();
    let cfg = RouterConfig::default();
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut passes = 0;
    let mut first: Option<(u64, f64)> = None;
    let mut check = |report: &RouteReport, json: &str| {
        passes += 1;
        let digest = fnv(json.as_bytes());
        match first {
            None => {
                audit(report, inputs.nets, &mut out.gate);
                first = Some((digest, ratio(report.total_wirelength, inputs.mst)));
            }
            Some((d, _)) => out.gate.require(d == digest, || {
                format!("pass {passes} report differs from the first pass")
            }),
        }
        out.failed += report.failures.len() as u64;
    };
    let start = Instant::now();
    loop {
        let (report, json) = pass(&netlist, &cfg, spec.jobs);
        check(&report, &json);
        if start.elapsed().as_secs_f64() >= seconds * WARM_SHARE {
            break;
        }
    }
    let budget = Duration::from_secs_f64(seconds);
    while times.len() < MIN_PASSES || start.elapsed() < budget {
        let t = Instant::now();
        let (report, json) = pass(&netlist, &cfg, spec.jobs);
        times.push(t.elapsed().as_secs_f64());
        check(&report, &json);
        setups.push(set_up(&inputs)?.1);
    }
    while setups.len() < SETUP_REPEATS {
        setups.push(set_up(&inputs)?.1);
    }
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("latency_p50_ms", percentile(&ms, 0.5), "ms");
    m.put("latency_tail_ms", tail(&ms).0, "ms");
    m.put(
        "throughput",
        (inputs.terminals * times.len()) as f64 / times.iter().sum::<f64>(),
        "terminal/s",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "quality.wirelength_ratio",
        first.map_or(0.0, |(_, q)| q),
        "ratio",
    );
    out.attempted = (inputs.nets * passes) as u64;
    Ok(out)
}

/// A single-net `route` request line.
fn request_line(id: usize, text: &str) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"route\",\"algorithm\":\"bkrus\",\"budget_ms\":{PROBE_BUDGET_MS},\"netlist\":{}}}\n",
        bmst_obs::json::escape(text)
    )
}

/// The traced run: the replayed nets sent once through an in-process
/// server (the serve-layer probe), the router layer on the whole netlist
/// (serial, then pool and pool traced for half of `seconds`), then the
/// replay through every layer.
pub fn run_traced(spec: &RouteSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = RouteInputs::generate(spec, seed);
    let netlist = Netlist::from_str_block(&inputs.text).map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    let texts: Vec<String> = netlist
        .nets
        .iter()
        .step_by(spec.replay_stride)
        .map(|n| Netlist::new(vec![n.clone()]).to_string_block())
        .collect();
    let (mut live, _) = Live::start(&[])?;
    let offsets = poisson_arrivals(PROBE_RATE, texts.len(), seed);
    let step = traced_step(
        &mut live,
        0,
        &offsets,
        |id| request_line(id, &texts[id]),
        &mut out.metrics,
        &mut out.traces,
    )?;
    live.stop()?;
    let n = texts.len();
    out.gate.require(
        step.responses.missing(n) == 0 && step.responses.unexpected == 0,
        || "probe: a request was not answered exactly once".to_owned(),
    );
    out.failed += step.responses.failed(n) as u64;

    let overhead = layers::route_layer(
        &netlist,
        Duration::from_secs_f64(seconds * ROUTE_SHARE),
        &mut out.metrics,
        &mut out.gate,
        &mut out.traces,
    );
    out.metrics.put("trace.overhead_ratio", overhead, "ratio");

    let units: Vec<Unit> = texts
        .iter()
        .enumerate()
        .map(|(j, t)| Unit {
            text: t.clone(),
            algorithm: "bkrus",
            line: request_line(j, t),
        })
        .collect();
    // The cache sees every replayed net twice, as two passes would ask.
    let keys: Vec<u64> = (0..2 * n as u64).map(|k| k % n as u64).collect();
    layers::replay(&units, &keys, &mut out.metrics, &mut out.traces)?;
    out.attempted = (n + netlist.len()) as u64;
    Ok(out)
}
