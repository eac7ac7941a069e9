//! The serve workloads (`serve-hot`, `serve-cold`) and the serve-layer
//! probe every traced run makes.

use std::sync::Arc;
use std::time::Duration;

use bmst_obs::SpanTreeRecorder;

use crate::layers::{self, direct_report, leaf_mean_ms, ratio, Unit};
use crate::load::{closed_loop, open_loop, queue_depth, status_u64, Live, OpenLoop, Responses};
use crate::outcome::{Gate, Metrics, Outcome};
use crate::stats::{fnv, median, peak_rss_mb, percentile, tail};
use crate::workload::{
    poisson_schedule, ServeInputs, ServeSpec, BUDGET_MS, SETUP_REPEATS, WARM_SHARE,
};

/// Ids of set-up requests, far above any measured id.
const WARM_ID: usize = 1 << 40;
/// Interval between `status` samples in the traced step.
const STATUS_EVERY: Duration = Duration::from_millis(100);

/// The closed-loop warm-up pass of set-up: every hot body once (filling
/// the cache), or, with no hot set, `spec.warm` fresh bodies under names
/// the measured stream never uses.
fn warm_lines(spec: &ServeSpec, inputs: &ServeInputs) -> Vec<String> {
    if inputs.hot > 0 {
        (0..inputs.hot)
            .map(|j| inputs.bodies[j].line(WARM_ID + j, ""))
            .collect()
    } else {
        (0..spec.warm.min(inputs.bodies.len()))
            .map(|j| inputs.bodies[j].line(WARM_ID + j, &format!("_w{j}")))
            .collect()
    }
}

/// Set-up `n` times, each server shut down again; returns the times.
fn set_ups(warm: &[String], n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (live, d) = Live::start(warm)?;
            live.stop()?;
            Ok(d.as_secs_f64())
        })
        .collect()
}

/// The reference digest of each hot body's report.
pub fn hot_digests(inputs: &ServeInputs) -> Result<Vec<u64>, String> {
    (0..inputs.hot)
        .map(|j| {
            let b = &inputs.bodies[j];
            direct_report(&b.text(""), b.algorithm).map(|r| fnv(r.as_bytes()))
        })
        .collect()
}

/// The correctness gate over one step's responses (`base` is its first
/// id, `sent` how many it sent): every id answered exactly once; every
/// hot response byte-identical to `expected_hot`; `sample` fresh
/// responses, spread over the step, byte-identical to a direct route of
/// their own body.
pub fn check_responses(
    inputs: &ServeInputs,
    expected_hot: &[u64],
    r: &Responses,
    base: usize,
    sent: usize,
    sample: usize,
    gate: &mut Gate,
) -> Result<(), String> {
    gate.require(r.unexpected == 0, || {
        format!(
            "{} responses answered an id twice or never sent",
            r.unexpected
        )
    });
    let missing = r.missing(sent);
    gate.require(missing == 0, || {
        format!("{missing} of {sent} requests never answered")
    });
    let fresh_ok: Vec<usize> = (0..sent)
        .filter(|&k| r.ok[k] && inputs.pick(base + k).1)
        .collect();
    let stride = (fresh_ok.len() / sample.max(1)).max(1);
    for (k, ok) in r.ok[..sent].iter().enumerate() {
        if !ok {
            continue;
        }
        let (b, fresh) = inputs.pick(base + k);
        if !fresh {
            gate.require(r.digest[k] == expected_hot[b], || {
                format!(
                    "request {} (hot body {b}): report differs from a direct route",
                    base + k
                )
            });
        }
    }
    for &k in fresh_ok.iter().step_by(stride).take(sample) {
        let (b, _) = inputs.pick(base + k);
        let body = &inputs.bodies[b];
        let suffix = ServeInputs::suffix(base + k, true);
        let expected = fnv(direct_report(&body.text(&suffix), body.algorithm)?.as_bytes());
        gate.require(r.digest[k] == expected, || {
            format!(
                "request {} (fresh body {b}): report differs from a direct route",
                base + k
            )
        });
    }
    Ok(())
}

/// `status` after the load: every admitted request was answered.
fn check_status(live: &mut Live, gate: &mut Gate) -> Result<u64, String> {
    let (status, _) = live.control.status().map_err(|e| format!("status: {e}"))?;
    let (accepted, completed) = (
        status_u64(&status, "accepted"),
        status_u64(&status, "completed"),
    );
    gate.require(accepted == completed, || {
        format!("status: completed {completed} != accepted {accepted}")
    });
    Ok(status_u64(&status, "shed"))
}

/// Σ served wirelength ÷ Σ MST cost over the distinct bodies answered.
fn wirelength_ratio(inputs: &ServeInputs, r: &Responses, base: usize, sent: usize) -> f64 {
    let mut seen = vec![false; inputs.bodies.len()];
    let (mut wl, mut mst) = (0.0, 0.0);
    for k in 0..sent {
        let (b, _) = inputs.pick(base + k);
        if r.ok[k] && !seen[b] {
            seen[b] = true;
            wl += r.wirelength[k];
            mst += inputs.bodies[b].mst;
        }
    }
    ratio(wl, mst)
}

/// A latency percentile in ms; a failed request (`+inf`) reads as the
/// request budget, the longest any answer could honestly take.
fn latency(lat: &[f64], q: f64) -> f64 {
    percentile(lat, q).min(BUDGET_MS as f64)
}

/// The untraced run: set-up, the open-loop nominal step (its first
/// `WARM_SHARE` of `seconds` a warm-up), the closed-loop saturation step,
/// then the correctness gate. The timed set-ups come after the warm-up,
/// half between the two steps and half after them, so their median
/// samples the host over the run, as the latencies do.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = ServeInputs::generate(spec, seed);
    let warm = warm_lines(spec, &inputs);
    let (mut live, _) = Live::start(&warm)?;
    let offsets = poisson_schedule(spec.rate, seconds * spec.nominal_share, seed);
    let n = offsets.len();
    let open = open_loop(live.addr, 0, &offsets, |id| inputs.line(id, id), || {})
        .map_err(|e| format!("open loop: {e}"))?;
    let mut setups = set_ups(&warm, SETUP_REPEATS / 2)?;
    let saturation = Duration::from_secs_f64(seconds * (1.0 - spec.nominal_share) * 0.8);
    let closed = closed_loop(live.addr, n, spec.window, saturation, |id| {
        inputs.line(id, id)
    })
    .map_err(|e| format!("closed loop: {e}"))?;
    let mut out = Outcome::default();
    let shed = check_status(&mut live, &mut out.gate)?;
    live.stop()?;
    setups.extend(set_ups(&warm, SETUP_REPEATS - setups.len())?);

    let expected_hot = hot_digests(&inputs)?;
    let sample = spec.replay;
    check_responses(
        &inputs,
        &expected_hot,
        &open.responses,
        0,
        n,
        sample,
        &mut out.gate,
    )?;
    let c = &closed.responses;
    check_responses(
        &inputs,
        &expected_hot,
        c,
        n,
        closed.sent,
        sample,
        &mut out.gate,
    )?;

    // Requests due in the warm-up are checked but not timed.
    let warmed = offsets.partition_point(|&o| o < seconds * WARM_SHARE);
    let lat = &open.latencies_ms(&offsets)[warmed..];
    let terminals: usize = (0..closed.sent)
        .filter(|&k| c.ok[k] && c.recv_s[k] <= closed.duration_s)
        .map(|k| inputs.bodies[inputs.pick(n + k).0].terminals)
        .sum();
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("latency_p50_ms", latency(lat, 0.5), "ms");
    m.put("latency_tail_ms", tail(lat).0.min(BUDGET_MS as f64), "ms");
    m.put(
        "throughput",
        terminals as f64 / closed.duration_s,
        "terminal/s",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "quality.wirelength_ratio",
        wirelength_ratio(&inputs, &open.responses, 0, n),
        "ratio",
    );
    out.attempted = (n + closed.sent) as u64;
    out.failed = (open.responses.failed(n) + c.failed(closed.sent)) as u64 + shed;
    Ok(out)
}

/// One traced open-loop step with `status` sampled every 100 ms on the
/// control connection; emits the `serve.server.*` and `loadgen.*`
/// metrics and returns the step for its caller's checks. Every mean here
/// is over the answered requests.
pub fn traced_step(
    live: &mut Live,
    base: usize,
    offsets: &[f64],
    line: impl Fn(usize) -> String,
    m: &mut Metrics,
    traces: &mut Vec<(&'static str, Arc<SpanTreeRecorder>)>,
) -> Result<OpenLoop, String> {
    let rec = Arc::new(SpanTreeRecorder::new());
    let addr = live.addr;
    let control = &mut live.control;
    let (mut depths, mut rtts) = (Vec::new(), Vec::new());
    let mut last = std::time::Instant::now();
    let mut sample_err = None;
    let step = {
        let _guard = bmst_obs::scoped(rec.clone());
        open_loop(addr, base, offsets, line, || {
            if last.elapsed() >= STATUS_EVERY {
                last = std::time::Instant::now();
                match control.status() {
                    Ok((s, rtt)) => {
                        depths.push(queue_depth(&s));
                        rtts.push(rtt.as_secs_f64() * 1e6);
                    }
                    Err(e) => sample_err = Some(e),
                }
            }
        })
        .map_err(|e| format!("traced step: {e}"))?
    };
    if let Some(e) = sample_err {
        return Err(format!("status sample: {e}"));
    }
    // One idle sample after the step, so a short step still has one.
    let (status, rtt) = control.status().map_err(|e| format!("status: {e}"))?;
    rtts.push(rtt.as_secs_f64() * 1e6);
    depths.push(queue_depth(&status));

    let lat = step.latencies_ms(offsets);
    let request_ms = leaf_mean_ms(&rec, "serve.request");
    let status_rtt_us = median(&rtts);
    let answered: Vec<f64> = lat.iter().copied().filter(|l| l.is_finite()).collect();
    let client_mean = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
    m.put(
        "serve.server.queue_depth_mean",
        depths.iter().sum::<f64>() / depths.len() as f64,
        "req",
    );
    m.put(
        "serve.server.queue_depth_max",
        depths.iter().copied().fold(0.0, f64::max),
        "req",
    );
    m.put(
        "serve.server.shed",
        status_u64(&status, "shed") as f64,
        "count",
    );
    m.put("serve.server.status_rtt_us", status_rtt_us, "us");
    m.put("serve.server.request_ms", request_ms, "ms");
    // What the client waits beyond the worker's time and an idle round
    // trip: admission-queue wait plus parse and admission.
    m.put(
        "serve.server.wait_ms",
        client_mean - request_ms - status_rtt_us / 1e3,
        "ms",
    );
    let lag_ms: Vec<f64> = step.lag_s.iter().map(|s| s * 1e3).collect();
    m.put("loadgen.lag_p99_ms", percentile(&lag_ms, 0.99), "ms");
    m.put("loadgen.sent", step.sent as f64, "count");
    traces.push(("serve", rec));
    Ok(step)
}

/// The traced run: an untraced and a traced open-loop step of a quarter
/// of `seconds` each, then the replay of the first `spec.replay` bodies
/// through every layer and the router layer over their nets.
pub fn run_traced(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = ServeInputs::generate(spec, seed);
    let (mut live, _) = Live::start(&warm_lines(spec, &inputs))?;
    let offsets = poisson_schedule(spec.rate, seconds * 0.25, seed);
    let n = offsets.len();
    let mut out = Outcome::default();
    let untraced = open_loop(live.addr, 0, &offsets, |id| inputs.line(id, id), || {})
        .map_err(|e| format!("open loop: {e}"))?;
    let traced = traced_step(
        &mut live,
        n,
        &offsets,
        |id| inputs.line(id, id),
        &mut out.metrics,
        &mut out.traces,
    )?;
    let shed = check_status(&mut live, &mut out.gate)?;
    live.stop()?;
    let expected_hot = hot_digests(&inputs)?;
    check_responses(
        &inputs,
        &expected_hot,
        &untraced.responses,
        0,
        n,
        8,
        &mut out.gate,
    )?;
    check_responses(
        &inputs,
        &expected_hot,
        &traced.responses,
        n,
        n,
        8,
        &mut out.gate,
    )?;
    let p50 = |s: &OpenLoop| percentile(&s.latencies_ms(&offsets), 0.5);
    let overhead = ratio(p50(&traced), p50(&untraced));

    let bodies = &inputs.bodies[..spec.replay.min(inputs.bodies.len())];
    let units: Vec<Unit> = bodies
        .iter()
        .enumerate()
        .map(|(j, b)| Unit {
            text: b.text(""),
            algorithm: b.algorithm,
            line: b.line(j, ""),
        })
        .collect();
    // The cache sees the traced step's key sequence: hot bodies by index,
    // fresh requests each under a key of their own.
    let keys: Vec<u64> = (n..2 * n)
        .map(|i| match inputs.pick(i) {
            (b, false) => b as u64,
            (_, true) => (1 << 32) + i as u64,
        })
        .collect();
    layers::replay(&units, &keys, &mut out.metrics, &mut out.traces)?;
    let all: String = units.iter().map(|u| u.text.as_str()).collect();
    let netlist = bmst_router::Netlist::from_str_block(&all).map_err(|e| e.to_string())?;
    layers::route_layer(
        &netlist,
        Duration::ZERO,
        &mut out.metrics,
        &mut out.gate,
        &mut out.traces,
    );
    out.metrics.put("trace.overhead_ratio", overhead, "ratio");
    out.attempted = 2 * n as u64;
    out.failed = (untraced.responses.failed(n) + traced.responses.failed(n)) as u64 + shed;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, Spec};

    #[test]
    fn gate_catches_a_tampered_expected_digest() {
        let Some(Spec::Serve(s)) = spec("serve-hot", true) else {
            panic!("serve spec")
        };
        let inputs = ServeInputs::generate(&s, 5);
        let (live, _) = Live::start(&warm_lines(&s, &inputs)).unwrap();
        let offsets: Vec<f64> = (0..40).map(|k| k as f64 * 0.002).collect();
        let step = open_loop(live.addr, 0, &offsets, |id| inputs.line(id, id), || {}).unwrap();
        live.stop().unwrap();
        let mut expected = hot_digests(&inputs).unwrap();
        let mut gate = Gate::default();
        check_responses(&inputs, &expected, &step.responses, 0, 40, 4, &mut gate).unwrap();
        assert!(gate.passed(), "{:?}", gate.failures);
        // Two stream checks, every hot response, four fresh samples.
        let hot = (0..40).filter(|&i| !inputs.pick(i).1).count();
        assert_eq!(gate.checked, 2 + hot + 4);
        let hot_used = (0..40).map(|i| inputs.pick(i)).find(|p| !p.1).unwrap().0;
        expected[hot_used] ^= 1;
        let mut gate = Gate::default();
        check_responses(&inputs, &expected, &step.responses, 0, 40, 4, &mut gate).unwrap();
        assert!(!gate.passed());
    }
}
