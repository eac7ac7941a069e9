//! `cargo xtask check-perf <BENCH_*.json>` — the scaling-curve regression
//! gate over the `scaling.*` records `bench_trajectory` emits.
//!
//! Wall-clock comparisons across machines are noise, so the *default*
//! gates are machine-independent curve properties:
//!
//! * coverage — every required algorithm (BKRUS, BPRIM, router) has ≥ 3
//!   distinct sizes spanning ≥ 2 orders of magnitude (`max/min >= 100`);
//! * monotonicity — time at the largest size exceeds time at the
//!   smallest (a sweep whose big case is *faster* measured nothing);
//! * exponent budgets — the fitted `scaling.<algo>.exponent_milli` lies
//!   inside the algorithm's plausible band (e.g. BKRUS must stay below
//!   x^3.5; dropping under x^0.5 means the clock under-resolved);
//! * parallel sanity — the router ladder has a rung large enough to
//!   amortize thread startup (`n >= SPEEDUP_MIN_N`), and
//!   `scaling.router.<n>.speedup_milli` stays above the floor at every
//!   such rung (parallel routing may not beat serial on single-core CI
//!   boxes, but it must never be catastrophically slower). Sampled
//!   pool-speedup figures are the repository benchmark's
//!   `router.route.pool_speedup`, not this gate's.
//!
//! `--against <baseline.json>` additionally compares every overlapping
//! `scaling.*.micros` record and fails when the current run regresses
//! beyond `--tolerance-pct` (default 50%) — an opt-in same-machine check
//! (CI compares against the committed baseline from the same runner
//! class, where only catastrophic regressions are meaningful).

use std::collections::BTreeMap;
use std::process::ExitCode;

use bmst_obs::json::Json;

/// Algorithms that must have a full scaling ladder, with their exponent
/// budgets in milli (fitted log-log slope x1000).
const REQUIRED: &[(&str, u64, u64)] = &[
    // (algo, min exponent_milli, max exponent_milli)
    //
    // The maxima lock in the sparse-supply + forest fast-reject wins from
    // the dense-era ~2600 fits: clean-machine measurements are ~2000 for
    // BKRUS (component-potential gating of condition 3-b) and ~1200 for
    // BPRIM (grid nearest-neighbor candidates), so these budgets fail any
    // change that reverts to dense-path scaling while leaving headroom for
    // runner noise.
    ("bkrus", 500, 2400),
    ("bprim", 500, 1800),
    ("router", 500, 2500),
];

/// Minimum `max(n)/min(n)` ratio: two orders of magnitude.
const MIN_SPAN_RATIO: u64 = 100;

/// Minimum distinct sizes per algorithm.
const MIN_SIZES: usize = 3;

/// Floor for serial/parallel wall x1000: parallel routing must never be
/// worse than ~1.4x slower than serial, even on a single-core runner.
const SPEEDUP_FLOOR_MILLI: u64 = 700;

/// Per-size speedup records are only gated at sizes with enough total
/// work to amortize thread-pool startup; the smallest ladder rungs sit
/// just above the router's `PARALLEL_MIN_TERMINALS`, where spawn overhead
/// legitimately dominates. The ladder must reach at least one gated rung.
const SPEEDUP_MIN_N: u64 = 1000;

/// Default `--against` tolerance: current micros may exceed baseline by
/// at most this percentage.
const DEFAULT_TOLERANCE_PCT: u64 = 50;

/// Entry point for `cargo xtask check-perf <file> [--against <baseline>
/// [--tolerance-pct N]]`.
pub fn run(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut against = None;
    let mut tolerance_pct = DEFAULT_TOLERANCE_PCT;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--against" => match it.next() {
                Some(p) => against = Some(p.clone()),
                None => {
                    eprintln!("xtask check-perf: --against needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => tolerance_pct = v,
                None => {
                    eprintln!("xtask check-perf: --tolerance-pct needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            other if file.is_none() => file = Some(other.to_owned()),
            other => {
                eprintln!("xtask check-perf: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("xtask check-perf: expected a BENCH_*.json file argument");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask check-perf: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_text = match &against {
        None => None,
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("xtask check-perf: cannot read baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    match validate_perf(&text, baseline_text.as_deref(), tolerance_pct) {
        Ok(summary) => {
            println!("xtask check-perf: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("xtask check-perf: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// All counters across every record of a bench document, flattened.
/// `scaling.*` keys embed algorithm and size, so flattening cannot alias.
fn flat_counters(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let records = json
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing `records` array")?;
    let mut out = BTreeMap::new();
    for rec in records {
        let Some(counters) = rec.get("counters").and_then(Json::as_obj) else {
            continue;
        };
        for (k, v) in counters {
            if let Some(v) = v.as_f64() {
                // lint: allow(no-as-cast) — counters are emitted as u64; f64 round-trip is exact below 2^53
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                out.insert(k.clone(), v as u64);
            }
        }
    }
    Ok(out)
}

/// The `(n, micros)` sweep for one algorithm, parsed from
/// `scaling.<algo>.<n>.micros` counters.
fn sweep_of(counters: &BTreeMap<String, u64>, algo: &str) -> Vec<(u64, u64)> {
    let prefix = format!("scaling.{algo}.");
    let mut points: Vec<(u64, u64)> = counters
        .iter()
        .filter_map(|(k, &micros)| {
            let n = k
                .strip_prefix(&prefix)?
                .strip_suffix(".micros")?
                .parse()
                .ok()?;
            Some((n, micros))
        })
        .collect();
    points.sort_unstable();
    points
}

/// Validates the scaling records; returns a human summary on success.
fn validate_perf(text: &str, baseline: Option<&str>, tolerance_pct: u64) -> Result<String, String> {
    let counters = flat_counters(text)?;
    let mut ladder_sizes = Vec::new();
    for &(algo, exp_min, exp_max) in REQUIRED {
        let sweep = sweep_of(&counters, algo);
        if sweep.len() < MIN_SIZES {
            return Err(format!(
                "{algo}: {} scaling size(s), need >= {MIN_SIZES} \
                 (was the bench run with --quick?)",
                sweep.len()
            ));
        }
        let (n_min, t_min) = sweep[0];
        let (n_max, t_max) = sweep[sweep.len() - 1];
        if n_min == 0 || n_max / n_min < MIN_SPAN_RATIO {
            return Err(format!(
                "{algo}: sizes {n_min}..{n_max} span less than {MIN_SPAN_RATIO}x \
                 (need >= 2 orders of magnitude)"
            ));
        }
        if t_max <= t_min {
            return Err(format!(
                "{algo}: time at n={n_max} ({t_max}us) does not exceed time at \
                 n={n_min} ({t_min}us) — the sweep measured nothing"
            ));
        }
        let exp_key = format!("scaling.{algo}.exponent_milli");
        let exponent = *counters
            .get(&exp_key)
            .ok_or_else(|| format!("{algo}: missing `{exp_key}` fit record"))?;
        if exponent < exp_min || exponent > exp_max {
            return Err(format!(
                "{algo}: exponent {exponent} milli outside budget [{exp_min}, {exp_max}] \
                 — scaling curve regressed (or the clock under-resolved)"
            ));
        }
        ladder_sizes.push(sweep.len());

        if algo == "router" {
            if n_max < SPEEDUP_MIN_N {
                return Err(format!(
                    "router: no rung with n >= SPEEDUP_MIN_N ({SPEEDUP_MIN_N}), \
                     so the speedup floor gates nothing"
                ));
            }
            for (n, _) in &sweep {
                let key = format!("scaling.router.{n}.speedup_milli");
                let speedup = *counters
                    .get(&key)
                    .ok_or_else(|| format!("router: missing `{key}`"))?;
                if *n >= SPEEDUP_MIN_N && speedup < SPEEDUP_FLOOR_MILLI {
                    return Err(format!(
                        "router: speedup at n={n} is {speedup} milli, \
                         below floor {SPEEDUP_FLOOR_MILLI}"
                    ));
                }
            }
        }
    }

    let mut compared = 0usize;
    if let Some(baseline) = baseline {
        let base = flat_counters(baseline)?;
        for (key, &base_us) in base.iter().filter(|(k, _)| k.ends_with(".micros")) {
            let Some(&cur_us) = counters.get(key) else {
                continue; // ladders may legitimately change between runs
            };
            let budget = base_us.saturating_mul(100 + tolerance_pct) / 100;
            if cur_us > budget {
                return Err(format!(
                    "{key}: {cur_us}us regressed beyond baseline {base_us}us \
                     + {tolerance_pct}% tolerance"
                ));
            }
            compared += 1;
        }
    }

    let ladders: Vec<String> = REQUIRED
        .iter()
        .zip(&ladder_sizes)
        .map(|(&(algo, _, _), &len)| format!("{algo}:{len}"))
        .collect();
    let mut summary = format!("ladders {}", ladders.join(" "));
    if baseline.is_some() {
        summary.push_str(&format!(", {compared} record(s) within tolerance"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    /// A minimal document with complete ladders for all required algos.
    fn good_doc() -> String {
        let mut records = String::new();
        for (algo, base) in [("bkrus", 100u64), ("bprim", 300), ("router", 50)] {
            for (i, n) in [50u64, 500, 5000].iter().enumerate() {
                let micros = base * 10u64.pow(u32::try_from(i).unwrap() + 1);
                let mut counters =
                    format!("\"scaling.n\":{n},\"scaling.{algo}.{n}.micros\":{micros}");
                if algo == "router" {
                    counters.push_str(&format!(",\"scaling.router.{n}.speedup_milli\":950"));
                }
                records.push_str(&format!(
                    "{{\"bench\":\"scale-{n}\",\"algorithm\":\"{algo}\",\"counters\":{{{counters}}}}},"
                ));
            }
            // Exponent of t = c * n^1 ladders above: 10x time per 10x n.
            records.push_str(&format!(
                "{{\"bench\":\"scaling-fit\",\"algorithm\":\"{algo}\",\
                 \"counters\":{{\"scaling.{algo}.exponent_milli\":1000}}}},"
            ));
        }
        records.pop(); // trailing comma
        format!("{{\"schema\":\"bmst-bench-v1\",\"table\":\"table2\",\"records\":[{records}]}}")
    }

    #[test]
    fn complete_ladders_pass() {
        let summary = validate_perf(&good_doc(), None, 50).unwrap();
        assert!(summary.contains("bkrus:3"), "{summary}");
        assert!(summary.contains("router:3"), "{summary}");
    }

    #[test]
    fn short_ladder_fails() {
        let doc = good_doc().replace(",\"scaling.bkrus.5000.micros\":100000", "");
        let err = validate_perf(&doc, None, 50).unwrap_err();
        assert!(err.contains("bkrus"), "{err}");
        assert!(err.contains("size"), "{err}");
    }

    #[test]
    fn narrow_span_fails() {
        // Shift bkrus's big size down to 10x the smallest.
        let doc = good_doc().replace("scaling.bkrus.5000", "scaling.bkrus.400");
        let err = validate_perf(&doc, None, 50).unwrap_err();
        assert!(err.contains("orders of magnitude"), "{err}");
    }

    #[test]
    fn non_monotone_sweep_fails() {
        let doc = good_doc().replace(
            "\"scaling.bprim.5000.micros\":300000",
            "\"scaling.bprim.5000.micros\":1",
        );
        let err = validate_perf(&doc, None, 50).unwrap_err();
        assert!(err.contains("measured nothing"), "{err}");
    }

    #[test]
    fn exponent_budget_enforced() {
        let doc = good_doc().replace(
            "\"scaling.bprim.exponent_milli\":1000",
            "\"scaling.bprim.exponent_milli\":9000",
        );
        let err = validate_perf(&doc, None, 50).unwrap_err();
        assert!(err.contains("exponent"), "{err}");
        let doc = good_doc().replace(
            "\"scaling.router.exponent_milli\":1000",
            "\"scaling.router.exponent_milli\":100",
        );
        assert!(validate_perf(&doc, None, 50).is_err());
    }

    #[test]
    fn slow_parallel_router_fails() {
        let doc = good_doc().replace(
            "\"scaling.router.5000.speedup_milli\":950",
            "\"scaling.router.5000.speedup_milli\":200",
        );
        let err = validate_perf(&doc, None, 50).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
        // Below SPEEDUP_MIN_N, spawn overhead legitimately dominates:
        // a slow smallest rung is recorded but not gated.
        let doc = good_doc().replace(
            "\"scaling.router.50.speedup_milli\":950",
            "\"scaling.router.50.speedup_milli\":200",
        );
        assert!(validate_perf(&doc, None, 50).is_ok());
    }

    #[test]
    fn router_ladder_without_a_gated_rung_fails() {
        // [5, 50, 500] spans 100x, so only the speedup floor's reach can
        // reject it: none of its rungs is large enough to be gated.
        let doc = good_doc()
            .replace("scaling.router.50.", "scaling.router.5.")
            .replace("scaling.router.500.", "scaling.router.50.")
            .replace("scaling.router.5000.", "scaling.router.500.");
        let err = validate_perf(&doc, None, 50).unwrap_err();
        assert!(err.contains("SPEEDUP_MIN_N"), "{err}");
    }

    #[test]
    fn baseline_comparison_gates_regressions() {
        let base = good_doc();
        // Unchanged: passes with comparisons counted.
        let summary = validate_perf(&base, Some(&base), 50).unwrap();
        assert!(summary.contains("within tolerance"), "{summary}");
        // 10x regression on one record: fails at 50% tolerance.
        let slow = base.replace(
            "\"scaling.bkrus.500.micros\":10000",
            "\"scaling.bkrus.500.micros\":100000",
        );
        let err = validate_perf(&slow, Some(&base), 50).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // Same regression passes with a huge tolerance.
        assert!(validate_perf(&slow, Some(&base), 100_000).is_ok());
        // A baseline record absent from the current run is skipped.
        let missing = base.replace(",\"scaling.bkrus.500.micros\":10000", "");
        assert!(validate_perf(&missing, Some(&base), 50).is_err()); // ladder now short
    }

    #[test]
    fn sweep_parser_ignores_foreign_keys() {
        let counters: BTreeMap<String, u64> = [
            ("scaling.bkrus.50.micros".to_owned(), 7),
            ("scaling.bkrus.500.micros".to_owned(), 70),
            ("scaling.bkrus.exponent_milli".to_owned(), 1000),
            ("scaling.router.50.micros".to_owned(), 3),
            ("bkrus.edges_scanned".to_owned(), 12),
        ]
        .into();
        assert_eq!(sweep_of(&counters, "bkrus"), vec![(50, 7), (500, 70)]);
        assert_eq!(sweep_of(&counters, "router"), vec![(50, 3)]);
        assert!(sweep_of(&counters, "bprim").is_empty());
    }
}
