//! The repository benchmark. See README.md for the workloads, the metrics
//! and how to run and compare.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--smoke]
//! benchmark --compare A.json B.json
//! ```
//!
//! Every run prints `<workload> <metric> <value> <unit>` lines, then one
//! JSON result line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set; without `--trace` both runs happen. Exits non-zero when
//! a run fails or its correctness gate does.

mod compare;
mod layers;
mod load;
mod outcome;
mod route;
mod serve;
mod spec;
mod stats;
mod workload;

use std::process::ExitCode;

use bmst_obs::json::Json;

use crate::outcome::Outcome;
use crate::workload::{Spec, NAMES};

/// Measured seconds per run when `--seconds` is absent (the value
/// `BENCHMARK.json` declares as `run_seconds`).
const DEFAULT_SECONDS: f64 = 28.0;

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Vec<bool>,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: NAMES.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: vec![false, true],
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads = if v == "all" {
                    NAMES.to_vec()
                } else {
                    vec![*NAMES.iter().find(|n| **n == v.as_str()).ok_or_else(|| {
                        format!("unknown workload {v:?} (expected one of {NAMES:?})")
                    })?]
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            "--out" => a.out = Some(value()?.clone()),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let first = value()?.clone();
                let second = it.next().ok_or("--compare needs two files")?.clone();
                a.compare = Some((first, second));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// Runs one workload in one mode.
fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let spec = workload::spec(name, smoke).ok_or_else(|| format!("unknown workload {name}"))?;
    match (spec, traced) {
        (Spec::Serve(s), false) => serve::run(&s, seed, seconds),
        (Spec::Serve(s), true) => serve::run_traced(&s, seed, seconds),
        (Spec::Route(r), false) => route::run(&r, seed, seconds),
        (Spec::Route(r), true) => route::run_traced(&r, seed, seconds),
    }
}

/// Appends a run to `<dir>/results.json` and, for a traced run, writes
/// `trace.<workload>.json` and `trace.<workload>.folded`.
fn save(
    dir: &str,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Outcome,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{dir}: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    let path = format!("{dir}/results.json");
    let mut runs = match std::fs::read_to_string(&path) {
        Ok(text) => Json::parse(&text)
            .ok()
            .and_then(|j| j.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .ok_or_else(|| format!("{path}: not a results file"))?,
        Err(_) => Vec::new(),
    };
    let mut run = vec![
        ("workload".to_owned(), Json::Str(name.to_owned())),
        ("seed".to_owned(), Json::from_u64(seed)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("trace".to_owned(), Json::from_u64(u64::from(traced))),
        ("cores".to_owned(), Json::from_u64(cores() as u64)),
    ];
    if let Json::Obj(fields) = out.result_json() {
        run.extend(fields);
    }
    runs.push(Json::Obj(run));
    let doc = Json::Obj(vec![("runs".to_owned(), Json::Arr(runs))]);
    std::fs::write(&path, format!("{doc}\n")).map_err(io)?;
    if traced {
        std::fs::write(
            format!("{dir}/trace.{name}.json"),
            format!("{}\n", out.trace_json()),
        )
        .map_err(io)?;
        std::fs::write(format!("{dir}/trace.{name}.folded"), out.trace_folded()).map_err(io)?;
    }
    Ok(())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match spec::BenchSpec::load().and_then(|s| compare::run(&s, a, b)) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    eprintln!("benchmark: host cores = {}", cores());
    let mut ok = true;
    for &traced in &args.trace {
        for name in &args.workloads {
            let out = match run_one(name, args.seed, args.seconds, traced, args.smoke) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("benchmark: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (metric, value, unit) in &out.metrics.0 {
                println!("{name} {metric} {value} {unit}");
            }
            for f in &out.gate.failures {
                eprintln!("benchmark: {name}: correctness: {f}");
            }
            ok &= out.gate.passed();
            if let Some(dir) = &args.out {
                if let Err(e) = save(dir, name, args.seed, args.seconds, traced, &out) {
                    eprintln!("benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", out.result_json());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchSpec;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    fn declared() -> BenchSpec {
        BenchSpec::parse(DECLARED).unwrap()
    }

    /// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with
    /// a letter or digit.
    fn valid_metric_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "serve.p99_ms",
            "core.prim-dijkstra.build_ms",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_workloads_and_run_length_match() {
        let json = Json::parse(DECLARED).unwrap();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, NAMES.to_vec());
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// All four workloads at smoke sizes, untraced and traced: every run
    /// passes its gate without a failed operation, and emits exactly the
    /// metric set `BENCHMARK.json` declares, with the declared units.
    #[test]
    fn smoke_runs_emit_the_declared_metrics() {
        let spec = declared();
        for traced in [false, true] {
            let want = if traced {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            for name in NAMES {
                let out = run_one(name, 3, 1.5, traced, true).unwrap();
                assert!(out.gate.passed(), "{name}: {:?}", out.gate.failures);
                assert_eq!(out.failed, 0, "{name} traced={traced}");
                let got: Vec<(&str, &str)> = out
                    .metrics
                    .0
                    .iter()
                    .map(|(n, _, u)| (n.as_str(), *u))
                    .collect();
                let mut got_sorted = got.clone();
                got_sorted.sort_unstable();
                let mut want_sorted: Vec<(&str, &str)> = want
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect();
                want_sorted.sort_unstable();
                assert_eq!(got_sorted, want_sorted, "{name} traced={traced}");
                for (n, v, _) in &out.metrics.0 {
                    assert!(v.is_finite(), "{name}: {n} = {v}");
                }
                if !traced {
                    for m in want {
                        let v = out.metrics.get(&m.name).unwrap();
                        assert!(v > 0.0, "{name}: end-to-end {} must never be 0", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn declared_names_follow_the_grammar() {
        let spec = declared();
        let all: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names must be unique");
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn arguments_parse() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-hot --seed 4 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workloads, vec!["serve-hot"]);
        assert_eq!((a.seed, a.seconds, a.trace.clone()), (4, 3.0, vec![true]));
        assert_eq!(parse_args(&[]).unwrap().trace, vec![false, true]);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
