//! `--compare A.json B.json`: two sets of runs (each a `results.json`
//! written by `--out`), one row per workload and metric, judged against
//! the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use bmst_obs::json::Json;

use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::quartiles;

/// `(workload, metric)` → values, over one results file's runs.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut out = Series::new();
    for run in runs {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is worse than A by more than the bound.
    Regression,
    /// Run-to-run spread on either side exceeds the bound, and B's runs do
    /// not all beat A's.
    Unresolved,
    /// Every run of B is better than every run of A.
    Better,
    /// Within the bound.
    Within,
    /// Per-layer metric: reported, not judged.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Unbounded => "-",
        }
    }
}

/// Judges B against A under `m`'s bound.
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = m.bound else {
        return Verdict::Unbounded;
    };
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse = |x: f64| sign * x;
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(y) < worse(x)));
    if all_better {
        return Verdict::Better;
    }
    let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    if spread(qa) > bound || spread(qb) > bound {
        return Verdict::Unresolved;
    }
    if worse(qb[1] - qa[1]) / qa[1].abs() > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

/// Five significant digits, without exponents.
fn num(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (4 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.digits$}")
}

/// Prints the comparison; returns whether any metric regressed.
pub fn run(spec: &BenchSpec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<36} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A-1"
    );
    let mut regressed = false;
    for ((workload, metric), va) in &a {
        let (Some(vb), Some(m)) = (
            b.get(&(workload.clone(), metric.clone())),
            spec.metric(metric),
        ) else {
            continue;
        };
        let fmt = |v: &[f64]| match quartiles(v) {
            Some([q1, q2, q3]) => format!("{} [{}, {}]", num(q2), num(q1), num(q3)),
            None => format!("{} (n=1)", num(v[0])),
        };
        let med = |v: &[f64]| quartiles(v).map_or(v[0], |q| q[1]);
        let verdict = judge(m, va, vb);
        regressed |= verdict == Verdict::Regression;
        println!(
            "{workload:<14} {metric:<36} {:>28} {:>28} {:>+7.2}%  {}",
            fmt(va),
            fmt(vb),
            (med(vb) / med(va) - 1.0) * 100.0,
            verdict.label()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "x".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn numbers_keep_five_significant_digits() {
        assert_eq!(num(1095824.0625), "1095824");
        assert_eq!(num(870.321), "870.32");
        assert_eq!(num(0.0027638), "0.0027638");
        assert_eq!(num(0.0), "0");
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&lower(0.1), &a, &[10.2, 10.3, 10.1, 10.2, 10.25]),
            Verdict::Within
        );
        assert_eq!(
            judge(&lower(0.1), &a, &[12.0, 12.1, 11.9, 12.0, 12.05]),
            Verdict::Regression
        );
        assert_eq!(
            judge(&lower(0.1), &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Better
        );
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(judge(&lower(0.1), &noisy, &a), Verdict::Unresolved);
        let mut higher = lower(0.1);
        higher.higher_is_better = true;
        assert_eq!(
            judge(&higher, &a, &[8.0, 8.1, 7.9, 8.0, 8.05]),
            Verdict::Regression
        );
        higher.bound = None;
        assert_eq!(judge(&higher, &a, &a), Verdict::Unbounded);
    }
}
