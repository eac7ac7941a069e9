//! What one run produces: the metrics, the correctness verdict, and (for
//! traced runs) the span trees to write out when the benchmark ends.

use bmst_obs::json::Json;
use bmst_obs::SpanTreeRecorder;

/// Named metrics with their units, in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_owned(), Json::Num(*value)),
                            ("unit".to_owned(), Json::Str((*unit).to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The correctness gate's findings.
#[derive(Debug, Default)]
pub struct Gate {
    /// Outputs compared against an independent computation.
    pub checked: usize,
    pub failures: Vec<String>,
}

impl Gate {
    /// Counts one check, keeping its failure (up to 20 are kept).
    pub fn check(&mut self, result: Result<(), String>) {
        self.checked += 1;
        if let Err(msg) = result {
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }

    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(msg()) });
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub gate: Gate,
    pub attempted: u64,
    pub failed: u64,
    /// Span trees of a traced run, by phase.
    pub traces: Vec<(&'static str, std::sync::Arc<SpanTreeRecorder>)>,
}

impl Outcome {
    /// The result line the benchmark prints last.
    pub fn result_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.gate.passed())),
            (
                "attempted".to_owned(),
                Json::from_u64(self.attempted.max(1)),
            ),
            ("failed".to_owned(), Json::from_u64(self.failed)),
            ("metrics".to_owned(), self.metrics.to_json()),
        ])
    }

    /// `trace.<workload>.json`: each phase's span tree (cumulative and self
    /// nanoseconds, counts) plus its counters and histograms.
    pub fn trace_json(&self) -> Json {
        Json::Obj(
            self.traces
                .iter()
                .map(|(phase, rec)| {
                    let nodes = rec.nodes();
                    let spans = nodes
                        .iter()
                        .map(|(path, node)| {
                            (
                                path.clone(),
                                Json::Obj(vec![
                                    ("count".to_owned(), Json::from_u64(node.count)),
                                    ("cum_ns".to_owned(), Json::from_u64(node.cum_nanos)),
                                    (
                                        "self_ns".to_owned(),
                                        Json::from_u64(crate::layers::self_nanos(&nodes, path)),
                                    ),
                                    ("max_ns".to_owned(), Json::from_u64(node.max_nanos)),
                                ]),
                            )
                        })
                        .collect();
                    (
                        (*phase).to_owned(),
                        Json::Obj(vec![
                            ("spans".to_owned(), Json::Obj(spans)),
                            ("summary".to_owned(), rec.summary().to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// `trace.<workload>.folded`: collapsed stacks of self microseconds,
    /// each prefixed with its phase.
    pub fn trace_folded(&self) -> String {
        let mut out = String::new();
        for (phase, rec) in &self.traces {
            for line in rec.render_folded().lines() {
                out.push_str(phase);
                out.push(';');
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}
