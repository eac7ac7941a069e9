//! Reading `BENCHMARK.json`: the declared metrics, with the bound by which
//! each end-to-end metric may worsen.

use bmst_obs::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (`None` for per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<Json>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k:?}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn load() -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Self::parse(&text)
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
