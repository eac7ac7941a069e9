//! The JSON-lines wire protocol.
//!
//! One request per line, one response line per accepted request — always.
//! Requests are JSON objects with an `"op"` discriminator (`"route"`,
//! `"status"`, `"shutdown"`) and an optional client-chosen `"id"` echoed
//! verbatim in the response so clients can pipeline. Responses carry
//! `"ok": true` with the payload, or `"ok": false` with a typed
//! `"error"` object (`kind` + `detail`, plus `retry_after_ms` for
//! `overloaded`).
//!
//! A malformed line never kills the connection: it produces a single
//! `bad_request` response (with whatever `id` could be recovered) and the
//! reader moves on to the next line.

use bmst_obs::json::{escape, Json};
use bmst_router::RouteAlgorithm;

/// Maximum accepted request-line length, a backstop against a client
/// streaming an unbounded line into server memory.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// A parsed request plus the client-supplied correlation id (echoed
/// verbatim; [`Json::Null`] when the request carried none).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The `"id"` field, any JSON value.
    pub id: Json,
    /// The operation to perform.
    pub request: Request,
}

/// The operations the server accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Route a netlist under per-request knobs.
    Route(Box<RouteRequest>),
    /// Return the server's counters and configuration.
    Status,
    /// Begin graceful shutdown (stop accepting, drain, exit).
    Shutdown,
}

/// Per-request routing knobs, each mapped onto the corresponding
/// `RouterConfig` field by the worker; absent knobs keep the server's
/// defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteRequest {
    /// The netlist in the workspace block format (`Netlist::from_str_block`).
    pub netlist: String,
    /// Registry name of the construction (`"bkrus"`, `"bprim"`, ...).
    pub algorithm: Option<String>,
    /// `eps` for critical nets (the JSON string `"inf"` means unbounded).
    pub eps_critical: Option<f64>,
    /// `eps` for normal nets.
    pub eps_normal: Option<f64>,
    /// `eps` for relaxed nets.
    pub eps_relaxed: Option<f64>,
    /// End-to-end time budget in milliseconds, queue wait included.
    pub budget_ms: Option<u64>,
    /// Cap on the degradation ladder's stepped relaxations.
    pub max_relaxations: Option<usize>,
    /// Whether the report cache may serve/store this request (default
    /// true; the cache is bit-parity so opting out only costs time).
    pub use_cache: bool,
}

/// Recovers the `"id"` from a line that failed to parse as a request, so
/// even the `bad_request` response correlates when possible.
fn recovered_id(value: Option<&Json>) -> Json {
    value.cloned().unwrap_or(Json::Null)
}

/// Reads an eps knob: a non-negative finite number or the string `"inf"`.
fn parse_eps(v: &Json, key: &str) -> Result<f64, String> {
    match v {
        Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Json::Num(x) if x.is_finite() && *x >= 0.0 => Ok(*x),
        _ => Err(format!("{key} must be a non-negative number or \"inf\"")),
    }
}

/// Reads a non-negative integer knob.
fn parse_u64(v: &Json, key: &str) -> Result<u64, String> {
    match v.as_f64() {
        Some(x) if x >= 0.0 && x.is_finite() => {
            // Metrics-grade conversion: budgets and caps comfortably fit
            // f64's exact-integer range.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(x as u64)
        }
        _ => Err(format!("{key} must be a non-negative integer")),
    }
}

/// Parses one request line. On failure returns the best-effort id plus a
/// human-readable detail for the `bad_request` response.
pub fn parse_line(line: &str) -> Result<Envelope, (Json, String)> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            Json::Null,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let value = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return Err((Json::Null, format!("invalid JSON: {e}"))),
    };
    let id = recovered_id(value.get("id"));
    if value.as_obj().is_none() {
        return Err((id, "request must be a JSON object".to_owned()));
    }
    let op = match value.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return Err((id, "missing or non-string \"op\"".to_owned())),
    };
    let request = match op {
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        "route" => parse_route(&value).map_err(|detail| (id.clone(), detail))?,
        other => {
            return Err((
                id,
                format!("unknown op {other:?} (expected route, status, or shutdown)"),
            ))
        }
    };
    Ok(Envelope { id, request })
}

/// Parses the knobs of a `"route"` request.
fn parse_route(value: &Json) -> Result<Request, String> {
    let netlist = match value.get("netlist").and_then(Json::as_str) {
        Some(s) => s.to_owned(),
        None => return Err("route requires a string \"netlist\"".to_owned()),
    };
    let algorithm = match value.get("algorithm") {
        None => None,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| "algorithm must be a string".to_owned())?;
            if RouteAlgorithm::from_name(name).is_none() {
                return Err(format!("unknown algorithm {name:?}"));
            }
            Some(name.to_owned())
        }
    };
    let mut eps = [None, None, None];
    for (slot, key) in eps
        .iter_mut()
        .zip(["eps_critical", "eps_normal", "eps_relaxed"])
    {
        if let Some(v) = value.get(key) {
            *slot = Some(parse_eps(v, key)?);
        }
    }
    let budget_ms = match value.get("budget_ms") {
        None => None,
        Some(v) => Some(parse_u64(v, "budget_ms")?),
    };
    let max_relaxations = match value.get("max_relaxations") {
        None => None,
        Some(v) => {
            let n = parse_u64(v, "max_relaxations")?;
            Some(usize::try_from(n).unwrap_or(usize::MAX))
        }
    };
    let use_cache = match value.get("cache") {
        None => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("cache must be a boolean".to_owned()),
    };
    Ok(Request::Route(Box::new(RouteRequest {
        netlist,
        algorithm,
        eps_critical: eps[0],
        eps_normal: eps[1],
        eps_relaxed: eps[2],
        budget_ms,
        max_relaxations,
        use_cache,
    })))
}

/// Renders a successful `route` response. `report_json` is the rendered
/// `RouteReport` — spliced in verbatim so the cache's bit-parity guarantee
/// extends to the wire.
pub fn render_route_ok(id: &Json, cached: bool, report_json: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"cached\":{cached},\"report\":{report_json}}}")
}

/// Renders a successful `status`/`shutdown` response around a payload
/// object.
pub fn render_ok(id: &Json, key: &str, payload: &Json) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"{key}\":{payload}}}")
}

/// Renders a typed error response.
pub fn render_error(id: &Json, kind: &str, detail: &str, retry_after_ms: Option<u64>) -> String {
    let retry = match retry_after_ms {
        Some(ms) => format!(",\"retry_after_ms\":{ms}"),
        None => String::new(),
    };
    // `escape` renders a complete JSON string literal, quotes included.
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"{kind}\",\"detail\":{}{retry}}}}}",
        escape(detail)
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn parses_minimal_route() {
        let env =
            parse_line(r#"{"op":"route","netlist":"net a normal\n0 0\n1 1\nend\n"}"#).unwrap();
        assert_eq!(env.id, Json::Null);
        let Request::Route(r) = env.request else {
            panic!("expected route")
        };
        assert!(r.netlist.starts_with("net a"));
        assert!(r.use_cache);
        assert_eq!(r.algorithm, None);
        assert_eq!(r.budget_ms, None);
    }

    #[test]
    fn parses_full_knobs_and_echoes_id() {
        let env = parse_line(
            r#"{"id":42,"op":"route","netlist":"x","algorithm":"bprim","eps_critical":0.25,"eps_relaxed":"inf","budget_ms":50,"max_relaxations":1,"cache":false}"#,
        )
        .unwrap();
        assert_eq!(env.id, Json::Num(42.0));
        let Request::Route(r) = env.request else {
            panic!("expected route")
        };
        assert_eq!(r.algorithm.as_deref(), Some("bprim"));
        assert_eq!(r.eps_critical, Some(0.25));
        assert_eq!(r.eps_normal, None);
        assert_eq!(r.eps_relaxed, Some(f64::INFINITY));
        assert_eq!(r.budget_ms, Some(50));
        assert_eq!(r.max_relaxations, Some(1));
        assert!(!r.use_cache);
    }

    #[test]
    fn status_and_shutdown_ops() {
        assert_eq!(
            parse_line(r#"{"op":"status"}"#).unwrap().request,
            Request::Status
        );
        assert_eq!(
            parse_line(r#"{"id":"s","op":"shutdown"}"#).unwrap().request,
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_lines_recover_an_id_when_possible() {
        let (id, detail) = parse_line("not json").unwrap_err();
        assert_eq!(id, Json::Null);
        assert!(detail.contains("invalid JSON"), "{detail}");

        let (id, _) = parse_line(r#"{"id":"r7","op":"explode"}"#).unwrap_err();
        assert_eq!(id, Json::Str("r7".to_owned()));

        let (id, detail) = parse_line(r#"{"id":1,"op":"route"}"#).unwrap_err();
        assert_eq!(id, Json::Num(1.0));
        assert!(detail.contains("netlist"), "{detail}");
    }

    #[test]
    fn rejects_bad_knobs() {
        for bad in [
            r#"{"op":"route","netlist":"x","eps_critical":-1}"#,
            r#"{"op":"route","netlist":"x","eps_critical":"huge"}"#,
            r#"{"op":"route","netlist":"x","algorithm":"nope"}"#,
            r#"{"op":"route","netlist":"x","budget_ms":-5}"#,
            r#"{"op":"route","netlist":"x","cache":"yes"}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(parse_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn response_rendering_is_single_line_json() {
        let ok = render_route_ok(&Json::Str("a".into()), true, "{\"nets\":[]}");
        assert!(!ok.contains('\n'));
        let parsed = Json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("cached"), Some(&Json::Bool(true)));

        let err = render_error(&Json::Null, "overloaded", "queue full", Some(25));
        let parsed = Json::parse(&err).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(error.get("retry_after_ms"), Some(&Json::Num(25.0)));
    }
}
