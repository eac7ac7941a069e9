//! Argument parsing for the `bmst` tool.

use std::error::Error;
use std::fmt;

use bmst_router::RouteAlgorithm;

/// Errors produced by the CLI (bad usage, I/O, infeasible instances).
///
/// Carries the process exit code alongside the message so `main` can
/// report a typed status: `1` for runtime errors (I/O, parse,
/// infeasible), `2` for usage errors, `3` for the `--strict` gate.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable description, printed to stderr.
    pub message: String,
    /// Process exit code (never 0).
    pub exit_code: u8,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for CliError {}

impl CliError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CliError::with_code(msg, 1)
    }

    pub(crate) fn with_code(msg: impl Into<String>, exit_code: u8) -> Self {
        CliError {
            message: msg.into(),
            exit_code,
        }
    }

    /// Reclassifies this error as a usage error (exit code 2). Applied to
    /// everything `parse` rejects, so bad flags are distinguishable from
    /// runtime failures in scripts.
    pub(crate) fn into_usage(mut self) -> Self {
        self.exit_code = 2;
        self
    }
}

/// The routing algorithm selected with `--algorithm`: either a registered
/// tree builder, or the zero-skew clock construction (which lives outside
/// the registry — it builds equal-delay trees, not bounded ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// A construction resolved from the builder registry
    /// (`bmst algorithms` lists them).
    Builder(RouteAlgorithm),
    /// Zero-skew clock tree (DME-style; ignores `--eps`).
    ZeroSkew,
}

impl Algorithm {
    /// The name the algorithm was registered (or hard-wired) under.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Builder(a) => a.name(),
            Algorithm::ZeroSkew => "zskew",
        }
    }

    fn from_name(s: &str) -> Result<Self, CliError> {
        match s {
            "zskew" | "zero-skew" | "dme" => Ok(Algorithm::ZeroSkew),
            other => RouteAlgorithm::from_name(other)
                .map(Algorithm::Builder)
                .ok_or_else(|| unknown_algorithm(other, true)),
        }
    }
}

/// Builds the unknown-algorithm error, listing every valid name straight
/// from the registry (plus `zskew` where the clock construction applies).
fn unknown_algorithm(name: &str, with_zskew: bool) -> CliError {
    let mut names: Vec<&str> = RouteAlgorithm::all().map(|a| a.name()).collect();
    if with_zskew {
        names.push("zskew");
    }
    CliError::new(format!(
        "unknown algorithm {name:?} (valid: {})",
        names.join(", ")
    ))
}

/// Resolves a netlist algorithm: registry builders only (no clock trees —
/// netlist routing needs path-length bounds).
fn netlist_algorithm(s: &str) -> Result<RouteAlgorithm, CliError> {
    RouteAlgorithm::from_name(s).ok_or_else(|| unknown_algorithm(s, false))
}

/// Parsed `route` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteArgs {
    /// Input net file.
    pub net: String,
    /// Selected algorithm.
    pub algorithm: Algorithm,
    /// Upper-bound slack `eps`.
    pub eps: f64,
    /// Optional lower-bound slack `eps1`.
    pub eps1: Option<f64>,
    /// Prim-Dijkstra blend parameter.
    pub pd_c: f64,
    /// Optional SVG output path.
    pub svg: Option<String>,
    /// List tree edges in the report.
    pub edges: bool,
    /// Re-verify the tree with the invariant auditor after construction.
    pub audit: bool,
    /// Write a JSON-lines observability trace to this path.
    pub trace: Option<String>,
    /// Append an instrumentation profile (span tree + counters) to the
    /// report.
    pub profile: bool,
    /// Write collapsed-stack (flamegraph-compatible) profile lines to
    /// this path.
    pub profile_folded: Option<String>,
}

/// What `gen` should generate.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSource {
    /// A uniform random net.
    Random {
        /// Number of sinks.
        sinks: usize,
        /// RNG seed.
        seed: u64,
        /// Die side length.
        side: f64,
    },
    /// A named paper benchmark.
    Bench(String),
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bmst route ...`
    Route(RouteArgs),
    /// `bmst gen ...`
    Gen {
        /// What to generate.
        source: GenSource,
        /// Output path (`None` = stdout).
        out: Option<String>,
    },
    /// `bmst stats <net>`
    Stats {
        /// Input net file.
        net: String,
    },
    /// `bmst netlist <file>` — route a whole netlist.
    Netlist {
        /// Input netlist file (block format).
        file: String,
        /// The registered construction routing every net.
        algorithm: RouteAlgorithm,
        /// Worker threads (`1` = serial; output is identical either way).
        jobs: usize,
        /// Write a JSON-lines observability trace to this path.
        trace: Option<String>,
        /// Append an instrumentation profile to the report.
        profile: bool,
        /// Write collapsed-stack profile lines to this path.
        profile_folded: Option<String>,
        /// Cap on the router's eps-relaxation rungs (`None` = policy
        /// default; `0` disables stepping, the unbounded/SPT rungs remain).
        max_relaxations: Option<usize>,
        /// Write per-net failures as JSON lines to this path.
        failure_log: Option<String>,
        /// Exit with code 3 unless every net routed cleanly (no degraded,
        /// no failed nets).
        strict: bool,
    },
    /// `bmst algorithms` — list every registered construction.
    Algorithms,
    /// `bmst serve` — run the long-lived routing service (DESIGN §5i).
    Serve(ServeArgs),
    /// `bmst --help`
    Help,
}

/// Parsed `serve` arguments, mirroring `bmst_serve::ServeConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Worker threads routing admitted requests.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue: usize,
    /// Graceful-shutdown drain deadline in milliseconds.
    pub drain_ms: u64,
    /// LRU report-cache capacity in entries (`0` disables caching).
    pub cache: usize,
    /// Default per-request budget in milliseconds (`None` = unbounded).
    pub budget_ms: Option<u64>,
    /// Fault-injection seed (requires a `fault-inject` build).
    pub fault_seed: Option<u64>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7463".to_owned(),
            workers: 4,
            queue: 64,
            drain_ms: 2000,
            cache: 128,
            budget_ms: None,
            fault_seed: None,
        }
    }
}

/// A parsed `--flag value` pair (`None` for boolean flags).
type Flag = (String, Option<String>);

/// Flags that take no value. Shared by [`split_flags`] and the per-command
/// matchers so a new boolean flag only needs one entry here.
const BOOL_FLAGS: &[&str] = &["edges", "audit", "help", "profile", "strict"];

/// Splits `argv` into positionals and `--flag value` pairs.
fn split_flags(args: &[String]) -> Result<(Vec<String>, Vec<Flag>), CliError> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            // Boolean flags take no value; everything else consumes one.
            let value = if BOOL_FLAGS.contains(&name) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| CliError::new(format!("--{name} needs a value")))?
                        .clone(),
                )
            };
            flags.push((name.to_owned(), value));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn parse_f64(name: &str, v: &str) -> Result<f64, CliError> {
    v.parse()
        .map_err(|_| CliError::new(format!("--{name}: {v:?} is not a number")))
}

/// Parses a non-negative integer flag value (`usize`/`u64` alike).
fn parse_count<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError::new(format!("--{name}: {v:?} is not a count")))
}

/// Parses a full invocation (program name already stripped).
pub(crate) fn parse(argv: &[String]) -> Result<Command, CliError> {
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        return Ok(Command::Help);
    }
    let cmd = argv[0].as_str();
    let rest = &argv[1..];
    let (positional, flags) = split_flags(rest)?;

    match cmd {
        "route" => {
            let net = positional
                .first()
                .ok_or_else(|| CliError::new("route needs a net file"))?
                .clone();
            let mut args = RouteArgs {
                net,
                algorithm: Algorithm::Builder(RouteAlgorithm::bkrus()),
                eps: 0.2,
                eps1: None,
                pd_c: 0.5,
                svg: None,
                edges: false,
                audit: false,
                trace: None,
                profile: false,
                profile_folded: None,
            };
            for (name, value) in flags {
                let v = value.as_deref();
                match (name.as_str(), v) {
                    ("algorithm", Some(v)) => args.algorithm = Algorithm::from_name(v)?,
                    ("eps", Some(v)) => args.eps = parse_f64("eps", v)?,
                    ("eps1", Some(v)) => args.eps1 = Some(parse_f64("eps1", v)?),
                    ("pd-c", Some(v)) => args.pd_c = parse_f64("pd-c", v)?,
                    ("svg", Some(v)) => args.svg = Some(v.to_owned()),
                    ("trace", Some(v)) => args.trace = Some(v.to_owned()),
                    ("edges", _) => args.edges = true,
                    ("audit", _) => args.audit = true,
                    ("profile", _) => args.profile = true,
                    ("profile-folded", Some(v)) => args.profile_folded = Some(v.to_owned()),
                    (other, _) => {
                        return Err(CliError::new(format!("route: unknown flag --{other}")))
                    }
                }
            }
            Ok(Command::Route(args))
        }
        "gen" => {
            let mut sinks = None;
            let mut seed = 1u64;
            let mut side = 100.0;
            let mut bench = None;
            let mut out = None;
            for (name, value) in flags {
                let v = value.as_deref();
                match (name.as_str(), v) {
                    ("sinks", Some(v)) => {
                        sinks =
                            Some(v.parse().map_err(|_| {
                                CliError::new(format!("--sinks: {v:?} is not a count"))
                            })?)
                    }
                    ("seed", Some(v)) => {
                        seed = v
                            .parse()
                            .map_err(|_| CliError::new(format!("--seed: {v:?} is not a seed")))?
                    }
                    ("side", Some(v)) => side = parse_f64("side", v)?,
                    ("bench", Some(v)) => bench = Some(v.to_owned()),
                    ("out", Some(v)) => out = Some(v.to_owned()),
                    (other, _) => {
                        return Err(CliError::new(format!("gen: unknown flag --{other}")))
                    }
                }
            }
            let source = match (sinks, bench) {
                (Some(_), Some(_)) => {
                    return Err(CliError::new("gen: --sinks and --bench are exclusive"))
                }
                (Some(sinks), None) => GenSource::Random { sinks, seed, side },
                (None, Some(b)) => GenSource::Bench(b),
                (None, None) => return Err(CliError::new("gen: need --sinks N or --bench NAME")),
            };
            Ok(Command::Gen { source, out })
        }
        "stats" => {
            let net = positional
                .first()
                .ok_or_else(|| CliError::new("stats needs a net file"))?
                .clone();
            Ok(Command::Stats { net })
        }
        "netlist" => {
            let file = positional
                .first()
                .ok_or_else(|| CliError::new("netlist needs a netlist file"))?
                .clone();
            let mut algorithm = RouteAlgorithm::bkrus();
            let mut jobs = 1usize;
            let mut trace = None;
            let mut profile = false;
            let mut profile_folded = None;
            let mut max_relaxations = None;
            let mut failure_log = None;
            let mut strict = false;
            for (name, value) in flags {
                match (name.as_str(), value.as_deref()) {
                    ("algorithm", Some(v)) => algorithm = netlist_algorithm(v)?,
                    ("jobs", Some(v)) => {
                        jobs = v.parse().map_err(|_| {
                            CliError::new(format!("--jobs: {v:?} is not a thread count"))
                        })?;
                        if jobs == 0 {
                            return Err(CliError::new("--jobs must be at least 1"));
                        }
                    }
                    ("trace", Some(v)) => trace = Some(v.to_owned()),
                    ("profile", _) => profile = true,
                    ("profile-folded", Some(v)) => profile_folded = Some(v.to_owned()),
                    ("max-relaxations", Some(v)) => {
                        max_relaxations = Some(v.parse().map_err(|_| {
                            CliError::new(format!("--max-relaxations: {v:?} is not a count"))
                        })?);
                    }
                    ("failure-log", Some(v)) => failure_log = Some(v.to_owned()),
                    ("strict", _) => strict = true,
                    (other, _) => {
                        return Err(CliError::new(format!("netlist: unknown flag --{other}")))
                    }
                }
            }
            Ok(Command::Netlist {
                file,
                algorithm,
                jobs,
                trace,
                profile,
                profile_folded,
                max_relaxations,
                failure_log,
                strict,
            })
        }
        "algorithms" => Ok(Command::Algorithms),
        "serve" => {
            if let Some(extra) = positional.first() {
                return Err(CliError::new(format!(
                    "serve takes no positional argument (got {extra:?})"
                )));
            }
            let mut args = ServeArgs::default();
            for (name, value) in flags {
                match (name.as_str(), value.as_deref()) {
                    ("addr", Some(v)) => args.addr = v.to_owned(),
                    ("workers", Some(v)) => {
                        args.workers = parse_count("workers", v)?;
                        if args.workers == 0 {
                            return Err(CliError::new("--workers must be at least 1"));
                        }
                    }
                    ("queue", Some(v)) => {
                        args.queue = parse_count("queue", v)?;
                        if args.queue == 0 {
                            return Err(CliError::new("--queue must be at least 1"));
                        }
                    }
                    ("drain-ms", Some(v)) => args.drain_ms = parse_count("drain-ms", v)?,
                    ("cache", Some(v)) => args.cache = parse_count("cache", v)?,
                    ("budget-ms", Some(v)) => {
                        args.budget_ms = Some(parse_count("budget-ms", v)?);
                    }
                    ("fault-seed", Some(v)) => {
                        args.fault_seed = Some(v.parse().map_err(|_| {
                            CliError::new(format!("--fault-seed: {v:?} is not a seed"))
                        })?);
                    }
                    (other, _) => {
                        return Err(CliError::new(format!("serve: unknown flag --{other}")))
                    }
                }
            }
            Ok(Command::Serve(args))
        }
        other => Err(CliError::new(format!(
            "unknown command {other:?} (try `bmst --help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_route_defaults() {
        let Command::Route(a) = parse(&argv("route net.txt")).unwrap() else {
            panic!()
        };
        assert_eq!(a.algorithm, Algorithm::Builder(RouteAlgorithm::bkrus()));
        assert_eq!(a.eps, 0.2);
        assert!(!a.edges);
        assert!(!a.audit);
    }

    #[test]
    fn parse_route_full() {
        let Command::Route(a) = parse(&argv(
            "route net.txt --algorithm steiner --eps 0.5 --eps1 0.1 --svg t.svg --edges --audit",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.algorithm, Algorithm::Builder(RouteAlgorithm::steiner()));
        assert_eq!(a.eps, 0.5);
        assert_eq!(a.eps1, Some(0.1));
        assert_eq!(a.svg.as_deref(), Some("t.svg"));
        assert!(a.edges);
        assert!(a.audit);
    }

    #[test]
    fn parse_gen_variants() {
        assert_eq!(
            parse(&argv("gen --sinks 5 --seed 2 --side 50")).unwrap(),
            Command::Gen {
                source: GenSource::Random {
                    sinks: 5,
                    seed: 2,
                    side: 50.0
                },
                out: None
            }
        );
        assert_eq!(
            parse(&argv("gen --bench p3 --out x.txt")).unwrap(),
            Command::Gen {
                source: GenSource::Bench("p3".into()),
                out: Some("x.txt".into())
            }
        );
        assert!(parse(&argv("gen")).is_err());
        assert!(parse(&argv("gen --sinks 5 --bench p1")).is_err());
    }

    #[test]
    fn missing_value_errors() {
        assert!(parse(&argv("route net.txt --eps")).is_err());
    }

    #[test]
    fn unknown_flag_at_end_of_argv_reports_missing_value() {
        // An unknown non-boolean flag as the last token must produce the
        // "needs a value" error, not a panic or silent acceptance.
        let err = split_flags(&argv("net.txt --bogus")).unwrap_err();
        assert!(err.message.contains("--bogus needs a value"), "got {err}");
    }

    #[test]
    fn bool_flags_consume_no_value() {
        let (positional, flags) =
            split_flags(&argv("net.txt --audit --eps 0.3 --profile")).unwrap();
        assert_eq!(positional, vec!["net.txt"]);
        assert_eq!(
            flags,
            vec![
                ("audit".to_owned(), None),
                ("eps".to_owned(), Some("0.3".to_owned())),
                ("profile".to_owned(), None),
            ]
        );
    }

    #[test]
    fn parse_route_trace_and_profile() {
        let Command::Route(a) = parse(&argv("route net.txt --trace out.jsonl --profile")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.trace.as_deref(), Some("out.jsonl"));
        assert!(a.profile);
    }

    #[test]
    fn parse_netlist_trace_and_profile() {
        let Command::Netlist {
            algorithm,
            jobs,
            trace,
            profile,
            ..
        } = parse(&argv(
            "netlist nets.txt --algorithm bkh2 --trace t.jsonl --profile",
        ))
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(algorithm.name(), "bkh2");
        assert_eq!(jobs, 1);
        assert_eq!(trace.as_deref(), Some("t.jsonl"));
        assert!(profile);
    }

    #[test]
    fn parse_profile_folded_takes_a_path() {
        let Command::Route(a) = parse(&argv(
            "route net.txt --profile --profile-folded prof.folded",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(a.profile);
        assert_eq!(a.profile_folded.as_deref(), Some("prof.folded"));
        // Works independently of --profile, and on netlist too.
        let Command::Netlist { profile_folded, .. } =
            parse(&argv("netlist nets.txt --profile-folded n.folded")).unwrap()
        else {
            panic!()
        };
        assert_eq!(profile_folded.as_deref(), Some("n.folded"));
        // A value is required.
        assert!(parse(&argv("route net.txt --profile-folded")).is_err());
    }

    #[test]
    fn parse_netlist_jobs() {
        let Command::Netlist { jobs, .. } = parse(&argv("netlist nets.txt --jobs 4")).unwrap()
        else {
            panic!()
        };
        assert_eq!(jobs, 4);
        assert!(parse(&argv("netlist nets.txt --jobs 0")).is_err());
        assert!(parse(&argv("netlist nets.txt --jobs many")).is_err());
        // Clock trees have no path bound: not a netlist algorithm.
        assert!(parse(&argv("netlist nets.txt --algorithm zskew")).is_err());
    }

    #[test]
    fn parse_netlist_robustness_flags() {
        let Command::Netlist {
            max_relaxations,
            failure_log,
            strict,
            ..
        } = parse(&argv(
            "netlist nets.txt --max-relaxations 3 --failure-log f.jsonl --strict",
        ))
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(max_relaxations, Some(3));
        assert_eq!(failure_log.as_deref(), Some("f.jsonl"));
        assert!(strict);
        assert!(parse(&argv("netlist nets.txt --max-relaxations lots")).is_err());
        // Defaults: policy-default relaxations, no log, lenient.
        let Command::Netlist {
            max_relaxations,
            failure_log,
            strict,
            ..
        } = parse(&argv("netlist nets.txt")).unwrap()
        else {
            panic!()
        };
        assert_eq!(max_relaxations, None);
        assert!(failure_log.is_none());
        assert!(!strict);
    }

    #[test]
    fn parse_algorithms_command() {
        assert_eq!(parse(&argv("algorithms")).unwrap(), Command::Algorithms);
    }

    #[test]
    fn algorithm_aliases() {
        let gabow = Algorithm::from_name("bmst-g").unwrap();
        assert_eq!(gabow.name(), "gabow");
        let steiner = Algorithm::from_name("bkst").unwrap();
        assert_eq!(steiner.name(), "steiner");
        assert_eq!(Algorithm::from_name("dme").unwrap(), Algorithm::ZeroSkew);
        let err = Algorithm::from_name("magic").unwrap_err();
        // The error enumerates the registry so users see every valid name.
        assert!(err.message.contains("bkrus"), "{err}");
        assert!(err.message.contains("steiner"), "{err}");
        assert!(err.message.contains("zskew"), "{err}");
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_serve_defaults_and_knobs() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        let Command::Serve(a) = parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 2 --queue 8 --drain-ms 500 \
             --cache 0 --budget-ms 250 --fault-seed 7",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(a.workers, 2);
        assert_eq!(a.queue, 8);
        assert_eq!(a.drain_ms, 500);
        assert_eq!(a.cache, 0);
        assert_eq!(a.budget_ms, Some(250));
        assert_eq!(a.fault_seed, Some(7));
    }

    #[test]
    fn parse_serve_rejects_bad_knobs() {
        assert!(parse(&argv("serve --workers 0")).is_err());
        assert!(parse(&argv("serve --queue 0")).is_err());
        assert!(parse(&argv("serve --workers many")).is_err());
        assert!(parse(&argv("serve --budget-ms -5")).is_err());
        assert!(parse(&argv("serve extra")).is_err());
        assert!(parse(&argv("serve --wat 3")).is_err());
    }
}
