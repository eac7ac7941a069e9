//! Implementation of the `bmst` command line tool.
//!
//! Kept as a library so every command is unit-testable; `main.rs` is a thin
//! wrapper. Argument parsing is hand-rolled (the workspace's dependency
//! policy allows no CLI crates), in the conventional
//! `command [positional] --flag value` shape.
//!
//! ```text
//! bmst route <net.txt> [--algorithm bkrus] [--eps 0.2] [--eps1 0.0] [--svg out.svg]
//! bmst gen  (--sinks N [--seed S] | --bench p1) [--out net.txt]
//! bmst stats <net.txt>
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Algorithm, CliError, Command, GenSource, RouteArgs};
pub use commands::run;

/// Entry point used by `main.rs`: parses `argv` (without the program name)
/// and runs the command, returning the text to print.
///
/// # Errors
///
/// [`CliError`] for bad usage, unreadable files, or infeasible instances.
pub fn run_cli(argv: &[String]) -> Result<String, CliError> {
    let cmd = args::parse(argv).map_err(CliError::into_usage)?;
    commands::run(cmd)
}

/// The usage string printed on `--help` or bad invocations.
pub const USAGE: &str = "\
bmst — bounded path length routing trees (Oh/Pyo/Pedram, ED&TC 1996)

USAGE:
  bmst route <net.txt> [OPTIONS]   construct a routing tree for a net file
  bmst gen [OPTIONS]               generate a net file
  bmst stats <net.txt>             print net characteristics (Table 1 style)
  bmst algorithms                  list every registered construction
  bmst netlist <nets.txt> [--algorithm A] [--jobs N] [--trace F] [--profile]
                                   route a whole netlist, print the report
  bmst serve [OPTIONS]             run the JSON-lines routing service until
                                   SIGTERM/ctrl-c, then drain and summarise

NETLIST OPTIONS:
  --algorithm <A>   any registered construction (see `bmst algorithms`)
  --jobs <N>        route nets on N worker threads (default: 1). The report
                    is assembled in input order, so output is byte-identical
                    for every N.
  --max-relaxations <N>
                    degradation-ladder budget: how many stepped eps
                    relaxations to try before the unbounded rung and the
                    SPT fallback (default: 2; 0 disables stepping)
  --failure-log <F> write per-net failure diagnostics (final error plus the
                    full relaxation attempt trail) as JSON lines to F
  --strict          exit with code 3 when any net fails or is routed
                    degraded (relaxed eps or SPT fallback)
  --profile         append the span-tree profile to the report (per-worker
                    spans are merged, so output is stable for every --jobs N)
  --profile-folded <F>
                    write collapsed-stack profile lines to F (feed to any
                    flamegraph tool)

ROUTE OPTIONS:
  --algorithm <A>   any name or alias from `bmst algorithms`, or zskew
                    (default: bkrus)
  --eps <E>         radius slack: longest path <= (1+E)*R   (default: 0.2)
  --eps1 <E1>       also enforce the lower bound E1*R (spanning only)
  --pd-c <C>        blend parameter for `pd` (Prim-Dijkstra)  (default: 0.5)
  --svg <FILE>      render the tree to an SVG file
  --edges           list the tree edges
  --audit           re-verify the tree with the invariant auditor (structure,
                    path tables, merge consistency, bound window)
  --trace <FILE>    write a JSON-lines observability trace: span timings,
                    structured events, then aggregated counters/histograms
  --profile         append the span-tree profile: per-path cumulative/self
                    wall time, call counts, and counters (plus allocation
                    columns when built with --features alloc-profile)
  --profile-folded <F>
                    write the profile as collapsed-stack lines to F
                    (flamegraph-compatible: `path;to;span micros`)

SERVE OPTIONS:
  --addr <A>        bind address (default: 127.0.0.1:7463; port 0 = free port)
  --workers <N>     routing worker threads (default: 4)
  --queue <N>       admission-queue capacity; requests beyond it are shed
                    with a typed `overloaded` response (default: 64)
  --drain-ms <MS>   graceful-shutdown drain deadline before in-flight work
                    is cancelled through its tokens (default: 2000)
  --cache <N>       LRU report-cache entries, bit-parity with cold routing
                    (default: 128; 0 disables)
  --budget-ms <MS>  default per-request deadline, queue wait included
                    (default: unbounded; requests may set their own)
  --fault-seed <S>  deterministic fault-injection seed (builds with
                    --features fault-inject only)

GEN OPTIONS:
  --sinks <N>       uniform random net with N sinks
  --seed <S>        RNG seed (default: 1)
  --side <L>        die side length (default: 100)
  --bench <NAME>    a named paper benchmark instead: p1 p2 p3 p4 pr1 pr2 r1..r5
  --out <FILE>      write to FILE instead of stdout
";

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn help_is_usage() {
        let out = run_cli(&argv("--help")).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let err = run_cli(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn gen_and_route_round_trip() {
        let dir = std::env::temp_dir().join("bmst_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        let svg_path = dir.join("tree.svg");

        let out = run_cli(&argv(&format!(
            "gen --sinks 8 --seed 7 --out {}",
            net_path.display()
        )))
        .unwrap();
        assert!(out.contains("8 sinks"));

        let out = run_cli(&argv(&format!(
            "route {} --algorithm bkrus --eps 0.3 --edges --svg {}",
            net_path.display(),
            svg_path.display()
        )))
        .unwrap();
        assert!(out.contains("cost"), "{out}");
        assert!(out.contains("radius"));
        assert!(svg_path.exists());
    }

    #[test]
    fn stats_prints_radius() {
        let dir = std::env::temp_dir().join("bmst_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        run_cli(&argv(&format!(
            "gen --bench p1 --out {}",
            net_path.display()
        )))
        .unwrap();
        let out = run_cli(&argv(&format!("stats {}", net_path.display()))).unwrap();
        assert!(out.contains("R ="));
        assert!(out.contains("points = 6"));
    }

    #[test]
    fn every_algorithm_routes() {
        let dir = std::env::temp_dir().join("bmst_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        run_cli(&argv(&format!(
            "gen --sinks 6 --seed 3 --out {}",
            net_path.display()
        )))
        .unwrap();
        // Every registry entry (by canonical name) plus the clock construction.
        let names: Vec<String> = bmst_router::RouteAlgorithm::all()
            .map(|a| a.name().to_owned())
            .chain(std::iter::once("zskew".to_owned()))
            .collect();
        assert!(names.len() >= 9, "registry unexpectedly small: {names:?}");
        for alg in &names {
            // The Elmore construction's delay bound can be infeasible at a
            // tight eps; give it headroom.
            let eps = if alg == "elmore-bkrus" { 2.0 } else { 0.4 };
            let out = run_cli(&argv(&format!(
                "route {} --algorithm {alg} --eps {eps} --audit",
                net_path.display()
            )))
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.contains("cost"), "{alg}: {out}");
            assert!(out.contains("audit = ok"), "{alg}: {out}");
        }
    }

    #[test]
    fn algorithms_command_lists_registry() {
        let out = run_cli(&argv("algorithms")).unwrap();
        for name in ["bkrus", "gabow", "steiner", "zskew"] {
            assert!(out.contains(name), "{name} missing from:\n{out}");
        }
        assert!(out.contains("exact"), "{out}");
        assert!(out.contains("window"), "{out}");
    }

    #[test]
    fn lub_route_respects_window() {
        let dir = std::env::temp_dir().join("bmst_cli_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        run_cli(&argv(&format!(
            "gen --sinks 5 --seed 9 --out {}",
            net_path.display()
        )))
        .unwrap();
        let out = run_cli(&argv(&format!(
            "route {} --eps 1.0 --eps1 0.2",
            net_path.display()
        )))
        .unwrap();
        assert!(out.contains("shortest path"));
    }

    #[test]
    fn netlist_command_routes() {
        let dir = std::env::temp_dir().join("bmst_cli_test5");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nets.txt");
        std::fs::write(
            &path,
            "net clk critical
0 0
10 3
end
net d0 relaxed
1 1
7 8
end
",
        )
        .unwrap();
        let out = run_cli(&argv(&format!("netlist {}", path.display()))).unwrap();
        assert!(out.contains("clk"), "{out}");
        assert!(out.contains("total wirelength"));
        let out = run_cli(&argv(&format!(
            "netlist {} --algorithm steiner",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("worst slack"));
        assert!(run_cli(&argv(&format!(
            "netlist {} --algorithm magic",
            path.display()
        )))
        .is_err());
    }

    #[test]
    fn netlist_parallel_output_is_identical_to_serial() {
        let dir = std::env::temp_dir().join("bmst_cli_test7");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nets.txt");
        let mut text = String::new();
        for (i, class) in ["critical", "normal", "relaxed"]
            .iter()
            .cycle()
            .take(9)
            .enumerate()
        {
            text.push_str(&format!(
                "net n{i} {class}\n0 0\n{} {}\n{} 2\nend\n",
                10 + i,
                3 * i,
                7 + i
            ));
        }
        std::fs::write(&path, text).unwrap();
        let serial = run_cli(&argv(&format!("netlist {}", path.display()))).unwrap();
        for jobs in [2, 4, 8] {
            let parallel =
                run_cli(&argv(&format!("netlist {} --jobs {jobs}", path.display()))).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs} output diverged");
        }
    }

    #[test]
    fn bad_flag_reports() {
        let err = run_cli(&argv("gen --wat 3")).unwrap_err();
        assert!(err.to_string().contains("--wat"));
        // Usage errors exit with code 2, not the generic 1.
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn malformed_netlist_line_reports_line_number() {
        let dir = std::env::temp_dir().join("bmst_cli_test8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        // Line 3 has a non-numeric coordinate token: a syntax error the
        // parser must pin to its line instead of panicking.
        std::fs::write(&path, "net clk critical\n0 0\n10 oops\nend\n").unwrap();
        let err = run_cli(&argv(&format!("netlist {}", path.display()))).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("oops"), "{err}");
        assert_eq!(err.exit_code, 1);
    }

    #[test]
    fn strict_mode_fails_on_unroutable_net_and_writes_failure_log() {
        let dir = std::env::temp_dir().join("bmst_cli_test9");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nets.txt");
        let log = dir.join("fails.jsonl");
        // `nan` parses as f64, so the net survives the syntax pass and is
        // rejected by geometry validation — a per-net failure, not an abort.
        std::fs::write(
            &path,
            "net good normal\n0 0\n5 5\nend\nnet broken normal\nnan 1\n2 2\nend\n",
        )
        .unwrap();
        let args = format!(
            "netlist {} --strict --failure-log {}",
            path.display(),
            log.display()
        );
        let err = run_cli(&argv(&args)).unwrap_err();
        assert_eq!(err.exit_code, 3);
        // The strict error carries the full report: survivors and failures.
        assert!(err.to_string().contains("good"), "{err}");
        assert!(err.to_string().contains("broken"), "{err}");
        let logged = std::fs::read_to_string(&log).unwrap();
        assert!(logged.contains("\"broken\""), "{logged}");
        assert!(logged.contains("non-finite"), "{logged}");

        // Without --strict the same netlist routes to completion.
        let out = run_cli(&argv(&format!("netlist {}", path.display()))).unwrap();
        assert!(out.contains("routed 1 of 2 nets"), "{out}");
    }

    #[test]
    fn route_trace_emits_json_lines_and_profile_renders() {
        use bmst_obs::json::Json;

        let dir = std::env::temp_dir().join("bmst_cli_test6");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        let trace_path = dir.join("trace.jsonl");
        run_cli(&argv(&format!(
            "gen --sinks 7 --seed 11 --out {}",
            net_path.display()
        )))
        .unwrap();

        let out = run_cli(&argv(&format!(
            "route {} --algorithm bkh2 --eps 0.2 --trace {} --profile",
            net_path.display(),
            trace_path.display()
        )))
        .unwrap();
        assert!(out.contains("trace ->"), "{out}");
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("bkrus.edges_scanned"), "{out}");

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let mut counters_line = None;
        let mut saw_span = false;
        for line in text.lines() {
            let json = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            match json.get("t").and_then(Json::as_str) {
                Some("span") => saw_span = true,
                Some("counters") => counters_line = Some(json),
                _ => {}
            }
        }
        assert!(saw_span, "trace must contain span lines");
        let counters = counters_line.expect("trace must end with a counters line");
        let counters = counters.get("counters").unwrap();
        let obj = counters.as_obj().unwrap();
        assert!(
            obj.iter().any(|(k, _)| k.starts_with("forest.cond3")),
            "counters must include (3-a)/(3-b) accept/reject counts"
        );
    }
}
