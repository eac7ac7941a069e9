//! bmst-analyze: the token-aware static-analysis engine behind
//! `cargo xtask lint`.
//!
//! The engine lexes every workspace source file ([`lexer`]), builds a
//! per-file model — significant tokens, `#[cfg(test)]` regions, allow
//! markers, `fn` items ([`model`]) — runs the nine rules ([`rules`]),
//! subtracts `// lint: allow(<rule>) — <reason>` markers, and diffs obs
//! emissions against the `crates/obs/events.toml` registry ([`schema`]).
//!
//! | rule             | scope                                  | forbids |
//! |------------------|----------------------------------------|---------|
//! | `no-panic`       | all library crates                     | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` in non-test code |
//! | `float-eq`       | library crates except `geom`           | `==`/`!=` against float literals or `f64::` constants |
//! | `doc-pub`        | `core`, `tree`, `graph`, `geom`, `obs` | `pub` items without a doc comment |
//! | `no-as-cast`     | `core`, `tree`, `graph`, `obs`         | `as usize` / `as f64` casts |
//! | `no-print`       | all crates incl. `cli`, `bench`        | `println!`/`eprintln!`/`dbg!` in library sources |
//! | `determinism`    | `core`, `steiner`, `router`, `tree`    | `HashMap`/`HashSet`; unstable sorts on float keys |
//! | `error-taxonomy` | `core`, `steiner`, `router`            | `catch_unwind` not reaching `BmstError::Internal`; `.unwrap_or_default()`; pub builders not returning `Result<_, BmstError>` |
//! | `obs-schema`     | all crates except `obs`                | emission names missing from `events.toml` (and dead entries); unqualified emission imports |
//! | `concurrency`    | `router`                               | `static mut`, `Rc`/`RefCell`, `thread_local!`; missing `Send`/`Sync` assertions on `RouteAlgorithm` |
//!
//! Markers attach to **tokens**, not raw lines: a marker only counts when
//! the rule it names actually produced a candidate on its line or the line
//! below. A marker that suppresses nothing is itself a violation (stale),
//! as is one missing its mandatory reason.
//!
//! On top of the per-file rules sits the **semantic engine** behind
//! `cargo xtask analyze`: a workspace item index ([`items`]), an
//! approximate call graph ([`callgraph`]), panic-reachability over it
//! ([`reach`]), complexity-budget enforcement ([`complexity`]),
//! cancellation-liveness ([`cancel`] — entry-reachable instance loops
//! must poll the `CancelToken`), and blocking-discipline ([`blocking`]
//! — no mutex guard held across a blocking call in the service crate).
//! Semantic passes use the parallel `// analyze: allow(<pass>)` /
//! `// analyze: complexity(<budget>)` marker family with the same
//! staleness discipline.

pub mod blocking;
pub mod callgraph;
pub mod cancel;
pub mod complexity;
pub mod items;
pub mod lexer;
pub mod model;
pub mod reach;
pub mod rules;
pub mod schema;

use std::path::{Path, PathBuf};

use model::{Marker, SourceFile};
use rules::Candidate;
use schema::{EventsSchema, SchemaDiff};

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line (0 for file-level problems).
    pub line: usize,
    /// Rule name, or `marker` / `schema` / `io` for engine-level findings.
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

/// The result of analysing a workspace.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Every violation, sorted by path then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of obs emissions extracted.
    pub emissions_seen: usize,
}

impl AnalysisReport {
    /// True when the workspace is violation-free.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Relative path of the obs event registry inside the workspace.
pub const EVENTS_TOML: &str = "crates/obs/events.toml";

/// Locates the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Loads every in-scope source file under `<root>/crates/*/src`. IO
/// failures are reported through `errors` rather than panicking.
pub fn load_workspace(root: &Path, errors: &mut Vec<Violation>) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for krate in rules::ALL_CRATES {
        let src = root.join("crates").join(krate).join("src");
        for file in rust_files(&src) {
            match std::fs::read_to_string(&file) {
                Ok(text) => {
                    files.push(SourceFile::new(file, (*krate).to_owned(), &text));
                }
                Err(e) => errors.push(Violation {
                    path: file,
                    line: 0,
                    rule: "io".to_owned(),
                    message: format!("file could not be read: {e}"),
                }),
            }
        }
    }
    files
}

/// Extracts obs emissions from every file in the obs-schema scope.
pub fn workspace_emissions(files: &[SourceFile]) -> Vec<schema::Emission> {
    files
        .iter()
        .filter(|f| rules::OBS_SCHEMA_CRATES.contains(&f.crate_name.as_str()))
        .flat_map(schema::extract_emissions)
        .collect()
}

/// Loads and parses `<root>/crates/obs/events.toml`. Errors are reported
/// as violations on the registry file.
pub fn load_events_schema(root: &Path, errors: &mut Vec<Violation>) -> Option<EventsSchema> {
    let path = root.join(EVENTS_TOML);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(Violation {
                path,
                line: 0,
                rule: "schema".to_owned(),
                message: format!("obs event registry could not be read: {e}"),
            });
            return None;
        }
    };
    match EventsSchema::parse(&text) {
        Ok(s) => Some(s),
        Err(e) => {
            errors.push(Violation {
                path,
                line: e.line,
                rule: "schema".to_owned(),
                message: e.message,
            });
            None
        }
    }
}

/// One marker family's application parameters: which markers to consult,
/// which rule names they may cite, the comment syntax for messages, and
/// the per-file scope predicate used by staleness.
struct MarkerFamily<'a> {
    markers: &'a [Marker],
    known: &'a [&'static str],
    syntax: &'static str,
    in_scope: fn(&SourceFile, &str) -> bool,
}

/// Filters `candidates` through one marker family, then reports marker
/// problems: unknown rule, missing reason, stale (suppresses nothing).
/// Returns the surviving violations.
fn apply_family(
    file: &SourceFile,
    mut candidates: Vec<Candidate>,
    fam: MarkerFamily<'_>,
) -> Vec<Violation> {
    // One report per (rule, line) keeps output readable when a construct
    // matches multiple ways.
    candidates.sort_by_key(|c| (c.line, c.rule));
    candidates.dedup_by_key(|c| (c.line, c.rule));

    let mut used = vec![false; fam.markers.len()];
    candidates.retain(|c| {
        let suppressed = fam.markers.iter().enumerate().find_map(|(mi, m)| {
            let covers = m.line == c.line || m.line + 1 == c.line;
            // A marker inside a `#[cfg(test)]` region may only waive a
            // candidate that is itself on a test-region line: a marker on
            // the last line of a test module must not silently swallow a
            // violation in the non-test code directly below it.
            let same_side = !m.in_test || file.line_in_test(c.line);
            (covers && same_side && m.rule == c.rule && m.has_reason).then_some(mi)
        });
        match suppressed {
            Some(mi) => {
                used[mi] = true;
                false
            }
            None => true,
        }
    });

    let mut out: Vec<Violation> = candidates
        .into_iter()
        .map(|c| Violation {
            path: file.path.clone(),
            line: c.line,
            rule: c.rule.to_owned(),
            message: c.message,
        })
        .collect();

    for (mi, m) in fam.markers.iter().enumerate() {
        if !fam.known.contains(&m.rule.as_str()) {
            out.push(Violation {
                path: file.path.clone(),
                line: m.line,
                rule: "marker".to_owned(),
                message: format!(
                    "allow marker names unknown rule `{}` (known: {})",
                    m.rule,
                    fam.known.join(", ")
                ),
            });
        } else if !m.has_reason {
            out.push(Violation {
                path: file.path.clone(),
                line: m.line,
                rule: "marker".to_owned(),
                message: format!(
                    "allow marker for `{}` is missing its reason: \
                     `// {}: allow({}) — <reason>`",
                    m.rule, fam.syntax, m.rule
                ),
            });
        } else if !used[mi] && !m.in_test && (fam.in_scope)(file, &m.rule) {
            out.push(Violation {
                path: file.path.clone(),
                line: m.line,
                rule: "marker".to_owned(),
                message: format!(
                    "stale allow marker: `{}` produces no violation on line {} or {}; \
                     remove the marker",
                    m.rule,
                    m.line,
                    m.line + 1
                ),
            });
        }
    }
    out
}

/// Filters token-rule `candidates` through the file's `// lint: allow`
/// markers (see `apply_family` for the shared mechanics).
pub fn apply_markers(file: &SourceFile, candidates: Vec<Candidate>) -> Vec<Violation> {
    apply_family(
        file,
        candidates,
        MarkerFamily {
            markers: &file.markers,
            known: rules::KNOWN_RULES,
            syntax: "lint",
            in_scope: rules::rule_in_scope,
        },
    )
}

/// Filters semantic-pass `candidates` through the file's
/// `// analyze: allow` markers, with the same staleness discipline.
pub fn apply_sem_markers(file: &SourceFile, candidates: Vec<Candidate>) -> Vec<Violation> {
    apply_family(
        file,
        candidates,
        MarkerFamily {
            markers: &file.sem_markers,
            known: rules::SEMANTIC_RULES,
            syntax: "analyze",
            in_scope: rules::semantic_rule_in_scope,
        },
    )
}

/// Analyses one file in isolation (no schema diff) — the entry point the
/// fixture tests use.
pub fn analyze_file(file: &SourceFile) -> Vec<Violation> {
    apply_markers(file, rules::candidates(file))
}

/// Turns a schema diff into violations: unknown emissions at their site,
/// dead entries at their registry line.
pub fn diff_violations(root: &Path, diff: &SchemaDiff) -> Vec<Violation> {
    let mut out = Vec::new();
    for e in &diff.unknown {
        out.push(Violation {
            path: e.path.clone(),
            line: e.line,
            rule: "obs-schema".to_owned(),
            message: format!(
                "emission `{}` ({}) is not registered in {EVENTS_TOML}; add it under \
                 [{}] or rename the emission",
                e.name,
                e.kind.section().trim_end_matches('s'),
                e.kind.section()
            ),
        });
    }
    for (section, name, line) in &diff.dead {
        out.push(Violation {
            path: root.join(EVENTS_TOML),
            line: *line,
            rule: "obs-schema".to_owned(),
            message: format!(
                "dead registry entry: [{section}] `{name}` is emitted nowhere; remove it \
                 or restore the emission"
            ),
        });
    }
    out
}

/// Analyses the whole workspace: all nine rules plus the obs-schema
/// round-trip against `crates/obs/events.toml`.
pub fn analyze_workspace(root: &Path) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let files = load_workspace(root, &mut report.violations);
    report.files_scanned = files.len();

    let emissions = workspace_emissions(&files);
    report.emissions_seen = emissions.len();

    // Per-file rule candidates; schema-diff violations join the matching
    // file's candidate list so allow markers can cover them too.
    let mut extra: Vec<Violation> = Vec::new();
    let mut unknown_by_file: std::collections::BTreeMap<PathBuf, Vec<Candidate>> =
        std::collections::BTreeMap::new();
    if let Some(schema_reg) = load_events_schema(root, &mut report.violations) {
        let diff = schema::diff(&schema_reg, &emissions);
        for v in diff_violations(root, &diff) {
            if v.path.ends_with(EVENTS_TOML) {
                extra.push(v);
            } else {
                unknown_by_file
                    .entry(v.path.clone())
                    .or_default()
                    .push(Candidate {
                        line: v.line,
                        rule: "obs-schema",
                        message: v.message,
                    });
            }
        }
    }

    for file in &files {
        let mut cands = rules::candidates(file);
        if let Some(unknown) = unknown_by_file.remove(&file.path) {
            cands.extend(unknown);
        }
        report.violations.extend(apply_markers(file, cands));
    }
    report.violations.extend(extra);
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

/// One row of the rule table shown by `cargo xtask lint --list`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name.
    pub name: &'static str,
    /// Crates the rule runs on.
    pub scope: &'static [&'static str],
    /// One-line description.
    pub description: &'static str,
}

/// The full rule table, in display order.
pub fn rule_table() -> Vec<RuleInfo> {
    vec![
        RuleInfo {
            name: "no-panic",
            scope: rules::PANIC_FREE_CRATES,
            description: "forbids .unwrap() / .expect( / panic! / unreachable! / todo! / \
                          unimplemented! in non-test code",
        },
        RuleInfo {
            name: "float-eq",
            scope: rules::FLOAT_EQ_CRATES,
            description: "forbids ==/!= against float literals or f64:: constants; use \
                          bmst-geom's tolerance helpers",
        },
        RuleInfo {
            name: "doc-pub",
            scope: rules::DOC_CRATES,
            description: "every `pub` item must carry a doc comment",
        },
        RuleInfo {
            name: "no-as-cast",
            scope: rules::CAST_CRATES,
            description: "forbids `as usize` / `as f64` casts; use From/TryFrom or annotate",
        },
        RuleInfo {
            name: "no-print",
            scope: rules::PRINT_FREE_CRATES,
            description: "forbids println!/eprintln!/dbg! in library sources (src/bin/ and \
                          main.rs exempt)",
        },
        RuleInfo {
            name: "determinism",
            scope: rules::DETERMINISM_CRATES,
            description: "forbids HashMap/HashSet and unstable sorts on float keys in the \
                          byte-identical routing hot paths",
        },
        RuleInfo {
            name: "error-taxonomy",
            scope: rules::ERROR_TAXONOMY_CRATES,
            description: "catch_unwind must flow into BmstError::Internal; no \
                          .unwrap_or_default(); pub builders return Result<_, BmstError>",
        },
        RuleInfo {
            name: "obs-schema",
            scope: rules::OBS_SCHEMA_CRATES,
            description: "every obs emission name must round-trip against \
                          crates/obs/events.toml (no unknown emissions, no dead entries)",
        },
        RuleInfo {
            name: "concurrency",
            scope: rules::CONCURRENCY_CRATES,
            description: "forbids static mut / Rc / RefCell / thread_local! in the parallel \
                          router; RouteAlgorithm carries Send/Sync assertions",
        },
    ]
}

/// The result of running the semantic passes over a workspace.
#[derive(Debug, Default)]
pub struct SemanticReport {
    /// Every violation, sorted by path then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `fn` items indexed.
    pub fns_indexed: usize,
    /// Number of resolved call edges.
    pub call_edges: usize,
}

impl SemanticReport {
    /// True when the workspace passes every semantic check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the semantic passes (panic-reachability, complexity budgets)
/// over an already-loaded file set — the entry point fixture tests use.
pub fn analyze_semantic_files(files: &[SourceFile]) -> SemanticReport {
    let index = items::ItemIndex::build(files);
    let graph = callgraph::CallGraph::build(&index);
    let info = reach::ReachInfo::compute(&index, &graph);
    let mut per_file: Vec<Vec<Candidate>> = vec![Vec::new(); files.len()];
    for (fi, c) in reach::candidates(&index, &graph, &info) {
        per_file[fi].push(c);
    }
    for (fi, c) in complexity::candidates(&index, &graph) {
        per_file[fi].push(c);
    }
    for (fi, c) in cancel::candidates(&index, &graph) {
        per_file[fi].push(c);
    }
    for (fi, c) in blocking::candidates(files) {
        per_file[fi].push(c);
    }
    let mut violations = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        violations.extend(apply_sem_markers(file, std::mem::take(&mut per_file[fi])));
    }
    violations.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    SemanticReport {
        violations,
        files_scanned: files.len(),
        fns_indexed: index.fns.len(),
        call_edges: graph.edge_count(),
    }
}

/// Runs the semantic passes over the workspace at `root`.
pub fn analyze_semantic(root: &Path) -> SemanticReport {
    let mut io_errors = Vec::new();
    let files = load_workspace(root, &mut io_errors);
    let mut report = analyze_semantic_files(&files);
    if !io_errors.is_empty() {
        report.violations.extend(io_errors);
        report
            .violations
            .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    }
    report
}

/// Renders the workspace call graph in Graphviz dot syntax
/// (`cargo xtask analyze --graph dot`).
pub fn callgraph_dot(root: &Path) -> String {
    let mut io_errors = Vec::new();
    let files = load_workspace(root, &mut io_errors);
    let index = items::ItemIndex::build(&files);
    callgraph::CallGraph::build(&index).to_dot(&index)
}

/// The semantic-pass table shown by `cargo xtask analyze --list`.
pub fn semantic_pass_table() -> Vec<RuleInfo> {
    vec![
        RuleInfo {
            name: "panic-reach",
            scope: rules::PANIC_REACH_CRATES,
            description: "public builders taking &ProblemContext must not transitively reach \
                          .unwrap()/.expect(/panic-family macros/indexing unless isolated by \
                          catch_unwind or waived with a reason",
        },
        RuleInfo {
            name: "complexity",
            scope: rules::COMPLEXITY_CRATES,
            description: "instance-loop nesting (call-graph aware) must stay within declared \
                          `// analyze: complexity(<budget>)` markers; unbudgeted depth-2 nests \
                          in hot crates fail",
        },
        RuleInfo {
            name: "cancel-liveness",
            scope: rules::CANCEL_CRATES,
            description: "every instance loop reachable from a registry-facing builder or serve \
                          worker must poll the CancelToken in its body or a callee, unless \
                          budgeted `1`/`log n` or waived with a reason",
        },
        RuleInfo {
            name: "blocking-discipline",
            scope: rules::BLOCKING_CRATES,
            description: "no mutex guard held across channel send/recv, stream writes, or \
                          catch_unwind in the service crate (temporary-scope aware)",
        },
    ]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;

    fn file(krate: &str, src: &str) -> SourceFile {
        SourceFile::new(
            PathBuf::from(format!("crates/{krate}/src/lib.rs")),
            krate.to_owned(),
            src,
        )
    }

    #[test]
    fn markers_suppress_and_are_tracked() {
        let src = "// lint: allow(no-panic) — index is in range by construction\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = analyze_file(&file("core", src));
        assert!(v.is_empty(), "got {v:?}");
    }

    #[test]
    fn marker_without_reason_is_a_violation() {
        let src = "// lint: allow(no-panic)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = analyze_file(&file("core", src));
        let rules: Vec<&str> = v.iter().map(|x| x.rule.as_str()).collect();
        assert!(
            rules.contains(&"no-panic"),
            "unsuppressed violation survives"
        );
        assert!(rules.contains(&"marker"), "reasonless marker reported");
    }

    #[test]
    fn stale_marker_is_a_violation() {
        let src = "// lint: allow(no-panic) — was needed before the refactor\nfn f() -> u8 { 1 }\n";
        let v = analyze_file(&file("core", src));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "marker");
        assert!(v[0].message.contains("stale"));
    }

    #[test]
    fn unknown_rule_marker_is_a_violation() {
        let src = "// lint: allow(bogus) — because\nfn f() {}\n";
        let v = analyze_file(&file("core", src));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown rule"));
    }

    #[test]
    fn out_of_scope_marker_is_not_stale() {
        // `bench` is outside the no-panic scope: the rule never runs, so
        // the marker cannot be judged stale there (but the unknown-rule
        // and reason checks still apply).
        let src = "// lint: allow(no-panic) — kept for symmetry\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = analyze_file(&file("bench", src));
        assert!(v.is_empty(), "got {v:?}");
    }

    #[test]
    fn test_region_markers_are_exempt_from_staleness() {
        let src = "#[cfg(test)]\nmod tests {\n    // lint: allow(no-panic) — tests may panic\n    fn t() {}\n}\n";
        let v = analyze_file(&file("core", src));
        assert!(v.is_empty(), "got {v:?}");
    }

    #[test]
    fn test_region_marker_cannot_waive_non_test_violation() {
        // The marker sits on the closing line of the test module; the
        // violation is on the first non-test line below it. The waiver
        // must not cross the region boundary: the violation survives,
        // and the in-test marker stays exempt from staleness.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n    // lint: allow(no-panic) — tests may panic\n}\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = analyze_file(&file("core", src));
        let rules: Vec<&str> = v.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["no-panic"], "got {v:?}");
    }

    #[test]
    fn non_test_marker_aimed_into_test_region_is_stale() {
        // The marker sits in non-test code directly above a test region.
        // Rules skip test code, so there is no candidate to waive: the
        // marker is stale and must be reported.
        let src = "// lint: allow(no-panic) — covers the test below\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let v = analyze_file(&file("core", src));
        assert_eq!(v.len(), 1, "got {v:?}");
        assert_eq!(v[0].rule, "marker");
        assert!(v[0].message.contains("stale"));
    }

    #[test]
    fn one_report_per_rule_per_line() {
        let src = "fn f(x: Option<u8>, y: Option<u8>) -> u8 { x.unwrap() + y.unwrap() }\n";
        let v = analyze_file(&file("core", src));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn rule_table_covers_all_known_rules() {
        let table = rule_table();
        assert_eq!(table.len(), rules::KNOWN_RULES.len());
        for info in &table {
            assert!(rules::KNOWN_RULES.contains(&info.name));
            assert!(!info.scope.is_empty());
        }
    }

    #[test]
    fn semantic_pass_table_covers_semantic_rules() {
        let table = semantic_pass_table();
        assert_eq!(table.len(), rules::SEMANTIC_RULES.len());
        for info in &table {
            assert!(rules::SEMANTIC_RULES.contains(&info.name));
        }
    }

    #[test]
    fn semantic_waiver_suppresses_and_staleness_is_tracked() {
        let src = "// analyze: allow(panic-reach) — raw API; try_build isolates callers\n\
                   pub fn build(cx: &ProblemContext) -> T { x.unwrap() }\n";
        let r = analyze_semantic_files(&[file("core", src)]);
        assert!(r.is_clean(), "got {:?}", r.violations);

        let stale = "// analyze: allow(panic-reach) — no longer needed\n\
                     pub fn build(cx: &ProblemContext) -> T { T::new() }\n";
        let r = analyze_semantic_files(&[file("core", stale)]);
        assert_eq!(r.violations.len(), 1, "got {:?}", r.violations);
        assert_eq!(r.violations[0].rule, "marker");
        assert!(r.violations[0].message.contains("stale"));
    }

    #[test]
    fn semantic_marker_naming_lint_rule_is_unknown() {
        let src = "// analyze: allow(no-panic) — wrong family\npub fn f() {}\n";
        let r = analyze_semantic_files(&[file("core", src)]);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("unknown rule"));
        assert!(r.violations[0].message.contains("panic-reach"));
    }

    #[test]
    fn semantic_report_counts_fns_and_edges() {
        let src = "fn a() { b(); }\nfn b() {}\n";
        let r = analyze_semantic_files(&[file("core", src)]);
        assert_eq!(r.fns_indexed, 2);
        assert_eq!(r.call_edges, 1);
        assert_eq!(r.files_scanned, 1);
    }
}
