//! The semantic-pass fixture corpus and the live-workspace meta-test.
//!
//! Each pass has a violating / clean / allowed fixture triple under
//! `tests/fixtures/`, named `<pass>_*.rs` with `-` flattened to `_`
//! (the prefix `cargo xtask analyze --list` counts). The meta-test runs
//! the real passes over this repository: the workspace must stay clean,
//! so every raw public builder carries its waiver and every known
//! quadratic site its budget.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::path::PathBuf;

use bmst_analyze::model::SourceFile;
use bmst_analyze::{analyze_semantic_files, load_workspace, workspace_root, SemanticReport};

/// Loads a fixture and runs the semantic passes as if it were a file of
/// `crate_name`.
fn analyze_fixture(name: &str, crate_name: &str) -> SemanticReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let file = SourceFile::new(path, crate_name.to_owned(), &text);
    analyze_semantic_files(std::slice::from_ref(&file))
}

/// Asserts the fixture produces exactly `expected` rules (sorted).
fn expect_rules(name: &str, crate_name: &str, expected: &[&str]) {
    let report = analyze_fixture(name, crate_name);
    let mut got: Vec<&str> = report.violations.iter().map(|v| v.rule.as_str()).collect();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "fixture {name} (as crate `{crate_name}`): {:#?}",
        report.violations
    );
}

// ---- corpus: one violating / clean / allowed triple per pass ----

#[test]
fn panic_reach_corpus() {
    expect_rules(
        "panic_reach_violating.rs",
        "core",
        &["panic-reach", "panic-reach"],
    );
    expect_rules("panic_reach_clean.rs", "core", &[]);
    expect_rules("panic_reach_allowed.rs", "core", &[]);
}

#[test]
fn panic_reach_messages_carry_the_witness_path() {
    let report = analyze_fixture("panic_reach_violating.rs", "core");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("build → plan → pick (`.unwrap()`)")),
        "witness path names the transitive chain: {:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("index expression")),
        "indexing source named: {:#?}",
        report.violations
    );
}

#[test]
fn panic_reach_scope_is_per_crate() {
    // geom is outside PANIC_REACH_CRATES: same source, no findings, and
    // the complexity floor doesn't apply there either.
    expect_rules("panic_reach_violating.rs", "geom", &[]);
}

#[test]
fn complexity_corpus() {
    expect_rules(
        "complexity_violating.rs",
        "core",
        &["complexity", "complexity"],
    );
    expect_rules("complexity_clean.rs", "core", &[]);
    expect_rules("complexity_allowed.rs", "core", &[]);
}

#[test]
fn complexity_messages_distinguish_floor_from_budget() {
    let report = analyze_fixture("complexity_violating.rs", "core");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("without a declared budget")),
        "unbudgeted floor named: {:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("allowing depth 1")),
        "budget overrun named: {:#?}",
        report.violations
    );
}

// ---- the live workspace ----

#[test]
fn live_workspace_passes_semantic_analysis() {
    let root = workspace_root();
    let report = bmst_analyze::analyze_semantic(&root);
    assert!(
        report.files_scanned > 50,
        "expected a real workspace, scanned {}",
        report.files_scanned
    );
    assert!(
        report.fns_indexed > 300,
        "expected a populated item index, got {} fns",
        report.fns_indexed
    );
    assert!(
        report.call_edges > 200,
        "expected a connected call graph, got {} edges",
        report.call_edges
    );
    assert!(
        report.is_clean(),
        "live workspace has semantic violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!(
                "{}:{}: [{}] {}",
                v.path.display(),
                v.line,
                v.rule,
                v.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn live_callgraph_dot_is_well_formed() {
    let dot = bmst_analyze::callgraph_dot(&workspace_root());
    assert!(dot.starts_with("digraph calls {"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(
        dot.lines().filter(|l| l.contains(" -> ")).count() > 100,
        "expected a dense graph dump"
    );
}

#[test]
fn cancel_liveness_corpus() {
    expect_rules(
        "cancel_liveness_violating.rs",
        "core",
        &["cancel-liveness", "cancel-liveness", "cancel-liveness"],
    );
    expect_rules("cancel_liveness_clean.rs", "core", &[]);
    expect_rules("cancel_liveness_allowed.rs", "core", &[]);
}

#[test]
fn cancel_liveness_messages_carry_the_witness_chain() {
    let report = analyze_fixture("cancel_liveness_violating.rs", "core");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("try_build → grow")),
        "witness chain names the transitive route: {:#?}",
        report.violations
    );
}

#[test]
fn cancel_liveness_sees_a_lazy_enumerator() {
    let report = analyze_fixture("cancel_liveness_violating.rs", "core");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("`build`")),
        "the unpolled `for candidate in enumerator` loop is reported: {:#?}",
        report.violations
    );
}

#[test]
fn cancel_liveness_scope_is_per_crate() {
    // geom is outside CANCEL_CRATES: same source, no findings.
    expect_rules("cancel_liveness_violating.rs", "geom", &[]);
}

#[test]
fn blocking_discipline_corpus() {
    expect_rules(
        "blocking_discipline_violating.rs",
        "serve",
        &["blocking-discipline", "blocking-discipline"],
    );
    expect_rules("blocking_discipline_clean.rs", "serve", &[]);
    expect_rules("blocking_discipline_allowed.rs", "serve", &[]);
}

#[test]
fn blocking_discipline_names_the_lock_line() {
    let report = analyze_fixture("blocking_discipline_violating.rs", "serve");
    assert!(
        report.violations.iter().any(|v| v
            .message
            .contains("`write_all` blocks while the mutex guard")),
        "blocking call named: {:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("`recv` blocks")),
        "chained locked receive named: {:#?}",
        report.violations
    );
}

#[test]
fn blocking_discipline_scope_is_per_crate() {
    // Only serve carries the discipline: the same source as `core` is quiet.
    expect_rules("blocking_discipline_violating.rs", "core", &[]);
}

// ---- mutation regression: deleting a poll must trip the pass ----

/// Re-runs the cancel pass over the live workspace with one poll site
/// deleted from an in-memory copy of a builder file. Every single poll in
/// the BKRUS / Elmore-BKRUS / BPRIM / EdgeStream / BKST / Gabow / BKEX inner loops is
/// load-bearing: removing any one of them must surface a `cancel-liveness`
/// violation in that file, with an entry→…→fn witness chain in the message.
fn assert_poll_is_load_bearing(file_suffix: &str, mutate: impl Fn(&str) -> Option<String>) {
    let root = workspace_root();
    let mut io_errors = Vec::new();
    let mut files = load_workspace(&root, &mut io_errors);
    assert!(io_errors.is_empty(), "workspace unreadable: {io_errors:#?}");
    let idx = files
        .iter()
        .position(|f| f.path.ends_with(file_suffix))
        .unwrap_or_else(|| panic!("{file_suffix} not in the workspace"));
    let text = std::fs::read_to_string(&files[idx].path).unwrap();
    let mutated = mutate(&text)
        .unwrap_or_else(|| panic!("{file_suffix}: mutation found no poll site to delete"));
    files[idx] = SourceFile::new(
        files[idx].path.clone(),
        files[idx].crate_name.clone(),
        &mutated,
    );
    let report = analyze_semantic_files(&files);
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "cancel-liveness" && v.path.ends_with(file_suffix))
        .collect();
    assert!(
        !hits.is_empty(),
        "deleting a poll from {file_suffix} went unnoticed:\n{:#?}",
        report.violations
    );
    assert!(
        hits.iter().any(|v| v.message.contains('→')),
        "violation carries a witness chain: {hits:#?}"
    );
}

/// Deletes the `nth` line containing `needle` (whole-line removal keeps the
/// token stream brace-balanced).
fn delete_nth_line(text: &str, needle: &str, nth: usize) -> Option<String> {
    let mut seen = 0;
    let mut out = Vec::new();
    let mut deleted = false;
    for line in text.lines() {
        if line.contains(needle) {
            if seen == nth {
                deleted = true;
                seen += 1;
                continue;
            }
            seen += 1;
        }
        out.push(line);
    }
    deleted.then(|| out.join("\n"))
}

#[test]
fn deleting_the_bkrus_scan_poll_is_caught() {
    // The first poll is the strided one inside `for e in stream`; the
    // second is the post-loop deadline-vs-infeasible disambiguation, which
    // is not a loop-liveness site.
    assert_poll_is_load_bearing("core/src/bkrus.rs", |t| {
        delete_nth_line(t, "cx.check_cancelled()?;", 0)
    });
}

#[test]
fn deleting_the_bprim_poll_is_caught() {
    assert_poll_is_load_bearing("core/src/bprim.rs", |t| {
        delete_nth_line(t, "cx.check_cancelled()?;", 0)
    });
}

#[test]
fn deleting_the_edge_stream_poll_is_caught() {
    // The supply poll sits in an `if` header; substituting `false` deletes
    // the check while keeping the braces balanced.
    assert_poll_is_load_bearing("core/src/supply.rs", |t| {
        t.contains("self.cancel.check().is_err()")
            .then(|| t.replace("self.cancel.check().is_err()", "false"))
    });
}

#[test]
fn deleting_the_bkst_seeding_poll_is_caught() {
    // The first poll is the per-row one while terminal pairs seed the heap.
    assert_poll_is_load_bearing("steiner/src/bkst.rs", |t| {
        delete_nth_line(t, "cx.check_cancelled()?;", 0)
    });
}

#[test]
fn deleting_the_bkst_heap_poll_is_caught() {
    // The second is the strided one in the candidate-heap loop.
    assert_poll_is_load_bearing("steiner/src/bkst.rs", |t| {
        delete_nth_line(t, "cx.check_cancelled()?;", 1)
    });
}

#[test]
fn deleting_the_elmore_bkrus_candidate_poll_is_caught() {
    // The first poll is the one before every tentative merge; the second
    // is the post-loop deadline-vs-infeasible disambiguation.
    assert_poll_is_load_bearing("core/src/elmore_bkrus.rs", |t| {
        delete_nth_line(t, "cx.check_cancelled()?;", 0)
    });
}

#[test]
fn deleting_the_bkex_scan_poll_is_caught() {
    // The per-row poll of the exchange search sits in an `if` header;
    // substituting `false` deletes the check and keeps the braces balanced.
    assert_poll_is_load_bearing("core/src/bkex.rs", |t| {
        t.contains("cx.check_cancelled().is_err()")
            .then(|| t.replace("cx.check_cancelled().is_err()", "false"))
    });
}

#[test]
fn deleting_the_gabow_enumeration_poll_is_caught() {
    assert_poll_is_load_bearing("core/src/gabow.rs", |t| {
        delete_nth_line(t, "cx.check_cancelled()?;", 0)
    });
}
