//! Cancellation-liveness: every instance-sized loop reachable from a
//! cancellable entry point must poll the `CancelToken`.
//!
//! PR 9 threaded deadline cancellation through the builder inner loops
//! by hand; this pass makes the property structural so the next inner
//! loop (PathFinder rip-up, incremental STA) cannot silently ship
//! without a poll and reintroduce multi-second service stalls under a
//! 50 ms budget.
//!
//! The contract, per fn:
//!
//! * **Entry points** are the registry-facing builders of
//!   [`crate::rules::PANIC_REACH_CRATES`] (`pub` fns taking
//!   `&ProblemContext`, or `build`/`build_geometry`/`try_build` trait
//!   methods) plus every non-test fn of `serve` — the code a request
//!   deadline must be able to interrupt.
//! * A fn is **checked** when it lives in
//!   [`crate::rules::CANCEL_CRATES`] and is reachable from an entry
//!   through the call graph (augmented with the implicit `Iterator::next`
//!   edge of `for … in` desugaring, so lazy suppliers like the sparse
//!   `EdgeStream` stay in the cone).
//! * Each **outermost instance loop** of a checked fn (extracted with
//!   the complexity pass's loop walker, plus supply-vocabulary hints
//!   like `stream`) must contain a poll: a syntactic
//!   `check_cancelled()`/`<token>.check()` site, or a call whose
//!   resolved callees can transitively reach such a site. Loops nested
//!   inside a polling instance loop are covered by the outer
//!   per-iteration poll — the granularity knob the builders already
//!   use (BPRIM polls per attachment, not per scanned pair).
//! * **Exemptions**: non-instance loops (constant-bounded headers), and
//!   fns whose declared `// analyze: complexity(1)` / `complexity(log n)`
//!   budget proves the body too small to matter.
//!
//! Violations attach to the fn's declaration line, print the loop line
//! plus an entry→…→fn witness chain like `reach.rs`, and are waivable
//! with `// analyze: allow(cancel-liveness) — <reason>` above the fn.
//! The conservative call graph over-approximates both reachability and
//! poll-reach; the waiver is the pressure valve and must state why the
//! loop is actually bounded or covered by a neighbouring poll.

use crate::callgraph::CallGraph;
use crate::complexity::{depth_at, loops_in, INSTANCE_HINTS};
use crate::items::ItemIndex;
use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::rules::{Candidate, CANCEL_CRATES, PANIC_REACH_CRATES};

/// Loop-header identifiers that mark instance-sized iteration for this
/// pass *in addition to* the complexity vocabulary: the lazy
/// edge-candidate supply iterates `stream`s and `supply` windows, Gabow
/// drains a spanning-tree `enumerator`, and the Steiner candidate-heap
/// loops run until all `nt` terminals connect. Each is instance-sized
/// even though the complexity pass does not count it.
const CANCEL_EXTRA_HINTS: &[&str] = &["stream", "supply", "enumerator", "nt"];

/// Call leaf names that poll a token through a context, recognised
/// without resolution (`cx.check_cancelled()?`).
const POLL_METHODS: &[&str] = &["check_cancelled"];

/// Per-fn cancellation facts, indexed parallel to [`ItemIndex::fns`].
#[derive(Debug)]
pub struct CancelInfo {
    /// Whether the fn's body contains a poll site, or calls (transitively)
    /// a fn that does.
    pub can_poll: Vec<bool>,
    /// Whether the fn is itself a cancellable entry point.
    pub entry: Vec<bool>,
    /// Whether the fn is reachable from an entry point.
    pub reachable: Vec<bool>,
    /// Predecessor on one entry→fn chain, for witness reconstruction.
    parent: Vec<Option<usize>>,
    /// Whether the fn's declared complexity budget (`1` / `log n`)
    /// exempts it from the polling requirement.
    bounded: Vec<bool>,
}

/// True when the significant token at `i` is a cancellation poll:
/// `check_cancelled(`, `<cancel|token>.check(`, or `CancelToken::check(`.
pub(crate) fn is_poll_site(file: &SourceFile, i: usize) -> bool {
    let Some(t) = file.s(i) else { return false };
    if t.kind != TokenKind::Ident || !file.s(i + 1).is_some_and(|n| n.is_punct('(')) {
        return false;
    }
    // The definition `fn check_cancelled(` is not a poll of itself.
    if i > 0 && file.s(i - 1).is_some_and(|p| p.is_ident("fn")) {
        return false;
    }
    match t.ident_name() {
        name if POLL_METHODS.contains(&name) => true,
        "check" if i >= 2 => {
            if file.s(i - 1).is_some_and(|p| p.is_punct('.')) {
                // `self.cancel.check()`, `token.check()`, `config.cancel.check()`.
                file.s(i - 2).is_some_and(|r| {
                    r.kind == TokenKind::Ident && {
                        let n = r.ident_name().to_ascii_lowercase();
                        n.contains("cancel") || n.contains("token")
                    }
                })
            } else {
                // Qualified `CancelToken::check(...)`.
                i >= 3
                    && file.s(i - 1).is_some_and(|p| p.is_punct(':'))
                    && file.s(i - 2).is_some_and(|p| p.is_punct(':'))
                    && file.s(i - 3).is_some_and(|r| r.is_ident("CancelToken"))
            }
        }
        _ => false,
    }
}

/// True when a budget spec proves the fn constant- or log-bounded —
/// the only budgets that exempt a loop from polling.
fn bounded_spec(spec: &str) -> bool {
    let norm: String = spec
        .to_lowercase()
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    matches!(norm.as_str(), "1" | "logn")
}

impl CancelInfo {
    /// Computes poll-reach, the entry set, and entry-cone reachability.
    pub fn compute(index: &ItemIndex<'_>, graph: &CallGraph) -> Self {
        let n = index.fns.len();

        // Local polls, then the caller-ward can-poll fixed point.
        let mut can_poll: Vec<bool> = (0..n)
            .map(|id| {
                let file = index.file(id);
                index.item(id).body.clone().any(|i| is_poll_site(file, i))
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..n {
                if can_poll[id] {
                    continue;
                }
                if graph.callees_of(id).iter().any(|&c| can_poll[c]) {
                    can_poll[id] = true;
                    changed = true;
                }
            }
        }

        // Entry set: registry-facing builders + serve workers.
        let entry: Vec<bool> = (0..n)
            .map(|id| {
                let f = &index.fns[id];
                let item = index.item(id);
                if item.in_test || item.body.is_empty() {
                    return false;
                }
                if f.krate == "serve" {
                    return true;
                }
                if !PANIC_REACH_CRATES.contains(&f.krate.as_str()) {
                    return false;
                }
                let registry_facing =
                    item.is_pub || crate::reach::REGISTRY_METHODS.contains(&item.name.as_str());
                if !registry_facing {
                    return false;
                }
                let file = index.file(id);
                item.params
                    .clone()
                    .filter_map(|j| file.s(j))
                    .any(|t| t.is_ident("ProblemContext"))
            })
            .collect();

        // Forward reachability (BFS, parents for witnesses) over call
        // edges plus the implicit `next` edge of `for` desugaring.
        let succ: Vec<Vec<usize>> = (0..n)
            .map(|id| {
                let mut s = graph.callees_of(id);
                let file = index.file(id);
                let item = index.item(id);
                let has_for = item
                    .body
                    .clone()
                    .any(|i| file.s(i).is_some_and(|t| t.is_ident("for")));
                if has_for {
                    s.extend(index.methods_visible_from(&index.fns[id].krate, "next"));
                }
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let mut reachable = vec![false; n];
        let mut parent = vec![None; n];
        let mut queue: std::collections::VecDeque<usize> = (0..n)
            .filter(|&id| entry[id])
            .inspect(|&id| reachable[id] = true)
            .collect();
        while let Some(id) = queue.pop_front() {
            for &next in &succ[id] {
                if !reachable[next] && !index.item(next).in_test {
                    reachable[next] = true;
                    parent[next] = Some(id);
                    queue.push_back(next);
                }
            }
        }

        // Boundedness exemption from `1` / `log n` budgets.
        let mut bounded = vec![false; n];
        for (fi, file) in index.files.iter().enumerate() {
            for b in &file.budgets {
                if !bounded_spec(&b.spec) {
                    continue;
                }
                if let Some(item) = file.fn_on_or_after(b.line) {
                    for &id in &index.fns_by_file[fi] {
                        if index.item(id).line == item.line {
                            bounded[id] = true;
                        }
                    }
                }
            }
        }

        CancelInfo {
            can_poll,
            entry,
            reachable,
            parent,
            bounded,
        }
    }

    /// Reconstructs the entry→…→fn witness chain for diagnostics.
    pub fn witness(&self, index: &ItemIndex<'_>, id: usize) -> String {
        let mut path = vec![index.fns[id].name.clone()];
        let mut cur = id;
        for _ in 0..12 {
            let Some(p) = self.parent[cur] else { break };
            path.push(index.fns[p].name.clone());
            cur = p;
        }
        path.reverse();
        path.join(" → ")
    }
}

/// True when a loop body polls: a syntactic poll site inside it, or a
/// call site inside it whose resolved callees can reach a poll.
fn loop_polls(
    file: &SourceFile,
    graph: &CallGraph,
    id: usize,
    info: &CancelInfo,
    body: &std::ops::Range<usize>,
) -> bool {
    if body.clone().any(|i| is_poll_site(file, i)) {
        return true;
    }
    graph.sites[id]
        .iter()
        .filter(|s| body.contains(&s.pos))
        .any(|s| s.callees.iter().any(|&c| info.can_poll[c]))
}

/// Emits cancel-liveness candidates across the workspace: one per fn
/// whose first unpolled outermost instance loop is found, attached to
/// the fn's declaration line (where the waiver grammar attaches).
pub fn candidates(index: &ItemIndex<'_>, graph: &CallGraph) -> Vec<(usize, Candidate)> {
    let info = CancelInfo::compute(index, graph);
    let hints: Vec<&str> = INSTANCE_HINTS
        .iter()
        .chain(CANCEL_EXTRA_HINTS.iter())
        .copied()
        .collect();
    let mut out = Vec::new();
    for id in 0..index.fns.len() {
        let f = &index.fns[id];
        let item = index.item(id);
        if !CANCEL_CRATES.contains(&f.krate.as_str())
            || item.in_test
            || item.body.is_empty()
            || !info.reachable[id]
            || info.bounded[id]
        {
            continue;
        }
        let file = index.file(id);
        let loops = loops_in(file, &item.body, &hints);
        for l in loops.iter().filter(|l| l.instance) {
            // Loops nested inside another instance loop are covered by
            // the outer loop's per-iteration poll requirement.
            if depth_at(&loops, l.kw) > 0 {
                continue;
            }
            if loop_polls(file, graph, id, &info, &l.body) {
                continue;
            }
            let loop_line = file.s(l.kw).map_or(item.line, |t| t.line);
            let witness = info.witness(index, id);
            out.push((
                f.file,
                Candidate {
                    line: item.line,
                    rule: "cancel-liveness",
                    message: format!(
                        "`{}` is reachable from a cancellable entry point ({witness}) but its \
                         instance loop at line {loop_line} never polls the CancelToken; call \
                         `cx.check_cancelled()?` / `token.check()?` inside the loop (or a \
                         callee), declare a `// analyze: complexity(1|log n)` budget, or \
                         annotate with `// analyze: allow(cancel-liveness) — <reason>`",
                        f.name
                    ),
                },
            ));
            break; // one report per fn; fixing the first exposes the rest
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;
    use std::path::PathBuf;

    fn file(krate: &str, path: &str, src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(path), krate.to_owned(), src)
    }

    fn analyse(files: &[SourceFile]) -> Vec<String> {
        let idx = ItemIndex::build(files);
        let g = CallGraph::build(&idx);
        candidates(&idx, &g)
            .into_iter()
            .map(|(_, c)| c.message)
            .collect()
    }

    #[test]
    fn unpolled_builder_loop_is_flagged_with_witness() {
        let src = "pub fn build(cx: &ProblemContext) -> R { scan(cx) }\n\
                   fn scan(cx: &ProblemContext) -> R {\n\
                       for e in edges {\n\
                           accept(e);\n\
                       }\n\
                       done()\n\
                   }\n";
        let msgs = analyse(&[file("core", "crates/core/src/b.rs", src)]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("build → scan"), "{}", msgs[0]);
        assert!(msgs[0].contains("line 3"), "{}", msgs[0]);
    }

    #[test]
    fn direct_poll_in_loop_is_clean() {
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for e in edges {\n\
                           cx.check_cancelled()?;\n\
                           accept(e);\n\
                       }\n\
                   }\n";
        assert!(analyse(&[file("core", "crates/core/src/b.rs", src)]).is_empty());
    }

    #[test]
    fn token_check_and_qualified_check_are_polls() {
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for e in edges { self.cancel.check()?; go(e); }\n\
                       for s in sinks { CancelToken::check(&t)?; go(s); }\n\
                   }\n";
        assert!(analyse(&[file("core", "crates/core/src/b.rs", src)]).is_empty());
    }

    #[test]
    fn poll_through_a_callee_is_clean() {
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for e in edges { step(cx, e); }\n\
                   }\n\
                   fn step(cx: &ProblemContext, e: E) { cx.check_cancelled().ok(); }\n";
        assert!(analyse(&[file("core", "crates/core/src/b.rs", src)]).is_empty());
    }

    #[test]
    fn unreachable_and_non_instance_loops_are_exempt() {
        // `helper` is private and unreferenced: not in the entry cone.
        // `build`'s loop header has no instance hint: constant-bounded.
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for bit in 0..64 { probe(bit); }\n\
                   }\n\
                   fn helper() { for e in edges { go(e); } }\n";
        assert!(analyse(&[file("core", "crates/core/src/b.rs", src)]).is_empty());
    }

    #[test]
    fn bounded_budget_exempts_and_bigger_budgets_do_not() {
        let bounded = "pub fn build(cx: &ProblemContext) -> R { small(cx) }\n\
                       // analyze: complexity(log n)\n\
                       fn small(cx: &ProblemContext) { for e in edges { go(e); } }\n";
        assert!(analyse(&[file("core", "crates/core/src/b.rs", bounded)]).is_empty());
        let quadratic = "pub fn build(cx: &ProblemContext) -> R { big(cx) }\n\
                         // analyze: complexity(n^2)\n\
                         fn big(cx: &ProblemContext) { for e in edges { go(e); } }\n";
        assert_eq!(
            analyse(&[file("core", "crates/core/src/b.rs", quadratic)]).len(),
            1
        );
    }

    #[test]
    fn inner_nested_loop_is_covered_by_outer_poll() {
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for s in sinks {\n\
                           cx.check_cancelled()?;\n\
                           for e in edges { scan(s, e); }\n\
                       }\n\
                   }\n";
        assert!(analyse(&[file("core", "crates/core/src/b.rs", src)]).is_empty());
    }

    #[test]
    fn for_desugar_keeps_iterator_impls_in_the_cone() {
        // `build` never names `next`, but its `for` loop drives it: the
        // unpolled instance loop inside the Iterator impl must be found.
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for e in cx.stream() { cx.check_cancelled()?; go(e); }\n\
                   }\n\
                   impl Iterator for S {\n\
                       fn next(&mut self) -> Option<E> { self.refill() }\n\
                   }\n\
                   impl S {\n\
                       fn refill(&mut self) -> Option<E> {\n\
                           for a in 0..self.index.len() { push(a); }\n\
                           pop()\n\
                       }\n\
                   }\n";
        let msgs = analyse(&[file("core", "crates/core/src/s.rs", src)]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`refill`"), "{}", msgs[0]);
    }

    #[test]
    fn stream_headers_are_instance_sized() {
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for e in stream { go(e); }\n\
                   }\n";
        assert_eq!(
            analyse(&[file("core", "crates/core/src/b.rs", src)]).len(),
            1
        );
    }

    #[test]
    fn serve_fns_are_entry_points_without_problem_context() {
        let src = "fn worker_loop(state: &State) {\n\
                       for job in queue { handle(job); }\n\
                   }\n";
        assert_eq!(
            analyse(&[file("serve", "crates/serve/src/w.rs", src)]).len(),
            1
        );
        // The same fn in a non-serve crate is not an entry on its own.
        assert!(analyse(&[file("geom", "crates/geom/src/w.rs", src)]).is_empty());
    }

    #[test]
    fn out_of_scope_crates_emit_nothing() {
        let src = "pub fn build(cx: &ProblemContext) -> R {\n\
                       for e in edges { go(e); }\n\
                   }\n";
        assert!(analyse(&[file("geom", "crates/geom/src/b.rs", src)]).is_empty());
    }
}
