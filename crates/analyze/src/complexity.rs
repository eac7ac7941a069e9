//! Complexity-budget enforcement: loop-nesting depth over
//! instance-sized collections, checked against declared
//! `// analyze: complexity(<budget>)` markers, call-graph aware.
//!
//! The depth model is deliberately coarse — it counts nesting of
//! **instance loops** (`for`/`while` whose header mentions an
//! instance-sized collection: sinks, edges, nets, …) and adds the
//! effective depth of callees at each call site. A budget of `n^2`
//! allows depth 2, `n log n`/`n`/`log n` allow depth 1, `1` allows 0.
//! Budgeted (and explicitly waived) fns are *audited boundaries*: they
//! contribute depth 0 to callers, because their cost has been reviewed
//! and declared (memoised `OnceLock` sites are the canonical example —
//! `matrix()` is O(n²) once, not per call).
//!
//! Enforcement is two-sided:
//!
//! * a **budgeted** fn whose effective depth exceeds its budget fails;
//! * an **unbudgeted** fn in [`crate::rules::COMPLEXITY_CRATES`] with a
//!   *local* instance-loop nest of depth ≥ 2 fails — a new quadratic
//!   hot spot must either declare its budget or restructure.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::callgraph::CallGraph;
use crate::items::ItemIndex;
use crate::model::SourceFile;
use crate::rules::{Candidate, COMPLEXITY_CRATES};

/// Effective-depth values are clamped here: beyond this the precise
/// number is meaningless and the fixed point must terminate.
const DEPTH_CAP: u32 = 5;

/// Identifier hints marking a loop as iterating an instance-sized
/// collection. Tuned to this workspace's vocabulary (sinks, edges,
/// nets, the forest's component `members`, …); `len`/`n` catch the
/// `for i in 0..xs.len()` index form.
pub(crate) const INSTANCE_HINTS: &[&str] = &[
    "sinks",
    "sink",
    "edges",
    "edge",
    "points",
    "nodes",
    "node",
    "terminals",
    "nets",
    "net",
    "neighbors",
    "len",
    "n",
    "m",
    "matrix",
    "heap",
    "queue",
    "candidates",
    "pairs",
    "vertices",
    "children",
    "adjacency",
    "adj",
    "segments",
    "parents",
    "order",
    "sorted",
    "items",
    "members",
];

/// Parses a budget spec into its allowed instance-loop depth.
/// Recognised: `1`, `log n` (0/1), `n`, `n log n` (1), `n^k` (k).
pub fn allowed_depth(spec: &str) -> Option<u32> {
    let norm: String = spec
        .to_lowercase()
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    match norm.as_str() {
        "1" => Some(0),
        "logn" | "n" | "nlogn" => Some(1),
        _ => {
            let k = norm.strip_prefix("n^")?;
            k.parse::<u32>().ok().filter(|&k| (2..=9).contains(&k))
        }
    }
}

/// One `for`/`while` loop inside a fn body: its keyword position, body
/// span (significant positions), and whether the header marks it
/// instance-sized. Shared with the cancel-liveness pass, which extracts
/// loops with a wider hint vocabulary.
#[derive(Debug)]
pub(crate) struct Loop {
    pub(crate) kw: usize,
    pub(crate) body: Range<usize>,
    pub(crate) instance: bool,
}

/// Extracts the loops of a body range. Headers run from the loop keyword
/// to the body `{` at bracket-neutral depth; `loop {}` has no header and
/// never counts as instance-sized. `hints` selects the identifier
/// vocabulary that marks a header instance-sized — the complexity pass
/// uses [`INSTANCE_HINTS`], the cancel-liveness pass extends it.
pub(crate) fn loops_in(file: &SourceFile, body: &Range<usize>, hints: &[&str]) -> Vec<Loop> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let Some(t) = file.s(i) else { break };
        if !(t.is_ident("for") || t.is_ident("while")) {
            i += 1;
            continue;
        }
        // Find the body `{`: first brace outside parens/brackets.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut instance = false;
        while let Some(h) = file.s(j) {
            if j >= body.end {
                break;
            }
            match h.kind {
                crate::lexer::TokenKind::Punct('(' | '[') => depth += 1,
                crate::lexer::TokenKind::Punct(')' | ']') => depth -= 1,
                crate::lexer::TokenKind::Punct('{') if depth == 0 => break,
                crate::lexer::TokenKind::Ident if hints.contains(&h.ident_name()) => {
                    instance = true;
                }
                _ => {}
            }
            j += 1;
        }
        // Brace-match the loop body.
        let mut d = 1i32;
        let mut m = j + 1;
        while d > 0 && m < body.end + 1 {
            let Some(t) = file.s(m) else { break };
            if t.is_punct('{') {
                d += 1;
            } else if t.is_punct('}') {
                d -= 1;
            }
            m += 1;
        }
        out.push(Loop {
            kw: i,
            body: j + 1..m.saturating_sub(1),
            instance,
        });
        i += 1; // nested loops are found by continuing inside the header/body
    }
    out
}

/// Instance-loop depth at a significant position: how many instance
/// loops of this fn contain it.
pub(crate) fn depth_at(loops: &[Loop], pos: usize) -> u32 {
    let n = loops
        .iter()
        .filter(|l| l.instance && l.body.contains(&pos))
        .count();
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Max local instance-loop nesting of a fn: for each instance loop, one
/// for itself plus its instance ancestors (loops whose body contains its
/// keyword — a loop's own body never does).
fn local_depth(loops: &[Loop]) -> u32 {
    loops
        .iter()
        .filter(|l| l.instance)
        .map(|l| 1 + depth_at(loops, l.kw))
        .max()
        .unwrap_or(0)
}

/// Per-fn budget facts resolved from the files' budget markers.
struct Budgets {
    /// fn id → allowed depth (parsed budget).
    allowed: BTreeMap<usize, u32>,
    /// fn id → waived (reasoned `analyze: allow(complexity)` attached).
    waived: Vec<bool>,
    /// Marker-hygiene violations (unparsable spec, dangling marker).
    hygiene: Vec<(usize, Candidate)>,
}

/// Resolves budget markers and complexity waivers to fn ids.
fn resolve_budgets(index: &ItemIndex<'_>) -> Budgets {
    let mut allowed = BTreeMap::new();
    let mut waived = vec![false; index.fns.len()];
    let mut hygiene = Vec::new();
    for (fi, file) in index.files.iter().enumerate() {
        let fn_id_at = |item_line: usize| -> Option<usize> {
            index.fns_by_file[fi]
                .iter()
                .copied()
                .find(|&id| index.item(id).line == item_line)
        };
        for b in &file.budgets {
            let target = file
                .fn_on_or_after(b.line)
                .and_then(|item| fn_id_at(item.line));
            let Some(id) = target else {
                hygiene.push((
                    fi,
                    Candidate {
                        line: b.line,
                        rule: "complexity",
                        message: format!(
                            "`analyze: complexity({})` attaches to no fn item (expected on the \
                             fn's line or the line above)",
                            b.spec
                        ),
                    },
                ));
                continue;
            };
            match allowed_depth(&b.spec) {
                Some(d) => {
                    allowed.insert(id, d);
                }
                None => hygiene.push((
                    fi,
                    Candidate {
                        line: b.line,
                        rule: "complexity",
                        message: format!(
                            "unparsable complexity budget `{}`; expected `1`, `log n`, `n`, \
                             `n log n`, or `n^k`",
                            b.spec
                        ),
                    },
                )),
            }
        }
        for m in &file.sem_markers {
            if m.rule == "complexity" && m.has_reason {
                if let Some(id) = file
                    .fn_on_or_after(m.line)
                    .and_then(|item| fn_id_at(item.line))
                {
                    waived[id] = true;
                }
            }
        }
    }
    Budgets {
        allowed,
        waived,
        hygiene,
    }
}

/// Strongly connected components of the deduped call graph, via an
/// iterative Tarjan walk. Components are numbered callees-first: every
/// SCC a component can reach gets a smaller id.
fn sccs(n: usize, succ: &[Vec<usize>]) -> Vec<usize> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    let mut frames: Vec<(usize, usize)> = Vec::new(); // (node, next child)
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&(v, ci)) = frames.last() {
            if let Some(&w) = succ[v].get(ci) {
                if let Some(last) = frames.last_mut() {
                    last.1 += 1;
                }
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// Computes every fn's effective instance-loop depth: local nesting plus
/// callee contributions at their call-site depth, in one callees-first
/// pass over the call graph's SCC condensation. Intra-SCC edges
/// (recursion, mutual or direct) contribute nothing — recursion depth is
/// not loop depth, and counting it would saturate every cycle at the
/// cap. Audited boundaries (budgeted or waived fns) and test fns also
/// contribute 0.
fn effective(
    index: &ItemIndex<'_>,
    graph: &CallGraph,
    budgets: &Budgets,
    fn_loops: &[Vec<Loop>],
    local: &[u32],
) -> Vec<u32> {
    let n = index.fns.len();
    let succ: Vec<Vec<usize>> = (0..n).map(|id| graph.callees_of(id)).collect();
    let comp = sccs(n, &succ);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&id| comp[id]);
    let mut eff = vec![0u32; n];
    for &id in &order {
        if index.item(id).in_test {
            continue;
        }
        let mut best = local[id];
        for site in &graph.sites[id] {
            let at = depth_at(&fn_loops[id], site.pos);
            best = best.max(at);
            for &callee in &site.callees {
                if comp[callee] == comp[id]
                    || budgets.allowed.contains_key(&callee)
                    || budgets.waived[callee]
                    || index.item(callee).in_test
                {
                    continue;
                }
                best = best.max((at + eff[callee]).min(DEPTH_CAP));
            }
        }
        eff[id] = best;
    }
    eff
}

/// The effective instance-loop depth of every indexed fn — exposed for
/// diagnostics and tooling.
pub fn effective_depths(index: &ItemIndex<'_>, graph: &CallGraph) -> Vec<u32> {
    let n = index.fns.len();
    let budgets = resolve_budgets(index);
    let fn_loops: Vec<Vec<Loop>> = (0..n)
        .map(|id| loops_in(index.file(id), &index.item(id).body, INSTANCE_HINTS))
        .collect();
    let local: Vec<u32> = fn_loops.iter().map(|l| local_depth(l)).collect();
    effective(index, graph, &budgets, &fn_loops, &local)
}

/// Emits complexity candidates across the workspace.
pub fn candidates(index: &ItemIndex<'_>, graph: &CallGraph) -> Vec<(usize, Candidate)> {
    let n = index.fns.len();
    let budgets = resolve_budgets(index);
    let fn_loops: Vec<Vec<Loop>> = (0..n)
        .map(|id| loops_in(index.file(id), &index.item(id).body, INSTANCE_HINTS))
        .collect();
    let local: Vec<u32> = fn_loops.iter().map(|l| local_depth(l)).collect();
    let eff = effective(index, graph, &budgets, &fn_loops, &local);

    let mut out = budgets.hygiene;
    for id in 0..n {
        let item = index.item(id);
        if item.in_test {
            continue;
        }
        let f = &index.fns[id];
        if let Some(&allowed) = budgets.allowed.get(&id) {
            if eff[id] > allowed {
                out.push((
                    f.file,
                    Candidate {
                        line: item.line,
                        rule: "complexity",
                        message: format!(
                            "`{}` has effective instance-loop depth {} but declares a budget \
                             allowing depth {allowed}; tighten the code or raise the declared \
                             budget",
                            f.name, eff[id]
                        ),
                    },
                ));
            }
        } else if COMPLEXITY_CRATES.contains(&f.krate.as_str()) && local[id] >= 2 {
            // Waived fns still emit: the engine's marker pass suppresses
            // the candidate and tracks the waiver's staleness.
            out.push((
                f.file,
                Candidate {
                    line: item.line,
                    rule: "complexity",
                    message: format!(
                        "`{}` nests instance loops to depth {} without a declared budget; add \
                         `// analyze: complexity(n^{})` (with review) or restructure, or \
                         annotate with `// analyze: allow(complexity) — <reason>`",
                        f.name, local[id], local[id]
                    ),
                },
            ));
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

    fn analyse(files: &[SourceFile]) -> Vec<Candidate> {
        let idx = ItemIndex::build(files);
        let g = CallGraph::build(&idx);
        candidates(&idx, &g).into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn budget_specs_parse_to_depths() {
        assert_eq!(allowed_depth("1"), Some(0));
        assert_eq!(allowed_depth("log n"), Some(1));
        assert_eq!(allowed_depth("n"), Some(1));
        assert_eq!(allowed_depth("n log n"), Some(1));
        assert_eq!(allowed_depth("N log N"), Some(1));
        assert_eq!(allowed_depth("n^2"), Some(2));
        assert_eq!(allowed_depth("n^3"), Some(3));
        assert_eq!(allowed_depth("n^1"), None);
        assert_eq!(allowed_depth("exp"), None);
    }

    #[test]
    fn unbudgeted_quadratic_nest_is_flagged() {
        let src = "fn hot(sinks: &[P]) {\n    for a in sinks {\n        for b in sinks {\n            go(a, b);\n        }\n    }\n}\n";
        let out = analyse(&[file("core", "crates/core/src/h.rs", src)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("depth 2 without a declared budget"));
    }

    #[test]
    fn budgeted_quadratic_nest_is_clean() {
        let src = "// analyze: complexity(n^2)\nfn hot(sinks: &[P]) {\n    for a in sinks {\n        for b in sinks {\n            go(a, b);\n        }\n    }\n}\n";
        assert!(analyse(&[file("core", "crates/core/src/h.rs", src)]).is_empty());
    }

    #[test]
    fn budget_violated_by_deeper_nest() {
        let src = "// analyze: complexity(n)\nfn hot(sinks: &[P]) {\n    for a in sinks {\n        for b in sinks {}\n    }\n}\n";
        let out = analyse(&[file("core", "crates/core/src/h.rs", src)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("depth 2"), "{}", out[0].message);
        assert!(out[0].message.contains("allowing depth 1"));
    }

    #[test]
    fn callee_depth_flows_into_budget_check() {
        // Caller loops over sinks and calls a fn that itself loops over
        // sinks: effective depth 2, violating the caller's `n` budget.
        let src = "// analyze: complexity(n)\nfn hot(sinks: &[P]) {\n    for a in sinks { inner(sinks); }\n}\nfn inner(sinks: &[P]) { for b in sinks {} }\n";
        let out = analyse(&[file("core", "crates/core/src/h.rs", src)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`hot`"));
    }

    #[test]
    fn budgeted_callee_is_an_audited_boundary() {
        // The callee declares n^2; its cost does not leak into callers.
        let src = "// analyze: complexity(n)\nfn hot(sinks: &[P]) {\n    for a in sinks { memoised(sinks); }\n}\n// analyze: complexity(n^2)\nfn memoised(sinks: &[P]) { for a in sinks { for b in sinks {} } }\n";
        assert!(analyse(&[file("core", "crates/core/src/h.rs", src)]).is_empty());
    }

    #[test]
    fn non_instance_loops_do_not_count() {
        let src = "fn walk() {\n    for bit in 0..64 {\n        for side in 0..2 {\n            go(bit, side);\n        }\n    }\n}\n";
        assert!(analyse(&[file("core", "crates/core/src/h.rs", src)]).is_empty());
    }

    #[test]
    fn dangling_and_unparsable_budgets_are_hygiene_errors() {
        let src = "// analyze: complexity(n^2)\nconst X: usize = 4;\n// analyze: complexity(exp)\nfn a() {}\n";
        let out = analyse(&[file("core", "crates/core/src/h.rs", src)]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|c| c.message.contains("attaches to no fn")));
        assert!(out.iter().any(|c| c.message.contains("unparsable")));
    }

    #[test]
    fn out_of_scope_crates_are_not_floor_checked_but_budgets_are() {
        // geom is not in COMPLEXITY_CRATES: no unbudgeted-nest floor…
        let src = "fn hot(points: &[P]) { for a in points { for b in points {} } }\n";
        assert!(analyse(&[file("geom", "crates/geom/src/h.rs", src)]).is_empty());
        // …but a declared budget is still enforced there.
        let src2 = "// analyze: complexity(n)\nfn hot(points: &[P]) { for a in points { for b in points {} } }\n";
        assert_eq!(
            analyse(&[file("geom", "crates/geom/src/h.rs", src2)]).len(),
            1
        );
    }
}
