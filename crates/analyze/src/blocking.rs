//! Blocking-discipline for the routing service: no `Mutex` guard held
//! across a blocking operation — channel send/recv, stream writes, or
//! `catch_unwind` boundaries.
//!
//! The failure class is the one `serve`'s soak test can only sample: a
//! worker holding the shared receiver (or stats/cache) lock while it
//! blocks on I/O or a channel serialises every other worker behind an
//! operation of unbounded latency, and under panic recovery the same
//! shape deadlocks outright. The pass proves the absence of the shape
//! token-level, per file, no call graph needed — same
//! candidates-then-filter contract as the token rules, scoped to
//! [`crate::rules::BLOCKING_CRATES`].
//!
//! **Guard scopes** follow Rust's temporary-scope rules, which is where
//! the bugs hide:
//!
//! * a **let-bound** guard (`let g = lock_recover(&m);`) lives to the
//!   end of the enclosing block, shortened by an explicit `drop(g)`;
//! * a **chained temporary** (`lock_recover(&m).recv()`) lives to the
//!   end of the enclosing *statement* — so the `recv` happens with the
//!   lock held, the classic accidental form;
//! * an **`if let`/`while let`/`match` scrutinee** temporary lives for
//!   the whole expression, success *and* failure arms included;
//! * a **`for` iterator** temporary lives for the whole loop;
//! * a plain-`if`/`while` condition temporary drops *before* the block
//!   runs — only blocking calls inside the condition itself count.
//!
//! Any `BLOCKING_CALLS` name invoked inside a guard's scope is a
//! violation, attached to the blocking call's line and waivable there
//! via `// analyze: allow(blocking-discipline) — <reason>`. The pass
//! does not track guards across fn boundaries (a returned guard is out
//! of scope here) and errs conservative inside a scope: a blocking name
//! on a non-blocking type still flags and takes a waiver.

use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::rules::{Candidate, BLOCKING_CRATES};

/// Names that acquire a mutex guard: the service's panic-tolerant
/// wrapper plus the raw `std::sync` method.
const LOCK_CALLS: &[&str] = &["lock_recover", "lock"];

/// Blocking leaf names a guard must not be held across. Channel
/// operations, stream I/O, panic isolation (whose closure can run
/// arbitrarily long), thread coordination. Bare `read`/`write` are
/// deliberately absent — they are `RwLock` acquisitions, not I/O, in
/// this workspace's vocabulary.
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "write_all",
    "write_fmt",
    "flush",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "catch_unwind",
    "accept",
    "join",
    "park",
    "sleep",
    "wait",
    "wait_timeout",
];

/// True when the significant token at `i` acquires a mutex guard:
/// `lock_recover(...)` free/qualified, or a `.lock(...)` method call.
fn is_lock_site(file: &SourceFile, i: usize) -> bool {
    let Some(t) = file.s(i) else { return false };
    if t.kind != TokenKind::Ident
        || !LOCK_CALLS.contains(&t.ident_name())
        || !file.s(i + 1).is_some_and(|n| n.is_punct('('))
    {
        return false;
    }
    if i > 0 && file.s(i - 1).is_some_and(|p| p.is_ident("fn")) {
        return false; // the definition of the wrapper itself
    }
    // The raw method form only counts with a receiver (`m.lock(`).
    t.ident_name() != "lock" || (i > 0 && file.s(i - 1).is_some_and(|p| p.is_punct('.')))
}

/// The significant position of the `)` matching the `(` at `open`.
fn close_paren(file: &SourceFile, open: usize) -> usize {
    let mut d = 0i32;
    let mut j = open;
    while let Some(t) = file.s(j) {
        if t.is_punct('(') {
            d += 1;
        } else if t.is_punct(')') {
            d -= 1;
            if d == 0 {
                return j;
            }
        }
        j += 1;
    }
    j
}

/// Walks back from the lock site to the start of its statement: the
/// position after the previous `;`, `{`, or `}` at the same nesting.
fn stmt_start(file: &SourceFile, i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i32;
    while j > 0 {
        let Some(t) = file.s(j - 1) else { break };
        match t.kind {
            TokenKind::Punct(')' | ']') => depth += 1,
            TokenKind::Punct('(' | '[') if depth > 0 => depth -= 1,
            TokenKind::Punct(';' | '{' | '}') if depth == 0 => return j,
            _ => {}
        }
        j -= 1;
    }
    j
}

/// The position one past the next `;` at statement level, or `limit` if
/// the statement is a tail expression.
fn stmt_end(file: &SourceFile, from: usize, limit: usize) -> usize {
    let mut d = 0i32;
    let mut j = from;
    while j < limit {
        let Some(t) = file.s(j) else { break };
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => d += 1,
            TokenKind::Punct(')' | ']' | '}') => d -= 1,
            TokenKind::Punct(';') if d == 0 => return j + 1,
            _ => {}
        }
        if d < 0 {
            return j; // fell off the enclosing block: tail expression
        }
        j += 1;
    }
    j
}

/// The position of the `}` closing the block that contains `from`
/// (bounded by `limit`, the fn body end).
fn block_end(file: &SourceFile, from: usize, limit: usize) -> usize {
    let mut d = 0i32;
    let mut j = from;
    while j < limit {
        let Some(t) = file.s(j) else { break };
        if t.is_punct('{') {
            d += 1;
        } else if t.is_punct('}') {
            d -= 1;
            if d < 0 {
                return j;
            }
        }
        j += 1;
    }
    j
}

/// The `{` opening the body of a control-flow header starting at `kw`:
/// the first brace outside parens/brackets.
fn header_brace(file: &SourceFile, kw: usize, limit: usize) -> usize {
    let mut d = 0i32;
    let mut j = kw + 1;
    while j < limit {
        let Some(t) = file.s(j) else { break };
        match t.kind {
            TokenKind::Punct('(' | '[') => d += 1,
            TokenKind::Punct(')' | ']') => d -= 1,
            TokenKind::Punct('{') if d == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// The significant range a guard acquired at `lock` (with `close` its
/// closing paren) stays alive over, per the temporary-scope rules in the
/// module docs. `limit` bounds everything to the enclosing fn body.
fn guard_scope(
    file: &SourceFile,
    lock: usize,
    close: usize,
    limit: usize,
) -> std::ops::Range<usize> {
    let start = stmt_start(file, lock);
    let kw = file.s(start).map(|t| t.ident_name().to_owned());
    match kw.as_deref() {
        Some("let") => {
            let chained = !file.s(close + 1).is_some_and(|t| t.is_punct(';'));
            if chained {
                // `let x = lock(..).recv();` — temporary to the `;`.
                return close + 1..stmt_end(file, close + 1, limit);
            }
            // `let g = lock(..);` — bound to end of block, or `drop(g)`.
            let guard = file
                .s(start + 1)
                .filter(|t| !t.is_ident("mut"))
                .or_else(|| file.s(start + 2))
                .map(|t| t.ident_name().to_owned())
                .unwrap_or_default();
            let end = block_end(file, close + 1, limit);
            for j in close + 1..end {
                if file.s(j).is_some_and(|t| t.is_ident("drop"))
                    && file.s(j + 1).is_some_and(|t| t.is_punct('('))
                    && file.s(j + 2).is_some_and(|t| t.ident_name() == guard)
                {
                    return close + 1..j;
                }
            }
            close + 1..end
        }
        Some(k @ ("if" | "while")) => {
            let brace = header_brace(file, start, limit);
            let is_let = file.s(start + 1).is_some_and(|t| t.is_ident("let"));
            if is_let {
                // Scrutinee temporary: whole expression. Approximated by
                // the first arm's block — `else` chains extend further,
                // which only under-flags there.
                close + 1..block_end(file, brace + 1, limit) + 1
            } else {
                // Plain condition: the guard drops before the block.
                let _ = k;
                close + 1..brace
            }
        }
        Some("match" | "for") => {
            // Scrutinee / iterator temporary: the whole block.
            let brace = header_brace(file, start, limit);
            close + 1..block_end(file, brace + 1, limit) + 1
        }
        _ => close + 1..stmt_end(file, close + 1, limit),
    }
}

/// Emits blocking-discipline candidates for one file: every blocking
/// call inside a live guard scope.
fn candidates_file(file: &SourceFile) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let mut seen: Vec<(usize, String)> = Vec::new();
    for item in &file.fns {
        if item.in_test || item.body.is_empty() {
            continue;
        }
        for i in item.body.clone() {
            if !is_lock_site(file, i) || file.sig_in_test(i) {
                continue;
            }
            let close = close_paren(file, i + 1);
            let scope = guard_scope(file, i, close, item.body.end);
            let lock_line = file.s(i).map_or(item.line, |t| t.line);
            for j in scope {
                let Some(t) = file.s(j) else { break };
                if t.kind != TokenKind::Ident
                    || !BLOCKING_CALLS.contains(&t.ident_name())
                    || !file.s(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    continue;
                }
                if file.s(j.wrapping_sub(1)).is_some_and(|p| p.is_ident("fn")) {
                    continue;
                }
                let call = t.ident_name().to_owned();
                let line = t.line;
                if seen.contains(&(line, call.clone())) {
                    continue; // overlapping guard scopes: one report per site
                }
                seen.push((line, call.clone()));
                out.push(Candidate {
                    line,
                    rule: "blocking-discipline",
                    message: format!(
                        "`{}` blocks while the mutex guard acquired on line {lock_line} is \
                         still held; drop the guard first (bind and `drop()`, or end the \
                         statement) or annotate with \
                         `// analyze: allow(blocking-discipline) — <reason>`",
                        call
                    ),
                });
            }
        }
    }
    out
}

/// Emits blocking-discipline candidates across the workspace, scoped to
/// [`BLOCKING_CRATES`].
pub fn candidates(files: &[SourceFile]) -> Vec<(usize, Candidate)> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !BLOCKING_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for c in candidates_file(file) {
            out.push((fi, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic
    use super::*;
    use std::path::PathBuf;

    fn analyse(src: &str) -> Vec<String> {
        let file = SourceFile::new(
            PathBuf::from("crates/serve/src/server.rs"),
            "serve".to_owned(),
            src,
        );
        candidates(std::slice::from_ref(&file))
            .into_iter()
            .map(|(_, c)| c.message)
            .collect()
    }

    #[test]
    fn chained_recv_on_guard_temporary_is_flagged() {
        let src = "fn worker(rx: &Mutex<Receiver<Job>>) {\n\
                       let job = lock_recover(rx).recv();\n\
                   }\n";
        let msgs = analyse(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`recv`"), "{}", msgs[0]);
        assert!(msgs[0].contains("line 2"), "{}", msgs[0]);
    }

    #[test]
    fn bound_guard_held_across_write_is_flagged() {
        let src = "fn out(m: &Mutex<W>) {\n\
                       let mut w = lock_recover(m);\n\
                       w.write_all(b\"x\");\n\
                       w.flush();\n\
                   }\n";
        let msgs = analyse(src);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("`write_all`"));
        assert!(msgs[1].contains("`flush`"));
    }

    #[test]
    fn dropping_the_guard_ends_its_scope() {
        let src = "fn out(m: &Mutex<V>, tx: &Sender<V>) {\n\
                       let v = lock_recover(m);\n\
                       let snapshot = v.clone();\n\
                       drop(v);\n\
                       tx.send(snapshot);\n\
                   }\n";
        assert!(analyse(src).is_empty());
    }

    #[test]
    fn bind_then_send_after_statement_end_is_clean() {
        let src = "fn out(m: &Mutex<V>, tx: &Sender<V>) {\n\
                       let snapshot = lock_recover(m).clone();\n\
                       tx.send(snapshot);\n\
                   }\n";
        assert!(analyse(src).is_empty());
    }

    #[test]
    fn plain_if_condition_guard_drops_before_the_block() {
        let src = "fn gate(m: &Mutex<State>, tx: &Sender<V>) {\n\
                       if lock_recover(m).is_ready() {\n\
                           tx.send(done());\n\
                       }\n\
                   }\n";
        assert!(analyse(src).is_empty());
    }

    #[test]
    fn if_let_scrutinee_guard_lives_for_the_whole_arm() {
        let src = "fn cached(m: &Mutex<Cache>, tx: &Sender<V>) {\n\
                       if let Some(hit) = lock_recover(m).get(&key) {\n\
                           tx.send(hit.clone());\n\
                       }\n\
                   }\n";
        let msgs = analyse(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`send`"));
    }

    #[test]
    fn match_scrutinee_and_for_iterator_guards_live_on() {
        let m_src = "fn route(m: &Mutex<S>, out: &mut W) {\n\
                         match lock_recover(m).kind() {\n\
                             K::A => out.flush(),\n\
                             _ => Ok(()),\n\
                         };\n\
                     }\n";
        assert_eq!(analyse(m_src).len(), 1);
        let f_src = "fn drain(m: &Mutex<Vec<J>>, tx: &Sender<J>) {\n\
                         for j in lock_recover(m).drain(..) {\n\
                             tx.send(j);\n\
                         }\n\
                     }\n";
        assert_eq!(analyse(f_src).len(), 1);
    }

    #[test]
    fn raw_lock_method_counts_and_catch_unwind_blocks() {
        let src = "fn risky(m: &Mutex<S>) {\n\
                       let g = m.lock();\n\
                       catch_unwind(|| run(&g));\n\
                   }\n";
        let msgs = analyse(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`catch_unwind`"));
    }

    #[test]
    fn non_blocking_guard_use_is_clean() {
        let src = "fn count(m: &Mutex<Stats>) -> u64 {\n\
                       let s = lock_recover(m);\n\
                       s.jobs + s.errors\n\
                   }\n\
                   fn bump(m: &Mutex<Stats>) {\n\
                       lock_recover(m).jobs += 1;\n\
                   }\n";
        assert!(analyse(src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_and_test_code_are_exempt() {
        let hot = "fn worker(rx: &Mutex<Receiver<J>>) { let j = lock_recover(rx).recv(); }\n";
        let file = SourceFile::new(
            PathBuf::from("crates/core/src/x.rs"),
            "core".to_owned(),
            hot,
        );
        assert!(candidates(std::slice::from_ref(&file)).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn worker(rx: &Mutex<Receiver<J>>) { let j = lock_recover(rx).recv(); }\n}\n";
        assert!(analyse(test_src).is_empty());
    }
}
