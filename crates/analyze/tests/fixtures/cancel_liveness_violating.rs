//! cancel-liveness fixture: registry-facing builders whose instance loops
//! never poll the `CancelToken` — one directly, one through a callee so the
//! witness chain carries the transitive edge, and one draining a lazy
//! enumerator whose header names no collection.

/// The entry point itself owns an unpolled instance loop.
pub fn try_build(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> {
    let mut acc = 0.0;
    for v in cx.net().sinks() {
        acc += weight(v);
    }
    grow(cx, acc)
}

/// Reached from `try_build`: its loop over the edge supply must poll too.
fn grow(cx: &ProblemContext<'_>, acc: f64) -> Result<Tree, BmstError> {
    let mut cost = acc;
    for e in cx.edges() {
        cost += e.weight();
    }
    Ok(Tree::with_cost(cost))
}

fn weight(v: usize) -> f64 {
    f64::from(v)
}

/// Drains a lazy spanning-tree enumerator: each candidate costs a tree
/// build, and nothing bounds how many come out before a feasible one.
pub fn build(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> {
    let enumerator = TreeEnumerator::new(cx);
    for candidate in enumerator {
        if candidate.feasible() {
            return Ok(candidate.tree());
        }
    }
    Err(BmstError::infeasible())
}
