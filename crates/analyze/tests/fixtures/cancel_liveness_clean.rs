//! cancel-liveness fixture: every reachable instance loop polls — directly,
//! through a polling callee, or is constant-bounded and exempt.

/// Polls at the top of its instance loop.
pub fn try_build(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> {
    let mut acc = 0.0;
    for v in cx.net().sinks() {
        cx.check_cancelled()?;
        acc += f64::from(v);
    }
    relax(cx, acc)
}

/// Clean because `step` polls: liveness may live in the callee cone.
fn relax(cx: &ProblemContext<'_>, acc: f64) -> Result<Tree, BmstError> {
    let mut cost = acc;
    for e in cx.edges() {
        cost += step(cx, e)?;
    }
    Ok(Tree::with_cost(cost))
}

fn step(cx: &ProblemContext<'_>, e: Edge) -> Result<f64, BmstError> {
    cx.check_cancelled()?;
    Ok(e.weight())
}

/// A constant-trip loop is not instance-sized, so no poll is demanded.
pub fn build(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> {
    let mut probes = 0.0;
    for round in 0..4 {
        probes += f64::from(round);
    }
    Ok(Tree::with_cost(probes))
}

/// A lazy enumeration polls at a stride.
pub fn try_build_geometry(cx: &ProblemContext<'_>) -> Result<Tree, BmstError> {
    let enumerator = TreeEnumerator::new(cx);
    let mut examined = 0u64;
    for candidate in enumerator {
        if examined & 0x3f == 0 {
            cx.check_cancelled()?;
        }
        examined += 1;
        if candidate.feasible() {
            return Ok(candidate.tree());
        }
    }
    Err(BmstError::infeasible())
}
