//! Oracle suite for the linear-memory forest: `KruskalForest` keeps tree
//! edges and source paths instead of the paper's n×n path matrix `P`, and
//! must take the same decisions as the P-matrix forest it replaced. The
//! reference below is that forest as it stood (minus its observability
//! counters), with the §6 lower-bound rule BKST and graph-BKST carried as
//! closures. Both forests replay the same sorted complete edge sequence
//! through the BKRUS scan: Lemma 6.1 skips, the cycle test, (3-a)/(3-b),
//! the lower bound, and the merge. Every decision must agree. On lattice
//! nets every path sum is exact, so radii, source paths and in-tree paths
//! must also agree bit for bit.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats

use bmst_core::forest::KruskalForest;
use bmst_core::PathConstraint;
use bmst_geom::{le_tol, DistanceMatrix, Net, Point, EPS_TOL};
use bmst_graph::{complete_edges, sort_edges, DisjointSets};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The P-matrix forest: `P[x][y]` for every pair in the same partial tree,
/// updated over the full cross block on each merge.
struct PMatrixForest {
    p: DistanceMatrix,
    r: Vec<f64>,
    dsu: DisjointSets,
    members: Vec<Vec<usize>>,
    source: usize,
    potential: Vec<f64>,
}

impl PMatrixForest {
    fn new(n: usize, source: usize) -> Self {
        PMatrixForest {
            p: DistanceMatrix::zeros(n),
            r: vec![0.0; n],
            dsu: DisjointSets::new(n),
            members: (0..n).map(|i| vec![i]).collect(),
            source,
            potential: vec![f64::NAN; n],
        }
    }

    fn contains_source(&mut self, u: usize) -> bool {
        self.dsu.same_set(u, self.source)
    }

    fn is_feasible_merge(
        &mut self,
        u: usize,
        v: usize,
        w: f64,
        dist_s: &[f64],
        upper: f64,
    ) -> bool {
        if upper.is_infinite() {
            return true;
        }
        let su = self.contains_source(u);
        let sv = self.contains_source(v);
        if su || sv {
            if su {
                le_tol(self.p[(self.source, u)] + w + self.r[v], upper)
            } else {
                le_tol(self.p[(self.source, v)] + w + self.r[u], upper)
            }
        } else {
            let root_u = self.dsu.find(u);
            let root_v = self.dsu.find(v);
            let u_alive = le_tol(dist_s[u] + w + self.r[v], upper + EPS_TOL)
                && le_tol(self.component_potential(root_u, dist_s), upper);
            let v_alive = le_tol(dist_s[v] + w + self.r[u], upper + EPS_TOL)
                && le_tol(self.component_potential(root_v, dist_s), upper);
            let check = |x: usize, anchor: usize, far_r: f64, p: &DistanceMatrix, r: &[f64]| {
                let rad = r[x].max(p[(x, anchor)] + w + far_r);
                le_tol(dist_s[x] + rad, upper)
            };
            (u_alive
                && self.members[root_u]
                    .iter()
                    .any(|&x| check(x, u, self.r[v], &self.p, &self.r)))
                || (v_alive
                    && self.members[root_v]
                        .iter()
                        .any(|&x| check(x, v, self.r[u], &self.p, &self.r)))
        }
    }

    fn component_potential(&mut self, root: usize, dist_s: &[f64]) -> f64 {
        let cached = self.potential[root];
        if !cached.is_nan() {
            return cached;
        }
        let pot = self.members[root]
            .iter()
            .fold(f64::INFINITY, |m, &x| m.min(dist_s[x] + self.r[x]));
        self.potential[root] = pot;
        pot
    }

    /// The lower-bound closure of BKST and graph-BKST; BKRUS's own rule
    /// (`P[S][join] + w` alone) is the case `bounded = n`.
    fn lower_ok(&mut self, u: usize, v: usize, w: f64, lower: f64, bounded: usize) -> bool {
        if lower <= 0.0 {
            return true;
        }
        let s = self.source;
        let (join, other) = if self.contains_source(u) {
            (u, v)
        } else if self.contains_source(v) {
            (v, u)
        } else {
            return true;
        };
        let base = self.p[(s, join)] + w;
        let root = self.dsu.find(other);
        self.members[root]
            .iter()
            .filter(|&&t| t < bounded)
            .all(|&t| le_tol(lower, base + self.p[(other, t)]))
    }

    fn merge(&mut self, u: usize, v: usize, w: f64) {
        let root_u = self.dsu.find(u);
        let root_v = self.dsu.find(v);
        let mu = std::mem::take(&mut self.members[root_u]);
        let mv = std::mem::take(&mut self.members[root_v]);
        for &x in &mu {
            let px_u = self.p[(x, u)];
            for &y in &mv {
                let len = px_u + w + self.p[(v, y)];
                self.p[(x, y)] = len;
                self.p[(y, x)] = len;
            }
        }
        for &x in &mu {
            let mut rx = self.r[x];
            for &y in &mv {
                rx = rx.max(self.p[(x, y)]);
            }
            self.r[x] = rx;
        }
        for &y in &mv {
            let mut ry = self.r[y];
            for &x in &mu {
                ry = ry.max(self.p[(x, y)]);
            }
            self.r[y] = ry;
        }
        self.dsu.union(u, v);
        let new_root = self.dsu.find(u);
        let mut merged = mu;
        merged.extend(mv);
        self.members[new_root] = merged;
        self.potential[root_u] = f64::NAN;
        self.potential[root_v] = f64::NAN;
    }
}

/// What one replay saw, summed over the scan (`lower_rejects` counts every
/// probe).
#[derive(Debug, Default)]
struct Tally {
    merges: usize,
    upper_rejects: usize,
    lower_rejects: usize,
}

/// Replays BKRUS's scan on both forests under `constraint` and checks
/// every decision; with `exact`, also checks radii, source paths and the
/// in-tree paths from each merge endpoint bit for bit. Returns the tally.
fn replay(net: &Net, constraint: PathConstraint, exact: bool) -> Result<Tally, String> {
    let n = net.len();
    let s = net.source();
    let d = net.distance_matrix();
    let dist_s: Vec<f64> = (0..n).map(|v| d[(s, v)]).collect();
    let mut edges = complete_edges(&d);
    sort_edges(&mut edges);
    // BKRUS's own bound (all node ids) and a Steiner-style one that exempts
    // the upper half of the ids.
    let bounded = [n, n.div_ceil(2)];
    let r = net.source_radius();

    let mut old = PMatrixForest::new(n, s);
    let mut new = KruskalForest::new(n, s);
    let mut tally = Tally::default();
    let same = |a: f64, b: f64| {
        if exact {
            a.to_bits() == b.to_bits()
        } else {
            (a - b).abs() <= 1e-9 * a.abs().max(1.0)
        }
    };
    for e in edges {
        if new.num_components() == 1 {
            break;
        }
        if constraint.has_lower() && e.connects(s) && e.weight < constraint.lower {
            continue;
        }
        let (u, v, w) = (e.u, e.v, e.weight);
        let cycle = new.same_component(u, v);
        if cycle != old.dsu.same_set(u, v) {
            return Err(format!("cycle test differs on {e:?}"));
        }
        if cycle {
            continue;
        }
        let upper_old = old.is_feasible_merge(u, v, w, &dist_s, constraint.upper);
        let upper_new = new.is_feasible_merge(u, v, w, &dist_s, constraint.upper);
        if upper_old != upper_new {
            return Err(format!(
                "upper-bound decision differs on {e:?}: P-matrix {upper_old}, forest {upper_new}"
            ));
        }
        // The scan's own lower bound, plus probes the Lemma 6.1 skip does
        // not shield (after it, BKRUS's own bound can never bind).
        let mut lower = true;
        for probe in [constraint.lower, 0.5 * r, r] {
            for &b in &bounded {
                let lower_old = old.lower_ok(u, v, w, probe, b);
                let lower_new = new.clears_lower_bound(u, v, w, probe, b);
                if lower_old != lower_new {
                    return Err(format!(
                        "lower-bound decision (lower {probe}, bounded {b}) differs on {e:?}: \
                         P-matrix {lower_old}, forest {lower_new}"
                    ));
                }
                tally.lower_rejects += usize::from(!lower_new);
                if probe == constraint.lower && b == n {
                    lower = lower_new;
                }
            }
        }
        tally.upper_rejects += usize::from(!upper_new);
        if !(upper_new && lower) {
            continue;
        }
        old.merge(u, v, w);
        new.merge(u, v, w);
        tally.merges += 1;
        for x in 0..n {
            if !same(old.r[x], new.radius(x)) {
                return Err(format!(
                    "r[{x}] after {e:?}: {} vs {}",
                    old.r[x],
                    new.radius(x)
                ));
            }
        }
        let component = new.component(u).to_vec();
        let source_side = new.contains_source(u);
        for &y in &component {
            if source_side && !same(old.p[(s, y)], new.source_path(y)) {
                return Err(format!(
                    "P[S][{y}] after {e:?}: {} vs {}",
                    old.p[(s, y)],
                    new.source_path(y)
                ));
            }
            if !same(old.p[(u, y)], new.path(u, y)) {
                return Err(format!(
                    "P[{u}][{y}] after {e:?}: {} vs {}",
                    old.p[(u, y)],
                    new.path(u, y)
                ));
            }
        }
    }
    Ok(tally)
}

/// An upper eps and a lower eps1 (0 for none); the window forms are the
/// LUB-BKRUS ones.
fn constraint_for(net: &Net, eps1: f64, eps2: f64) -> PathConstraint {
    if eps1 > 0.0 {
        PathConstraint::from_eps_window(net, eps1, eps2).unwrap()
    } else {
        PathConstraint::from_eps(net, eps2).unwrap()
    }
}

/// Integer lattice, coordinates 0–20: exact sums and many ties.
fn arb_lattice_net() -> impl Strategy<Value = Net> {
    proptest::collection::vec((0i32..21, 0i32..21), 2..=14).prop_filter_map(
        "needs >= 2 distinct points",
        |coords| {
            let pts: Vec<Point> = coords
                .iter()
                .map(|&(x, y)| Point::new(f64::from(x), f64::from(y)))
                .collect();
            let net = Net::with_source_first(pts).ok()?;
            (net.source_radius() > 0.0).then_some(net)
        },
    )
}

/// Uniform f64 coordinates: sums round, so only decisions must agree.
fn arb_uniform_net() -> impl Strategy<Value = Net> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..=14).prop_filter_map(
        "needs a positive radius",
        |coords| {
            let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let net = Net::with_source_first(pts).ok()?;
            (net.source_radius() > 0.0).then_some(net)
        },
    )
}

fn arb_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.1), Just(0.5), Just(f64::INFINITY)]
}

fn arb_eps1() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.3), Just(0.7), Just(1.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lattice nets: the same decisions, and the same radii, source paths
    /// and in-tree paths bit for bit.
    #[test]
    fn lattice_nets_match_the_p_matrix_bit_for_bit(
        net in arb_lattice_net(),
        eps in arb_eps(),
        eps1 in arb_eps1(),
    ) {
        let c = constraint_for(&net, eps1, eps);
        if let Err(msg) = replay(&net, c, true) {
            prop_assert!(false, "eps {} eps1 {}: {}", eps, eps1, msg);
        }
    }

    /// Uniform f64 nets: the same decisions and merges.
    #[test]
    fn uniform_nets_take_the_p_matrix_decisions(
        net in arb_uniform_net(),
        eps in arb_eps(),
        eps1 in arb_eps1(),
    ) {
        let c = constraint_for(&net, eps1, eps);
        if let Err(msg) = replay(&net, c, false) {
            prop_assert!(false, "eps {} eps1 {}: {}", eps, eps1, msg);
        }
    }
}

/// A seeded corpus of larger nets over every eps and window: the replay
/// agrees everywhere, and the corpus exercises each kind of rejection (so
/// agreement is not vacuous).
#[test]
fn seeded_corpus_agrees_and_exercises_every_rule() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut total = Tally::default();
    for k in 0..40 {
        let n = rng.gen_range(10..48);
        let lattice = k % 2 == 0;
        let pts: Vec<Point> = (0..n)
            .map(|_| {
                if lattice {
                    Point::new(
                        f64::from(rng.gen_range(0i32..21)),
                        f64::from(rng.gen_range(0i32..21)),
                    )
                } else {
                    Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))
                }
            })
            .collect();
        let net = Net::with_source_first(pts).unwrap();
        if net.source_radius() <= 0.0 {
            continue;
        }
        for eps in [0.0, 0.1, 0.5, f64::INFINITY] {
            for eps1 in [0.0, 0.3, 0.7] {
                let c = constraint_for(&net, eps1, eps);
                let t = replay(&net, c, lattice)
                    .unwrap_or_else(|msg| panic!("net {k}, eps {eps}, eps1 {eps1}: {msg}"));
                total.merges += t.merges;
                total.upper_rejects += t.upper_rejects;
                total.lower_rejects += t.lower_rejects;
            }
        }
    }
    assert!(total.merges > 1000, "{total:?}");
    assert!(total.upper_rejects > 100, "{total:?}");
    assert!(total.lower_rejects > 100, "{total:?}");
}
