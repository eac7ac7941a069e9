//! The partial-tree bookkeeping behind BKRUS: disjoint components, the
//! in-tree source paths, the radius vector `r`, and the paper's `Merge`
//! routine and feasibility conditions (3-a)/(3-b).
//!
//! The paper's n×n path matrix `P` is not kept: (3-a) reads only its source
//! row, and (3-b) and the radius refresh read distances to the merge
//! endpoint, which one walk of a partial tree yields (Cheong–Lee's
//! source-distance formulation). Memory is O(n); `Merge` is O(|t_u|+|t_v|).
//!
//! The Steiner constructions (`bmst-steiner`) reuse this machinery with a
//! growing node universe, which is why the module is public.

use bmst_geom::{le_tol, EPS_TOL};
use bmst_graph::DisjointSets;

/// Forest state maintained during a bounded-Kruskal construction.
///
/// Holds the tree edges, `src[x]` (the paper's `P[S][x]`, for `x` in the
/// source's partial tree), the radius `r[x] = max_y path(x, y)` within the
/// partial tree, and a disjoint-set forest plus member lists.
///
/// # Examples
///
/// ```
/// use bmst_core::forest::KruskalForest;
///
/// // Three nodes, source 0. Merge 1 and 2 with an edge of length 4.
/// let mut f = KruskalForest::new(3, 0);
/// f.merge(1, 2, 4.0);
/// assert_eq!(f.path(1, 2), 4.0);
/// assert_eq!(f.radius(1), 4.0);
/// assert!(!f.same_component(0, 1));
/// // Attach the pair to the source through node 1.
/// f.merge(0, 1, 3.0);
/// assert_eq!(f.source_path(2), 7.0);
/// ```
#[derive(Debug, Clone)]
pub struct KruskalForest {
    /// Tree edges as `(neighbor, length)` lists.
    adj: Vec<Vec<(usize, f64)>>,
    src: Vec<f64>,
    r: Vec<f64>,
    dsu: DisjointSets,
    members: Vec<Vec<usize>>,
    source: usize,
    /// Per-root cache of `min over members x of dist_s[x] + r[x]`, used as an
    /// O(1) necessary condition in the (3-b) scan. `NAN` marks a stale entry
    /// (recomputed lazily); `merge` and `add_node` invalidate. Valid only
    /// while the caller keeps feeding the same `dist_s` values for existing
    /// nodes, which every construction does (`dist_s[x]` is the fixed
    /// geometric source distance of node `x`).
    potential: Vec<f64>,
    /// Walk scratch: `dist[x]` from the latest walk of `x`'s partial tree,
    /// and the `(node, parent)` pairs still to visit.
    dist: Vec<f64>,
    stack: Vec<(usize, usize)>,
}

impl KruskalForest {
    /// Creates `n` singleton partial trees; node `source` is the source.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    pub fn new(n: usize, source: usize) -> Self {
        assert!(source < n, "source {source} out of bounds for {n} nodes");
        KruskalForest {
            adj: vec![Vec::new(); n],
            src: vec![0.0; n],
            r: vec![0.0; n],
            dsu: DisjointSets::new(n),
            members: (0..n).map(|i| vec![i]).collect(),
            source,
            potential: vec![f64::NAN; n],
            dist: vec![0.0; n],
            stack: Vec::new(),
        }
    }

    /// Number of nodes in the universe.
    #[inline]
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// Returns `true` when the forest has no nodes (never after `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// The source node index.
    #[inline]
    pub fn source(&self) -> usize {
        self.source
    }

    /// Number of remaining partial trees.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.dsu.num_sets()
    }

    /// Appends a fresh singleton node (Steiner-grid growth) and returns its
    /// index.
    pub fn add_node(&mut self) -> usize {
        let id = self.dsu.make_set();
        self.adj.push(Vec::new());
        self.src.push(0.0);
        self.r.push(0.0);
        self.members.push(vec![id]);
        self.potential.push(f64::NAN);
        self.dist.push(0.0);
        id
    }

    /// Returns `true` when `u` and `v` are already in the same partial tree
    /// (the paper's `FIND_SET(u) == FIND_SET(v)`).
    pub fn same_component(&mut self, u: usize, v: usize) -> bool {
        self.dsu.same_set(u, v)
    }

    /// Members of the partial tree containing `u`.
    pub fn component(&mut self, u: usize) -> &[usize] {
        let root = self.dsu.find(u);
        &self.members[root]
    }

    /// Returns `true` when the partial tree containing `u` contains the
    /// source.
    pub fn contains_source(&mut self, u: usize) -> bool {
        self.dsu.same_set(u, self.source)
    }

    /// In-tree path length between `x` and `y`, by one walk of their partial
    /// tree. Panics (debug) if they are in different partial trees.
    // analyze: complexity(n)
    pub fn path(&mut self, x: usize, y: usize) -> f64 {
        debug_assert!(
            self.dsu.same_set(x, y),
            "path({x}, {y}) spans two partial trees"
        );
        self.distances_from(x);
        self.dist[y]
    }

    /// In-tree path length from the source to `x` (the paper's `P[S][x]`).
    /// Meaningful only while `x` is in the source's partial tree.
    #[inline]
    pub fn source_path(&self, x: usize) -> f64 {
        self.src[x]
    }

    /// Radius `r[x]` of node `x` within its partial tree.
    #[inline]
    pub fn radius(&self, x: usize) -> f64 {
        self.r[x]
    }

    /// Tree edges at `x` as `(neighbor, length)` pairs, in the order they
    /// were merged.
    #[inline]
    pub fn neighbors(&self, x: usize) -> &[(usize, f64)] {
        &self.adj[x]
    }

    /// Writes `dist[x] = path(start, x)` for every `x` in `start`'s partial
    /// tree: one depth-first walk of its tree edges, `O(|t|)`. Entries of
    /// other partial trees are left as they are.
    // analyze: allow(cancel-liveness) — one walk of a single partial tree per call; every construction polls between forest calls
    fn distances_from(&mut self, start: usize) {
        self.dist[start] = 0.0;
        self.stack.push((start, start));
        while let Some((x, parent)) = self.stack.pop() {
            let dx = self.dist[x];
            for &(y, w) in &self.adj[x] {
                if y != parent {
                    self.dist[y] = dx + w;
                    self.stack.push((y, x));
                }
            }
        }
    }

    /// The paper's feasibility test for adding edge `(u, v)` of length `w`
    /// under the upper path-length bound `upper`.
    ///
    /// * Condition (3-a): if one component contains the source `S`, every
    ///   node of the other side stays within the bound:
    ///   `path(S, u) + w + radius(v) <= upper` (or symmetrically).
    /// * Condition (3-b): if neither side contains the source, the merged
    ///   tree must keep a *feasible node* `x` with
    ///   `dist(S, x) + radius_tM(x) <= upper`, guaranteeing it can later be
    ///   connected to the source within the bound.
    ///
    /// `dist_s[x]` must hold the *direct* (geometric) distance from the
    /// source to node `x`.
    ///
    /// Returns `true` when the merge is admissible. Does not check the
    /// cycle condition; callers test [`KruskalForest::same_component`]
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `dist_s.len() < self.len()`.
    // analyze: complexity(n)
    pub fn is_feasible_merge(
        &mut self,
        u: usize,
        v: usize,
        w: f64,
        dist_s: &[f64],
        upper: f64,
    ) -> bool {
        assert!(dist_s.len() >= self.len(), "dist_s too short");
        if upper.is_infinite() {
            return true;
        }
        let su = self.contains_source(u);
        let sv = self.contains_source(v);
        if su || sv {
            // (3-a): one side contains the source.
            let ok = if su {
                le_tol(self.src[u] + w + self.r[v], upper)
            } else {
                le_tol(self.src[v] + w + self.r[u], upper)
            };
            bmst_obs::counter(
                if ok {
                    "forest.cond3a.accept"
                } else {
                    "forest.cond3a.reject"
                },
                1,
            );
            ok
        } else {
            // (3-b): a feasible node must survive the merge.
            let root_u = self.dsu.find(u);
            let root_v = self.dsu.find(v);
            // Two O(1) *necessary* conditions gate each O(|t|) member scan;
            // both are lower bounds on every value the scan would test, so
            // skipping a side never changes the boolean result:
            //
            // * Triangle inequality: for `x` in `t_u`, `path(x, u) >= d(x, u)`
            //   (it is a sum of metric edge lengths) and
            //   `dist_s[x] + d(x, u) >= dist_s[u]`, so every scanned value
            //   is at least `dist_s[u] + w + r[v]` in exact arithmetic.
            //   Floating-point re-association can shift that bound by a few
            //   ulps, so the comparison gets an extra `EPS_TOL` of slack —
            //   being overly permissive is safe (it just falls through to
            //   the scan).
            // * Cached component potential: `dist_s[x] + rad >= dist_s[x] +
            //   r[x] >= potential` holds bit-exactly, because `rad` is
            //   `r[x].max(..)` and f64 addition is monotone, so the cached
            //   minimum is a true lower bound on the exact expressions the
            //   scan evaluates.
            let u_alive = le_tol(dist_s[u] + w + self.r[v], upper + EPS_TOL)
                && le_tol(self.component_potential(root_u, dist_s), upper);
            let v_alive = le_tol(dist_s[v] + w + self.r[u], upper + EPS_TOL)
                && le_tol(self.component_potential(root_v, dist_s), upper);
            let ok = (u_alive && self.scan_3b(u, self.r[v], w, dist_s, upper))
                || (v_alive && self.scan_3b(v, self.r[u], w, dist_s, upper));
            bmst_obs::counter(
                if ok {
                    "forest.cond3b.accept"
                } else {
                    "forest.cond3b.reject"
                },
                1,
            );
            ok
        }
    }

    /// The (3-b) scan of one side: whether some `x` in `at`'s partial tree
    /// keeps `dist_s[x] + max(r[x], path(x, at) + w + far_r) <= upper`.
    fn scan_3b(&mut self, at: usize, far_r: f64, w: f64, dist_s: &[f64], upper: f64) -> bool {
        self.distances_from(at);
        let root = self.dsu.find(at);
        self.members[root].iter().any(|&x| {
            let rad = self.r[x].max(self.dist[x] + w + far_r);
            le_tol(dist_s[x] + rad, upper)
        })
    }

    /// The §6 lower-bound condition for adding edge `(u, v)` of length `w`.
    ///
    /// Joining a partial tree `X` to the source's tree through `(join,
    /// other)` fixes `path(S, t) = path(S, join) + w + path_X(other, t)` for
    /// every `t` in `X`; those with `t < bounded` must clear `lower` (higher
    /// ids are Steiner points). Other merges, or `lower <= 0`, pass. The
    /// path to `other` itself is the shortest, so if `other` is bounded it
    /// alone decides; otherwise `X` is walked once.
    // analyze: complexity(n)
    pub fn clears_lower_bound(
        &mut self,
        u: usize,
        v: usize,
        w: f64,
        lower: f64,
        bounded: usize,
    ) -> bool {
        if lower <= 0.0 {
            return true;
        }
        let (join, other) = if self.contains_source(u) {
            (u, v)
        } else if self.contains_source(v) {
            (v, u)
        } else {
            return true;
        };
        let base = self.src[join] + w;
        if other < bounded {
            return le_tol(lower, base);
        }
        self.distances_from(other);
        let root = self.dsu.find(other);
        self.members[root]
            .iter()
            .filter(|&&t| t < bounded)
            .all(|&t| le_tol(lower, base + self.dist[t]))
    }

    /// Cached `min over members x of dist_s[x] + r[x]` for the component
    /// rooted at `root`, recomputed lazily after a `merge`/`add_node`
    /// invalidation. `f64::min` is commutative over the finite inputs here,
    /// so the fold is order-independent (deterministic).
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

    /// Merges the components of `u` and `v` with an edge of length `w`:
    /// the paper's `Merge(u, v)` followed by `UNION(u, v)`.
    ///
    /// Refreshes every radius and, when one side holds the source, the other
    /// side's source paths, in `O(|t_u| + |t_v|)`. Each update keeps the
    /// association order of `P[x][y] = P[x][u] + w + P[v][y]`, with the
    /// pre-merge radii as the row maxima: `r[x] = max(r[x], path(x, u) + w +
    /// r[v])` for `x` in `t_u`, symmetrically for `t_v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` and `v` are already in the same component (the caller
    /// must have rejected cycle edges) or if `w` is negative/non-finite.
    // analyze: complexity(n) analyze: allow(cancel-liveness) — one pass over the two merged partial trees per call; every construction polls between merges
    pub fn merge(&mut self, u: usize, v: usize, w: f64) {
        assert!(
            w.is_finite() && w >= 0.0,
            "edge length must be finite non-negative, got {w}"
        );
        let root_u = self.dsu.find(u);
        let root_v = self.dsu.find(v);
        assert!(root_u != root_v, "merge({u}, {v}) would create a cycle");

        let _span = bmst_obs::enabled().then(|| bmst_obs::span("forest.merge"));
        if bmst_obs::enabled() {
            let (nu, nv) = (self.members[root_u].len(), self.members[root_v].len());
            let cross = u64::try_from(nu.saturating_mul(nv)).unwrap_or(u64::MAX);
            bmst_obs::histogram("forest.merge.cross_pairs", cross);
        }

        let source_root = self.dsu.find(self.source);
        self.distances_from(u);
        self.distances_from(v);
        let (r_u, r_v) = (self.r[u], self.r[v]);
        for &x in &self.members[root_u] {
            self.r[x] = self.r[x].max(self.dist[x] + w + r_v);
        }
        for &y in &self.members[root_v] {
            self.r[y] = self.r[y].max(r_u + w + self.dist[y]);
        }
        if source_root == root_u {
            let base = self.src[u] + w;
            for &y in &self.members[root_v] {
                self.src[y] = base + self.dist[y];
            }
        } else if source_root == root_v {
            let far = self.src[v];
            for &x in &self.members[root_u] {
                self.src[x] = self.dist[x] + w + far;
            }
        }
        self.adj[u].push((v, w));
        self.adj[v].push((u, w));

        let mut merged = std::mem::take(&mut self.members[root_u]);
        merged.extend(std::mem::take(&mut self.members[root_v]));
        self.dsu.union(u, v);
        let new_root = self.dsu.find(u);
        self.members[new_root] = merged;
        // Radii and membership changed: stale both cache slots (only
        // `new_root` is reachable through `find`, but keep both honest).
        self.potential[root_u] = f64::NAN;
        self.potential[root_v] = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    /// Reproduces the paper's Figure 3 worked example:
    /// t_u = a(0) - b(1) - c(2) - d(3) chained with weights 2, 4, 3;
    /// t_v = e(4) - f(5) with weight 2; merged by edge (c, e) of weight 2.
    fn figure3_forest() -> KruskalForest {
        let mut f = KruskalForest::new(6, 0);
        f.merge(0, 1, 2.0); // a - b
        f.merge(1, 2, 4.0); // b - c
        f.merge(2, 3, 3.0); // c - d
        f.merge(4, 5, 2.0); // e - f
        f
    }

    #[test]
    fn figure3_before_merge() {
        let mut f = figure3_forest();
        // Matrix P of the paper's "Before Merge" panel.
        assert_eq!(f.path(0, 1), 2.0);
        assert_eq!(f.path(0, 2), 6.0);
        assert_eq!(f.path(0, 3), 9.0);
        assert_eq!(f.path(1, 3), 7.0);
        assert_eq!(f.path(2, 3), 3.0);
        assert_eq!(f.path(4, 5), 2.0);
        // Source row of P: the source's tree is a-b-c-d.
        assert_eq!(f.source_path(3), 9.0);
        // Radii r = [9, 7, 6, 9, 2, 2].
        let expect = [9.0, 7.0, 6.0, 9.0, 2.0, 2.0];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(f.radius(i), e, "r[{i}]");
        }
    }

    #[test]
    fn figure3_after_merge() {
        let mut f = figure3_forest();
        f.merge(2, 4, 5.0); // edge (c, e) weight 5
                            // "After Merge" matrix entries.
        assert_eq!(f.path(0, 4), 11.0); // P[a][e] = P[a][c] + 5 + P[e][e]
        assert_eq!(f.path(0, 5), 13.0); // P[a][f]
        assert_eq!(f.path(1, 4), 9.0);
        assert_eq!(f.path(1, 5), 11.0);
        assert_eq!(f.path(2, 4), 5.0);
        assert_eq!(f.path(2, 5), 7.0);
        assert_eq!(f.path(3, 4), 8.0);
        assert_eq!(f.path(3, 5), 10.0);
        // Radii r = [13, 11, 7, 10, 11, 13] (paper's "After Merge" panel).
        let expect = [13.0, 11.0, 7.0, 10.0, 11.0, 13.0];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(f.radius(i), e, "r[{i}]");
        }
        // The source row of P covers the attached side too.
        let row = [0.0, 2.0, 6.0, 9.0, 11.0, 13.0];
        for (i, &e) in row.iter().enumerate() {
            assert_eq!(f.source_path(i), e, "P[S][{i}]");
        }
        assert_eq!(f.num_components(), 1);
    }

    #[test]
    fn source_paths_follow_a_merge_into_the_far_side() {
        // The source joins an existing chain 1 - 2 through node 2.
        let mut f = KruskalForest::new(3, 0);
        f.merge(1, 2, 4.0);
        f.merge(2, 0, 3.0);
        assert_eq!(f.source_path(2), 3.0);
        assert_eq!(f.source_path(1), 7.0);
        assert_eq!(f.radius(0), 7.0);
        assert_eq!(f.radius(2), 4.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two partial trees")]
    fn path_across_partial_trees_panics() {
        KruskalForest::new(3, 0).path(1, 2);
    }

    #[test]
    fn lower_bound_binds_only_merges_into_the_source_tree() {
        // Source tree {0, 1} with path(S, 1) = 2; chain 2 - 3 of length 5.
        let mut f = KruskalForest::new(4, 0);
        f.merge(0, 1, 2.0);
        f.merge(2, 3, 5.0);
        // Joining through edge (1, 3) fixes path(S, 3) = 3, path(S, 2) = 8.
        assert!(f.clears_lower_bound(1, 3, 1.0, 3.0, 4));
        assert!(!f.clears_lower_bound(1, 3, 1.0, 3.5, 4));
        // With 3 a Steiner point (bounded ids 0..3), only node 2's 8 counts.
        assert!(f.clears_lower_bound(1, 3, 1.0, 8.0, 3));
        assert!(!f.clears_lower_bound(1, 3, 1.0, 8.5, 3));
        // Away from the source, and with no lower bound, nothing binds.
        let mut g = KruskalForest::new(3, 0);
        assert!(g.clears_lower_bound(1, 2, 1.0, 100.0, 3));
        assert!(f.clears_lower_bound(1, 3, 1.0, 0.0, 4));
    }

    #[test]
    fn singleton_state() {
        let mut f = KruskalForest::new(4, 0);
        assert_eq!(f.num_components(), 4);
        assert_eq!(f.radius(2), 0.0);
        assert_eq!(f.path(2, 2), 0.0);
        assert_eq!(f.source_path(0), 0.0);
    }

    #[test]
    fn component_membership_tracked() {
        let mut f = KruskalForest::new(5, 0);
        f.merge(1, 2, 1.0);
        f.merge(2, 3, 1.0);
        let mut c = f.component(3).to_vec();
        c.sort_unstable();
        assert_eq!(c, vec![1, 2, 3]);
        assert!(f.same_component(1, 3));
        assert!(!f.contains_source(1));
        assert!(f.contains_source(0));
    }

    #[test]
    fn add_node_grows_everything() {
        let mut f = KruskalForest::new(2, 0);
        let id = f.add_node();
        assert_eq!(id, 2);
        assert_eq!(f.len(), 3);
        assert_eq!(f.radius(2), 0.0);
        f.merge(1, 2, 5.0);
        assert_eq!(f.path(1, 2), 5.0);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn merge_same_component_panics() {
        let mut f = KruskalForest::new(3, 0);
        f.merge(0, 1, 1.0);
        f.merge(1, 0, 2.0);
    }

    #[test]
    fn feasibility_3a_source_side() {
        // Source 0 at origin, nodes on a line: 1 at 10, 2 at 11.
        let mut f = KruskalForest::new(3, 0);
        let dist_s = [0.0, 10.0, 11.0];
        f.merge(0, 1, 10.0);
        // Attach 2 under 1 (w = 1): path(S,1) + 1 + r[2] = 11 <= bound?
        assert!(f.is_feasible_merge(1, 2, 1.0, &dist_s, 11.0));
        assert!(!f.is_feasible_merge(1, 2, 1.0, &dist_s, 10.9));
    }

    #[test]
    fn feasibility_3b_non_source_merge() {
        // Nodes 1 and 2 merge away from source; bound must leave a feasible
        // node.
        let mut f = KruskalForest::new(3, 0);
        let dist_s = [0.0, 10.0, 11.0];
        // Merging 1, 2 (w = 1): candidates
        //   x = 1: dist_s[1] + max(r[1], P[1][1] + 1 + r[2]) = 10 + 1 = 11
        //   x = 2: 11 + 1 = 12
        assert!(f.is_feasible_merge(1, 2, 1.0, &dist_s, 11.0));
        assert!(!f.is_feasible_merge(1, 2, 1.0, &dist_s, 10.5));
    }

    #[test]
    fn infinite_bound_always_feasible() {
        let mut f = KruskalForest::new(3, 0);
        assert!(f.is_feasible_merge(1, 2, 1e12, &[0.0; 3], f64::INFINITY));
    }

    #[test]
    fn feasibility_is_tolerant() {
        let mut f = KruskalForest::new(2, 0);
        let dist_s = [0.0, 7.0];
        assert!(f.is_feasible_merge(0, 1, 7.0, &dist_s, 7.0 - 1e-12));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_merge_panics() {
        KruskalForest::new(2, 0).merge(0, 1, -1.0);
    }
}
