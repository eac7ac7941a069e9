//! Shared per-net problem state.
//!
//! Every construction in the paper operates on the same derived instance
//! data: distances between terminals, the complete terminal graph's edges
//! in weight order, and the validated path-length window. Before
//! this module each `pub fn <alg>(net, eps)` entry point re-derived that
//! state from scratch; [`ProblemContext`] computes each piece lazily, at
//! most once, and hands shared references to every
//! [`TreeBuilder`](crate::TreeBuilder) run against the same net.

use std::sync::OnceLock;

use bmst_geom::{DistanceMatrix, NeighborIndex, Net};
use bmst_graph::{complete_edges, sort_edges, Edge};
use bmst_tree::ElmoreParams;

use crate::cancel::CancelToken;
use crate::supply::EdgeStream;
use crate::{BmstError, PathConstraint};

/// Default Prim/Dijkstra trade-off parameter (the midpoint blend).
pub(crate) const DEFAULT_PD_BLEND: f64 = 0.5;

/// A non-fatal finding from the adversarial-input validation pass run by
/// [`ProblemContext::diagnostics`].
///
/// These are *warnings*, not errors: a net with coincident sinks or a
/// sink on top of its source still routes (zero-length edges are legal
/// tree edges — see `tests/degenerate_inputs.rs`). The router surfaces
/// them as observability events so a degenerate netlist is visible in
/// traces; a caller that wants them fatal converts one into
/// [`BmstError::DegenerateInput`] via [`InputDiagnostic::to_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InputDiagnostic {
    /// Two sinks share exact coordinates.
    DuplicateSinks {
        /// The first sink's node index.
        a: usize,
        /// The second sink's node index.
        b: usize,
    },
    /// A sink shares the source's exact coordinates.
    SourceCoincidentSink {
        /// The coincident sink's node index.
        sink: usize,
    },
    /// Every sink coincides with the source, so `R = 0` and every path
    /// bound `(1 + eps) * R` collapses to zero.
    ZeroRadius,
}

impl InputDiagnostic {
    /// Converts the warning into a fatal [`BmstError::DegenerateInput`],
    /// for callers that reject rather than tolerate degenerate geometry.
    pub fn to_error(self) -> BmstError {
        BmstError::DegenerateInput {
            detail: self.to_string(),
        }
    }
}

impl std::fmt::Display for InputDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputDiagnostic::DuplicateSinks { a, b } => {
                write!(f, "sinks {a} and {b} have identical coordinates")
            }
            InputDiagnostic::SourceCoincidentSink { sink } => {
                write!(f, "sink {sink} coincides with the source")
            }
            InputDiagnostic::ZeroRadius => {
                write!(f, "all sinks coincide with the source (zero radius)")
            }
        }
    }
}

/// A per-net cache of the state every bounded-tree construction shares:
/// the [`Net`], its grid [`NeighborIndex`] (the source of the lazy
/// [`EdgeStream`]), the validated [`PathConstraint`], and — for the exact
/// solvers only — the [`DistanceMatrix`] and fully sorted edge list.
///
/// Construct one per routing problem and run any number of
/// [`TreeBuilder`](crate::TreeBuilder)s against it; each lazy member is
/// computed at most once. The lazy members use [`OnceLock`], so a
/// shared `&ProblemContext` may be used from several threads at once (the
/// parallel netlist router gives each net its own context, but nothing
/// prevents fanning builders out over one).
///
/// # Examples
///
/// ```
/// use bmst_core::{registry, ProblemContext};
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(9.0, 1.0),
///     Point::new(10.0, -1.0),
/// ])?;
/// let cx = ProblemContext::new(&net, 0.2)?;
/// for builder in registry() {
///     let tree = builder.build(&cx)?;
///     assert!(tree.is_spanning());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ProblemContext<'a> {
    net: &'a Net,
    constraint: PathConstraint,
    eps: f64,
    pd_blend: f64,
    cancel: CancelToken,
    matrix: OnceLock<DistanceMatrix>,
    sorted_edges: OnceLock<Vec<Edge>>,
    neighbor_index: OnceLock<NeighborIndex<'a>>,
    elmore: OnceLock<ElmoreParams>,
    diagnostics: OnceLock<Vec<InputDiagnostic>>,
}

impl<'a> ProblemContext<'a> {
    /// Builds a context with the standard upper bound `(1 + eps) * R`.
    ///
    /// # Errors
    ///
    /// [`BmstError::InvalidEpsilon`] when `eps` is negative or NaN.
    pub fn new(net: &'a Net, eps: f64) -> Result<Self, BmstError> {
        let constraint = PathConstraint::from_eps(net, eps)?;
        Ok(Self::from_parts(net, constraint, eps))
    }

    /// Builds an unconstrained context (the MST regime, `eps = inf`): used
    /// by the unbounded builders and post-processing passes whose
    /// feasibility is an arbitrary caller predicate.
    pub fn unbounded(net: &'a Net) -> Self {
        let constraint = PathConstraint {
            lower: 0.0,
            upper: f64::INFINITY,
        };
        Self::from_parts(net, constraint, f64::INFINITY)
    }

    /// Builds a context over an already-validated constraint (e.g. a §6
    /// lower/upper window from [`PathConstraint::from_eps_window`]).
    ///
    /// The per-node `eps` used by BPRIM/BRBC is re-derived from the upper
    /// bound; prefer [`ProblemContext::new`] when you have the raw `eps`,
    /// so those constructions see the exact caller-supplied value.
    pub fn with_constraint(net: &'a Net, constraint: PathConstraint) -> Self {
        let r = net.source_radius();
        let eps = if constraint.upper.is_infinite() || r <= 0.0 {
            f64::INFINITY
        } else {
            (constraint.upper / r - 1.0).max(0.0)
        };
        Self::from_parts(net, constraint, eps)
    }

    fn from_parts(net: &'a Net, constraint: PathConstraint, eps: f64) -> Self {
        ProblemContext {
            net,
            constraint,
            eps,
            pd_blend: DEFAULT_PD_BLEND,
            cancel: CancelToken::never(),
            matrix: OnceLock::new(),
            sorted_edges: OnceLock::new(),
            neighbor_index: OnceLock::new(),
            elmore: OnceLock::new(),
            diagnostics: OnceLock::new(),
        }
    }

    /// Overrides the Prim/Dijkstra blend parameter `c` read by the
    /// `prim-dijkstra` builder (default `0.5`).
    #[must_use]
    pub fn with_pd_blend(mut self, c: f64) -> Self {
        self.pd_blend = c;
        self
    }

    /// Attaches a cancellation token. Construction inner loops poll it via
    /// [`ProblemContext::check_cancelled`]; the default never-token makes
    /// that poll free. The token is cloned, so the caller keeps a handle
    /// it can fire (e.g. on server shutdown).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The cancellation token attached to this context (the never-token by
    /// default).
    #[inline]
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Polls the attached cancellation token.
    ///
    /// # Errors
    ///
    /// [`BmstError::DeadlineExceeded`] once the token has fired (deadline
    /// passed, deterministic check budget exhausted, or explicit cancel).
    #[inline]
    pub fn check_cancelled(&self) -> Result<(), BmstError> {
        self.cancel.check()
    }

    /// Supplies Elmore delay parameters for the delay-domain builders.
    /// Without this, [`ProblemContext::elmore_params`] falls back to
    /// [`ProblemContext::default_elmore_params`].
    #[must_use]
    pub fn with_elmore(self, params: ElmoreParams) -> Self {
        // A freshly-built OnceLock is empty, so this set cannot fail; the
        // fallback keeps the builder-style API total.
        let _ = self.elmore.set(params);
        self
    }

    /// The net this context describes.
    #[inline]
    pub fn net(&self) -> &'a Net {
        self.net
    }

    /// The validated path-length window.
    #[inline]
    pub fn constraint(&self) -> &PathConstraint {
        &self.constraint
    }

    /// The raw `eps` behind the constraint (used by the per-node-bound
    /// constructions BPRIM and BRBC).
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The Prim/Dijkstra blend parameter `c`.
    #[inline]
    pub fn pd_blend(&self) -> f64 {
        self.pd_blend
    }

    /// Distance between terminals `i` and `j`, evaluated on demand. The
    /// bits equal the [`ProblemContext::matrix`] entry (the matrix stores
    /// the same `Metric::dist` results), so no construction needs the
    /// `O(n²)` materialization just to read distances.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.net.dist(i, j)
    }

    /// The grid-bucket neighbor index over the net's terminals, built on
    /// first use. The `context.neighbor_index` span covers only the
    /// actual `O(n)` construction, not cache hits.
    pub fn neighbor_index(&self) -> &NeighborIndex<'a> {
        self.neighbor_index.get_or_init(|| {
            let _span = bmst_obs::span("context.neighbor_index");
            NeighborIndex::new(self.net.points(), self.net.metric())
        })
    }

    /// The complete terminal graph's edges in canonical nondecreasing
    /// `(weight, u, v)` order, generated lazily in expanding weight
    /// windows from the neighbor index. The sequence is bit-identical to
    /// [`ProblemContext::sorted_edges`] without materializing it.
    pub fn edge_stream(&self) -> EdgeStream<'_> {
        EdgeStream::new(self)
    }

    /// The complete-graph distance matrix, computed on first use. The
    /// `context.matrix` span covers only the actual computation, not
    /// cache hits. Only the exact solvers (Gabow, BKEX and its depth-2
    /// BKH2 exchange) read it: their exponential searches revisit every
    /// pair many times. Everything else uses [`ProblemContext::dist`] or
    /// [`ProblemContext::edge_stream`].
    // analyze: complexity(n^2)
    pub fn matrix(&self) -> &DistanceMatrix {
        self.matrix.get_or_init(|| {
            let _span = bmst_obs::span("context.matrix");
            self.net.distance_matrix()
        })
    }

    /// The complete-graph edge list in nondecreasing canonical
    /// `(weight, u, v)` order, computed on first use. The
    /// `context.sorted_edges` span covers only the actual build + sort,
    /// not cache hits. The materialized reference for
    /// [`ProblemContext::edge_stream`], which yields the same sequence.
    // analyze: complexity(n^2)
    pub fn sorted_edges(&self) -> &[Edge] {
        self.sorted_edges.get_or_init(|| {
            let matrix = self.matrix();
            let _span = bmst_obs::span("context.sorted_edges");
            let mut edges = complete_edges(matrix);
            sort_edges(&mut edges);
            edges
        })
    }

    /// Elmore parameters for the delay-domain builders: the value supplied
    /// via [`ProblemContext::with_elmore`], or the default driver model.
    pub fn elmore_params(&self) -> &ElmoreParams {
        self.elmore
            .get_or_init(|| Self::default_elmore_params(self.net))
    }

    /// The adversarial-input validation pass, computed on first use:
    /// exact-coordinate duplicate sinks, sinks coincident with the source,
    /// and zero-radius nets. Empty for well-formed geometry. See
    /// [`InputDiagnostic`] for why these are warnings rather than errors.
    ///
    /// Duplicate detection probes the neighbor index (a same-bucket
    /// coincidence scan) instead of the former all-pairs sweep, so the
    /// pass is output-sensitive: linear for clean geometry, and only
    /// degenerate all-coincident nets pay for their duplicates.
    // analyze: complexity(n log n) analyze: allow(cancel-liveness) — memoised OnceLock scan with no error channel; runs once per context
    pub fn diagnostics(&self) -> &[InputDiagnostic] {
        self.diagnostics.get_or_init(|| {
            let mut found = Vec::new();
            let points = self.net.points();
            let source = self.net.source();
            let index = self.neighbor_index();
            let mut coincident_with_source = 0usize;
            let mut num_sinks = 0usize;
            let mut dups = Vec::new();
            for a in self.net.sinks() {
                num_sinks += 1;
                if points[a] == points[source] {
                    coincident_with_source += 1;
                    found.push(InputDiagnostic::SourceCoincidentSink { sink: a });
                }
                // First later sink sharing `a`'s coordinates — the same
                // pair the old ascending all-pairs sweep reported.
                dups.clear();
                index.coincident(a, &mut dups);
                if let Some(&b) = dups.iter().find(|&&b| b > a && b != source) {
                    found.push(InputDiagnostic::DuplicateSinks { a, b });
                }
            }
            if num_sinks > 0 && coincident_with_source == num_sinks {
                found.push(InputDiagnostic::ZeroRadius);
            }
            found
        })
    }

    /// The default Elmore driver/wire model used when no parameters are
    /// supplied: a strong driver with light uniform sink loads, under which
    /// the shortest-path tree (and hence the (1+eps) delay window) is
    /// comfortably feasible on typical nets.
    pub fn default_elmore_params(net: &Net) -> ElmoreParams {
        ElmoreParams::uniform_loads(net.len(), net.source(), 0.1, 0.2, 1.0, 0.5, 1.0)
    }
}

impl std::fmt::Debug for ProblemContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProblemContext")
            .field("nodes", &self.net.len())
            .field("constraint", &self.constraint)
            .field("eps", &self.eps)
            .field("matrix_cached", &self.matrix.get().is_some())
            .field("edges_cached", &self.sorted_edges.get().is_some())
            .field("index_cached", &self.neighbor_index.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::Point;

    fn net() -> Net {
        Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn new_validates_eps() {
        let net = net();
        assert!(ProblemContext::new(&net, -0.1).is_err());
        assert!(ProblemContext::new(&net, f64::NAN).is_err());
        let cx = ProblemContext::new(&net, 0.25).unwrap();
        assert_eq!(cx.eps(), 0.25);
        assert_eq!(cx.constraint().upper, net.path_bound(0.25));
    }

    #[test]
    fn matrix_is_computed_once_and_shared() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let first: *const DistanceMatrix = cx.matrix();
        let second: *const DistanceMatrix = cx.matrix();
        assert!(std::ptr::eq(first, second));
        assert_eq!(cx.matrix()[(0, 1)], net.dist(0, 1));
    }

    #[test]
    fn sorted_edges_are_complete_and_ordered() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let edges = cx.sorted_edges();
        assert_eq!(edges.len(), net.complete_edge_count());
        for w in edges.windows(2) {
            assert!(w[0].weight <= w[1].weight);
        }
        let again: *const [Edge] = cx.sorted_edges();
        assert!(std::ptr::eq(again, edges as *const [Edge]));
    }

    #[test]
    fn with_constraint_rederives_eps_from_upper() {
        let net = net();
        let c = PathConstraint::from_eps(&net, 0.5).unwrap();
        let cx = ProblemContext::with_constraint(&net, c);
        assert!((cx.eps() - 0.5).abs() < 1e-12);
        let unbounded = ProblemContext::with_constraint(
            &net,
            PathConstraint::from_eps(&net, f64::INFINITY).unwrap(),
        );
        assert!(unbounded.eps().is_infinite());
    }

    #[test]
    fn pd_blend_and_elmore_overrides() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap().with_pd_blend(0.9);
        assert_eq!(cx.pd_blend(), 0.9);
        let params = ElmoreParams::uniform_loads(net.len(), net.source(), 0.3, 0.1, 2.0, 1.0, 1.5);
        let cx = ProblemContext::new(&net, 0.5).unwrap().with_elmore(params);
        assert_eq!(cx.elmore_params().driver_res, 2.0);
    }

    #[test]
    fn diagnostics_empty_for_clean_geometry() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        assert!(cx.diagnostics().is_empty());
        let again: *const [InputDiagnostic] = cx.diagnostics();
        assert!(std::ptr::eq(again, cx.diagnostics() as *const _));
    }

    #[test]
    fn diagnostics_flag_duplicates_and_source_coincidence() {
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let diags = cx.diagnostics();
        assert!(diags.contains(&InputDiagnostic::DuplicateSinks { a: 1, b: 2 }));
        assert!(diags.contains(&InputDiagnostic::SourceCoincidentSink { sink: 3 }));
        assert!(!diags.contains(&InputDiagnostic::ZeroRadius));
        let err = InputDiagnostic::SourceCoincidentSink { sink: 3 }.to_error();
        assert!(err.to_string().contains("sink 3"));
        assert!(!err.is_recoverable());
    }

    #[test]
    fn diagnostics_flag_zero_radius() {
        let net = Net::with_source_first(vec![
            Point::new(2.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 2.0),
        ])
        .unwrap();
        let cx = ProblemContext::unbounded(&net);
        let diags = cx.diagnostics();
        assert!(diags.contains(&InputDiagnostic::ZeroRadius));
        assert!(diags.contains(&InputDiagnostic::DuplicateSinks { a: 1, b: 2 }));
        assert_eq!(
            diags
                .iter()
                .filter(|d| matches!(d, InputDiagnostic::SourceCoincidentSink { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn context_is_sync_shareable() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ProblemContext<'_>>();
    }
}
