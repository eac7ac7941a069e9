//! The [`TreeBuilder`] trait and the construction registry.
//!
//! Every construction in this crate is exposed twice: as the historical
//! free function (`bkrus(net, eps)`, `bprim(net, eps)`, ...) and as a unit
//! struct in [`builders`] implementing [`TreeBuilder`] over a shared
//! [`ProblemContext`]. The trait objects in [`registry`] carry a
//! [`BuilderDescriptor`] — a stable kebab-case name, aliases, and
//! capability flags — so the router, CLI, and benchmarks can enumerate and
//! resolve constructions without hard-coded name dispatch.
//!
//! The full registry *including* the Steiner construction lives in
//! `bmst-steiner` (`full_registry`), since this crate cannot depend on it.

use bmst_geom::Point;
use bmst_tree::RoutingTree;

use crate::{BmstError, ProblemContext};

/// How a construction's routing cost relates to the optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// A reference construction (MST, SPT, BPRIM, BRBC) the paper's tables
    /// normalise against; not designed to minimise bounded-tree cost.
    Baseline,
    /// A single-pass constructive heuristic (BKRUS, AHHK).
    Heuristic,
    /// A heuristic refined by local search (BKH2).
    LocalSearch,
    /// Provably cost-optimal among feasible trees, at exponential worst
    /// case (Gabow enumeration, deep BKEX exchange search).
    Exact,
}

/// What kind of path-length guarantee a construction offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Every source-sink path lies in the global window
    /// `[lower, (1 + eps) * R]`.
    Window,
    /// A per-node bound `path(S, v) <= (1 + eps) * dist(S, v)`.
    PerNode,
    /// A soft trade-off parameter with no hard guarantee (AHHK).
    Soft,
    /// No path-length control at all (MST, SPT).
    None,
    /// An Elmore *delay* bound instead of a wirelength bound.
    Delay,
}

/// Static metadata describing a registered [`TreeBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct BuilderDescriptor {
    /// Stable kebab-case identifier (`bkrus`, `prim-dijkstra`, ...): the
    /// name the CLI's `--algorithm` flag resolves.
    pub name: &'static str,
    /// Accepted alternative names (also kebab-case).
    pub aliases: &'static [&'static str],
    /// One-line human-readable description for `--help`-style tables.
    pub summary: &'static str,
    /// Cost-optimality class.
    pub cost_class: CostClass,
    /// The kind of path-length guarantee.
    pub bound: BoundKind,
    /// Whether the construction may introduce Steiner points (its geometry
    /// has more points than the net has terminals).
    pub steiner: bool,
    /// For instrumented/diagnostic variants: the name of the builder whose
    /// tree this one reproduces bit-for-bit.
    pub variant_of: Option<&'static str>,
}

/// A routing tree plus the point set it embeds into.
///
/// For spanning constructions the points are exactly the net's terminals;
/// Steiner constructions append their added points after the terminals, so
/// `points[num_terminals..]` are the Steiner points.
#[derive(Debug, Clone)]
pub struct BuiltGeometry {
    /// The constructed tree over `points`.
    pub tree: RoutingTree,
    /// Terminal coordinates first, then any Steiner points.
    pub points: Vec<Point>,
    /// How many leading entries of `points` are net terminals.
    pub num_terminals: usize,
}

/// A tree construction that can run against a shared [`ProblemContext`].
pub trait TreeBuilder: Sync {
    /// Static metadata: name, aliases, capability flags.
    fn descriptor(&self) -> &BuilderDescriptor;

    /// Constructs a tree for the context's net under its constraint.
    ///
    /// # Errors
    ///
    /// Construction-specific [`BmstError`]s: infeasibility, invalid
    /// parameters, or (for the exact enumeration) a tree budget overrun.
    fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError>;

    /// Like [`TreeBuilder::build`], but also returns the embedded point
    /// set. Spanning builders return the net's terminals unchanged; the
    /// Steiner builder overrides this to expose its added points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeBuilder::build`].
    // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
    fn build_geometry(&self, cx: &ProblemContext<'_>) -> Result<BuiltGeometry, BmstError> {
        let tree = self.build(cx)?;
        Ok(BuiltGeometry {
            tree,
            points: cx.net().points().to_vec(),
            num_terminals: cx.net().len(),
        })
    }

    /// Fault-isolated [`TreeBuilder::build`]: the routing pipeline's entry
    /// point, guaranteeing a typed [`BmstError`] for every failure mode.
    ///
    /// Two guarantees on top of `build`:
    ///
    /// 1. **No panics escape.** The construction runs under
    ///    [`std::panic::catch_unwind`]; a panic becomes
    ///    [`BmstError::Internal`] carrying the panic message, so one buggy
    ///    net cannot take down a routing worker.
    /// 2. **No silently out-of-window trees.** The returned tree is checked
    ///    against the context's geometric window *uniformly* — including
    ///    builders whose native guarantee is soft ([`BoundKind::Soft`]),
    ///    absent ([`BoundKind::None`]), or in the delay domain
    ///    ([`BoundKind::Delay`], where the geometric window derived from
    ///    `eps` acts as the proxy). A violating tree is rejected as
    ///    [`BmstError::Infeasible`], carrying the tightest feasible `eps`
    ///    when the upper bound is what failed, so the degradation ladder
    ///    can jump straight to a feasible rung.
    ///
    /// `build` itself stays unguarded and unchecked: direct callers (and
    /// the bit-parity tests) see the construction's raw behaviour.
    ///
    /// # Errors
    ///
    /// Everything `build` returns, plus [`BmstError::Internal`] for caught
    /// panics and [`BmstError::Infeasible`] for out-of-window trees.
    fn try_build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
        let tree = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.build(cx))) {
            Ok(result) => result?,
            Err(payload) => {
                return Err(BmstError::internal(format!(
                    "builder '{}' panicked: {}",
                    self.descriptor().name,
                    panic_message(payload.as_ref())
                )));
            }
        };
        check_window(cx, tree)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The uniform post-construction window check behind
/// [`TreeBuilder::try_build`]: every sink's source path must lie in the
/// context's window, else the tree is rejected as
/// [`BmstError::Infeasible`].
fn check_window(cx: &ProblemContext<'_>, tree: RoutingTree) -> Result<RoutingTree, BmstError> {
    let net = cx.net();
    let constraint = cx.constraint();
    let mut connected = 1; // the source
    let mut lower_violated = false;
    let mut worst_path = 0.0_f64;
    for v in net.sinks() {
        cx.check_cancelled()?;
        let path = tree.dist_from_root(v);
        if constraint.admits(path) {
            connected += 1;
        } else if path < constraint.lower {
            lower_violated = true;
        }
        worst_path = worst_path.max(path);
    }
    if connected == net.len() {
        return Ok(tree);
    }
    // Relaxing eps raises only the upper bound, so the hint is meaningful
    // only when no sink sits below the lower bound. `worst_path / R - 1`
    // is the smallest eps whose window admits this very tree.
    let r = net.source_radius();
    let min_feasible_eps = if lower_violated || r <= 0.0 {
        None
    } else {
        Some((worst_path / r - 1.0).max(0.0))
    };
    Err(BmstError::Infeasible {
        connected,
        total: net.len(),
        min_feasible_eps,
    })
}

/// Unit structs implementing [`TreeBuilder`] for every construction in this
/// crate. The registry holds one static instance of each with its default
/// configuration; benchmarks instantiate their own (e.g. a
/// [`Gabow`](builders::Gabow) with a smaller tree budget).
pub mod builders {
    use super::{BoundKind, BuilderDescriptor, CostClass, TreeBuilder};
    use crate::bkex::BkexConfig;
    use crate::bkrus::EdgeDecision;
    use crate::gabow::GabowConfig;
    use crate::{BmstError, ProblemContext};
    use bmst_obs::Field;
    use bmst_tree::RoutingTree;

    /// BKRUS (§3.1): the bounded-Kruskal heuristic.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Bkrus;

    impl TreeBuilder for Bkrus {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "bkrus",
                aliases: &[],
                summary: "bounded-Kruskal heuristic (paper §3.1)",
                cost_class: CostClass::Heuristic,
                bound: BoundKind::Window,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::bkrus::run(cx, None)
        }
    }

    /// BKRUS with per-edge decision tracing (the Figure 4 walk-through):
    /// bit-identical trees to [`Bkrus`], with every accept/reject emitted
    /// as a `bkrus.trace` observability event.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BkrusTrace;

    impl TreeBuilder for BkrusTrace {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "bkrus-trace",
                aliases: &[],
                summary: "BKRUS emitting per-edge decision trace events",
                cost_class: CostClass::Heuristic,
                bound: BoundKind::Window,
                steiner: false,
                variant_of: Some("bkrus"),
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            let mut trace = Vec::new();
            let tree = crate::bkrus::run(cx, Some(&mut trace))?;
            if bmst_obs::enabled() {
                for ev in &trace {
                    let decision = match ev.decision {
                        EdgeDecision::Accepted => "accepted",
                        EdgeDecision::RejectedCycle => "rejected-cycle",
                        EdgeDecision::RejectedBound => "rejected-bound",
                    };
                    bmst_obs::event(
                        "bkrus.trace",
                        &[
                            ("u", Field::from(ev.edge.u)),
                            ("v", Field::from(ev.edge.v)),
                            ("weight", Field::from(ev.edge.weight)),
                            ("decision", Field::from(decision)),
                        ],
                    );
                }
            }
            Ok(tree)
        }
    }

    /// BKH2 (§5): BKRUS refined by depth-2 negative-sum-exchanges.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Bkh2;

    impl TreeBuilder for Bkh2 {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "bkh2",
                aliases: &[],
                summary: "BKRUS + depth-2 negative-sum-exchange local search (§5)",
                cost_class: CostClass::LocalSearch,
                bound: BoundKind::Window,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::bkh2::run(cx)
        }
    }

    /// BKEX (§5): iterated negative-sum-exchange search over a BKRUS start.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Bkex {
        /// Exchange-search configuration (depth budget).
        pub config: BkexConfig,
    }

    impl TreeBuilder for Bkex {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "bkex",
                aliases: &[],
                summary: "iterated negative-sum-exchange search, depth 4 (§5)",
                cost_class: CostClass::Exact,
                bound: BoundKind::Window,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::bkex::run(cx, self.config)
        }
    }

    /// Gabow enumeration (§4): spanning trees in nondecreasing cost order.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Gabow {
        /// Enumeration configuration (tree budget, lemma preprocessing).
        pub config: GabowConfig,
    }

    impl TreeBuilder for Gabow {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "gabow",
                aliases: &["bmst-g"],
                summary: "exact enumeration in nondecreasing cost order (§4)",
                cost_class: CostClass::Exact,
                bound: BoundKind::Window,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::gabow::run(cx, self.config).map(|o| o.tree)
        }
    }

    /// BPRIM (§2): the bounded-Prim baseline of Cong et al.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Bprim;

    impl TreeBuilder for Bprim {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "bprim",
                aliases: &[],
                summary: "bounded-Prim baseline of Cong et al. (§2)",
                cost_class: CostClass::Baseline,
                bound: BoundKind::PerNode,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::bprim::run(cx)
        }
    }

    /// BRBC (§2): the bounded-radius-bounded-cost baseline of Cong et al.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Brbc;

    impl TreeBuilder for Brbc {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "brbc",
                aliases: &[],
                summary: "bounded-radius-bounded-cost baseline of Cong et al. (§2)",
                cost_class: CostClass::Baseline,
                bound: BoundKind::Window,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::brbc::run(cx)
        }
    }

    /// AHHK (§2): the Prim/Dijkstra blend, parameterised by
    /// [`ProblemContext::pd_blend`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct PrimDijkstra;

    impl TreeBuilder for PrimDijkstra {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "prim-dijkstra",
                aliases: &["pd", "ahhk"],
                summary: "AHHK Prim/Dijkstra blend, no hard bound (§2)",
                cost_class: CostClass::Heuristic,
                bound: BoundKind::Soft,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::ahhk::run(cx)
        }
    }

    /// Elmore-BKRUS (§3.2): BKRUS under the Elmore delay model, reading
    /// [`ProblemContext::elmore_params`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ElmoreBkrus;

    impl TreeBuilder for ElmoreBkrus {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "elmore-bkrus",
                aliases: &[],
                summary: "BKRUS bounding Elmore delay instead of wirelength (§3.2)",
                cost_class: CostClass::Heuristic,
                bound: BoundKind::Delay,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            crate::elmore_bkrus::run(cx)
        }
    }

    /// The minimum spanning tree baseline (the `eps = inf` regime).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Mst;

    impl TreeBuilder for Mst {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "mst",
                aliases: &[],
                summary: "minimum spanning tree baseline (unbounded paths)",
                cost_class: CostClass::Baseline,
                bound: BoundKind::None,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            Ok(crate::baselines::mst_tree_cx(cx))
        }
    }

    /// The shortest path tree baseline (the `eps = 0` cost ceiling).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Spt;

    impl TreeBuilder for Spt {
        fn descriptor(&self) -> &BuilderDescriptor {
            &BuilderDescriptor {
                name: "spt",
                aliases: &[],
                summary: "shortest path tree baseline (source star)",
                cost_class: CostClass::Baseline,
                bound: BoundKind::None,
                steiner: false,
                variant_of: None,
            }
        }

        // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
        fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
            Ok(crate::baselines::spt_tree(cx.net()))
        }
    }
}

static BKRUS: builders::Bkrus = builders::Bkrus;
static BKRUS_TRACE: builders::BkrusTrace = builders::BkrusTrace;
static BKH2: builders::Bkh2 = builders::Bkh2;
static BKEX: builders::Bkex = builders::Bkex {
    config: crate::bkex::BkexConfig { max_depth: 4 },
};
static GABOW: builders::Gabow = builders::Gabow {
    config: crate::gabow::GabowConfig {
        max_trees: 2_000_000,
        use_pruning: true,
    },
};
static BPRIM: builders::Bprim = builders::Bprim;
static BRBC: builders::Brbc = builders::Brbc;
static PRIM_DIJKSTRA: builders::PrimDijkstra = builders::PrimDijkstra;
static ELMORE_BKRUS: builders::ElmoreBkrus = builders::ElmoreBkrus;
static MST: builders::Mst = builders::Mst;
static SPT: builders::Spt = builders::Spt;

static REGISTRY: [&dyn TreeBuilder; 11] = [
    &BKRUS,
    &BKRUS_TRACE,
    &BKH2,
    &BKEX,
    &GABOW,
    &BPRIM,
    &BRBC,
    &PRIM_DIJKSTRA,
    &ELMORE_BKRUS,
    &MST,
    &SPT,
];

/// Every spanning-tree builder in this crate, with its default
/// configuration. The Steiner construction is appended by
/// `bmst_steiner::full_registry`.
pub fn registry() -> &'static [&'static dyn TreeBuilder] {
    &REGISTRY
}

/// Resolves `name` against [`registry`] descriptor names and aliases.
pub fn find_builder(name: &str) -> Option<&'static dyn TreeBuilder> {
    registry().iter().copied().find(|b| {
        let d = b.descriptor();
        d.name == name || d.aliases.contains(&name)
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::Net;

    fn net() -> Net {
        Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(6.0, 1.0),
            Point::new(7.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = Vec::new();
        for b in registry() {
            let d = b.descriptor();
            names.push(d.name);
            names.extend(d.aliases);
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name/alias: {names:?}");
    }

    #[test]
    fn find_builder_resolves_names_and_aliases() {
        assert_eq!(find_builder("bkrus").unwrap().descriptor().name, "bkrus");
        assert_eq!(
            find_builder("pd").unwrap().descriptor().name,
            "prim-dijkstra"
        );
        assert_eq!(find_builder("bmst-g").unwrap().descriptor().name, "gabow");
        assert!(find_builder("nope").is_none());
    }

    #[test]
    fn every_builder_spans_on_a_loose_bound() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        for b in registry() {
            let tree = b.build(&cx).unwrap();
            assert!(tree.is_spanning(), "{}", b.descriptor().name);
        }
    }

    #[test]
    fn trace_variant_matches_plain_bkrus() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.2).unwrap();
        let plain = find_builder("bkrus").unwrap().build(&cx).unwrap();
        let traced = find_builder("bkrus-trace").unwrap().build(&cx).unwrap();
        assert_eq!(plain.edges(), traced.edges());
    }

    #[test]
    fn try_build_matches_build_when_feasible() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        for b in registry() {
            let direct = b.build(&cx).unwrap();
            let guarded = b.try_build(&cx).unwrap();
            assert_eq!(direct.edges(), guarded.edges(), "{}", b.descriptor().name);
        }
    }

    #[test]
    fn try_build_rejects_unreachable_window_for_every_builder() {
        // No tree over these three collinear points can give every sink a
        // source path >= 15 (the longest possible path is 10.2), so the
        // two-sided window [15, 16] is infeasible for every construction —
        // including the unbounded baselines, which try_build must reject
        // rather than hand back a silently out-of-window tree.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.1, 0.0),
        ])
        .unwrap();
        let constraint = crate::PathConstraint::explicit(15.0, 16.0).unwrap();
        let cx = ProblemContext::with_constraint(&net, constraint);
        for b in registry() {
            let res = b.try_build(&cx);
            assert!(
                matches!(res, Err(BmstError::Infeasible { .. })),
                "{}: {res:?}",
                b.descriptor().name
            );
        }
    }

    #[test]
    fn try_build_converts_panics_to_internal() {
        struct Panicky;
        impl TreeBuilder for Panicky {
            fn descriptor(&self) -> &BuilderDescriptor {
                &BuilderDescriptor {
                    name: "panicky",
                    aliases: &[],
                    summary: "always panics",
                    cost_class: CostClass::Baseline,
                    bound: BoundKind::None,
                    steiner: false,
                    variant_of: None,
                }
            }
            fn build(&self, _cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
                panic!("synthetic invariant violation")
            }
        }
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
        let res = Panicky.try_build(&cx);
        std::panic::set_hook(prev);
        match res {
            Err(BmstError::Internal { detail }) => {
                assert!(detail.contains("panicky"), "{detail}");
                assert!(detail.contains("synthetic invariant violation"), "{detail}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn try_build_infeasible_carries_min_feasible_eps_hint() {
        // MST attaches B through A (edge weight 6 < 14), giving B a path of
        // 16 against dist 14; under eps = 0.1 the window upper is 15.4, so
        // try_build rejects the tree and reports 16/14 - 1 as the tightest
        // feasible eps.
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(9.0, 5.0),
        ])
        .unwrap();
        let cx = ProblemContext::new(&net, 0.1).unwrap();
        let mst = find_builder("mst").unwrap();
        let err = mst.try_build(&cx).unwrap_err();
        let hint = err
            .min_feasible_eps()
            .expect("upper-bound failure carries a hint");
        assert!((hint - (16.0 / 14.0 - 1.0)).abs() < 1e-12, "{hint}");
        // The hinted eps admits the same tree.
        let relaxed = ProblemContext::new(&net, hint).unwrap();
        assert!(mst.try_build(&relaxed).is_ok());
    }

    #[test]
    fn build_geometry_defaults_to_terminals() {
        let net = net();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let g = find_builder("mst").unwrap().build_geometry(&cx).unwrap();
        assert_eq!(g.points, net.points().to_vec());
        assert_eq!(g.num_terminals, net.len());
    }
}
