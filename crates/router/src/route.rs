//! The routing pass itself: per-net fault isolation plus the degradation
//! ladder.
//!
//! Every net is routed through [`bmst_core::TreeBuilder::try_build`], so a
//! panicking construction surfaces as [`BmstError::Internal`] on that net
//! alone. On a recoverable failure the ladder retries with a stepped
//! eps-relaxation schedule ([`RelaxationPolicy`]) and finally falls back
//! to the always-feasible shortest path tree; every rung is recorded in
//! the report and as a `router.relax` observability event.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use bmst_core::{BmstError, BuilderDescriptor, CancelToken, ProblemContext, TreeBuilder};
use bmst_obs::Field;

use crate::{Criticality, NamedNet, Netlist, RelaxationStep, RouteFailure, RouteReport, RoutedNet};

/// Which construction routes each net: a handle to a registered
/// [`TreeBuilder`] from `bmst_steiner::full_registry`.
///
/// Resolve one by registry name with [`RouteAlgorithm::from_name`], or
/// enumerate them all with [`RouteAlgorithm::all`]. Equality, ordering and
/// formatting all go through the stable descriptor name.
#[derive(Clone, Copy)]
pub struct RouteAlgorithm {
    builder: &'static dyn TreeBuilder,
}

// Compile-time Send/Sync assertions: `route_parallel` hands these types to
// worker threads, so losing either bound (e.g. by adding an `Rc` field)
// must be a compile error here, not a distant trait-solver error at the
// spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RouteAlgorithm>();
    assert_send_sync::<RouterConfig>();
    assert_send_sync::<RelaxationPolicy>();
};

impl RouteAlgorithm {
    /// Resolves a registry name or alias (`bkrus`, `steiner`, `pd`, ...).
    pub fn from_name(name: &str) -> Option<Self> {
        bmst_steiner::find_builder(name).map(|builder| RouteAlgorithm { builder })
    }

    /// Every registered construction, in registry order.
    pub fn all() -> impl Iterator<Item = Self> {
        bmst_steiner::full_registry()
            .iter()
            .map(|&builder| RouteAlgorithm { builder })
    }

    /// The builder's stable registry name.
    pub fn name(&self) -> &'static str {
        self.builder.descriptor().name
    }

    /// The builder's descriptor (cost class, bound kind, capability flags).
    pub fn descriptor(&self) -> &'static BuilderDescriptor {
        self.builder.descriptor()
    }

    /// The underlying builder.
    pub fn builder(&self) -> &'static dyn TreeBuilder {
        self.builder
    }

    /// Resolves a name that is known to be registered (the named
    /// constructors below); panics only if the registry loses the entry,
    /// which `cargo xtask check-registry` guards against.
    #[allow(clippy::expect_used)] // registry invariant, justified inline
    fn known(name: &'static str) -> Self {
        // lint: allow(no-panic) — resolving a name the registry is built with
        Self::from_name(name).expect("builtin algorithm is registered")
    }

    /// BKRUS: the fast default (`O(V^3)` per net).
    pub fn bkrus() -> Self {
        Self::known("bkrus")
    }

    /// BKRUS + BKH2 exchange post-processing: a few percent cheaper, much
    /// slower — the paper recommends it below ~300 terminals per net.
    pub fn bkh2() -> Self {
        Self::known("bkh2")
    }

    /// Bounded Steiner trees on the Hanan grid: cheapest, rectilinear only.
    pub fn steiner() -> Self {
        Self::known("steiner")
    }
}

impl Default for RouteAlgorithm {
    fn default() -> Self {
        Self::bkrus()
    }
}

impl PartialEq for RouteAlgorithm {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for RouteAlgorithm {}

impl fmt::Debug for RouteAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RouteAlgorithm").field(&self.name()).finish()
    }
}

impl fmt::Display for RouteAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The degradation ladder's eps-relaxation schedule.
///
/// On a recoverable failure at eps `e`, the router retries at
/// `max(e * factor, hint)` — where `hint` is the tightest feasible eps the
/// failed attempt reported, when it could — up to `max_relaxations` times,
/// then (when `include_unbounded`) once more fully unconstrained, and
/// finally (when `spt_fallback`) swaps the construction for the shortest
/// path tree, which satisfies any upper bound. The default schedule is the
/// ISSUE's `eps -> 2eps -> inf` with the SPT last rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxationPolicy {
    /// How many stepped eps-relaxations to attempt after the first failure.
    pub max_relaxations: usize,
    /// Multiplier applied to eps at each step.
    pub factor: f64,
    /// Whether to try a fully unconstrained (`eps = inf`) rung after the
    /// stepped relaxations.
    pub include_unbounded: bool,
    /// Whether the shortest path tree serves as the always-feasible last
    /// rung.
    pub spt_fallback: bool,
}

impl Default for RelaxationPolicy {
    fn default() -> Self {
        RelaxationPolicy {
            max_relaxations: 2,
            factor: 2.0,
            include_unbounded: true,
            spt_fallback: true,
        }
    }
}

impl RelaxationPolicy {
    /// Disables the ladder entirely: the first failure is final. Useful
    /// when a degraded result is worse than no result (conformance tests,
    /// strict timing signoff).
    pub fn none() -> Self {
        RelaxationPolicy {
            max_relaxations: 0,
            factor: 2.0,
            include_unbounded: false,
            spt_fallback: false,
        }
    }

    /// The eps floor a relaxation steps up from when the requested eps is
    /// zero (multiplying zero would never relax anything).
    const MIN_STEP: f64 = 0.1;

    /// The eps to try after a failure at `eps`, folding in the failed
    /// attempt's tightest-feasible hint; `None` when stepping from an
    /// already-unbounded eps (nothing left to relax).
    fn next_eps(&self, eps: f64, hint: Option<f64>) -> Option<f64> {
        if eps.is_infinite() {
            return None;
        }
        let stepped = if eps <= 0.0 {
            Self::MIN_STEP
        } else {
            eps * self.factor
        };
        Some(match hint {
            Some(h) if h > stepped => h,
            _ => stepped,
        })
    }
}

/// Minimum total terminal count before [`Netlist::route_parallel`] spawns
/// worker threads; netlists with less total work than this route serially
/// (thread setup would dominate).
pub const PARALLEL_MIN_TERMINALS: usize = 64;

/// Per-criticality eps assignment and algorithm selection.
///
/// The defaults encode the paper's trade-off curve: critical nets get a
/// tight 10% slack, normal nets 50%, relaxed nets are pure MSTs.
///
/// Not `Copy`: the embedded [`CancelToken`] is a shared handle (cloning
/// the config clones the handle, so every clone answers to the same
/// deadline or shutdown signal).
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// `eps` for [`Criticality::Critical`] nets.
    pub eps_critical: f64,
    /// `eps` for [`Criticality::Normal`] nets.
    pub eps_normal: f64,
    /// `eps` for [`Criticality::Relaxed`] nets
    /// (`f64::INFINITY` = unbounded MST).
    pub eps_relaxed: f64,
    /// The construction to use.
    pub algorithm: RouteAlgorithm,
    /// The degradation ladder's relaxation schedule.
    pub relaxation: RelaxationPolicy,
    /// Cancellation/deadline token polled at every relaxation-ladder rung
    /// and inside the BKRUS/BPRIM construction loops. The default
    /// never-token makes every poll free; request owners arm one with
    /// [`CancelToken::with_budget`] and keep a clone to fire on shutdown.
    pub cancel: CancelToken,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            eps_critical: 0.1,
            eps_normal: 0.5,
            eps_relaxed: f64::INFINITY,
            algorithm: RouteAlgorithm::bkrus(),
            relaxation: RelaxationPolicy::default(),
            cancel: CancelToken::never(),
        }
    }
}

impl RouterConfig {
    /// The eps this configuration assigns to a criticality class.
    pub fn eps_for(&self, c: Criticality) -> f64 {
        match c {
            Criticality::Critical => self.eps_critical,
            Criticality::Normal => self.eps_normal,
            Criticality::Relaxed => self.eps_relaxed,
        }
    }
}

/// Renders an eps for observability events (`"inf"` for unbounded, since
/// non-finite numbers have no JSON representation).
fn eps_field(eps: f64) -> Field {
    if eps.is_finite() {
        Field::from(eps)
    } else {
        Field::from("inf")
    }
}

/// One rung: builds the net's [`ProblemContext`] at `eps` and runs
/// `builder` through its fault-isolated [`TreeBuilder::try_build`] path.
fn attempt(
    n: &NamedNet,
    builder: &'static dyn TreeBuilder,
    eps: f64,
    cancel: &CancelToken,
    emit_diagnostics: bool,
) -> Result<bmst_tree::RoutingTree, BmstError> {
    let cx = ProblemContext::new(&n.net, eps)?.with_cancel(cancel.clone());
    if emit_diagnostics && bmst_obs::enabled() {
        for diag in cx.diagnostics() {
            bmst_obs::event(
                "router.input_diagnostic",
                &[
                    ("net", Field::from(n.name.as_str())),
                    ("detail", Field::from(diag.to_string())),
                ],
            );
        }
    }
    builder.try_build(&cx)
}

/// Routes one named net under `config`, walking the degradation ladder on
/// recoverable failures. `Err` carries the final error plus the full
/// attempt trail for the report's failure log.
fn route_named(
    n: &NamedNet,
    config: &RouterConfig,
) -> Result<RoutedNet, (BmstError, Vec<RelaxationStep>)> {
    let requested_eps = config.eps_for(n.criticality);
    let policy = &config.relaxation;
    let mut attempts: Vec<RelaxationStep> = Vec::new();
    let mut eps = requested_eps;
    let mut fallback_spt = false;

    let tree = loop {
        // Rung boundary: a dead deadline ends the ladder here, recorded as
        // the final step of the attempt trail so failure logs show which
        // rung the budget expired at.
        if let Err(err) = config.cancel.check() {
            attempts.push(RelaxationStep {
                eps,
                error: err.to_string(),
            });
            if bmst_obs::enabled() {
                bmst_obs::counter("router.deadline_exceeded", 1);
            }
            return Err((err, attempts));
        }
        match attempt(
            n,
            config.algorithm.builder,
            eps,
            &config.cancel,
            attempts.is_empty(),
        ) {
            Ok(tree) => break tree,
            Err(err) => {
                attempts.push(RelaxationStep {
                    eps,
                    error: err.to_string(),
                });
                if !err.is_recoverable() || !policy.spt_fallback && !err.eps_relaxation_helps() {
                    return Err((err, attempts));
                }
                let next = if err.eps_relaxation_helps() {
                    if attempts.len() <= policy.max_relaxations {
                        policy.next_eps(eps, err.min_feasible_eps())
                    } else if policy.include_unbounded && eps.is_finite() {
                        Some(f64::INFINITY)
                    } else {
                        None
                    }
                } else {
                    // e.g. UnsupportedMetric: a larger eps changes nothing,
                    // only the SPT fallback below can help.
                    None
                };
                match next {
                    Some(next_eps) => {
                        if bmst_obs::enabled() {
                            bmst_obs::event(
                                "router.relax",
                                &[
                                    ("net", Field::from(n.name.as_str())),
                                    ("from_eps", eps_field(eps)),
                                    ("to_eps", eps_field(next_eps)),
                                    ("error", Field::from(err.to_string())),
                                ],
                            );
                        }
                        eps = next_eps;
                    }
                    None if policy.spt_fallback => {
                        // Last rung: the source star satisfies any upper
                        // bound, so route it under the *requested* eps.
                        eps = requested_eps;
                        fallback_spt = true;
                        if bmst_obs::enabled() {
                            bmst_obs::event(
                                "router.spt_fallback",
                                &[
                                    ("net", Field::from(n.name.as_str())),
                                    ("eps", eps_field(eps)),
                                    ("error", Field::from(err.to_string())),
                                ],
                            );
                        }
                        match attempt(n, spt_builder(), eps, &config.cancel, false) {
                            Ok(tree) => break tree,
                            Err(spt_err) => {
                                attempts.push(RelaxationStep {
                                    eps,
                                    error: spt_err.to_string(),
                                });
                                return Err((spt_err, attempts));
                            }
                        }
                    }
                    None => return Err((err, attempts)),
                }
            }
        }
    };

    let wirelength = tree.cost();
    // For Steiner trees the radius of interest is over terminals only;
    // terminal ids coincide with net node ids in both cases.
    let radius = tree.max_dist_from_root(n.net.sinks());
    Ok(RoutedNet {
        name: n.name.clone(),
        criticality: n.criticality,
        eps,
        requested_eps,
        wirelength,
        radius,
        bound: n.net.path_bound(eps),
        relaxations: attempts,
        fallback_spt,
        tree,
    })
}

/// The registry's SPT builder (the ladder's always-feasible last rung).
#[allow(clippy::expect_used)] // registry invariant, justified inline
fn spt_builder() -> &'static dyn TreeBuilder {
    // lint: allow(no-panic) — resolving a name the registry is built with
    bmst_steiner::find_builder("spt").expect("spt baseline is registered")
}

/// One net's outcome, before report assembly.
type NetResult = Result<RoutedNet, (BmstError, Vec<RelaxationStep>)>;

impl Netlist {
    /// The failure-log entries for nets rejected at parse time, in file
    /// order. Their [`RouteFailure::error`] is a typed
    /// [`BmstError::DegenerateInput`] carrying the header line.
    fn parse_failures(&self) -> Vec<RouteFailure> {
        self.rejected
            .iter()
            .map(|r| {
                if bmst_obs::enabled() {
                    bmst_obs::event(
                        "router.net_rejected",
                        &[
                            ("net", Field::from(r.name.as_str())),
                            ("line", Field::from(r.line)),
                            ("error", Field::from(r.error.to_string())),
                        ],
                    );
                }
                RouteFailure {
                    index: None,
                    name: r.name.clone(),
                    criticality: r.criticality,
                    error: BmstError::DegenerateInput {
                        detail: format!("line {}: {}", r.line, r.error),
                    },
                    attempts: Vec::new(),
                }
            })
            .collect()
    }

    /// Assembles the aggregate report from per-net outcomes in input
    /// order. Shared by the serial and parallel passes so the two produce
    /// byte-identical reports.
    fn assemble(&self, results: Vec<(usize, NetResult)>) -> RouteReport {
        let mut nets = Vec::with_capacity(results.len());
        let mut failures = self.parse_failures();
        let mut total_wirelength = 0.0;
        for (i, res) in results {
            match res {
                Ok(routed) => {
                    // Summed in input order: bit-identical for any job count.
                    total_wirelength += routed.wirelength;
                    nets.push(routed);
                }
                Err((error, attempts)) => {
                    if bmst_obs::enabled() {
                        bmst_obs::event(
                            "router.net_failed",
                            &[
                                ("net", Field::from(self.nets[i].name.as_str())),
                                ("error", Field::from(error.to_string())),
                                ("attempts", Field::from(attempts.len())),
                            ],
                        );
                    }
                    failures.push(RouteFailure {
                        index: Some(i),
                        name: self.nets[i].name.clone(),
                        criticality: self.nets[i].criticality,
                        error,
                        attempts,
                    });
                }
            }
        }
        RouteReport {
            nets,
            failures,
            total_wirelength,
        }
    }

    /// Routes every net under `config`, returning the aggregate report.
    ///
    /// Nets are routed independently (classical global routing by nets)
    /// and **fault-isolated**: a net that cannot route — degenerate
    /// geometry, an infeasible window the degradation ladder could not
    /// relax away, even a panicking construction — lands in the report's
    /// failure log while every other net routes normally. The report
    /// records, per net, the wirelength, the longest source-sink path, the
    /// bound it was routed under, its status, and any relaxation trail.
    pub fn route(&self, config: &RouterConfig) -> RouteReport {
        let mut results = Vec::with_capacity(self.nets.len());
        for (i, n) in self.nets.iter().enumerate() {
            let _obs_span = bmst_obs::span("router.net");
            results.push((i, route_named(n, config)));
        }
        self.assemble(results)
    }

    /// Like [`Netlist::route`], but distributes nets over `jobs` worker
    /// threads (a shared atomic work queue over `std::thread::scope`).
    ///
    /// The report is **byte-identical** to the serial one: workers drain
    /// the whole queue regardless of failures, and results (successes and
    /// failures alike) are assembled in input order, so per-net values,
    /// the failure log, and the order-dependent floating-point sum of
    /// `total_wirelength` cannot differ. Workers tag their per-net
    /// observability spans `router.net.w<worker>`.
    ///
    /// `jobs` is clamped to `[1, nets]`; `jobs <= 1` delegates to the
    /// serial pass, as do netlists whose total terminal count falls below
    /// [`PARALLEL_MIN_TERMINALS`] (thread setup would cost
    /// more than it buys — the bypass is recorded as a
    /// `router.parallel_bypassed` event).
    #[allow(clippy::expect_used)] // worker panics are propagated, justified inline
    pub fn route_parallel(&self, config: &RouterConfig, jobs: usize) -> RouteReport {
        let n = self.nets.len();
        let jobs = jobs.min(n).max(1);
        if jobs <= 1 {
            return self.route(config);
        }
        let terminals: usize = self.nets.iter().map(|n| n.net.len()).sum();
        if terminals < PARALLEL_MIN_TERMINALS {
            if bmst_obs::enabled() {
                bmst_obs::event(
                    "router.parallel_bypassed",
                    &[
                        ("terminals", Field::from(terminals)),
                        ("threshold", Field::from(PARALLEL_MIN_TERMINALS)),
                        ("nets", Field::from(n)),
                        ("jobs", Field::from(jobs)),
                    ],
                );
            }
            return self.route(config);
        }

        let next = AtomicUsize::new(0);
        let batches: Vec<Vec<(usize, NetResult)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|worker| {
                    let next = &next;
                    let nets = &self.nets;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= nets.len() {
                                break;
                            }
                            let _obs_span = bmst_obs::enabled()
                                .then(|| bmst_obs::span_dyn(&format!("router.net.w{worker}")));
                            out.push((i, route_named(&nets[i], config)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // lint: allow(no-panic) — re-raise worker panics instead of hiding them
                    h.join().expect("routing worker panicked")
                })
                .collect()
        });

        // Workers drain the whole queue, so every index appears exactly
        // once across the batches; sort back into input order.
        let mut results: Vec<(usize, NetResult)> = batches.into_iter().flatten().collect();
        results.sort_by_key(|(i, _)| *i);
        self.assemble(results)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::NamedNet;
    use bmst_geom::{Net, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_netlist(seed: u64, nets: usize) -> Netlist {
        netlist_with(seed, nets, |rng| rng.gen_range(3..9))
    }

    /// `nets` random nets of exactly `terminals` points each.
    fn sized_netlist(seed: u64, nets: usize, terminals: usize) -> Netlist {
        netlist_with(seed, nets, |_| terminals)
    }

    fn netlist_with(seed: u64, nets: usize, size: impl Fn(&mut StdRng) -> usize) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for i in 0..nets {
            let n = size(&mut rng);
            let pts = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let crit = match i % 3 {
                0 => Criticality::Critical,
                1 => Criticality::Normal,
                _ => Criticality::Relaxed,
            };
            out.push(NamedNet::new(
                format!("n{i}"),
                Net::with_source_first(pts).unwrap(),
                crit,
            ));
        }
        Netlist::new(out)
    }

    #[test]
    fn routes_all_nets_within_bounds() {
        let nl = random_netlist(1, 9);
        for algorithm in [
            RouteAlgorithm::bkrus(),
            RouteAlgorithm::bkh2(),
            RouteAlgorithm::steiner(),
        ] {
            let cfg = RouterConfig {
                algorithm,
                ..RouterConfig::default()
            };
            let report = nl.route(&cfg);
            assert!(report.is_clean());
            assert_eq!(report.nets.len(), 9);
            for rn in &report.nets {
                assert!(
                    rn.radius <= rn.bound + 1e-9,
                    "{}: radius {} > bound {}",
                    rn.name,
                    rn.radius,
                    rn.bound
                );
            }
            assert!(report.worst_slack() >= -1e-9);
        }
    }

    #[test]
    fn criticality_maps_to_eps() {
        let cfg = RouterConfig::default();
        assert_eq!(cfg.eps_for(Criticality::Critical), 0.1);
        assert_eq!(cfg.eps_for(Criticality::Normal), 0.5);
        assert!(cfg.eps_for(Criticality::Relaxed).is_infinite());
    }

    #[test]
    fn steiner_pass_is_cheapest() {
        let nl = random_netlist(2, 6);
        let spanning = nl.route(&RouterConfig {
            algorithm: RouteAlgorithm::bkrus(),
            ..Default::default()
        });
        let steiner = nl.route(&RouterConfig {
            algorithm: RouteAlgorithm::steiner(),
            ..Default::default()
        });
        assert!(spanning.is_clean() && steiner.is_clean());
        assert!(steiner.total_wirelength <= spanning.total_wirelength + 1e-9);
    }

    #[test]
    fn tighter_config_costs_more() {
        let nl = random_netlist(3, 8);
        let tight = RouterConfig {
            eps_critical: 0.0,
            eps_normal: 0.1,
            eps_relaxed: 0.2,
            ..RouterConfig::default()
        };
        let loose = RouterConfig {
            eps_critical: 1.0,
            eps_normal: 2.0,
            eps_relaxed: f64::INFINITY,
            ..RouterConfig::default()
        };
        let a = nl.route(&tight).total_wirelength;
        let b = nl.route(&loose).total_wirelength;
        assert!(b <= a + 1e-9, "loose {b} > tight {a}");
    }

    #[test]
    fn empty_netlist_routes_trivially() {
        let report = Netlist::default().route(&RouterConfig::default());
        assert_eq!(report.nets.len(), 0);
        assert_eq!(report.total_wirelength, 0.0);
        assert_eq!(report.worst_slack(), f64::INFINITY);
    }

    #[test]
    fn algorithm_resolution_and_identity() {
        assert_eq!(
            RouteAlgorithm::from_name("bkst"),
            Some(RouteAlgorithm::steiner())
        );
        assert!(RouteAlgorithm::from_name("nope").is_none());
        assert_eq!(RouteAlgorithm::default().name(), "bkrus");
        assert_eq!(RouteAlgorithm::steiner().to_string(), "steiner");
        assert!(RouteAlgorithm::all().count() >= 8);
    }

    #[test]
    fn every_registered_algorithm_routes_a_netlist() {
        // elmore-bkrus can be infeasible for tight eps under the default
        // driver model, so give every class a generous window.
        let nl = random_netlist(4, 3);
        for algorithm in RouteAlgorithm::all() {
            let cfg = RouterConfig {
                eps_critical: 1.0,
                eps_normal: 1.5,
                eps_relaxed: f64::INFINITY,
                algorithm,
                ..RouterConfig::default()
            };
            let report = nl.route(&cfg);
            assert!(
                report.failures.is_empty(),
                "{}: {:?}",
                algorithm.name(),
                report.failures
            );
        }
    }

    fn terminals(nl: &Netlist) -> usize {
        nl.nets.iter().map(|n| n.net.len()).sum()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        use std::sync::Arc;
        let nl = random_netlist(5, 17);
        assert!(terminals(&nl) >= PARALLEL_MIN_TERMINALS);
        let cfg = RouterConfig::default();
        let serial = nl.route(&cfg);
        for jobs in [1, 2, 4, 8, 32] {
            let recorder = Arc::new(bmst_obs::SummaryRecorder::new());
            let par = {
                let _guard = bmst_obs::scoped(recorder.clone());
                nl.route_parallel(&cfg, jobs)
            };
            assert_eq!(recorder.event_count("router.parallel_bypassed"), 0);
            assert_eq!(
                par.total_wirelength.to_bits(),
                serial.total_wirelength.to_bits(),
                "jobs={jobs}"
            );
            assert_eq!(par.nets.len(), serial.nets.len());
            assert!(par.failures.is_empty());
            for (a, b) in par.nets.iter().zip(&serial.nets) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.wirelength.to_bits(), b.wirelength.to_bits());
                assert_eq!(a.radius.to_bits(), b.radius.to_bits());
                assert_eq!(a.tree.edges(), b.tree.edges());
            }
        }
    }

    #[test]
    fn parallel_empty_and_oversubscribed() {
        use std::sync::Arc;
        let cfg = RouterConfig::default();
        let empty = Netlist::default().route_parallel(&cfg, 8);
        assert_eq!(empty.nets.len(), 0);
        // Fewer nets than jobs, but enough terminals for the pool.
        let nl = sized_netlist(6, 2, PARALLEL_MIN_TERMINALS / 2);
        assert_eq!(terminals(&nl), PARALLEL_MIN_TERMINALS);
        let recorder = Arc::new(bmst_obs::SummaryRecorder::new());
        let report = {
            let _guard = bmst_obs::scoped(recorder.clone());
            nl.route_parallel(&cfg, 64)
        };
        assert_eq!(recorder.event_count("router.parallel_bypassed"), 0);
        assert_eq!(report.nets.len(), 2);
    }

    #[test]
    fn parallel_bypasses_to_serial_below_terminal_threshold() {
        use std::sync::Arc;
        let nl = random_netlist(7, 3);
        assert!(terminals(&nl) < PARALLEL_MIN_TERMINALS);
        let cfg = RouterConfig::default();
        let recorder = Arc::new(bmst_obs::SummaryRecorder::new());
        let par = {
            let _guard = bmst_obs::scoped(recorder.clone());
            nl.route_parallel(&cfg, 4)
        };
        assert_eq!(recorder.event_count("router.parallel_bypassed"), 1);
        // The bypass is an optimisation, never a behaviour change.
        let serial = nl.route(&cfg);
        assert_eq!(
            par.total_wirelength.to_bits(),
            serial.total_wirelength.to_bits()
        );
        // At the threshold the pool runs and nothing is emitted.
        let nl = sized_netlist(7, 8, PARALLEL_MIN_TERMINALS / 8);
        assert_eq!(terminals(&nl), PARALLEL_MIN_TERMINALS);
        let recorder = Arc::new(bmst_obs::SummaryRecorder::new());
        {
            let _guard = bmst_obs::scoped(recorder.clone());
            nl.route_parallel(&cfg, 4);
        }
        assert_eq!(recorder.event_count("router.parallel_bypassed"), 0);
    }

    /// A net whose MST detours so far that eps = 0.1 is infeasible for the
    /// `mst` algorithm: sink B attaches through A (16 against dist 14).
    fn detour_net(name: &str) -> NamedNet {
        NamedNet::new(
            name,
            Net::with_source_first(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(9.0, 5.0),
            ])
            .unwrap(),
            Criticality::Critical,
        )
    }

    /// A collinear net whose MST is its shortest path tree, so it routes
    /// at any eps. Four of them reach [`PARALLEL_MIN_TERMINALS`].
    fn easy_net(name: &str, offset: f64) -> NamedNet {
        let points = (0..PARALLEL_MIN_TERMINALS / 4)
            .map(|k| Point::new(offset + k as f64, 0.0))
            .collect();
        NamedNet::new(
            name,
            Net::with_source_first(points).unwrap(),
            Criticality::Normal,
        )
    }

    fn mst_config(relaxation: RelaxationPolicy) -> RouterConfig {
        RouterConfig {
            algorithm: RouteAlgorithm::from_name("mst").unwrap(),
            relaxation,
            ..RouterConfig::default()
        }
    }

    #[test]
    fn infeasible_net_3_of_5_is_isolated_not_fatal() {
        // Satellite regression: net 3 (index 2) cannot route at its
        // requested eps; with the ladder disabled it must land in the
        // failure log while the other four route — serial and parallel.
        let nl = Netlist::new(vec![
            easy_net("n0", 0.0),
            easy_net("n1", 20.0),
            detour_net("bad"),
            easy_net("n3", 40.0),
            easy_net("n4", 60.0),
        ]);
        assert!(terminals(&nl) >= PARALLEL_MIN_TERMINALS);
        let cfg = mst_config(RelaxationPolicy::none());
        let serial = nl.route(&cfg);
        assert_eq!(serial.nets.len(), 4);
        assert_eq!(serial.failures.len(), 1);
        let fail = &serial.failures[0];
        assert_eq!(fail.index, Some(2));
        assert_eq!(fail.name, "bad");
        assert!(matches!(fail.error, BmstError::Infeasible { .. }));
        assert_eq!(fail.attempts.len(), 1);
        for jobs in [2, 4, 8] {
            let par = nl.route_parallel(&cfg, jobs);
            assert_eq!(par.nets.len(), 4, "jobs={jobs}");
            assert_eq!(par.failures.len(), 1, "jobs={jobs}");
            assert_eq!(par.failures[0].index, Some(2));
            assert_eq!(
                par.total_wirelength.to_bits(),
                serial.total_wirelength.to_bits()
            );
            for (a, b) in par.nets.iter().zip(&serial.nets) {
                assert_eq!(a.tree.edges(), b.tree.edges());
            }
        }
    }

    #[test]
    fn ladder_recovers_infeasible_net_as_degraded() {
        let nl = Netlist::new(vec![detour_net("bad")]);
        let report = nl.route(&mst_config(RelaxationPolicy::default()));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let net = &report.nets[0];
        assert_eq!(net.status(), crate::NetStatus::Degraded);
        assert!(
            !net.fallback_spt,
            "ladder should succeed before the SPT rung"
        );
        assert_eq!(net.requested_eps, 0.1);
        // One failed rung at 0.1, success at max(0.2, hint 16/14-1 = 0.142…).
        assert_eq!(net.relaxations.len(), 1);
        assert_eq!(net.relaxations[0].eps, 0.1);
        assert!(net.eps > 0.1 && net.eps <= 0.2, "{}", net.eps);
        assert!(net.slack() >= -1e-9);
    }

    #[test]
    fn deadline_mid_ladder_ends_trail_at_expired_rung() {
        // Deterministic expiry: rung one's checks all pass — its boundary
        // check plus one `check_window` poll per sink (two here) — and the
        // next check, rung two's boundary, fires. The ladder must stop at
        // rung two — recording the deadline as the trail's final step —
        // instead of walking the remaining rungs against a dead deadline.
        let nl = Netlist::new(vec![detour_net("bad")]);
        let cfg = RouterConfig {
            cancel: CancelToken::expire_after_checks(3),
            ..mst_config(RelaxationPolicy::default())
        };
        let report = nl.route(&cfg);
        assert!(report.nets.is_empty());
        assert_eq!(report.failures.len(), 1);
        let fail = &report.failures[0];
        assert!(
            matches!(fail.error, BmstError::DeadlineExceeded { .. }),
            "{:?}",
            fail.error
        );
        // Rung 1 ran and failed recoverably; rung 2 expired at its boundary.
        assert_eq!(fail.attempts.len(), 2);
        assert!(
            fail.attempts[0].error.contains("no feasible tree"),
            "{}",
            fail.attempts[0].error
        );
        assert!(fail.attempts[1].eps > 0.1, "{}", fail.attempts[1].eps);
        assert!(
            fail.attempts[1].error.contains("cancelled"),
            "{}",
            fail.attempts[1].error
        );
    }

    #[test]
    fn cancelled_token_fails_nets_without_routing() {
        let nl = Netlist::new(vec![easy_net("a", 0.0), easy_net("b", 20.0)]);
        let cfg = RouterConfig {
            cancel: CancelToken::manual(),
            ..RouterConfig::default()
        };
        cfg.cancel.cancel();
        let report = nl.route(&cfg);
        assert!(report.nets.is_empty());
        assert_eq!(report.failures.len(), 2);
        for f in &report.failures {
            assert!(
                matches!(f.error, BmstError::DeadlineExceeded { .. }),
                "{:?}",
                f.error
            );
            assert_eq!(f.attempts.len(), 1);
        }
    }

    #[test]
    fn ladder_hint_jumps_past_factor_when_tighter() {
        // With factor 1.0 the schedule alone would retry 0.1 forever; the
        // min_feasible_eps hint (16/14 - 1 ≈ 0.1429) must pull it feasible.
        let policy = RelaxationPolicy {
            max_relaxations: 1,
            factor: 1.0,
            include_unbounded: false,
            spt_fallback: false,
        };
        let nl = Netlist::new(vec![detour_net("bad")]);
        let report = nl.route(&mst_config(policy));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!((report.nets[0].eps - (16.0 / 14.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn spt_fallback_is_last_rung() {
        // steiner/bkst is rectilinear-only; an L2 net fails with
        // UnsupportedMetric, which eps cannot fix — only the SPT rung can.
        let net = Net::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 4.0),
                Point::new(6.0, 0.0),
            ],
            0,
            bmst_geom::Metric::L2,
        )
        .unwrap();
        let nl = Netlist::new(vec![NamedNet::new("l2", net, Criticality::Normal)]);
        let cfg = RouterConfig {
            algorithm: RouteAlgorithm::steiner(),
            ..RouterConfig::default()
        };
        let report = nl.route(&cfg);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let routed = &report.nets[0];
        assert!(routed.fallback_spt);
        assert_eq!(routed.status(), crate::NetStatus::Degraded);
        assert_eq!(routed.relaxations.len(), 1);
        // Without the fallback the same net is a typed failure.
        let strict = nl.route(&RouterConfig {
            relaxation: RelaxationPolicy::none(),
            ..cfg
        });
        assert_eq!(strict.failures.len(), 1);
        assert!(matches!(
            strict.failures[0].error,
            BmstError::UnsupportedMetric { .. }
        ));
    }

    #[test]
    fn relaxation_policy_next_eps_edges() {
        let p = RelaxationPolicy::default();
        assert_eq!(p.next_eps(0.1, None), Some(0.2));
        assert_eq!(p.next_eps(0.0, None), Some(RelaxationPolicy::MIN_STEP));
        assert_eq!(p.next_eps(0.1, Some(0.5)), Some(0.5));
        assert_eq!(p.next_eps(f64::INFINITY, None), None);
    }
}
