//! Bounded path length minimal spanning tree algorithms.
//!
//! This crate implements the primary contribution of *"Constructing Minimal
//! Spanning/Steiner Trees with Bounded Path Length"* (Oh, Pyo, Pedram,
//! ED&TC 1996): routing-tree constructions whose source-to-sink path lengths
//! are bounded by `(1 + eps) * R` (with `R` the direct distance from the
//! source to its farthest sink) while keeping total wirelength close to the
//! minimum spanning tree.
//!
//! # Algorithms
//!
//! | Function | Paper name | Kind |
//! |---|---|---|
//! | [`bkrus`] | BKRUS | Kruskal-analogue heuristic (§3.1) |
//! | [`bkrus_elmore`] | — | BKRUS under the Elmore delay model (§3.2) |
//! | [`bprim`] | BPRIM | bounded-Prim baseline of Cong et al. (§2) |
//! | [`prim_dijkstra`] | AHHK | unbounded Prim/Dijkstra blend of Alpert et al. (§2) |
//! | [`brbc`] | BRBC | bounded-radius-bounded-cost baseline of Cong et al. (§2) |
//! | [`gabow_bmst`] | BMST_G | exact, spanning trees in increasing cost order (§4) |
//! | [`bkex`] | BKEX | exact, iterated negative-sum-exchanges (§5) |
//! | [`bkh2`] | BKH2 | depth-2 negative-sum-exchange local search (§5) |
//! | [`lub_bkrus`] | — | lower *and* upper bounded BKRUS (§6) |
//!
//! plus the baselines every table normalises against: [`mst_tree`],
//! [`spt_tree`], and [`maximal_spanning_tree`].
//!
//! # Contexts and builders
//!
//! The free functions above each derive the complete-graph distance matrix
//! and sorted edge list from scratch. To share that state — across several
//! constructions on one net, or across threads — build a [`ProblemContext`]
//! once and run [`TreeBuilder`]s from the [`registry`] against it; every
//! construction is registered under a stable kebab-case name (see
//! [`BuilderDescriptor`]). The free functions remain as thin shims over the
//! same drivers, so both paths produce bit-identical trees.
//!
//! # Quick start
//!
//! ```
//! use bmst_core::{bkrus, mst_tree, spt_tree};
//! use bmst_geom::{Net, Point};
//!
//! // A source at the origin and sinks spread to its right.
//! let net = Net::with_source_first(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 1.0),
//!     Point::new(11.0, -1.0),
//!     Point::new(12.0, 2.0),
//! ])?;
//!
//! let mst = mst_tree(&net);       // minimal cost, unbounded radius
//! let spt = spt_tree(&net);       // minimal radius, maximal cost
//! let bkt = bkrus(&net, 0.2)?;    // radius <= 1.2 * R, cost near MST
//!
//! assert!(bkt.source_radius() <= 1.2 * net.source_radius() + 1e-9);
//! assert!(bkt.cost() + 1e-9 >= mst.cost());
//! assert!(bkt.cost() <= spt.cost() + 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ahhk;
mod audit;
mod baselines;
mod bkex;
mod bkh2;
mod bkrus;
mod bprim;
mod brbc;
mod builder;
mod cancel;
mod constraint;
mod context;
mod elmore_bkrus;
mod error;
/// Bounded-radius forest partition (§3.1): the cluster structure BKRUS
/// merges into a single bounded tree.
pub mod forest;
mod gabow;
mod lub;
mod stats;
mod supply;

pub use ahhk::prim_dijkstra;
pub use audit::audit_construction;
pub use baselines::{maximal_spanning_tree, mst_tree, spt_tree};
pub use bkex::{bkex, bkex_from, bkex_from_with, BkexConfig};
pub use bkh2::{bkh2, bkh2_elmore, bkh2_from};
pub use bkrus::{bkrus, bkrus_trace, EdgeDecision, TraceEvent};
pub use bprim::bprim;
pub use brbc::brbc;
pub use builder::{
    builders, find_builder, registry, BoundKind, BuilderDescriptor, BuiltGeometry, CostClass,
    TreeBuilder,
};
pub use cancel::CancelToken;
pub use constraint::PathConstraint;
pub use context::{InputDiagnostic, ProblemContext};
pub use elmore_bkrus::{bkrus_elmore, elmore_spt_radius};
pub use error::BmstError;
pub use gabow::{gabow_bmst, gabow_bmst_with, preprocess_edges, GabowConfig, GabowOutcome};
pub use lub::lub_bkrus;
pub use stats::TreeReport;
pub use supply::EdgeStream;
