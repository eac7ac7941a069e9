//! Graph substrate for the BMST reproduction.
//!
//! The paper's algorithms operate on the complete graph induced by a net's
//! terminals (spanning-tree constructions) and on sparse routing graphs
//! (Steiner constructions, BRBC's `MST + shortcuts` union). This crate
//! provides the shared machinery:
//!
//! * [`Edge`] and [`complete_edges`] — weighted edges of the complete
//!   terminal graph, with the deterministic `(weight, u, v)` ordering every
//!   Kruskal-style construction in the workspace uses;
//! * [`DisjointSets`] — union-find with path compression (the paper's
//!   `MAKE_SET` / `FIND_SET` / `UNION`);
//! * [`AdjacencyList`] — sparse adjacency representation;
//! * [`kruskal_mst`], [`prim_mst`] — minimum spanning trees (the cost
//!   baseline of every table in the paper);
//! * [`dijkstra`] — single-source shortest paths (the SPT radius baseline and
//!   the final step of BRBC).
//!
//! # Examples
//!
//! ```
//! use bmst_geom::{Metric, Net, Point};
//! use bmst_graph::{complete_edges, kruskal_mst, tree_cost};
//!
//! let net = Net::with_source_first(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(3.0, 0.0),
//!     Point::new(3.0, 4.0),
//! ])?;
//! let edges = complete_edges(&net.distance_matrix());
//! let mst = kruskal_mst(net.len(), &edges).expect("complete graphs are connected");
//! assert_eq!(tree_cost(&mst), 7.0);
//! # Ok::<(), bmst_geom::GeomError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod dijkstra;
mod dsu;
mod edge;
mod enumerate;
mod mst;

pub use adjacency::AdjacencyList;
pub use dijkstra::{dijkstra, ShortestPaths};
pub use dsu::DisjointSets;
pub use edge::{complete_edges, sort_edges, tree_cost, Edge};
pub use enumerate::{EnumeratedTree, SpanningTreeEnumerator};
pub use mst::{kruskal_mst, prim_mst, prim_mst_with, GraphError};
