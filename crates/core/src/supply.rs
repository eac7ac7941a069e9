//! The edge-candidate supply: the complete terminal graph's edges,
//! generated lazily in canonical order from the grid neighbor index.
//!
//! Every Kruskal-style construction consumes the complete terminal graph's
//! edges in the canonical nondecreasing `(weight, u, v)` order, but almost
//! never all of them — BKRUS stops at `V - 1` acceptances. [`EdgeStream`]
//! generates that sequence incrementally from the [`NeighborIndex`], in
//! expanding weight windows, paying only for the prefix actually consumed
//! instead of materializing and sorting all `n(n-1)/2` edges up front.
//!
//! The stream is **bit-identical** to the fully sorted edge list
//! ([`ProblemContext::sorted_edges`]): edge weights come from the same
//! `Metric::dist` evaluations the distance matrix stores, the canonical
//! order is a strict total order (`total_cmp` plus endpoint tie-breaks),
//! and the expanding half-open weight windows `(t0, t1], (t1, t2], …`
//! partition the edge set — equal-weight ties always land in the same
//! window, so sorting each window locally reproduces the global sort
//! exactly. The registry golden tests and the supply oracle proptests pin
//! this.

use bmst_geom::NeighborIndex;
use bmst_graph::{sort_edges, Edge};

use crate::cancel::CancelToken;
use crate::ProblemContext;

/// An iterator over the complete terminal graph's edges in canonical
/// nondecreasing `(weight, u, v)` order.
///
/// Obtained from [`ProblemContext::edge_stream`]. Maintains a half-open
/// weight window `(lo, hi]` that starts at the index's cell size (the
/// expected nearest-neighbor length) and doubles until it covers the
/// diameter bound. Each refill collects every edge whose weight falls in
/// the window, sorts it canonically, and serves it out; concatenated
/// windows reproduce the globally sorted edge list bit-for-bit (see the
/// module docs for why ties cannot straddle a window). Each window's
/// generation runs under the `context.edge_stream` span.
pub struct EdgeStream<'c> {
    index: &'c NeighborIndex<'c>,
    lo: f64,
    hi: f64,
    exhausted: bool,
    batch: Vec<Edge>,
    pos: usize,
    scratch: Vec<(f64, usize)>,
    /// Window generation is the stream's only multi-millisecond
    /// uncancellable stretch at scale, so refills poll the context's
    /// token and end the stream early once it fires. Consumers observe a
    /// truncated sequence and surface the fired token through their own
    /// post-loop [`crate::ProblemContext::check_cancelled`] poll.
    cancel: CancelToken,
}

impl<'c> EdgeStream<'c> {
    pub(crate) fn new(cx: &'c ProblemContext<'_>) -> Self {
        let index = cx.neighbor_index();
        let diameter = index.diameter_bound();
        // First window: the expected nearest-neighbor scale, floored away
        // from zero so doubling always terminates, capped at the diameter
        // (degenerate all-coincident nets have diameter 0 and emit their
        // zero-weight edges in the single window (-1, 0]).
        let first = index
            .cell_size()
            .max(diameter * 1e-6)
            .max(f64::MIN_POSITIVE);
        EdgeStream {
            index,
            lo: -1.0,
            hi: first.min(diameter),
            exhausted: false,
            batch: Vec::new(),
            pos: 0,
            scratch: Vec::new(),
            cancel: cx.cancel_token().clone(),
        }
    }

    /// Marks the stream exhausted because the cancel token fired; any
    /// partially generated window is dropped (the consumer is about to
    /// abandon the construction anyway).
    fn abort(&mut self) -> bool {
        self.exhausted = true;
        self.batch.clear();
        self.pos = 0;
        false
    }

    /// Generates the next non-empty weight window, or returns `false`
    /// when every window up to the diameter bound has been served (or the
    /// cancel token fired mid-generation).
    // analyze: complexity(n log n)
    fn refill(&mut self) -> bool {
        while !self.exhausted {
            let _span = bmst_obs::span("context.edge_stream");
            self.batch.clear();
            self.pos = 0;
            for a in 0..self.index.len() {
                // Poll at a stride: one window over a large net is itself
                // a multi-millisecond stretch in debug builds.
                if a & 0xff == 0 && self.cancel.check().is_err() {
                    return self.abort();
                }
                self.scratch.clear();
                self.index
                    .neighbors_in_annulus(a, self.lo, self.hi, &mut self.scratch);
                for &(w, b) in &self.scratch {
                    // Each unordered pair is seen from both endpoints;
                    // keep the `a < b` sighting.
                    if b > a {
                        self.batch.push(Edge::new(a, b, w));
                    }
                }
            }
            sort_edges(&mut self.batch);
            if self.hi >= self.index.diameter_bound() {
                self.exhausted = true;
            } else {
                self.lo = self.hi;
                self.hi = (self.hi * 2.0).min(self.index.diameter_bound());
            }
            if !self.batch.is_empty() {
                return true;
            }
        }
        false
    }
}

impl Iterator for EdgeStream<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.pos >= self.batch.len() && !self.refill() {
            return None;
        }
        let e = self.batch[self.pos];
        self.pos += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::{Net, Point};

    fn scatter_net(n: usize) -> Net {
        let mut state = 0xDEAD_BEEF_u64;
        let pts = (0..n)
            .map(|_| {
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    #[allow(clippy::cast_precision_loss)]
                    // lint: allow(no-as-cast) — test-only pseudo-random scatter
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    unit * 100.0
                };
                Point::new(next(), next())
            })
            .collect();
        Net::with_source_first(pts).unwrap()
    }

    #[test]
    fn stream_equals_sorted_edges() {
        for n in [2, 3, 17, 60] {
            let net = scatter_net(n);
            let cx = ProblemContext::new(&net, 0.5).unwrap();
            let streamed: Vec<Edge> = cx.edge_stream().collect();
            assert_eq!(streamed, cx.sorted_edges().to_vec(), "n = {n}");
        }
    }

    #[test]
    fn stream_handles_coincident_points() {
        let net = Net::with_source_first(vec![Point::new(1.0, 1.0); 4]).unwrap();
        let cx = ProblemContext::unbounded(&net);
        let streamed: Vec<Edge> = cx.edge_stream().collect();
        assert_eq!(streamed, cx.sorted_edges().to_vec());
        assert_eq!(streamed.len(), 6);
        assert!(streamed.iter().all(|e| e.weight == 0.0));
    }
}
