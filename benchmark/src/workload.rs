//! The four workloads: their sizes and the seeded generators of their
//! inputs. The program under test only ever sees the generated request
//! lines and netlist text.
//!
//! Sizes, styles, criticalities and algorithms follow fixed strata (a
//! golden-ratio sequence over each range) and only coordinates and request
//! order come from the seed. That keeps the amount of work per run nearly
//! the same across seeds, so run-to-run spread measures the system rather
//! than the draw.

use bmst_geom::Net;
use bmst_graph::prim_mst_with;
use bmst_instances::{scaled_net, ScaleStyle};
use bmst_obs::json::escape;
use bmst_router::{Criticality, NamedNet, Netlist};

use crate::stats::{mix, Rng};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["serve-hot", "serve-cold", "netlist-batch", "bkrus-large"];

/// Every request's time budget in the serve workloads: a stall shows up as
/// a `deadline_exceeded` failure instead of a slow sample.
pub const BUDGET_MS: u64 = 1000;

/// The serve layer's sizing, shared by both serve workloads.
pub const WORKERS: usize = 2;
pub const QUEUE_CAPACITY: usize = 64;
pub const CACHE_ENTRIES: usize = 128;

/// Repeated set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Share of `--seconds` an untraced run spends on load it does not time.
/// On a shared VM whose CPUs had sat idle for half a minute, the serve-hot
/// p90 and p99 of the next 20-s run came out 30–50% higher than those of
/// a run right after it, all through the run; a few seconds of load first
/// removed most of the difference.
pub const WARM_SHARE: f64 = 0.15;

/// One workload's parameters.
#[derive(Debug, Clone)]
pub enum Spec {
    Serve(ServeSpec),
    Route(RouteSpec),
}

/// An open-loop serve workload over a pool of request bodies.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Bodies that repeat (and so hit the report cache).
    pub hot: usize,
    /// Templates for fresh requests: each use gets a unique net name, so
    /// the cache misses while the router does the template's full work.
    pub fresh: usize,
    /// Percentage of requests that are fresh.
    pub fresh_pct: u64,
    /// Nets per body, inclusive range.
    pub nets: (usize, usize),
    /// Sinks per net, inclusive range.
    pub sinks: (usize, usize),
    /// Construction names, cycled over the bodies.
    pub algorithms: &'static [&'static str],
    /// `steiner` bodies keep every net at or below this many sinks.
    pub steiner_sinks: usize,
    /// Poisson arrival rate of the nominal step, requests per second.
    pub rate: f64,
    /// Share of `--seconds` given to the open-loop nominal step; the
    /// closed-loop saturation step gets most of the rest.
    pub nominal_share: f64,
    /// Requests outstanding in the closed-loop saturation step (below the
    /// queue capacity, so nothing is shed).
    pub window: usize,
    /// Fresh bodies served once, closed loop, during set-up (serve-cold,
    /// whose hot set is empty).
    pub warm: usize,
    /// Request bodies replayed through the layers in the traced run.
    pub replay: usize,
}

/// A netlist routed pass after pass through `Netlist::route_parallel` (or
/// `route` when `jobs == 1`).
#[derive(Debug, Clone)]
pub struct RouteSpec {
    pub nets: usize,
    pub sinks: (usize, usize),
    pub jobs: usize,
    /// Every `replay_stride`-th net is replayed through the layers in the
    /// traced run.
    pub replay_stride: usize,
}

const HOT_ALGS: &[&str] = &["bkrus", "bprim", "brbc", "prim-dijkstra", "steiner"];
const COLD_ALGS: &[&str] = &["bkrus", "bprim", "brbc", "prim-dijkstra"];

/// The parameters of workload `name`; `smoke` shrinks every size so a
/// debug build runs all four in seconds.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let s = match (name, smoke) {
        ("serve-hot", false) => Spec::Serve(ServeSpec {
            hot: 64,
            fresh: 256,
            fresh_pct: 25,
            nets: (1, 4),
            sinks: (10, 80),
            algorithms: HOT_ALGS,
            steiner_sinks: 16,
            rate: 1000.0,
            nominal_share: 0.6,
            window: 16,
            warm: 0,
            replay: 64,
        }),
        ("serve-hot", true) => Spec::Serve(ServeSpec {
            hot: 8,
            fresh: 8,
            fresh_pct: 25,
            nets: (1, 2),
            sinks: (5, 12),
            algorithms: HOT_ALGS,
            steiner_sinks: 8,
            rate: 100.0,
            nominal_share: 0.6,
            window: 4,
            warm: 0,
            replay: 4,
        }),
        ("serve-cold", false) => Spec::Serve(ServeSpec {
            hot: 0,
            fresh: 256,
            fresh_pct: 100,
            nets: (1, 3),
            sinks: (100, 400),
            algorithms: COLD_ALGS,
            steiner_sinks: 16,
            rate: 200.0,
            nominal_share: 0.8,
            window: 16,
            warm: 8,
            replay: 32,
        }),
        ("serve-cold", true) => Spec::Serve(ServeSpec {
            hot: 0,
            fresh: 8,
            fresh_pct: 100,
            nets: (1, 2),
            sinks: (20, 40),
            algorithms: COLD_ALGS,
            steiner_sinks: 8,
            rate: 20.0,
            nominal_share: 0.65,
            window: 4,
            warm: 2,
            replay: 4,
        }),
        ("netlist-batch", false) => Spec::Route(RouteSpec {
            nets: 1500,
            sinks: (10, 300),
            jobs: 2,
            replay_stride: 25,
        }),
        ("netlist-batch", true) => Spec::Route(RouteSpec {
            nets: 24,
            sinks: (5, 30),
            jobs: 2,
            replay_stride: 6,
        }),
        ("bkrus-large", false) => Spec::Route(RouteSpec {
            nets: 8,
            sinks: (2000, 2000),
            jobs: 1,
            replay_stride: 1,
        }),
        ("bkrus-large", true) => Spec::Route(RouteSpec {
            nets: 4,
            sinks: (120, 120),
            jobs: 1,
            replay_stride: 1,
        }),
        _ => return None,
    };
    Some(s)
}

/// The `i`-th point of the golden-ratio sequence over `lo..=hi`.
fn stratum(i: usize, (lo, hi): (usize, usize)) -> usize {
    let frac = (i as f64 * 0.618_033_988_749_894_9).fract();
    lo + ((frac * (hi - lo + 1) as f64) as usize).min(hi - lo)
}

/// The `g`-th net of a workload: style and criticality cycle with `g`.
fn named_net(name: String, g: usize, sinks: usize, rng: &mut Rng) -> NamedNet {
    let style = ScaleStyle::ALL[g % 4];
    let crit = [
        Criticality::Critical,
        Criticality::Normal,
        Criticality::Relaxed,
    ][g % 3];
    NamedNet::new(name, scaled_net(sinks, rng.next_u64(), style), crit)
}

/// Cost of the net's minimum spanning tree: the denominator of
/// `quality.wirelength_ratio`.
pub fn mst_cost(net: &Net) -> f64 {
    prim_mst_with(net.len(), net.source(), |i, j| net.dist(i, j))
        .iter()
        .map(|e| e.weight)
        .sum()
}

/// One request body of a serve workload.
#[derive(Debug, Clone)]
pub struct Body {
    /// `net b<j>`: the first net's header up to its name, where a unique
    /// suffix makes a fresh request.
    head: String,
    /// The rest of the netlist text.
    tail: String,
    pub algorithm: &'static str,
    pub terminals: usize,
    /// Σ MST cost over the body's nets.
    pub mst: f64,
    json_head: String,
    json_tail: String,
}

impl Body {
    /// The netlist text the server receives for this body with `suffix`
    /// appended to the first net's name.
    pub fn text(&self, suffix: &str) -> String {
        format!("{}{suffix}{}", self.head, self.tail)
    }

    /// One `route` request line (newline included).
    pub fn line(&self, id: usize, suffix: &str) -> String {
        format!(
            "{{\"id\":{id}{}{suffix}{}\n",
            self.json_head, self.json_tail
        )
    }
}

/// Generates serve body `j` of the pool.
fn body(spec: &ServeSpec, j: usize, next_net: &mut usize, rng: &mut Rng) -> Body {
    let algorithm = spec.algorithms[j % spec.algorithms.len()];
    let sinks = if algorithm == "steiner" {
        (spec.sinks.0, spec.steiner_sinks)
    } else {
        spec.sinks
    };
    let count = stratum(j, spec.nets);
    let nets: Vec<NamedNet> = (0..count)
        .map(|k| {
            let g = *next_net;
            *next_net += 1;
            let name = if k == 0 {
                format!("b{j}")
            } else {
                format!("b{j}n{k}")
            };
            named_net(name, g, stratum(g, sinks), rng)
        })
        .collect();
    let terminals = nets.iter().map(|n| n.net.len()).sum();
    let mst = nets.iter().map(|n| mst_cost(&n.net)).sum();
    let text = Netlist::new(nets).to_string_block();
    let head = format!("net b{j}");
    let tail = text[head.len()..].to_owned();
    let escaped = escape(&tail);
    Body {
        json_head: format!(
            ",\"op\":\"route\",\"algorithm\":\"{algorithm}\",\"budget_ms\":{BUDGET_MS},\"netlist\":\"{head}"
        ),
        json_tail: format!("{}}}", &escaped[1..]),
        head,
        tail,
        algorithm,
        terminals,
        mst,
    }
}

/// A serve workload's inputs: the hot bodies first, then the fresh
/// templates.
#[derive(Debug)]
pub struct ServeInputs {
    pub bodies: Vec<Body>,
    pub hot: usize,
    fresh_pct: u64,
    seed: u64,
}

impl ServeInputs {
    pub fn generate(spec: &ServeSpec, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut next_net = 0;
        let bodies = (0..spec.hot + spec.fresh)
            .map(|j| body(spec, j, &mut next_net, &mut rng))
            .collect();
        ServeInputs {
            bodies,
            hot: spec.hot,
            fresh_pct: spec.fresh_pct,
            seed: mix(seed ^ 0x5e4e_5e4e),
        }
    }

    /// Request `i` of the stream: its body index and whether it is fresh
    /// (a unique name, so a cache miss). A pure function of the seed and
    /// `i`, so any prefix of the stream can be replayed.
    pub fn pick(&self, i: usize) -> (usize, bool) {
        let h = mix(self.seed ^ mix(i as u64));
        let fresh = self.hot == 0 || h % 100 < self.fresh_pct;
        let r = (h >> 16) as usize;
        if fresh {
            (self.hot + r % (self.bodies.len() - self.hot), true)
        } else {
            (r % self.hot, false)
        }
    }

    /// The suffix that makes request `i` fresh.
    pub fn suffix(i: usize, fresh: bool) -> String {
        if fresh {
            format!("_u{i}")
        } else {
            String::new()
        }
    }

    /// The request line of stream position `i` with id `id`.
    pub fn line(&self, i: usize, id: usize) -> String {
        let (b, fresh) = self.pick(i);
        self.bodies[b].line(id, &Self::suffix(i, fresh))
    }
}

/// Poisson arrival offsets in seconds at `rate`.
fn arrivals(rate: f64, seed: u64) -> impl Iterator<Item = f64> {
    let mut rng = Rng::new(mix(seed ^ 0xa11_0ff5e7));
    let mut t = 0.0;
    std::iter::from_fn(move || {
        t += -(1.0 - rng.unit()).ln() / rate;
        Some(t)
    })
}

/// Poisson arrival offsets over `[0, duration)`.
pub fn poisson_schedule(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    arrivals(rate, seed).take_while(|&t| t < duration).collect()
}

/// The first `n` Poisson arrival offsets.
pub fn poisson_arrivals(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    arrivals(rate, seed).take(n).collect()
}

/// A route workload's netlist, rendered once as block text.
pub struct RouteInputs {
    pub text: String,
    pub nets: usize,
    pub terminals: usize,
    /// Σ MST cost over the nets.
    pub mst: f64,
}

impl RouteInputs {
    pub fn generate(spec: &RouteSpec, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let nets: Vec<NamedNet> = (0..spec.nets)
            .map(|g| named_net(format!("n{g}"), g, stratum(g, spec.sinks), &mut rng))
            .collect();
        let terminals = nets.iter().map(|n| n.net.len()).sum();
        let mst = nets.iter().map(|n| mst_cost(&n.net)).sum();
        RouteInputs {
            text: Netlist::new(nets).to_string_block(),
            nets: spec.nets,
            terminals,
            mst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded() {
        let Some(Spec::Serve(s)) = spec("serve-hot", true) else {
            panic!("serve spec")
        };
        let a = ServeInputs::generate(&s, 3);
        let b = ServeInputs::generate(&s, 3);
        let c = ServeInputs::generate(&s, 4);
        assert_eq!(a.line(5, 5), b.line(5, 5));
        assert_ne!(a.bodies[0].text(""), c.bodies[0].text(""));
        assert_eq!(
            poisson_schedule(50.0, 1.0, 3),
            poisson_schedule(50.0, 1.0, 3)
        );
    }

    #[test]
    fn request_lines_parse_and_fresh_suffix_is_unique() {
        let Some(Spec::Serve(s)) = spec("serve-hot", true) else {
            panic!("serve spec")
        };
        let inputs = ServeInputs::generate(&s, 1);
        let body = &inputs.bodies[0];
        let env = bmst_serve::protocol::parse_line(body.line(9, "_u9").trim_end()).unwrap();
        let bmst_serve::protocol::Request::Route(req) = env.request else {
            panic!("route request")
        };
        assert_eq!(req.netlist, body.text("_u9"));
        assert_eq!(req.budget_ms, Some(BUDGET_MS));
        assert!(req.netlist.starts_with("net b0_u9 "));
        let fresh = (0..200).filter(|&i| inputs.pick(i).1).count();
        assert!((20..=80).contains(&fresh), "{fresh} fresh of 200");
    }

    #[test]
    fn strata_cover_the_range() {
        let v: Vec<usize> = (0..100).map(|i| stratum(i, (10, 80))).collect();
        assert!(v.iter().all(|&x| (10..=80).contains(&x)));
        assert!(v.contains(&10) || v.contains(&11));
        assert!(v.contains(&80) || v.contains(&79));
    }
}
