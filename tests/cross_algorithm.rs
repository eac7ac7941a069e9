//! Integration tests spanning all crates: every construction, on shared
//! instances, checked against the paper's structural claims.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats

use bmst_core::{
    bkex, bkh2, bkrus, bprim, brbc, gabow_bmst, lub_bkrus, mst_tree, spt_tree, BkexConfig,
};
use bmst_instances::{clustered_net, random_net, ring_net, row_net, Benchmark};
use bmst_steiner::bkst;

const EPS_SWEEP: [f64; 4] = [0.0, 0.2, 0.5, 1.0];

/// Every bounded construction respects the radius bound on every special
/// benchmark and several random nets.
#[test]
fn all_constructions_respect_the_bound() {
    let mut nets: Vec<(String, bmst_geom::Net)> = Benchmark::SPECIAL
        .iter()
        .map(|b| (b.name().to_owned(), b.build()))
        .collect();
    for seed in 0..4 {
        nets.push((format!("rand{seed}"), random_net(9, seed)));
    }
    // Structured placement styles stress different regimes.
    nets.push(("clustered".into(), clustered_net(3, 4, 100.0, 5)));
    nets.push(("rows".into(), row_net(4, 10, 100.0, 6)));
    nets.push(("ring".into(), ring_net(10, 40.0, 0.2, 7)));

    for (name, net) in &nets {
        for eps in EPS_SWEEP {
            let bound = net.path_bound(eps) + 1e-9;
            for (alg, tree) in [
                ("bkrus", bkrus(net, eps).unwrap()),
                ("bkh2", bkh2(net, eps).unwrap()),
                ("bprim", bprim(net, eps).unwrap()),
                ("brbc", brbc(net, eps).unwrap()),
            ] {
                assert!(tree.is_spanning(), "{name}/{alg}/{eps}: not spanning");
                assert_eq!(tree.root(), net.source());
                assert!(
                    tree.max_dist_from_root(net.sinks()) <= bound,
                    "{name}/{alg}/{eps}: radius {} > bound {bound}",
                    tree.max_dist_from_root(net.sinks()),
                );
            }
            let st = bkst(net, eps).unwrap();
            assert!(
                st.terminal_radius() <= bound,
                "{name}/bkst/{eps}: radius over bound"
            );
            for t in 0..net.len() {
                assert!(
                    st.tree.is_covered(t),
                    "{name}/bkst/{eps}: terminal {t} uncovered"
                );
            }
        }
    }
}

/// The paper's Figure 11 cost ordering holds on average:
/// BKST <= MST <= exact <= BKH2 <= BKRUS <= SPT <= MaxST.
#[test]
fn figure11_cost_ordering_on_average() {
    let eps = 0.2;
    let mut sums = [0.0f64; 7]; // bkst, mst, exact, bkh2, bkrus, spt, maxst
    let cases = 8;
    for seed in 0..cases {
        let net = random_net(8, 100 + seed);
        sums[0] += bkst(&net, eps).unwrap().wirelength();
        sums[1] += mst_tree(&net).cost();
        sums[2] += gabow_bmst(&net, eps).unwrap().cost();
        sums[3] += bkh2(&net, eps).unwrap().cost();
        sums[4] += bkrus(&net, eps).unwrap().cost();
        sums[5] += spt_tree(&net).cost();
        sums[6] += bmst_core::maximal_spanning_tree(&net).cost();
    }
    for w in sums.windows(2) {
        assert!(w[0] <= w[1] + 1e-9, "ordering violated: {sums:?}");
    }
}

/// BRBC's bicriteria guarantee (Cong et al.; framed as bicriteria by Ravi
/// et al., "Spanning trees short or small"): radius at most `(1 + eps) R`
/// and cost at most `(1 + 2 / eps)` times the MST.
#[test]
fn brbc_meets_its_bicriteria_bound() {
    let mut nets: Vec<(String, bmst_geom::Net)> = Benchmark::SPECIAL
        .iter()
        .map(|b| (b.name().to_owned(), b.build()))
        .collect();
    for seed in 0..12 {
        let sinks = 5 + 3 * usize::try_from(seed).unwrap();
        nets.push((format!("rand{seed}"), random_net(sinks, 700 + seed)));
    }
    nets.push(("clustered".into(), clustered_net(4, 6, 100.0, 11)));
    nets.push(("rows".into(), row_net(3, 24, 100.0, 12)));
    nets.push(("ring".into(), ring_net(24, 40.0, 0.2, 13)));

    for (name, net) in &nets {
        let mst = mst_tree(net).cost();
        for eps in [0.1, 0.2, 0.5, 1.0] {
            let tree = brbc(net, eps).unwrap();
            let radius = tree.max_dist_from_root(net.sinks());
            let radius_bound = net.path_bound(eps);
            let cost_bound = (1.0 + 2.0 / eps) * mst;
            assert!(
                radius <= radius_bound * (1.0 + 1e-12),
                "{name}/{eps}: radius {radius} > {radius_bound}"
            );
            assert!(
                tree.cost() <= cost_bound * (1.0 + 1e-12),
                "{name}/{eps}: cost {} > {cost_bound}",
                tree.cost()
            );
        }
    }
}

/// Exactness: depth-(V-1) BKEX matches the Gabow optimum.
#[test]
fn bkex_exact_depth_matches_gabow() {
    for seed in 0..4 {
        let net = random_net(5, 200 + seed);
        for eps in [0.0, 0.3] {
            let a = gabow_bmst(&net, eps).unwrap().cost();
            let b = bkex(&net, eps, BkexConfig::exact_for(net.len()))
                .unwrap()
                .cost();
            assert!((a - b).abs() < 1e-9, "seed {seed} eps {eps}: {a} vs {b}");
        }
    }
}

/// The special benchmarks reproduce the paper's headline Table 2 behaviour.
#[test]
fn table2_shapes_hold() {
    // p1 at eps = 0: the perf ratio approaches N (paper: 3.88).
    let p1 = Benchmark::P1.build();
    let r0 = bkrus(&p1, 0.0).unwrap().cost() / mst_tree(&p1).cost();
    assert!(r0 > 3.0, "p1@0 perf ratio {r0}");
    // ... and collapses to ~1 by eps = 0.2 (paper: 1.00).
    let r02 = bkrus(&p1, 0.2).unwrap().cost() / mst_tree(&p1).cost();
    assert!(r02 < 1.1, "p1@0.2 perf ratio {r02}");

    // p2 at eps = 0.2: BPRIM pays visibly more than BKRUS (paper: 1.95 vs
    // 1.17).
    let p2 = Benchmark::P2.build();
    let bk = bkrus(&p2, 0.2).unwrap().cost();
    let pb = bprim(&p2, 0.2).unwrap().cost();
    assert!(pb > bk * 1.1, "p2@0.2: bprim {pb} vs bkrus {bk}");
}

/// The empirical headline of the paper's abstract: BKRUS cost stays within
/// ~1.19x of the optimal BMST (we allow 1.30 for our instance family).
#[test]
fn bkrus_close_to_optimum() {
    let mut worst: f64 = 1.0;
    for seed in 0..10 {
        let net = random_net(8, 300 + seed);
        for eps in [0.1, 0.3] {
            let heur = bkrus(&net, eps).unwrap().cost();
            let opt = gabow_bmst(&net, eps).unwrap().cost();
            worst = worst.max(heur / opt);
        }
    }
    // The deterministic in-tree RNG shim (crates/shims/rand) defines this
    // instance family; its worst observed ratio is 1.2840, so the allowance
    // is 1.30 (the paper's table averages ~1.19 on its own random suite).
    assert!(worst <= 1.30, "worst BKRUS/opt ratio {worst}");
}

/// LUB windows that include the plain upper-bound case agree with BKRUS,
/// and infeasible windows error out instead of returning bad trees.
#[test]
fn lub_consistency() {
    for seed in 0..4 {
        let net = random_net(7, 400 + seed);
        let plain = bkrus(&net, 0.5).unwrap();
        let windowed = lub_bkrus(&net, 0.0, 0.5).unwrap();
        assert!((plain.cost() - windowed.cost()).abs() < 1e-9);
        // An impossible window: every path in [2R, 2R] while some sink sits
        // at distance < R; spanning detours can't stretch arbitrarily.
        if let Ok(t) = lub_bkrus(&net, 2.0, 1.0) {
            // If it *did* find one, it must actually satisfy the window.
            let r = net.source_radius();
            for v in net.sinks() {
                assert!(t.dist_from_root(v) >= 2.0 * r - 1e-9);
            }
        }
    }
}

/// Steiner trees never cost more than the BKRUS spanning tree on average
/// and can undercut the MST.
#[test]
fn steiner_beats_spanning_on_average() {
    let eps = 0.3;
    let mut st_total = 0.0;
    let mut bk_total = 0.0;
    let mut undercuts = 0;
    for seed in 0..10 {
        let net = random_net(8, 500 + seed);
        let st = bkst(&net, eps).unwrap().wirelength();
        st_total += st;
        bk_total += bkrus(&net, eps).unwrap().cost();
        if st < mst_tree(&net).cost() - 1e-9 {
            undercuts += 1;
        }
    }
    assert!(st_total < bk_total);
    assert!(
        undercuts >= 3,
        "only {undercuts}/10 Steiner trees beat the MST"
    );
}
