//! Criterion bench: the paper's `Merge` routine (radius and source-path
//! refresh), one walk of each partial tree, `O(|t_u| + |t_v|)`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)] // demo/bench harness: fail fast, exact parameter matches

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bmst_core::forest::KruskalForest;

/// Builds a forest with two chained components of `half` nodes each,
/// ready to be merged by one final edge.
fn two_chains(half: usize) -> KruskalForest {
    let n = 2 * half;
    let mut f = KruskalForest::new(n, 0);
    for i in 1..half {
        f.merge(i - 1, i, 1.0);
    }
    for i in (half + 1)..n {
        f.merge(i - 1, i, 1.0);
    }
    f
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_update");
    for &half in &[32usize, 128, 512] {
        group.bench_with_input(
            BenchmarkId::new("final_merge", 2 * half),
            &half,
            |b, &half| {
                b.iter_batched(
                    || two_chains(half),
                    |mut f| {
                        f.merge(black_box(half - 1), black_box(half), 1.0);
                        f
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
