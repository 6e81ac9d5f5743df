//! Criterion microbenchmarks for the distributed path: sketch merging
//! (the reducer's inner loop), snapshot wire round-trips, and full tree
//! reductions at varying fan-in — the cost model behind the companion
//! paper's round/communication trade-off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coverage_core::Edge;
use coverage_dist::{tree_reduce_with, ShipFormat};
use coverage_sketch::{SketchParams, SketchSnapshot, ThresholdSketch};

fn build_shards(w: usize, n_sets: u32, per_set: u64, budget: usize) -> Vec<ThresholdSketch> {
    let params = SketchParams::with_budget(n_sets as usize, 8, 0.25, budget);
    let mut shards: Vec<ThresholdSketch> =
        (0..w).map(|_| ThresholdSketch::new(params, 99)).collect();
    let mut i = 0usize;
    for s in 0..n_sets {
        for e in 0..per_set {
            shards[i % w].update(Edge::new(s, e * 131 + s as u64));
            i += 1;
        }
    }
    shards
}

fn bench_pairwise_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch_merge_pair");
    for budget in [2_000usize, 20_000] {
        let shards = build_shards(2, 400, 500, budget);
        group.bench_with_input(BenchmarkId::new("budget", budget), &budget, |b, _| {
            b.iter(|| {
                let mut a = shards[0].clone();
                a.merge_from(black_box(&shards[1]));
                black_box(a.edges_stored())
            })
        });
    }
    group.finish();
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_wire");
    for budget in [2_000usize, 20_000] {
        let shard = build_shards(1, 400, 500, budget).pop().unwrap();
        group.bench_with_input(BenchmarkId::new("budget", budget), &budget, |b, _| {
            b.iter(|| {
                let json = SketchSnapshot::of(black_box(&shard)).to_json();
                let back = SketchSnapshot::from_json(&json).unwrap().restore();
                black_box(back.edges_stored())
            })
        });
    }
    group.finish();
}

fn bench_tree_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_reduce_16_shards");
    group.sample_size(10);
    for fan_in in [2usize, 4, 16] {
        let shards = build_shards(16, 400, 300, 4_000);
        group.bench_with_input(BenchmarkId::new("fan_in", fan_in), &fan_in, |b, &f| {
            b.iter(|| {
                let (merged, report) = tree_reduce_with(shards.clone(), f, ShipFormat::Binary);
                black_box((merged.edges_stored(), report.total_words()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pairwise_merge,
    bench_snapshot_roundtrip,
    bench_tree_reduction
);
criterion_main!(benches);
