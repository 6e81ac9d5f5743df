//! The dynamic (insert/delete) subsystem's contracts, property-tested at
//! the workspace level:
//!
//! 1. **Cancellation** — a [`DynamicSketch`] fed `inserts ∪ deletes` is
//!    bit-identical (same recovery: level, edges, cover) to one fed only
//!    the surviving edges, across the uniform/zipf/planted generators
//!    and churn/window deletion patterns.
//! 2. **Merge associativity** — partitioning the updates arbitrarily and
//!    merging in any grouping reproduces the single-build sketch.
//! 3. **Approximation** — the dynamic cover's value on the surviving
//!    graph stays within the paper's `(1 − 1/e − ε)` bound of the
//!    insertion-only pipeline run on the surviving edge set
//!    (deterministic fixed-seed integration check, the acceptance
//!    criterion for `coverage kcover --dynamic`).

use proptest::prelude::*;

use coverage_suite::data::{
    churn_workload, planted_k_cover, sliding_window_workload, uniform_instance, zipf_instance,
};
use coverage_suite::prelude::*;

/// A deletion workload from one of the generator families.
/// `generator`: 0 = uniform, 1 = zipf, 2 = planted; `pattern`:
/// 0 = churn, 1 = sliding window.
fn generated_workload(
    generator: u8,
    pattern: u8,
    n: usize,
    m: u64,
    k: usize,
    churn: f64,
    seed: u64,
) -> DynamicWorkload {
    let inst = match generator % 3 {
        0 => uniform_instance(n, m, (m / 20).max(8) as usize, seed),
        1 => zipf_instance(n, m, 0.6, 1.05, (m / 8).max(8) as usize, seed),
        _ => planted_k_cover(n, m, k.max(1), (m / 16).max(4) as usize, seed).instance,
    };
    match pattern % 2 {
        0 => churn_workload(&inst, churn, seed ^ 0xC0),
        _ => sliding_window_workload(&inst, 4, 2, seed ^ 0xC1),
    }
}

/// Canonical content of a recovered sample.
fn recovery_key(s: &DynamicSketch) -> (usize, Vec<Edge>) {
    let sample = s.recover().expect("sketch must decode");
    (sample.level, sample.edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: the sketch of the signed stream equals the sketch of
    /// the surviving edges — deletions cancel exactly.
    #[test]
    fn dynamic_sketch_equals_insertion_only_over_survivors(
        generator in 0u8..3,
        pattern in 0u8..2,
        churn in 0.1f64..0.9,
        budget in 300usize..2_000,
        seed in 0u64..1_000,
    ) {
        let w = generated_workload(generator, pattern, 20, 1_200, 3, churn, seed);
        let params = DynamicSketchParams::new(
            SketchParams::with_budget(20, 3, 0.4, budget));
        let from_updates = DynamicSketch::from_stream(params, seed ^ 0xABC, &w.stream);
        let survivors = surviving_stream(&w.stream);
        let from_survivors =
            DynamicSketch::from_stream(params, seed ^ 0xABC, &InsertOnly::new(&survivors));
        prop_assert_eq!(
            recovery_key(&from_updates),
            recovery_key(&from_survivors),
            "generator={} pattern={} churn={:.2}",
            generator, pattern, churn
        );
    }

    /// Contract 2: merging any partition of the updates, in any grouping,
    /// reproduces the single-build sketch.
    #[test]
    fn dynamic_merge_is_associative_across_partitions(
        generator in 0u8..3,
        parts in 2usize..6,
        budget in 300usize..1_500,
        seed in 0u64..1_000,
    ) {
        let w = generated_workload(generator, 0, 16, 800, 3, 0.5, seed);
        let params = DynamicSketchParams::new(
            SketchParams::with_budget(16, 3, 0.4, budget));
        let sketch_seed = seed ^ 0x5EED;
        let whole = DynamicSketch::from_stream(params, sketch_seed, &w.stream);
        // Partition updates round-robin.
        let mut shards: Vec<Vec<SignedEdge>> = vec![Vec::new(); parts];
        for (i, &u) in w.stream.updates().iter().enumerate() {
            shards[i % parts].push(u);
        }
        let locals: Vec<DynamicSketch> = shards
            .into_iter()
            .map(|s| {
                DynamicSketch::from_stream(params, sketch_seed, &VecDynamicStream::new(16, s))
            })
            .collect();
        // Left fold.
        let mut left = locals[0].clone();
        for l in &locals[1..] {
            left.merge_from(l);
        }
        // Right fold (reverse order — exercises commutativity too).
        let mut right = locals[locals.len() - 1].clone();
        for l in locals[..locals.len() - 1].iter().rev() {
            right.merge_from(l);
        }
        prop_assert_eq!(recovery_key(&left), recovery_key(&whole));
        prop_assert_eq!(recovery_key(&right), recovery_key(&whole));
    }

    /// The end-to-end driver inherits both contracts: the dynamic cover
    /// equals the one computed from the surviving edges alone.
    #[test]
    fn dynamic_k_cover_depends_only_on_survivors(
        generator in 0u8..3,
        churn in 0.2f64..0.8,
        seed in 0u64..500,
    ) {
        let w = generated_workload(generator, 0, 18, 1_000, 3, churn, seed);
        let cfg = DynamicKCoverConfig::new(3, 0.3, seed ^ 7)
            .with_sizing(SketchSizing::Budget(1_500));
        let via_updates = dynamic_k_cover(&w.stream, &cfg);
        let survivors = surviving_stream(&w.stream);
        let via_survivors = dynamic_k_cover(&InsertOnly::new(&survivors), &cfg);
        prop_assert_eq!(&via_updates.family, &via_survivors.family);
        prop_assert_eq!(via_updates.sample_level, via_survivors.sample_level);
        prop_assert_eq!(via_updates.recovered_edges, via_survivors.recovered_edges);
    }
}

/// Contract 3, pinned deterministically (fixed seeds): the acceptance
/// criterion behind `coverage kcover --dynamic`. On a churn workload the
/// dynamic cover's value must be within the paper's `(1 − 1/e − ε)`
/// bound of the insertion-only pipeline's value on the surviving edges.
#[test]
fn dynamic_cover_within_paper_bound_of_insertion_only_run() {
    let eps = 0.25;
    for seed in [3u64, 11, 29] {
        let planted = planted_k_cover(50, 5_000, 4, 150, seed);
        let w = churn_workload(&planted.instance, 0.5, seed ^ 0xC0FE);
        let dyn_res = dynamic_k_cover(
            &w.stream,
            &DynamicKCoverConfig::new(4, eps, seed).with_sizing(SketchSizing::Budget(4_000)),
        );
        let mut surv_stream = surviving_stream(&w.stream);
        ArrivalOrder::Random(seed ^ 0xA1).apply(surv_stream.edges_mut());
        let ins_res = k_cover_streaming(
            &surv_stream,
            &KCoverConfig::new(4, eps, seed).with_sizing(SketchSizing::Budget(4_000)),
        );
        let dyn_cov = w.surviving.coverage(&dyn_res.family) as f64;
        let ins_cov = w.surviving.coverage(&ins_res.family) as f64;
        let bound = (1.0 - 1.0 / std::f64::consts::E - eps) * ins_cov;
        assert!(
            dyn_cov >= bound,
            "seed {seed}: dynamic {dyn_cov} below bound {bound:.0} (insertion-only {ins_cov})"
        );
        // In practice the two pipelines agree almost exactly; record the
        // stronger empirical fact so regressions surface early.
        assert!(
            dyn_cov >= 0.9 * ins_cov,
            "seed {seed}: dynamic {dyn_cov} far below insertion-only {ins_cov}"
        );
    }
}

/// Fixed-seed regression: the exact family and sample level selected on
/// a reference churn workload, through the serial dynamic runner and
/// the parallel executor. If this changes, the level hashing, cell
/// placement, or greedy tie-breaking changed — all contract surface.
#[test]
fn reference_dynamic_workload_pinned() {
    let planted = planted_k_cover(40, 5_000, 4, 150, 3);
    let w = churn_workload(&planted.instance, 0.4, 5);
    let cfg = DistConfig::new(6, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
    let serial = dynamic_distributed_k_cover(&w.stream, &cfg);
    let par = ParallelRunner::new(cfg, 4).run_dynamic(&w.stream);
    assert_eq!(par.family, serial.family);
    assert_eq!(par.sample, serial.sample);
    assert_eq!(par.merged_edges, serial.merged_edges);
    // The planted golden sets are 0..4; the dynamic pipeline must find
    // exactly them (order may legitimately change if tie-breaking does —
    // update deliberately).
    let mut family = par.family.clone();
    family.sort();
    assert_eq!(family, vec![SetId(0), SetId(1), SetId(2), SetId(3)]);
}
