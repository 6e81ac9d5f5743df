//! Property-based tests (proptest) for the cross-crate invariants the
//! paper's correctness rests on.

use proptest::prelude::*;

use coverage_suite::core::{Edge, SetId};
use coverage_suite::hash::UnitHash;
use coverage_suite::prelude::*;
use coverage_suite::sketch::SketchParams;

/// Arbitrary small edge list over bounded set/element universes.
fn edges_strategy(max_sets: u32, max_elem: u64) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec(
        (0..max_sets, 0..max_elem).prop_map(|(s, e)| Edge::new(s, e)),
        0..400,
    )
}

/// The unrolled batch mixer agrees with the scalar loop and the
/// one-key [`UnitHash::hash`] on every remainder length around the
/// unroll width — exhaustively over `0..=2×BATCH_LANES`, several
/// seeds, with non-trivial key patterns. This is the deterministic
/// anchor for the proptest below; together they are the bit-identity
/// contract the `BENCH_8` vectorized ingest path rests on.
#[test]
fn hash_batch_matches_scalar_on_all_remainder_lengths() {
    for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF, u64::MAX] {
        let h = UnitHash::new(seed);
        for len in 0..=2 * UnitHash::BATCH_LANES {
            let keys: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed))
                .collect();
            let mut unrolled = Vec::new();
            let mut scalar = Vec::new();
            h.hash_batch(keys.iter().copied(), &mut unrolled);
            h.hash_batch_scalar(keys.iter().copied(), &mut scalar);
            assert_eq!(unrolled, scalar, "seed {seed} len {len}");
            let one_by_one: Vec<u64> = keys.iter().map(|&k| h.hash(k)).collect();
            assert_eq!(unrolled, one_by_one, "seed {seed} len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random batches across seeds: the unrolled mixer is bit-identical
    /// to the scalar loop on arbitrary (duplicate-heavy, extreme-value)
    /// key sequences, including lengths far past the unroll width.
    #[test]
    fn hash_batch_matches_scalar_on_random_batches(
        keys in prop::collection::vec(0u64..u64::MAX, 0..300),
        seed in 0u64..1000,
    ) {
        let h = UnitHash::new(seed);
        let mut unrolled = Vec::new();
        let mut scalar = Vec::new();
        h.hash_batch(keys.iter().copied(), &mut unrolled);
        h.hash_batch_scalar(keys.iter().copied(), &mut scalar);
        prop_assert_eq!(&unrolled, &scalar);
        let one_by_one: Vec<u64> = keys.iter().map(|&k| h.hash(k)).collect();
        prop_assert_eq!(unrolled, one_by_one);
    }

    /// The grouped/prefetched probe path is bit-identical to the scalar
    /// per-edge probe sequence on a single sketch: same retained
    /// content, same counters, same acceptance bound, for any stream
    /// and any batch size (including 1 and sizes straddling the probe
    /// group width).
    #[test]
    fn sketch_batch_probe_matches_scalar(
        edges in edges_strategy(8, 120),
        seed in 0u64..300,
        batch in 1usize..40,
    ) {
        let params = SketchParams::with_budget(8, 2, 0.4, 28);
        let stream = VecStream::new(8, edges);
        let mut vectorized = ThresholdSketch::new(params, seed);
        vectorized.consume_batched(&stream, batch);
        let mut scalar = ThresholdSketch::new(params, seed);
        scalar.consume_batched_scalar(&stream, batch);
        let mut per_edge = ThresholdSketch::new(params, seed);
        stream.for_each(&mut |e| per_edge.update(e));
        prop_assert_eq!(vectorized.acceptance_bound(), scalar.acceptance_bound());
        prop_assert_eq!(vectorized.counters(), scalar.counters());
        prop_assert_eq!(vectorized.canonical_content(), scalar.canonical_content());
        prop_assert_eq!(vectorized.acceptance_bound(), per_edge.acceptance_bound());
        prop_assert_eq!(vectorized.counters(), per_edge.counters());
        prop_assert_eq!(vectorized.canonical_content(), per_edge.canonical_content());
    }

    /// Bank-level bit-identity: the batched vectorized ingest (shared
    /// hash pass + bank-wide bound pre-filter + grouped probes), the
    /// batched scalar hybrid, and the frozen per-edge scalar engine all
    /// retain identical content on every guess — the `BENCH_8`
    /// vectorization-equivalence contract, over random streams, seeds,
    /// and batch sizes.
    #[test]
    fn bank_ingest_paths_bit_identical(
        edges in edges_strategy(10, 150),
        seed in 0u64..300,
        batch in 1usize..40,
    ) {
        let guesses: Vec<SketchParams> = (0..3)
            .map(|g| SketchParams::with_budget(10, 1 << g, 0.4, 24 + 8 * g))
            .collect();
        let stream = VecStream::new(10, edges);
        let mut vectorized = SketchBank::new(guesses.iter().copied(), seed);
        vectorized.consume_batched(&stream, batch);
        let mut hybrid = SketchBank::new(guesses.iter().copied(), seed);
        hybrid.consume_batched_scalar(&stream, batch);
        let mut per_edge = SketchBank::new(guesses.iter().copied(), seed);
        per_edge.consume_scalar(&stream);
        for ((v, h), p) in vectorized
            .sketches()
            .iter()
            .zip(hybrid.sketches())
            .zip(per_edge.sketches())
        {
            prop_assert_eq!(v.acceptance_bound(), h.acceptance_bound());
            prop_assert_eq!(v.counters(), h.counters());
            prop_assert_eq!(v.canonical_content(), h.canonical_content());
            prop_assert_eq!(v.acceptance_bound(), p.acceptance_bound());
            prop_assert_eq!(v.counters(), p.counters());
            prop_assert_eq!(v.canonical_content(), p.canonical_content());
        }
    }

    /// The sketch's retained elements are exactly the arrived elements
    /// whose hash clears the final acceptance bound — the `H'_{p*}`
    /// prefix property — for *any* edge multiset and arrival order.
    #[test]
    fn retained_set_is_hash_prefix(edges in edges_strategy(8, 64), seed in 0u64..1000) {
        let params = SketchParams::with_budget(8, 2, 0.5, 24);
        let stream = VecStream::new(8, edges.clone());
        let sketch = ThresholdSketch::from_stream(params, seed, &stream);
        let h = UnitHash::new(seed);
        let bound = sketch.acceptance_bound();
        let retained: std::collections::HashSet<u64> =
            sketch.retained().map(|(k, _, _)| k).collect();
        let arrived: std::collections::HashSet<u64> =
            edges.iter().map(|e| e.element.0).collect();
        for &el in &arrived {
            prop_assert_eq!(
                retained.contains(&el),
                h.hash(el) <= bound,
                "element {} hash {:x} bound {:x}", el, h.hash(el), bound
            );
        }
        // Nothing retained that never arrived.
        for &el in &retained {
            prop_assert!(arrived.contains(&el));
        }
    }

    /// Sketch edge count never exceeds its cap, and per-element degree
    /// never exceeds the degree cap.
    #[test]
    fn budget_and_cap_hold(edges in edges_strategy(10, 200), seed in 0u64..1000) {
        let params = SketchParams::with_budget(10, 3, 0.4, 30);
        let stream = VecStream::new(10, edges);
        let sketch = ThresholdSketch::from_stream(params, seed, &stream);
        prop_assert!(sketch.edges_stored() <= params.max_edges());
        for (_, _, sets) in sketch.retained() {
            prop_assert!(sets.len() <= params.degree_cap);
            // Dedup: no set appears twice for one element.
            let mut v = sets.to_vec();
            v.sort_unstable();
            v.dedup();
            prop_assert_eq!(v.len(), sets.len());
        }
    }

    /// The sketch content is invariant under arrival-order permutation
    /// (up to which capped edges survive for truncated elements — so we
    /// compare retained element sets and total element counts, plus full
    /// edge sets when no element hit the cap).
    #[test]
    fn order_invariance(edges in edges_strategy(6, 80), seed in 0u64..500, shuffle in 0u64..500) {
        let params = SketchParams::with_budget(6, 1, 0.5, 40);
        let a = ThresholdSketch::from_stream(params, seed, &VecStream::new(6, edges.clone()));
        let mut shuffled = edges;
        ArrivalOrder::Random(shuffle).apply(&mut shuffled);
        let b = ThresholdSketch::from_stream(params, seed, &VecStream::new(6, shuffled));
        let mut ka: Vec<u64> = a.retained().map(|(k, _, _)| k).collect();
        let mut kb: Vec<u64> = b.retained().map(|(k, _, _)| k).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        prop_assert_eq!(ka, kb);
        let truncated_a = a.retained().any(|(_, _, s)| s.len() >= params.degree_cap);
        if !truncated_a {
            prop_assert_eq!(a.edges_stored(), b.edges_stored());
        }
    }

    /// Greedy k-cover on any instance is within (1−1/e) of the exact
    /// optimum (Nemhauser–Wolsey–Fisher), and never returns an invalid
    /// family.
    #[test]
    fn greedy_respects_bound(edges in edges_strategy(8, 24), k in 1usize..5) {
        let inst = CoverageInstance::from_edges(8, edges);
        let trace = lazy_greedy_k_cover(&inst, k);
        coverage_suite::core::validate::check_k_cover(&inst, &trace.family(), k).unwrap();
        let (_, opt) = exact_k_cover(&inst, k);
        let greedy = trace.coverage();
        prop_assert!(greedy <= opt);
        prop_assert!(
            greedy as f64 >= (1.0 - 1.0 / std::f64::consts::E) * opt as f64 - 1e-9,
            "greedy {} vs opt {}", greedy, opt
        );
    }

    /// Streaming k-cover always returns a well-formed family and a space
    /// report within its configured bounds, whatever the stream.
    #[test]
    fn streaming_kcover_always_valid(edges in edges_strategy(12, 300), seed in 0u64..100) {
        let stream = VecStream::new(12, edges);
        let cfg = KCoverConfig::new(3, 0.3, seed).with_sizing(SketchSizing::Budget(50));
        let res = k_cover_streaming(&stream, &cfg);
        let inst = coverage_suite::stream::materialize(&stream);
        coverage_suite::core::validate::check_k_cover(&inst, &res.family, 3).unwrap();
        let params = cfg.sketch_params(12);
        prop_assert!(res.space.peak_edges <= (params.max_edges() + params.degree_cap + 1) as u64);
    }

    /// The outlier set-cover result, when verified, covers the required
    /// fraction of the *sketch* by construction; on the full instance it
    /// covers at least `1 − λ − 13ε_sketch` in these budget regimes.
    #[test]
    fn outlier_cover_fraction(seed in 0u64..30) {
        let planted = planted_set_cover(16, 600, 3, 30, seed);
        let stream = VecStream::from_instance(&planted.instance);
        let cfg = OutlierConfig::new(0.15, 0.5, seed).with_sizing(SketchSizing::Budget(2_500));
        let res = set_cover_outliers(&stream, &cfg);
        prop_assert!(res.verified);
        let frac = planted.instance.coverage_fraction(&res.family);
        prop_assert!(frac >= 1.0 - 0.15 - 0.10, "fraction {}", frac);
    }

    /// KMV union estimates track true union sizes within ~4 standard
    /// errors across arbitrary splits of the universe.
    #[test]
    fn kmv_union_estimates(split in 1u64..5000, total in 5001u64..20000, seed in 0u64..50) {
        use coverage_suite::hash::KmvSketch;
        let t = 258;
        let h = UnitHash::new(seed);
        let mut a = KmvSketch::new(t, h);
        let mut b = KmvSketch::new(t, h);
        for e in 0..split { a.insert(e); }
        for e in split/2..total { b.insert(e); }
        let merged = KmvSketch::merged([&a, &b].into_iter());
        let est = merged.estimate();
        let rse = 1.0 / ((t - 2) as f64).sqrt();
        prop_assert!(
            (est - total as f64).abs() <= 5.0 * rse * total as f64 + 2.0,
            "estimate {} truth {}", est, total
        );
    }

    /// All arrival orders are permutations: same multiset before/after.
    #[test]
    fn orders_are_permutations(edges in edges_strategy(6, 60), seed in 0u64..100) {
        for order in [
            ArrivalOrder::Random(seed),
            ArrivalOrder::SetGrouped(seed),
            ArrivalOrder::ElementGrouped(seed),
            ArrivalOrder::ByHashDesc(seed),
        ] {
            let mut permuted = edges.clone();
            order.apply(&mut permuted);
            let mut x = edges.clone();
            let mut y = permuted;
            x.sort();
            y.sort();
            prop_assert_eq!(x, y);
        }
    }

    /// `restrict_elements` (the residual-graph primitive of Algorithm 6)
    /// never invents edges and preserves set ids.
    #[test]
    fn residual_is_subgraph(edges in edges_strategy(6, 50), cut in 0u64..50) {
        let inst = CoverageInstance::from_edges(6, edges);
        let residual = inst.restrict_elements(|e| e.0 >= cut);
        prop_assert_eq!(residual.num_sets(), inst.num_sets());
        prop_assert!(residual.num_edges() <= inst.num_edges());
        for s in residual.set_ids() {
            let orig: std::collections::HashSet<u64> =
                inst.set_elements(s).map(|e| e.0).collect();
            for e in residual.set_elements(s) {
                prop_assert!(e.0 >= cut);
                prop_assert!(orig.contains(&e.0));
            }
        }
        let _ = SetId(0);
    }
}
