//! The binary wire format's equivalence contract, property-tested at
//! the workspace level: for **both** snapshot types (threshold and
//! dynamic) across the three workload generators (uniform, zipf,
//! planted),
//!
//! * a binary encode → decode round trip reproduces the snapshot
//!   **bit-identically** (`==` on the full struct, hashes included);
//! * the JSON round trip agrees with the binary round trip;
//! * a tree reduce shipped through the binary transport produces the
//!   same merged sketch as the in-memory loopback — same retained
//!   content, same counters, same snapshot.
//!
//! Together these pin the codec to the paper's composability story: the
//! wire format is a pure representation change and can never alter what
//! a distributed run computes.

use proptest::prelude::*;

use coverage_suite::data::{planted_k_cover, uniform_instance, zipf_instance};
use coverage_suite::dist::tree_reduce_with;
use coverage_suite::prelude::*;

/// Build a seeded stream from one of the three generator families.
/// `generator`: 0 = uniform, 1 = zipf, 2 = planted.
fn generated_stream(generator: u8, n: usize, m: u64, k: usize, seed: u64) -> VecStream {
    let inst = match generator % 3 {
        0 => uniform_instance(n, m, (m / 20).max(8) as usize, seed),
        1 => zipf_instance(n, m, 0.6, 1.05, (m / 8).max(8) as usize, seed),
        _ => planted_k_cover(n, m, k.max(1), (m / 16).max(4) as usize, seed).instance,
    };
    let mut stream = VecStream::from_instance(&inst);
    ArrivalOrder::Random(seed ^ 0xA5).apply(stream.edges_mut());
    stream
}

/// A signed update stream derived from the generator: every edge
/// inserted, a seed-chosen subset deleted again (still a valid
/// turnstile history — nothing is deleted before its insert).
fn signed_updates(stream: &VecStream, churn_seed: u64) -> Vec<SignedEdge> {
    let mut updates: Vec<SignedEdge> = stream
        .edges()
        .iter()
        .copied()
        .map(SignedEdge::insert)
        .collect();
    let deletes: Vec<SignedEdge> = stream
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, _)| (*i as u64 ^ churn_seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0)
        .map(|(_, e)| SignedEdge::delete(*e))
        .collect();
    updates.extend(deletes);
    updates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Threshold snapshots: binary round trip == JSON round trip ==
    /// original, bit-identically, and the restored sketch matches.
    #[test]
    fn threshold_snapshot_roundtrips_bit_identically(
        generator in 0u8..3,
        k in 1usize..6,
        seed in 0u64..1_000,
        budget in 200usize..2_000,
    ) {
        let stream = generated_stream(generator, 24, 1_200, k, seed);
        let params = SketchParams::with_budget(24, k, 0.3, budget);
        let sketch = ThresholdSketch::from_stream(params, seed, &stream);
        let snap = SketchSnapshot::of(&sketch);

        let bin = snap.encode_binary();
        let from_bin = SketchSnapshot::decode_binary(&bin)
            .expect("canonical snapshot frame decodes");
        prop_assert_eq!(&from_bin, &snap, "binary roundtrip must be bit-identical");

        let doc = serde_json::to_string(&snap).expect("render json");
        let from_json: SketchSnapshot = serde_json::from_str(&doc).expect("parse json");
        prop_assert_eq!(&from_json, &snap, "json roundtrip must be bit-identical");

        // The restored sketch carries the same retained content.
        let restored = from_bin.restore();
        prop_assert_eq!(restored.canonical_content(), sketch.canonical_content());
        prop_assert_eq!(restored.acceptance_bound(), sketch.acceptance_bound());
    }

    /// Dynamic snapshots: the linear sketch's cells survive the sparse
    /// binary encoding and the JSON encoding identically.
    #[test]
    fn dynamic_snapshot_roundtrips_bit_identically(
        generator in 0u8..3,
        k in 1usize..5,
        seed in 0u64..1_000,
        budget in 200usize..1_500,
    ) {
        let stream = generated_stream(generator, 20, 800, k, seed);
        let params = DynamicSketchParams::new(SketchParams::with_budget(20, k, 0.3, budget));
        let mut sketch = DynamicSketch::new(params, seed);
        sketch.update_batch(&signed_updates(&stream, seed));
        let snap = DynamicSnapshot::of(&sketch);

        let bin = snap.encode_binary();
        let from_bin = DynamicSnapshot::decode_binary(&bin)
            .expect("dynamic snapshot frame decodes");
        prop_assert_eq!(&from_bin, &snap, "binary roundtrip must be bit-identical");

        let doc = serde_json::to_string(&snap).expect("render json");
        let from_json: DynamicSnapshot = serde_json::from_str(&doc).expect("parse json");
        prop_assert_eq!(&from_json, &snap, "json roundtrip must be bit-identical");
    }

    /// The reduce is transport-invariant: shipping every merge through
    /// the binary codec, the JSON codec, or no codec at all yields the
    /// same merged threshold sketch.
    #[test]
    fn threshold_reduce_is_transport_invariant(
        generator in 0u8..3,
        shards in 2usize..9,
        fan_in in 2usize..5,
        k in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let stream = generated_stream(generator, 20, 1_000, k, seed);
        let params = SketchParams::with_budget(20, k, 0.3, 800);
        let locals = |_: ()| -> Vec<ThresholdSketch> {
            partition_edges(&stream, shards, seed ^ 0x5A, 256)
                .into_iter()
                .map(|shard| {
                    let mut s = ThresholdSketch::new(params, seed);
                    s.update_batch(&shard);
                    s
                })
                .collect()
        };
        let (memory, _) = tree_reduce_with(locals(()), fan_in, ShipFormat::InMemory);
        let (binary, rep) = tree_reduce_with(locals(()), fan_in, ShipFormat::Binary);
        let want = SketchSnapshot::of(&memory);
        prop_assert_eq!(&SketchSnapshot::of(&binary), &want);
        // A real reduce over >1 shard must account its shipped bytes.
        if shards > 1 {
            prop_assert!(rep.total_bytes() > 0, "binary reduce ships real bytes");
        }
    }

    /// Same transport invariance for the dynamic (linear) sketch, where
    /// the contract is even stronger: cell-wise bit equality.
    #[test]
    fn dynamic_reduce_is_transport_invariant(
        generator in 0u8..3,
        shards in 2usize..7,
        fan_in in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let stream = generated_stream(generator, 16, 600, 3, seed);
        let updates = signed_updates(&stream, seed ^ 0xD1);
        let dyn_stream = VecDynamicStream::new(16, updates);
        let params = DynamicSketchParams::new(SketchParams::with_budget(16, 3, 0.3, 600));
        let locals = |_: ()| -> Vec<DynamicSketch> {
            partition_updates(&dyn_stream, shards, seed ^ 0x5A, 256)
                .into_iter()
                .map(|shard| {
                    let mut s = DynamicSketch::new(params, seed);
                    s.update_batch(&shard);
                    s
                })
                .collect()
        };
        let (memory, _) = tree_reduce_with(locals(()), fan_in, ShipFormat::InMemory);
        let (binary, _) = tree_reduce_with(locals(()), fan_in, ShipFormat::Binary);
        let want = DynamicSnapshot::of(&memory);
        prop_assert_eq!(&DynamicSnapshot::of(&binary), &want);
    }
}
