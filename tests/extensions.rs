//! Integration tests for the extension surface: weighted coverage, local
//! search, parallel greedy, eviction ablation, snapshots-over-the-wire,
//! tree reduction, and instance I/O — each exercised through a full
//! multi-crate pipeline, not in isolation.

use coverage_suite::core::offline::{greedy_set_cover, lazy_greedy_k_cover};
use coverage_suite::data::{to_json, to_text};
use coverage_suite::prelude::*;
use coverage_suite::sketch::SketchParams;

/// Local search and greedy both run on the *same* streamed sketch and both
/// transfer their quality to the original instance (Theorem 2.7 is
/// solver-agnostic).
#[test]
fn sketch_serves_multiple_solvers() {
    let planted = planted_k_cover(50, 8_000, 5, 700, 31);
    let inst = &planted.instance;
    let mut stream = VecStream::from_instance(inst);
    ArrivalOrder::Random(3).apply(stream.edges_mut());

    let params = SketchParams::with_budget(50, 5, 0.25, 5_000);
    let sketch = ThresholdSketch::from_stream(params, 77, &stream);
    let content = sketch.instance();

    let greedy = lazy_greedy_k_cover(&content, 5).family();
    let swaps = local_search_k_cover(&content, 5).family;
    let parallel = parallel_greedy_k_cover(&content, 5, 4).family();

    let opt = planted.optimal_value as f64;
    for (name, fam) in [
        ("greedy", &greedy),
        ("local-search", &swaps),
        ("parallel", &parallel),
    ] {
        let ratio = inst.coverage(fam) as f64 / opt;
        assert!(ratio > 0.6, "{name}: ratio {ratio}");
    }
    // Parallel greedy is output-identical to sequential greedy.
    assert_eq!(greedy, parallel);
}

/// Weighted pipeline end to end: weights → unit replication → streaming →
/// weighted evaluation, compared against direct weighted greedy.
#[test]
fn weighted_unit_replication_pipeline() {
    let inst = uniform_instance(30, 2_000, 80, 5);
    let weights = ElementWeights::from_fn(&inst, |id| 1 + id.0 % 5);
    let k = 4;
    let max_w = 5u64;

    let mut b = CoverageInstance::builder(inst.num_sets());
    for s in inst.set_ids() {
        for &d in inst.dense_set(s) {
            let base = inst.element_id(d).0 * max_w;
            for c in 0..weights.get(d) {
                b.add_edge(Edge::new(s.0, base + c));
            }
        }
    }
    let replicated = b.build();
    assert_eq!(replicated.num_elements() as u64, weights.total());

    let mut stream = VecStream::from_instance(&replicated);
    ArrivalOrder::Random(11).apply(stream.edges_mut());
    let cfg =
        KCoverConfig::new(k, 0.2, 9).with_sizing(SketchSizing::Budget(replicated.num_edges() / 2));
    let res = k_cover_streaming(&stream, &cfg);

    let streamed_w = weighted_coverage(&inst, &weights, &res.family);
    let offline_w = weighted_greedy_k_cover(&inst, &weights, k).covered_weight();
    assert!(
        streamed_w as f64 >= 0.7 * offline_w as f64,
        "streamed weight {streamed_w} vs offline {offline_w}"
    );
}

/// The greedy-trap adversarial instance: offline greedy pays the ln m gap,
/// and the streamed pipeline (greedy on a roomy sketch) reproduces the
/// same trap trajectory — sketching does not accidentally "fix" greedy.
#[test]
fn greedy_trap_survives_the_stream() {
    let trap = greedy_trap(8);
    let inst = &trap.instance;

    let offline = greedy_set_cover(inst);
    assert_eq!(offline.len(), 8, "offline greedy walks the trap");

    // Stream through a sketch big enough to hold everything: the sketch
    // content equals the input, so greedy must behave identically.
    let mut stream = VecStream::from_instance(inst);
    ArrivalOrder::Random(13).apply(stream.edges_mut());
    let params = SketchParams::with_budget(inst.num_sets(), 2, 0.3, inst.num_edges() * 2);
    let sketch = ThresholdSketch::from_stream(params, 5, &stream);
    assert!(sketch.is_exact_sample());
    let streamed = greedy_set_cover(&sketch.instance());
    assert_eq!(streamed.len(), offline.len());

    // k-cover restriction: ratio ≈ 3/4 both ways.
    let k2 = lazy_greedy_k_cover(&sketch.instance(), 2).family();
    let opt2 = inst.coverage(&trap.optimal_cover) as f64;
    let ratio = inst.coverage(&k2) as f64 / opt2;
    assert!((0.70..0.80).contains(&ratio), "trap ratio {ratio}");
}

/// Snapshot-over-the-wire distributed path: shard → sketch → JSON → merge
/// tree → solve equals the local Algorithm 3 answer.
#[test]
fn wire_format_tree_reduce_equals_local() {
    let planted = planted_k_cover(40, 6_000, 4, 500, 17);
    let mut stream = VecStream::from_instance(&planted.instance);
    ArrivalOrder::Random(23).apply(stream.edges_mut());

    let params = SketchParams::with_budget(40, 4, 0.3, 3_000);
    let seed = 41;

    // Local reference.
    let local = ThresholdSketch::from_stream(params, seed, &stream);
    let local_family = lazy_greedy_k_cover(&local.instance(), 4).family();

    // Sharded build: round-robin the edges across 5 "machines", ship
    // snapshots through JSON, reduce with a fan-in-2 tree.
    let mut shards: Vec<ThresholdSketch> =
        (0..5).map(|_| ThresholdSketch::new(params, seed)).collect();
    let mut i = 0usize;
    use coverage_suite::stream::EdgeStream as _;
    stream.for_each(&mut |e| {
        shards[i % 5].update(e);
        i += 1;
    });
    let shipped: Vec<ThresholdSketch> = shards
        .iter()
        .map(|s| {
            SketchSnapshot::from_json(&SketchSnapshot::of(s).to_json())
                .expect("wire json parses")
                .restore()
        })
        .collect();
    let (merged, report) = tree_reduce_with(shipped, 2, ShipFormat::InMemory);
    assert!(report.num_rounds() >= 3); // 5 → 3 → 2 → 1
    let dist_family = lazy_greedy_k_cover(&merged.instance(), 4).family();
    assert_eq!(local_family, dist_family);
}

/// Instance persistence: an instance survives text and JSON round-trips
/// and the restored instance gives identical algorithm outputs.
#[test]
fn persisted_instances_reproduce_results() {
    let inst = uniform_instance(25, 1_500, 60, 29);
    let reference = lazy_greedy_k_cover(&inst, 6).family();

    let text_back = coverage_suite::data::from_text(to_text(&inst).as_bytes()).unwrap();
    assert_eq!(lazy_greedy_k_cover(&text_back, 6).family(), reference);

    let meta = InstanceMeta {
        name: "roundtrip".into(),
        source: "uniform(25,1500,60,29)".into(),
    };
    let (json_back, meta2) = coverage_suite::data::from_json(&to_json(&inst, &meta)).unwrap();
    assert_eq!(lazy_greedy_k_cover(&json_back, 6).family(), reference);
    assert_eq!(meta2.name, "roundtrip");
}

/// Eviction ablation through the full pipeline: the paper's policy gives
/// the same family on wildly different arrival orders; FIFO does not
/// (on hash-sorted adversarial input).
#[test]
fn eviction_policy_order_sensitivity_end_to_end() {
    let planted = planted_k_cover(30, 5_000, 4, 400, 53);
    let inst = &planted.instance;
    let params = SketchParams::with_budget(30, 4, 0.3, 1_200);
    let seed = 61;

    let family_for = |policy: EvictionPolicy, reverse: bool| {
        let mut s = VecStream::from_instance(inst);
        ArrivalOrder::ByHashDesc(seed).apply(s.edges_mut());
        if reverse {
            s.edges_mut().reverse();
        }
        let sk = AblatedSketch::from_stream(params, seed, policy, &s);
        lazy_greedy_k_cover(&sk.instance(), 4).family()
    };

    let paper_desc = family_for(EvictionPolicy::MaxHash, false);
    let paper_asc = family_for(EvictionPolicy::MaxHash, true);
    assert_eq!(paper_desc, paper_asc, "paper policy is order-invariant");

    let opt = planted.optimal_value as f64;
    let paper_ratio = inst.coverage(&paper_desc) as f64 / opt;
    let fifo_asc = family_for(EvictionPolicy::Fifo, true);
    let fifo_ratio = inst.coverage(&fifo_asc) as f64 / opt;
    assert!(
        paper_ratio >= fifo_ratio - 1e-9,
        "paper {paper_ratio} vs fifo-on-adversarial {fifo_ratio}"
    );
}

/// Block-model + distributed: community-sharded data still merges into the
/// exact single-machine sketch (composability is placement-independent).
#[test]
fn block_model_distributed_invariance() {
    let model = BlockModel {
        communities: 4,
        sets_per_community: 8,
        elements_per_community: 800,
        degree: 100,
        mix: 0.15,
    };
    let inst = model.generate(71);
    let stream = VecStream::from_instance(&inst);
    for machines in [1usize, 4] {
        let cfg = DistConfig::new(machines, 5, 0.3, 19).with_sizing(SketchSizing::Budget(2_000));
        let res = distributed_k_cover(&stream, &cfg);
        assert_eq!(res.family.len(), 5);
        if machines == 1 {
            continue;
        }
        let one = distributed_k_cover(
            &stream,
            &DistConfig::new(1, 5, 0.3, 19).with_sizing(SketchSizing::Budget(2_000)),
        );
        assert_eq!(one.family, res.family);
    }
}
