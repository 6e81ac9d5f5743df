//! # coverage-suite
//!
//! A production-quality Rust reproduction of
//!
//! > Bateni, Esfandiari, Mirrokni.
//! > **Almost Optimal Streaming Algorithms for Coverage Problems.**
//! > SPAA 2017 (arXiv:1610.08096).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | instances, coverage function, offline greedy/exact solvers |
//! | [`hash`] | seeded uniform hashing, KMV/LogLog distinct counters |
//! | [`stream`] | edge-arrival streams (insertion-only + signed dynamic), arrival orders, space metering |
//! | [`sketch`] | the paper's `H≤n` sketch (`Hp`, `H'p`, threshold sketch) + the dynamic linear sketch |
//! | [`algs`] | Algorithms 3–6 (+ dynamic k-cover) + baselines (Saha–Getoor, Sieve, ℓ₀) |
//! | [`lb`] | hardness artifacts (k-purification, noisy oracle, DISJ) |
//! | [`data`] | synthetic workload generators (incl. deletion workloads) |
//! | [`dist`] | distributed executors: one pipeline (sharding, in-memory tree reduce, solve) built serially, on threads or on worker processes, one `RunReport` |
//! | [`serve`] | the serving subsystem: epoch-snapshot publication, concurrent ingest, lock-free queries, the `coverage serve` daemon |
//!
//! The paper-to-code map in `docs/PAPER_MAP.md` locates every paper
//! artifact (algorithms, lemma checks, lower bounds, the dynamic
//! extension) in the source tree.
//!
//! ## Quickstart
//!
//! ```
//! use coverage_suite::prelude::*;
//!
//! // A planted instance: 4 golden sets partition 10_000 elements.
//! let planted = planted_k_cover(40, 10_000, 4, 300, /*seed=*/ 1);
//! let mut stream = VecStream::from_instance(&planted.instance);
//! ArrivalOrder::Random(7).apply(stream.edges_mut());
//!
//! // Single pass, Õ(n) space, (1 − 1/e − ε)-approximate.
//! let cfg = KCoverConfig::new(/*k=*/ 4, /*eps=*/ 0.2, /*seed=*/ 42)
//!     .with_sizing(SketchSizing::Budget(5_000));
//! let result = k_cover_streaming(&stream, &cfg);
//!
//! let achieved = planted.instance.coverage(&result.family);
//! assert!(achieved as f64 >= 0.8 * planted.optimal_value as f64);
//! assert!(result.space.peak_edges < planted.instance.num_edges() as u64);
//! ```

#![forbid(unsafe_code)]

pub use coverage_algs as algs;
pub use coverage_core as core;
pub use coverage_data as data;
pub use coverage_dist as dist;
pub use coverage_hash as hash;
pub use coverage_lb as lb;
pub use coverage_serve as serve;
pub use coverage_sketch as sketch;
pub use coverage_stream as stream;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use coverage_algs::baselines::{
        l0_exhaustive_k_cover, l0_greedy_k_cover, mcgregor_vu_k_cover, progressive_set_cover,
        saha_getoor_k_cover, sieve_k_cover, store_all_k_cover, store_all_set_cover, BaselineResult,
        L0Config, MvConfig,
    };
    pub use coverage_algs::{
        apply_prune, dynamic_k_cover, k_cover_streaming, prune_near_duplicates,
        set_cover_multipass, set_cover_outliers, solve_guesses_parallel, solve_guesses_serial,
        solve_on_sketch, DynamicKCoverConfig, DynamicKCoverResult, GuessSolve, KCoverConfig,
        KCoverResult, MultiPassConfig, MultiPassResult, OutlierConfig, OutlierResult, PruneResult,
    };
    pub use coverage_core::offline::{
        bucket_greedy_budgeted_cover, bucket_greedy_k_cover, bucket_greedy_set_cover,
        exact_k_cover, exact_set_cover, exact_weighted_k_cover, greedy_budgeted_cover,
        greedy_k_cover, greedy_partial_cover, greedy_set_cover, lazy_greedy_k_cover,
        local_search_k_cover, parallel_greedy_k_cover, stochastic_greedy_k_cover,
        weighted_coverage, weighted_greedy_k_cover, weighted_greedy_partial_cover, ElementWeights,
    };
    pub use coverage_core::{
        CoverageInstance, CoverageOracle, CoverageView, CsrInstance, Edge, ElementId,
        InstanceBuilder, SetId,
    };
    pub use coverage_data::{
        adversarial_insert_delete, churn_workload, disjoint_blocks, greedy_trap, planted_k_cover,
        planted_set_cover, preferential_attachment, sliding_window_workload, uniform_instance,
        zipf_instance, BlockModel, DynamicWorkload, InstanceMeta, PlantedDynamicWorkload,
    };
    pub use coverage_dist::{
        distributed_k_cover, dynamic_distributed_k_cover, partition_edges, partition_updates,
        tree_reduce_via, tree_reduce_with, Coordinator, DistConfig, Fault, FaultPlan,
        FaultyTransport, HeartbeatStats, ParallelRunner, ProcessResult, ProcessRunner, RetryPolicy,
        RunError, RunReport, SampleLevel, ShipFormat, SocketRunStats, SocketRunner, SplitMix64,
        WorkerCommand, WorkerState, WorkerSummary,
    };
    pub use coverage_serve::{
        answer_query, answer_query_deadline, EpochSnapshot, GuessView, LiveStore, QueryAnswer,
        QueryHandle, ServeConfig, ServeEngine, ServeError, ServeFinish, ServeStats, SnapshotCell,
        SnapshotReader, StoreConfig,
    };
    pub use coverage_sketch::{
        AblatedSketch, DynamicSample, DynamicSketch, DynamicSketchParams, DynamicSnapshot,
        EvictionPolicy, ReferenceSketch, SketchBank, SketchParams, SketchSizing, SketchSnapshot,
        ThresholdSketch,
    };
    pub use coverage_stream::{
        surviving_edges, surviving_stream, validate_turnstile, ArrivalOrder, ChunkedDynamicStream,
        ChunkedStream, DynamicEdgeStream, EdgeStream, InsertOnly, SignedEdge, SpaceReport,
        UpdateKind, VecDynamicStream, VecStream,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let planted = planted_k_cover(10, 500, 2, 30, 1);
        let stream = VecStream::from_instance(&planted.instance);
        let cfg = KCoverConfig::new(2, 0.3, 1).with_sizing(SketchSizing::Budget(2_000));
        let res = k_cover_streaming(&stream, &cfg);
        assert!(!res.family.is_empty());
    }
}
