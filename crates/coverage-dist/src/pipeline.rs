//! The one executor pipeline, the serial simulation that runs it on the
//! calling thread, and the one [`RunReport`] every executor returns.
//!
//! Every executor — [`distributed_k_cover`] here,
//! [`ParallelRunner`](crate::ParallelRunner)'s threads, and the
//! [`Coordinator`](crate::Coordinator)'s pipe and TCP workers — runs the
//! same four steps:
//!
//! 1. **Partition** — one batched pass routes every edge (or signed
//!    update) into its shard's buffer ([`partition_edges`],
//!    [`partition_updates`]);
//! 2. **Map** — one sketch per shard, built serially, on threads, or by
//!    worker processes that ship binary snapshots back;
//! 3. **Reduce** — the shard sketches merge in memory through
//!    [`tree_reduce_with`] ([`ShipFormat::InMemory`]), in shard order;
//! 4. **Solve** — the bucket-queue greedy on the merged sketch's CSR
//!    view (for the dynamic sketch, on its decoded sample's).
//!
//! Only step 2 differs between executors, so steps 1, 3 and 4 exist
//! once, in one crate-internal driver that is generic over the two
//! sketch families.
//!
//! ## Determinism contract
//!
//! For a fixed [`DistConfig`] (machines, seed, sizing) the selected
//! cover is a pure function of the input edge (multi)set — independent
//! of the executor, its threads or workers, batch size, reduce fan-in
//! and any recovered fault. Shard assignment and per-shard order depend
//! only on the stream, and merging is associative and commutative
//! (canonical min-id truncation for the `H≤n` sketch, exact linearity
//! for the ℓ₀ sketch). The dynamic sketch's merge is bit-identical to a
//! single-machine build for any partition.

use std::convert::Infallible;
use std::time::Instant;

use coverage_core::offline::bucket_greedy_k_cover;
use coverage_core::{Edge, SetId};
use coverage_sketch::{
    DynamicSketch, DynamicSketchParams, DynamicSnapshot, SketchParams, SketchSnapshot,
    ThresholdSketch,
};
use coverage_stream::{DynamicEdgeStream, EdgeStream, SignedEdge, SpaceReport};

use crate::fault::Fault;
use crate::net::chunk::{plan_dynamic, plan_sketch, ChunkPlan};
use crate::net::SocketRunStats;
use crate::parallel::{partition_edges, partition_updates, DEFAULT_BATCH, DEFAULT_FAN_IN};
use crate::proto::Message;
use crate::rounds::{tree_reduce_with, Composable, RoundsReport, ShipFormat};
use crate::runner::DistConfig;

/// The level the merged ℓ₀ sketch decoded at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleLevel {
    /// The subsampling level (0 = the whole surviving graph).
    pub level: usize,
    /// That level's sampling probability `p = 2^{−level}`.
    pub sampling_p: f64,
}

/// What every executor returns: the selected family, the merged sketch
/// it was solved on, and what the run cost.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The selected family (identical across executors for one
    /// [`DistConfig`]).
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage (on the
    /// surviving graph, for dynamic runs).
    pub estimated_coverage: f64,
    /// Edges the solve ran on: the merged `H≤n` sketch's stored edges,
    /// or the surviving edges decoded from the merged ℓ₀ sketch.
    pub merged_edges: usize,
    /// The level the merged ℓ₀ sketch decoded at; `None` for
    /// insertion-only runs.
    pub sample: Option<SampleLevel>,
    /// Per-machine space, one report per shard built in process (the
    /// serial simulation and the parallel runner); empty when worker
    /// processes built the shards.
    pub per_machine: Vec<SpaceReport>,
    /// Tree-reduce round/communication accounting.
    pub rounds: RoundsReport,
    /// Registry, fault and recovery accounting of worker runs; all zero
    /// for in-process runs.
    pub stats: SocketRunStats,
    /// Wall-clock nanoseconds partitioning the stream.
    pub partition_ns: u64,
    /// Wall-clock nanoseconds building the shard sketches: on this
    /// thread, on worker threads, or by streaming shards to worker
    /// processes and restoring their replies.
    pub map_ns: u64,
    /// Wall-clock nanoseconds in the reduce + solve tail.
    pub reduce_solve_ns: u64,
}

/// A shard sketch the pipeline partitions for, builds, ships, reduces
/// and solves on: the insertion-only `H≤n` sketch or the dynamic ℓ₀
/// sketch.
pub(crate) trait ShardSketch: Composable + Send + Sized {
    /// The stream the pipeline partitions.
    type Stream<'a>: ?Sized;
    /// One stream item: an edge or a signed update.
    type Item: Copy + Send + Sync;
    /// Per-machine sketch parameters.
    type Params: Copy + Send + Sync;
    /// What a worker ships back.
    type Snapshot: Send;

    /// The per-machine parameters for `stream`.
    fn params(cfg: &DistConfig, stream: &Self::Stream<'_>) -> Self::Params;
    /// Route every item into its shard's buffer in one batched pass.
    fn partition(stream: &Self::Stream<'_>, cfg: &DistConfig, batch: usize)
        -> Vec<Vec<Self::Item>>;
    /// Build one shard's sketch.
    fn build(params: Self::Params, seed: u64, items: &[Self::Item]) -> Self;
    /// Per-machine space of a shard sketch built in process.
    fn space(&self) -> SpaceReport;
    /// Greedy k-cover on the merged sketch: the family, its estimated
    /// coverage, the edges solved on, and the decoded level.
    fn solve(&self, k: usize) -> (Vec<SetId>, f64, usize, Option<SampleLevel>);
    /// Render one shard as a chunked worker job.
    fn plan(
        shard: usize,
        items: &[Self::Item],
        per_chunk: usize,
        params: Self::Params,
        seed: u64,
        fault: Option<Fault>,
        batch: usize,
    ) -> ChunkPlan;
    /// The snapshot a worker's reply carries; `None` for any other
    /// message.
    fn reply(msg: Message) -> Option<Self::Snapshot>;
    /// This sketch's snapshot (an inline build standing in for a
    /// worker's reply).
    fn snapshot(&self) -> Self::Snapshot;
    /// Restore a shipped snapshot.
    fn restore(snapshot: &Self::Snapshot) -> Self;
}

impl ShardSketch for ThresholdSketch {
    type Stream<'a> = dyn EdgeStream + 'a;
    type Item = Edge;
    type Params = SketchParams;
    type Snapshot = SketchSnapshot;

    fn params(cfg: &DistConfig, stream: &dyn EdgeStream) -> SketchParams {
        cfg.sketch_params(stream.num_sets())
    }

    fn partition(stream: &dyn EdgeStream, cfg: &DistConfig, batch: usize) -> Vec<Vec<Edge>> {
        partition_edges(stream, cfg.machines, cfg.shard_seed(), batch)
    }

    fn build(params: SketchParams, seed: u64, items: &[Edge]) -> Self {
        let mut sketch = ThresholdSketch::new(params, seed);
        sketch.update_batch(items);
        sketch
    }

    fn space(&self) -> SpaceReport {
        self.space_report()
    }

    fn solve(&self, k: usize) -> (Vec<SetId>, f64, usize, Option<SampleLevel>) {
        let family = bucket_greedy_k_cover(&self.csr_view(), k).family();
        let estimate = self.estimate_coverage(&family);
        (family, estimate, self.edges_stored(), None)
    }

    fn plan(
        shard: usize,
        items: &[Edge],
        per_chunk: usize,
        params: SketchParams,
        seed: u64,
        fault: Option<Fault>,
        batch: usize,
    ) -> ChunkPlan {
        plan_sketch(shard as u32, items, per_chunk, params, seed, fault, batch)
    }

    fn reply(msg: Message) -> Option<SketchSnapshot> {
        match msg {
            Message::ReplySketch { snapshot } => Some(snapshot),
            _ => None,
        }
    }

    fn snapshot(&self) -> SketchSnapshot {
        SketchSnapshot::of(self)
    }

    fn restore(snapshot: &SketchSnapshot) -> Self {
        snapshot.restore()
    }
}

impl ShardSketch for DynamicSketch {
    type Stream<'a> = dyn DynamicEdgeStream + 'a;
    type Item = SignedEdge;
    type Params = DynamicSketchParams;
    type Snapshot = DynamicSnapshot;

    fn params(cfg: &DistConfig, stream: &dyn DynamicEdgeStream) -> DynamicSketchParams {
        cfg.dynamic_sketch_params(stream.num_sets())
    }

    fn partition(
        stream: &dyn DynamicEdgeStream,
        cfg: &DistConfig,
        batch: usize,
    ) -> Vec<Vec<SignedEdge>> {
        partition_updates(stream, cfg.machines, cfg.shard_seed(), batch)
    }

    fn build(params: DynamicSketchParams, seed: u64, items: &[SignedEdge]) -> Self {
        let mut sketch = DynamicSketch::new(params, seed);
        sketch.update_batch(items);
        sketch
    }

    fn space(&self) -> SpaceReport {
        self.space_report()
    }

    /// Decode the densest level and solve on the recovered,
    /// degree-capped sample.
    ///
    /// # Panics
    ///
    /// Panics if no subsampling level decodes (the sketch was sized
    /// with too few levels for the surviving edge count).
    fn solve(&self, k: usize) -> (Vec<SetId>, f64, usize, Option<SampleLevel>) {
        let sample = self.recover_expect();
        let family = bucket_greedy_k_cover(&self.csr_view(&sample), k).family();
        let estimate = self.estimate_coverage(&sample, &family);
        let level = SampleLevel {
            level: sample.level,
            sampling_p: sample.sampling_p,
        };
        (family, estimate, sample.edges.len(), Some(level))
    }

    fn plan(
        shard: usize,
        items: &[SignedEdge],
        per_chunk: usize,
        params: DynamicSketchParams,
        seed: u64,
        fault: Option<Fault>,
        batch: usize,
    ) -> ChunkPlan {
        plan_dynamic(shard as u32, items, per_chunk, params, seed, fault, batch)
    }

    fn reply(msg: Message) -> Option<DynamicSnapshot> {
        match msg {
            Message::ReplyDynamic { snapshot } => Some(snapshot),
            _ => None,
        }
    }

    fn snapshot(&self) -> DynamicSnapshot {
        DynamicSnapshot::of(self)
    }

    fn restore(snapshot: &DynamicSnapshot) -> Self {
        snapshot.restore()
    }
}

/// What an executor's map step hands the reduce.
pub(crate) struct Mapped<S> {
    /// One sketch per shard, in shard order.
    pub(crate) locals: Vec<S>,
    /// Per-machine space of shards built in process.
    pub(crate) per_machine: Vec<SpaceReport>,
    /// Worker accounting (zero in process).
    pub(crate) stats: SocketRunStats,
}

impl<S: ShardSketch> Mapped<S> {
    /// Shards built in this process, each reporting its own space.
    pub(crate) fn in_process(locals: Vec<S>) -> Self {
        Mapped {
            per_machine: locals.iter().map(S::space).collect(),
            locals,
            stats: SocketRunStats::default(),
        }
    }
}

/// Run the pipeline over `stream`: partition into `cfg.machines` shards
/// in batches of `batch`, build them with `map`, reduce in memory with
/// the given fan-in, and solve. `map` is the only step an executor
/// supplies; its error (a coordinator that could not start any worker)
/// ends the run.
pub(crate) fn run_pipeline<S: ShardSketch, E>(
    stream: &S::Stream<'_>,
    cfg: &DistConfig,
    batch: usize,
    fan_in: usize,
    map: impl FnOnce(&[Vec<S::Item>], S::Params) -> Result<Mapped<S>, E>,
) -> Result<RunReport, E> {
    let params = S::params(cfg, stream);
    let t0 = Instant::now();
    let shards = S::partition(stream, cfg, batch);
    let partition_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let mapped = map(&shards, params)?;
    let map_ns = t1.elapsed().as_nanos() as u64;
    drop(shards);

    let t2 = Instant::now();
    let (merged, rounds) = tree_reduce_with(mapped.locals, fan_in, ShipFormat::InMemory);
    let (family, estimated_coverage, merged_edges, sample) = merged.solve(cfg.k);
    let reduce_solve_ns = t2.elapsed().as_nanos() as u64;

    Ok(RunReport {
        family,
        estimated_coverage,
        merged_edges,
        sample,
        per_machine: mapped.per_machine,
        rounds,
        stats: mapped.stats,
        partition_ns,
        map_ns,
        reduce_solve_ns,
    })
}

/// The serial simulation: the pipeline with every shard built one after
/// another on the calling thread.
fn simulate<S: ShardSketch>(stream: &S::Stream<'_>, cfg: &DistConfig) -> RunReport {
    let built = run_pipeline::<S, Infallible>(
        stream,
        cfg,
        DEFAULT_BATCH,
        DEFAULT_FAN_IN,
        |shards, params| {
            let locals = shards
                .iter()
                .map(|items| S::build(params, cfg.seed, items))
                .collect();
            Ok(Mapped::in_process(locals))
        },
    );
    let Ok(report) = built;
    report
}

/// Distributed Algorithm 3, simulated on the calling thread: shard the
/// edges across `cfg.machines`, sketch each shard, merge, and run
/// greedy on the merged sketch. The single-threaded reference every
/// other executor must match; [`crate::ParallelRunner`] runs the same
/// pipeline on threads.
pub fn distributed_k_cover(stream: &dyn EdgeStream, cfg: &DistConfig) -> RunReport {
    simulate::<ThresholdSketch>(stream, cfg)
}

/// Distributed **dynamic** k-cover, simulated on the calling thread:
/// shard the signed updates across `cfg.machines` (deletes co-located
/// with their inserts), build one [`DynamicSketch`] per shard, merge by
/// cell-wise addition, recover the densest decodable level, and run
/// greedy on the recovered degree-capped instance.
///
/// Because the dynamic sketch is linear, the merged sketch is
/// **bit-identical** to a single-machine build over the whole stream.
///
/// # Panics
///
/// Panics if no subsampling level decodes (the sketch was sized with
/// too few levels for the surviving edge count).
pub fn dynamic_distributed_k_cover(stream: &dyn DynamicEdgeStream, cfg: &DistConfig) -> RunReport {
    simulate::<DynamicSketch>(stream, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_data::planted_k_cover;
    use coverage_sketch::SketchSizing;
    use coverage_stream::{ArrivalOrder, VecStream};

    fn workload() -> (VecStream, coverage_core::CoverageInstance, usize) {
        let p = planted_k_cover(40, 5_000, 4, 150, 3);
        let mut s = VecStream::from_instance(&p.instance);
        ArrivalOrder::Random(5).apply(s.edges_mut());
        (s, p.instance, p.optimal_value)
    }

    #[test]
    fn output_invariant_in_machine_count() {
        let (stream, _, _) = workload();
        let mut families = Vec::new();
        for machines in [1usize, 2, 4, 8] {
            let cfg =
                DistConfig::new(machines, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
            let res = distributed_k_cover(&stream, &cfg);
            families.push(res.family);
        }
        for w in families.windows(2) {
            assert_eq!(w[0], w[1], "family must not depend on machine count");
        }
    }

    #[test]
    fn quality_matches_single_machine_algorithm3() {
        let (stream, inst, opt) = workload();
        let cfg = DistConfig::new(4, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
        let res = distributed_k_cover(&stream, &cfg);
        let achieved = inst.coverage(&res.family);
        assert!(
            achieved as f64 >= 0.85 * opt as f64,
            "distributed quality dropped: {achieved}/{opt}"
        );
    }

    #[test]
    fn per_machine_space_shrinks_with_machines() {
        let (stream, _, _) = workload();
        let small = DistConfig::new(1, 4, 0.3, 7).with_sizing(SketchSizing::Budget(2_000));
        let large = DistConfig::new(8, 4, 0.3, 7).with_sizing(SketchSizing::Budget(2_000));
        let one = distributed_k_cover(&stream, &small);
        let eight = distributed_k_cover(&stream, &large);
        let max_one = one.per_machine.iter().map(|r| r.peak_edges).max().unwrap();
        let max_eight = eight
            .per_machine
            .iter()
            .map(|r| r.peak_edges)
            .max()
            .unwrap();
        assert!(
            max_eight < max_one,
            "sharding should reduce per-machine load: {max_one} vs {max_eight}"
        );
        assert_eq!(eight.per_machine.len(), 8);
    }

    #[test]
    fn merged_edges_respect_budget() {
        let (stream, _, _) = workload();
        let cfg = DistConfig::new(4, 4, 0.3, 7).with_sizing(SketchSizing::Budget(500));
        let res = distributed_k_cover(&stream, &cfg);
        let params = cfg.sketch_params(40);
        assert!(res.merged_edges <= params.max_edges());
    }

    #[test]
    fn serial_runs_report_rounds_and_no_worker_stats() {
        let (stream, _, _) = workload();
        let cfg = DistConfig::new(8, 4, 0.3, 7).with_sizing(SketchSizing::Budget(1_000));
        let res = distributed_k_cover(&stream, &cfg);
        // 8 shards at fan-in 4: 8 → 2 → 1, merged in memory.
        assert_eq!(res.rounds.num_rounds(), 2);
        assert!(res.rounds.total_words() > 0);
        assert_eq!(res.rounds.total_bytes(), 0);
        assert_eq!(res.stats.workers_joined, 0);
        assert_eq!(res.stats.wire_bytes, 0);
        assert_eq!(res.sample, None);
    }

    #[test]
    fn dynamic_output_invariant_in_machine_count() {
        let p = planted_k_cover(30, 3_000, 4, 100, 3).instance;
        let w = coverage_data::churn_workload(&p, 0.4, 9);
        let mut families = Vec::new();
        for machines in [1usize, 2, 5] {
            let cfg =
                DistConfig::new(machines, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
            let res = dynamic_distributed_k_cover(&w.stream, &cfg);
            families.push((res.family, res.sample, res.merged_edges));
        }
        for win in families.windows(2) {
            assert_eq!(
                win[0], win[1],
                "dynamic result must not depend on machine count"
            );
        }
    }

    #[test]
    fn dynamic_quality_matches_insertion_only_on_survivors() {
        let planted = planted_k_cover(30, 3_000, 4, 100, 7);
        let w = coverage_data::churn_workload(&planted.instance, 0.5, 13);
        let cfg = DistConfig::new(4, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
        let dyn_res = dynamic_distributed_k_cover(&w.stream, &cfg);
        // Insertion-only pipeline on the surviving graph.
        let surv_stream = VecStream::from_instance(&w.surviving);
        let ins_res = distributed_k_cover(&surv_stream, &cfg);
        let dyn_cov = w.surviving.coverage(&dyn_res.family);
        let ins_cov = w.surviving.coverage(&ins_res.family);
        assert!(
            dyn_cov as f64 >= 0.9 * ins_cov as f64,
            "dynamic cover {dyn_cov} far below insertion-only {ins_cov}"
        );
    }
}
