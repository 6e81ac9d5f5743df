//! True parallel execution of the distributed k-cover pipeline.
//!
//! [`ParallelRunner`] runs the one executor pipeline of
//! [`crate::pipeline`] with its map step on up to `threads` scoped
//! threads:
//!
//! 1. **Partition** — one batched pass over the stream routes every edge
//!    into its shard's buffer ([`partition_edges`], `O(|E|)` total,
//!    [`shard_of_edge`] assignment identical to the serial simulation);
//! 2. **Map** — up to `threads` workers build the per-machine sketches
//!    concurrently, each consuming its materialized buffer through the
//!    monomorphic [`ThresholdSketch::update_batch`] hot loop;
//! 3. **Reduce** — the local sketches are tree-merged in memory by
//!    [`tree_reduce_with`](crate::rounds::tree_reduce_with) (a
//!    shared-memory reducer);
//! 4. **Solve** — the merged sketch is exported as a packed CSR view
//!    (`ThresholdSketch::csr_view`, no rebuild) and solved by the exact
//!    decremental bucket-queue greedy, as in Algorithm 3 (the engine is
//!    trace-identical to the lazy reference).
//!
//! The partition pass is the only step that reads the stream, and it
//! finishes before any shard is built: one map schedule for every
//! executor, at the price of materializing the shard buffers.
//!
//! ## Determinism contract
//!
//! For the same [`DistConfig`] (machines, seed, sizing) the parallel
//! runner selects the **identical cover** — the same
//! [`SetId`](coverage_core::SetId) sequence — as the serial
//! simulation, for any thread count, batch size, or
//! reduce fan-in. Two properties make this provable rather than
//! incidental: shard assignment and per-shard edge order are independent
//! of the execution schedule (each shard's buffer preserves arrival
//! order), and sketch merging is associative *and* commutative even when
//! the degree cap binds (canonical min-id truncation — see
//! [`ThresholdSketch::merge_from`]). The contract is property-tested
//! across workload generators in this crate and in the workspace-level
//! suite.

use std::convert::Infallible;

use coverage_core::Edge;
use coverage_sketch::{DynamicSketch, SketchBank, SketchParams, ThresholdSketch};
use coverage_stream::{DynamicEdgeStream, EdgeStream, SignedEdge};

use crate::partition::shard_of_edge;
use crate::pipeline::{run_pipeline, Mapped, RunReport, ShardSketch};
use crate::runner::{panic_message, DistConfig, RunError};

/// Default partition batch size: large enough to amortize virtual
/// dispatch, small enough to stay cache-resident.
pub const DEFAULT_BATCH: usize = 1 << 12;

/// Default reduce fan-in (mirrors a small MapReduce reducer group).
pub const DEFAULT_FAN_IN: usize = 4;

/// Parallel sharded executor for the distributed k-cover pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ParallelRunner {
    cfg: DistConfig,
    threads: usize,
    fan_in: usize,
    batch: usize,
}

impl ParallelRunner {
    /// A runner executing `cfg` on up to `threads` worker threads.
    pub fn new(cfg: DistConfig, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        ParallelRunner {
            cfg,
            threads,
            fan_in: DEFAULT_FAN_IN,
            batch: DEFAULT_BATCH,
        }
    }

    /// Override the reduce fan-in (`≥ 2`).
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "fan-in must be at least 2");
        self.fan_in = fan_in;
        self
    }

    /// Override the partition batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// The configuration this runner executes.
    pub fn config(&self) -> &DistConfig {
        &self.cfg
    }

    /// Worker threads the map phase will spawn for `machines` shards:
    /// the requested cap, bounded by the number of ceil-sized contiguous
    /// chunks the shards actually split into (7 shards on 5 threads make
    /// chunks of 2, i.e. only 4 workers).
    fn workers(&self, machines: usize) -> usize {
        let cap = self.threads.min(machines).max(1);
        let per_worker = machines.max(1).div_ceil(cap);
        machines.max(1).div_ceil(per_worker)
    }

    /// Execute the full pipeline on `stream`.
    ///
    /// Unlike the shard builds, the stream need not be [`Sync`]: it is
    /// consumed once, single-threaded, by the partition pass; only
    /// materialized shard buffers cross threads.
    pub fn run(&self, stream: &dyn EdgeStream) -> RunReport {
        self.execute::<ThresholdSketch>(stream)
    }

    /// Execute the **dynamic** pipeline on a signed update stream:
    /// partition the updates in one batched pass (deletes co-located
    /// with their inserts), build one [`DynamicSketch`] per shard
    /// concurrently, reduce, recover the densest decodable level, and
    /// solve.
    ///
    /// The dynamic sketch is linear, so the determinism contract is
    /// exact: for any thread count, batch size or fan-in, the merged
    /// sketch is bit-identical to
    /// [`dynamic_distributed_k_cover`](crate::dynamic_distributed_k_cover)'s
    /// — and to a single-machine build.
    pub fn run_dynamic(&self, stream: &dyn DynamicEdgeStream) -> RunReport {
        self.execute::<DynamicSketch>(stream)
    }

    /// The pipeline with its map step on this runner's threads.
    fn execute<S: ShardSketch>(&self, stream: &S::Stream<'_>) -> RunReport {
        let seed = self.cfg.seed;
        let built = run_pipeline::<S, Infallible>(
            stream,
            &self.cfg,
            self.batch,
            self.fan_in,
            |shards, params| {
                let locals =
                    self.map_buffers_resilient(shards, |items| S::build(params, seed, items));
                Ok(Mapped::in_process(locals))
            },
        );
        let Ok(report) = built;
        report
    }

    /// Run `build` once per shard buffer, at most `self.threads` at a
    /// time (contiguous shard ranges per worker — assignment does not
    /// affect the output, only the schedule). The shared scaffolding of
    /// every map-phase fan-out, generic over the buffer element so the
    /// signed (dynamic) and unsigned pipelines share it.
    ///
    /// A panic on any map thread is returned as a typed
    /// [`RunError::Panic`]; see
    /// [`map_buffers_resilient`](Self::map_buffers_resilient) for the
    /// degrading wrapper every executor path uses.
    fn map_buffers<B, T, F>(&self, buffers: &[Vec<B>], build: F) -> Result<Vec<T>, RunError>
    where
        B: Sync,
        T: Send,
        F: Fn(&[B]) -> T + Sync,
    {
        let workers = self.workers(buffers.len());
        let per_worker = buffers.len().div_ceil(workers);
        let mut locals: Vec<Option<T>> = (0..buffers.len()).map(|_| None).collect();
        let build = &build;
        crossbeam::scope(|scope| {
            for (slot_chunk, buf_chunk) in locals
                .chunks_mut(per_worker)
                .zip(buffers.chunks(per_worker))
            {
                scope.spawn(move |_| {
                    for (slot, buf) in slot_chunk.iter_mut().zip(buf_chunk) {
                        *slot = Some(build(buf));
                    }
                });
            }
        })
        .map_err(|p| RunError::Panic(panic_message(p)))?;
        Ok(locals
            .into_iter()
            .map(|s| s.expect("every shard slot is filled"))
            .collect())
    }

    /// [`map_buffers`](Self::map_buffers) with panic degradation: when a
    /// map thread panics, the parallel attempt is discarded (its slots
    /// may be torn) and every buffer is rebuilt serially on the caller
    /// thread. Shard builds are deterministic, so a panic is almost
    /// surely deterministic too — but a transient environment failure
    /// (allocation, runaway hook) should cost wall clock, not the run.
    fn map_buffers_resilient<B, T, F>(&self, buffers: &[Vec<B>], build: F) -> Vec<T>
    where
        B: Sync,
        T: Send,
        F: Fn(&[B]) -> T + Sync,
    {
        match self.map_buffers(buffers, &build) {
            Ok(locals) => locals,
            Err(_) => buffers.iter().map(|buf| build(buf)).collect(),
        }
    }

    /// Build a multi-guess [`SketchBank`] (Algorithm 5's per-guess
    /// sketches) in parallel: each shard's bank is built concurrently
    /// from its buffer — through the bank's shared-hash batched path
    /// (each edge hashed once per *bank*, pre-filtered against the
    /// bank-wide acceptance bound) — then banks are merged
    /// guess-by-guess. Equals the single-pass
    /// [`SketchBank::from_stream`] build on the retained elements of
    /// every guess — McGregor–Vu-style multi-threshold state exercised
    /// under true concurrency.
    pub fn build_bank(&self, guesses: &[SketchParams], stream: &dyn EdgeStream) -> SketchBank {
        let cfg = &self.cfg;
        let buffers = partition_edges(stream, cfg.machines, cfg.shard_seed(), self.batch);
        let mut banks = self
            .map_buffers_resilient(&buffers, |buf| {
                let mut bank = SketchBank::new(guesses.iter().copied(), cfg.seed);
                bank.update_batch(buf);
                bank
            })
            .into_iter();
        let mut acc = banks.next().expect("at least one machine");
        for bank in banks {
            acc.merge_from(&bank);
        }
        acc
    }
}

/// Route every edge of `stream` into its shard's buffer in **one**
/// batched pass. Buffer `i` holds shard `i`'s edges in arrival order —
/// exactly the sub-sequence
/// [`ShardedStream`](crate::partition::ShardedStream) would deliver, at
/// `O(|E|)` total instead of `O(shards·|E|)`.
pub fn partition_edges(
    stream: &dyn EdgeStream,
    shards: usize,
    seed: u64,
    batch: usize,
) -> Vec<Vec<Edge>> {
    assert!(shards >= 1, "need at least one shard");
    let prealloc = stream
        .len_hint()
        .map(|n| n / shards + n / (8 * shards) + 1)
        .unwrap_or(0);
    let mut buffers: Vec<Vec<Edge>> = (0..shards).map(|_| Vec::with_capacity(prealloc)).collect();
    stream.for_each_batch(batch, &mut |chunk| {
        for &e in chunk {
            buffers[shard_of_edge(e, shards, seed)].push(e);
        }
    });
    buffers
}

/// Route every **signed** update of `stream` into its shard's buffer in
/// one batched pass — [`partition_edges`] for the dynamic model.
/// Routing hashes the edge and ignores the sign, so a delete always
/// lands in the buffer holding its insert (exactly the sub-sequence
/// [`DynamicShardedStream`](crate::partition::DynamicShardedStream)
/// would deliver).
pub fn partition_updates(
    stream: &dyn DynamicEdgeStream,
    shards: usize,
    seed: u64,
    batch: usize,
) -> Vec<Vec<SignedEdge>> {
    assert!(shards >= 1, "need at least one shard");
    let prealloc = stream
        .update_len_hint()
        .map(|n| n / shards + n / (8 * shards) + 1)
        .unwrap_or(0);
    let mut buffers: Vec<Vec<SignedEdge>> =
        (0..shards).map(|_| Vec::with_capacity(prealloc)).collect();
    stream.for_each_update_batch(batch, &mut |chunk| {
        for &u in chunk {
            buffers[shard_of_edge(u.edge, shards, seed)].push(u);
        }
    });
    buffers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::ShardedStream;
    use crate::pipeline::distributed_k_cover;
    use coverage_data::{planted_k_cover, uniform_instance, zipf_instance};
    use coverage_sketch::SketchSizing;
    use coverage_stream::{ArrivalOrder, VecStream};

    fn workload() -> VecStream {
        let p = planted_k_cover(40, 5_000, 4, 150, 3);
        let mut s = VecStream::from_instance(&p.instance);
        ArrivalOrder::Random(5).apply(s.edges_mut());
        s
    }

    #[test]
    fn partition_matches_sharded_stream_views() {
        let stream = workload();
        let shards = 6;
        let seed = 0xBEEF;
        let buffers = partition_edges(&stream, shards, seed, 512);
        assert_eq!(buffers.len(), shards);
        for (i, buf) in buffers.iter().enumerate() {
            let mut filtered = Vec::new();
            ShardedStream::new(&stream, i, shards, seed).for_each(&mut |e| filtered.push(e));
            assert_eq!(buf, &filtered, "shard {i} buffer must equal filtered view");
        }
    }

    #[test]
    fn parallel_equals_sequential_family() {
        let stream = workload();
        for machines in [1usize, 3, 8] {
            let cfg =
                DistConfig::new(machines, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
            let seq = distributed_k_cover(&stream, &cfg);
            for threads in [1usize, 2, 4] {
                for fan_in in [2usize, 4] {
                    let par = ParallelRunner::new(cfg, threads)
                        .with_fan_in(fan_in)
                        .run(&stream);
                    assert_eq!(
                        par.family, seq.family,
                        "machines={machines} threads={threads} fan_in={fan_in}"
                    );
                    assert_eq!(par.merged_edges, seq.merged_edges);
                    assert_eq!(par.per_machine.len(), machines);
                }
            }
        }
    }

    #[test]
    fn workers_count_actual_spawns() {
        // 7 shards on 5 requested threads chunk into ceil(7/5)=2 shards
        // per worker, i.e. only 4 workers actually spawn.
        let cfg = DistConfig::new(7, 4, 0.3, 7).with_sizing(SketchSizing::Budget(1_000));
        assert_eq!(ParallelRunner::new(cfg, 5).workers(7), 4);
        // Requesting more threads than shards uses one per shard.
        assert_eq!(ParallelRunner::new(cfg, 64).workers(7), 7);
    }

    #[test]
    fn batch_size_does_not_change_output() {
        let stream = workload();
        let cfg = DistConfig::new(4, 4, 0.3, 7).with_sizing(SketchSizing::Budget(1_500));
        let baseline = ParallelRunner::new(cfg, 2).run(&stream);
        for batch in [1usize, 17, 100_000] {
            let res = ParallelRunner::new(cfg, 2).with_batch(batch).run(&stream);
            assert_eq!(res.family, baseline.family, "batch={batch}");
        }
    }

    #[test]
    fn determinism_across_generators() {
        let insts = [
            uniform_instance(30, 2_000, 80, 17),
            zipf_instance(30, 2_000, 0.5, 1.05, 400, 17),
            planted_k_cover(30, 2_000, 3, 100, 17).instance,
        ];
        for (g, inst) in insts.iter().enumerate() {
            let mut stream = VecStream::from_instance(inst);
            ArrivalOrder::Random(g as u64 + 1).apply(stream.edges_mut());
            let cfg = DistConfig::new(5, 3, 0.3, 29).with_sizing(SketchSizing::Budget(1_000));
            let seq = distributed_k_cover(&stream, &cfg);
            let par = ParallelRunner::new(cfg, 3).run(&stream);
            assert_eq!(par.family, seq.family, "generator {g}");
        }
    }

    #[test]
    fn rounds_report_reflects_fan_in() {
        let stream = workload();
        let cfg = DistConfig::new(8, 4, 0.3, 7).with_sizing(SketchSizing::Budget(1_000));
        let narrow = ParallelRunner::new(cfg, 4).with_fan_in(2).run(&stream);
        let wide = ParallelRunner::new(cfg, 4).with_fan_in(8).run(&stream);
        assert_eq!(narrow.rounds.num_rounds(), 3); // 8 → 4 → 2 → 1
        assert_eq!(wide.rounds.num_rounds(), 1); // 8 → 1
        assert_eq!(narrow.family, wide.family);
    }

    #[test]
    fn parallel_bank_equals_single_pass_bank() {
        let stream = workload();
        let guesses = [
            SketchParams::with_budget(40, 2, 0.4, 400),
            SketchParams::with_budget(40, 4, 0.4, 900),
            SketchParams::with_budget(40, 8, 0.4, 1_600),
        ];
        let cfg = DistConfig::new(6, 4, 0.3, 13).with_sizing(SketchSizing::Budget(1_000));
        let single = SketchBank::from_stream(guesses, cfg.seed, &stream);
        let par = ParallelRunner::new(cfg, 3).build_bank(&guesses, &stream);
        assert_eq!(par.len(), single.len());
        for (a, b) in single.sketches().iter().zip(par.sketches()) {
            // Same retained elements per guess; the degree cap does not
            // bind for these parameters, so the *full* canonical content
            // (hashes, set lists, truncation flags) must coincide too —
            // the shared-hash shard path must not perturb anything.
            assert_eq!(
                a.canonical_content(),
                b.canonical_content(),
                "per-guess retained content must match"
            );
        }
    }

    #[test]
    fn empty_and_tiny_streams_run() {
        let cfg = DistConfig::new(4, 2, 0.3, 7).with_sizing(SketchSizing::Budget(500));
        let empty = VecStream::new(8, Vec::new());
        let res = ParallelRunner::new(cfg, 2).run(&empty);
        assert!(res.family.is_empty());
        assert_eq!(res.merged_edges, 0);
        // One edge across 4 shards: three shards stay empty.
        let one = VecStream::new(8, vec![Edge::new(0u32, 1u64)]);
        let res = ParallelRunner::new(cfg, 4).run(&one);
        assert_eq!(res.merged_edges, 1);
    }

    #[test]
    fn map_panic_degrades_to_serial_rebuild() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cfg = DistConfig::new(4, 2, 0.3, 1);
        let runner = ParallelRunner::new(cfg, 2);
        let buffers: Vec<Vec<u64>> = (0..4u64).map(|i| vec![i]).collect();
        // First build call panics (on a map thread); the resilient
        // wrapper must retry everything serially and still produce all
        // four results — never abort the caller.
        let poisoned = AtomicBool::new(true);
        let sums = runner.map_buffers_resilient(&buffers, |buf: &[u64]| {
            if poisoned.swap(false, Ordering::SeqCst) {
                panic!("injected map panic");
            }
            buf.iter().sum::<u64>()
        });
        assert_eq!(sums, vec![0, 1, 2, 3]);
    }

    #[test]
    fn map_panic_is_a_typed_error_not_an_abort() {
        let cfg = DistConfig::new(2, 2, 0.3, 1);
        let runner = ParallelRunner::new(cfg, 2);
        let buffers: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        let err = runner
            .map_buffers(&buffers, |_: &[u64]| -> u64 { panic!("always down") })
            .unwrap_err();
        assert!(matches!(err, RunError::Panic(_)));
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        let cfg = DistConfig::new(2, 2, 0.3, 1);
        ParallelRunner::new(cfg, 0);
    }

    fn churn_stream() -> coverage_data::DynamicWorkload {
        let p = planted_k_cover(30, 3_000, 4, 100, 3);
        coverage_data::churn_workload(&p.instance, 0.4, 5)
    }

    #[test]
    fn dynamic_parallel_equals_dynamic_serial() {
        use crate::pipeline::dynamic_distributed_k_cover;
        let w = churn_stream();
        for machines in [1usize, 3, 6] {
            let cfg =
                DistConfig::new(machines, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
            let serial = dynamic_distributed_k_cover(&w.stream, &cfg);
            for threads in [1usize, 2, 4] {
                let par = ParallelRunner::new(cfg, threads).run_dynamic(&w.stream);
                assert_eq!(
                    par.family, serial.family,
                    "machines={machines} threads={threads}"
                );
                assert_eq!(par.sample, serial.sample);
                assert_eq!(par.merged_edges, serial.merged_edges);
                assert_eq!(par.per_machine.len(), machines);
            }
        }
    }

    #[test]
    fn partition_updates_matches_dynamic_sharded_views() {
        use crate::partition::DynamicShardedStream;
        use coverage_stream::{DynamicEdgeStream, SignedEdge};
        let w = churn_stream();
        let shards = 5;
        let seed = 0xF00D;
        let buffers = partition_updates(&w.stream, shards, seed, 512);
        assert_eq!(buffers.len(), shards);
        for (i, buf) in buffers.iter().enumerate() {
            let mut filtered: Vec<SignedEdge> = Vec::new();
            DynamicShardedStream::new(&w.stream, i, shards, seed)
                .for_each_update(&mut |u| filtered.push(u));
            assert_eq!(buf, &filtered, "shard {i} buffer must equal filtered view");
        }
    }

    #[test]
    fn dynamic_cover_answers_for_survivors_not_prefix() {
        // The adversarial workload: the stream prefix makes decoys look
        // golden; only the dynamic pipeline answers for the survivors.
        let w = coverage_data::adversarial_insert_delete(24, 2_000, 4, 40, 17);
        let cfg = DistConfig::new(4, 4, 0.3, 23).with_sizing(SketchSizing::Budget(3_000));
        let res = ParallelRunner::new(cfg, 3).run_dynamic(&w.stream);
        let covered = w.planted.instance.coverage(&res.family);
        assert!(
            covered as f64 >= 0.9 * w.planted.optimal_value as f64,
            "dynamic cover {covered} of planted optimum {}",
            w.planted.optimal_value
        );
    }
}
