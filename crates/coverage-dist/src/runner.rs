//! The map/reduce/solve drivers over simulated machines — the reference
//! executors for both stream models — plus what every executor shares:
//! [`DistConfig`], the typed [`RunError`], the [`RetryPolicy`] and
//! deadline wheel of the worker coordinator, and [`WorkerCommand`], how
//! the coordinator ([`crate::net::Coordinator`]) starts worker processes.
//!
//! Every executor here shares one **determinism contract** with the
//! parallel runner in [`crate::parallel`] and the worker coordinator:
//! for a fixed [`DistConfig`] (machines, seed, sizing), the selected
//! cover is a pure function of the input edge (multi)set — independent
//! of threading, machine count beyond sharding, merge order, and (for
//! the dynamic pipeline) of the interleaving of inserts and deletes.
//! [`DistConfig::shard_seed`] and
//! [`DistConfig::sketch_params`]/[`DistConfig::dynamic_sketch_params`]
//! centralize the two knobs every executor must agree on for that to
//! hold.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use coverage_core::offline::bucket_greedy_k_cover;
use coverage_core::SetId;
use coverage_sketch::{DynamicSketch, DynamicSketchParams, SketchSizing, ThresholdSketch};
use coverage_stream::{DynamicEdgeStream, EdgeStream, SpaceReport};

use crate::partition::{DynamicShardedStream, ShardedStream};

/// A failure that ends a run with a typed error instead of a panic.
///
/// The taxonomy is deliberately small: everything a worker can do wrong
/// (crash, hang, corrupt a frame, speak the wrong version) is *recovered*
/// inside the dispatch loop, not surfaced here. Only two things abort a
/// run: the environment refusing to start any worker at all, and a panic
/// inside an in-process executor thread.
#[derive(Debug)]
pub enum RunError {
    /// Not a single worker subprocess could be spawned.
    Spawn(std::io::Error),
    /// An in-process executor thread panicked; the message is the panic
    /// payload when it was a string.
    Panic(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Spawn(e) => write!(f, "no worker could be spawned: {e}"),
            RunError::Panic(msg) => write!(f, "executor thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Spawn(e)
    }
}

/// Render a panic payload (from `catch_unwind` / a failed scope) as a
/// message for [`RunError::Panic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Retry discipline for shard jobs that fail (worker crash, hang reaped
/// by deadline, corrupt reply): bounded per-shard attempts with
/// exponential backoff, plus a run-wide retry budget so a pathological
/// environment degrades to inline rebuilds instead of retrying forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Dispatch attempts per shard before it is built inline (`≥ 1`).
    pub max_attempts: usize,
    /// Total re-dispatches across the whole run before every further
    /// failure goes straight to inline rebuild.
    pub budget: usize,
    /// Backoff before the second attempt; doubles per attempt after.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            budget: 64,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait after `attempt` failed attempts (1-based):
    /// `base · 2^(attempt−1)`, capped.
    pub fn backoff_after(&self, attempt: usize) -> Duration {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// Per-worker job deadlines of the worker coordinator
/// ([`crate::net::Coordinator`]). A "wheel" in spirit only: with at most
/// a handful of workers a linear scan beats any bucketed structure, so
/// the slots are a plain vector indexed by worker. The registry grows as
/// workers join, hence [`arm`](Self::arm) grows the slot vector on
/// demand.
pub(crate) struct DeadlineWheel {
    slots: Vec<Option<Instant>>,
}

impl DeadlineWheel {
    pub(crate) fn new(workers: usize) -> Self {
        DeadlineWheel {
            slots: vec![None; workers],
        }
    }

    pub(crate) fn arm(&mut self, worker: usize, at: Instant) {
        if worker >= self.slots.len() {
            self.slots.resize(worker + 1, None);
        }
        self.slots[worker] = Some(at);
    }

    pub(crate) fn disarm(&mut self, worker: usize) {
        if worker < self.slots.len() {
            self.slots[worker] = None;
        }
    }

    /// The soonest armed deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.slots.iter().flatten().min().copied()
    }

    /// Workers whose deadline is at or before `now`.
    pub(crate) fn expired(&self, now: Instant) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(wi, t)| match t {
                Some(at) if *at <= now => Some(wi),
                _ => None,
            })
            .collect()
    }
}

/// Configuration of a distributed k-cover run.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of simulated machines `w ≥ 1`.
    pub machines: usize,
    /// Number of sets to select.
    pub k: usize,
    /// Accuracy parameter ε (Algorithm 3 semantics: sketch ε is ε/12).
    pub epsilon: f64,
    /// Sketch sizing policy (per machine; the merged sketch keeps the
    /// same budget).
    pub sizing: SketchSizing,
    /// Global hash seed — every machine must share it or merging is
    /// meaningless.
    pub seed: u64,
}

impl DistConfig {
    /// Practical defaults.
    pub fn new(machines: usize, k: usize, epsilon: f64, seed: u64) -> Self {
        assert!(machines >= 1, "need at least one machine");
        DistConfig {
            machines,
            k,
            epsilon,
            sizing: SketchSizing::Practical { c: 4.0 },
            seed,
        }
    }

    /// Override the sizing policy.
    pub fn with_sizing(mut self, sizing: SketchSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// The seed edges are sharded with. Every executor (threaded
    /// simulation, serial simulation, parallel runner) must derive it
    /// identically or their machines see different shards and the
    /// determinism contract breaks.
    pub fn shard_seed(&self) -> u64 {
        self.seed ^ 0x5A
    }

    /// The per-machine sketch parameters for a stream of `n` sets
    /// (Algorithm 3 semantics: the sketch runs at ε/12). Centralized for
    /// the same reason as [`shard_seed`](Self::shard_seed): every
    /// executor must size sketches identically or their merged results —
    /// and therefore the selected families — diverge.
    pub fn sketch_params(&self, n: usize) -> coverage_sketch::SketchParams {
        let eps_sketch = (self.epsilon / 12.0).clamp(1e-6, 1.0);
        self.sizing.params(n, self.k.max(1), eps_sketch)
    }

    /// The per-machine **dynamic** sketch parameters: the same shared
    /// sizing as [`sketch_params`](Self::sketch_params) wrapped in the
    /// default level/bank geometry. Centralized for the same reason —
    /// every dynamic executor must agree or merged cells are garbage.
    pub fn dynamic_sketch_params(&self, n: usize) -> DynamicSketchParams {
        DynamicSketchParams::new(self.sketch_params(n))
    }
}

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// The selected family.
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage.
    pub estimated_coverage: f64,
    /// Per-machine space reports (each machine holds one local sketch).
    pub per_machine: Vec<SpaceReport>,
    /// The merged sketch's final size (edges) — the reducer's footprint.
    pub merged_edges: usize,
}

/// Fold a non-empty list of compatible sketches into one.
pub fn merge_all(mut sketches: Vec<ThresholdSketch>) -> ThresholdSketch {
    let mut acc = sketches.pop().expect("merge_all needs at least one sketch");
    for s in &sketches {
        acc.merge_from(s);
    }
    acc
}

/// Distributed Algorithm 3: shard edges across `machines`, sketch each
/// shard on its own thread, merge, and run greedy on the merged sketch.
///
/// Each simulated machine re-filters the **full** stream through its
/// [`ShardedStream`] view, so the harness does `O(machines·|E|)` work;
/// the machines run on scoped threads (one per machine). For a
/// single-threaded reference with identical output see
/// [`distributed_k_cover_serial`]; for the executor that removes the
/// re-filtering cost see [`crate::ParallelRunner`].
pub fn distributed_k_cover(stream: &(dyn EdgeStream + Sync), cfg: &DistConfig) -> DistResult {
    let params = cfg.sketch_params(stream.num_sets());

    // Map phase: one sketch per machine, built concurrently.
    let mut locals: Vec<Option<ThresholdSketch>> = (0..cfg.machines).map(|_| None).collect();
    let scope_result = crossbeam::scope(|scope| {
        for (i, slot) in locals.iter_mut().enumerate() {
            let stream_ref = stream;
            scope.spawn(move |_| {
                let shard = ShardedStream::new(stream_ref, i, cfg.machines, cfg.shard_seed());
                *slot = Some(ThresholdSketch::from_stream(params, cfg.seed, &shard));
            });
        }
    });
    if scope_result.is_err() {
        // A machine thread panicked mid-build, so `locals` may be torn.
        // Discard it and degrade to the serial reference executor, which
        // produces the identical family by the determinism contract.
        return distributed_k_cover_serial(stream, cfg);
    }
    let locals: Vec<ThresholdSketch> = locals.into_iter().map(|s| s.unwrap()).collect();
    solve_locals(locals, cfg)
}

/// [`distributed_k_cover`] with the machines simulated strictly one
/// after another on the calling thread — no concurrency anywhere.
/// Output-identical to the threaded simulation (same shards, same
/// seeds, associative merge); this is the honest single-threaded
/// baseline the `bench_smoke` perf gate compares the parallel executor
/// against, so the gate does not depend on how many cores the CI
/// machine happens to have.
pub fn distributed_k_cover_serial(stream: &dyn EdgeStream, cfg: &DistConfig) -> DistResult {
    let params = cfg.sketch_params(stream.num_sets());
    let locals: Vec<ThresholdSketch> = (0..cfg.machines)
        .map(|i| {
            let shard = ShardedStream::new(stream, i, cfg.machines, cfg.shard_seed());
            ThresholdSketch::from_stream(params, cfg.seed, &shard)
        })
        .collect();
    solve_locals(locals, cfg)
}

/// Shared reduce + solve tail of both simulations.
fn solve_locals(locals: Vec<ThresholdSketch>, cfg: &DistConfig) -> DistResult {
    let per_machine: Vec<SpaceReport> = locals.iter().map(|s| s.space_report()).collect();

    // Reduce phase: associative fold.
    let merged = merge_all(locals);

    // Solve phase: zero-rebuild query on the merged sketch's CSR view.
    let trace = bucket_greedy_k_cover(&merged.csr_view(), cfg.k);
    let family = trace.family();
    DistResult {
        estimated_coverage: merged.estimate_coverage(&family),
        merged_edges: merged.edges_stored(),
        per_machine,
        family,
    }
}

/// Result of a distributed **dynamic** run.
#[derive(Clone, Debug)]
pub struct DynDistResult {
    /// The selected family.
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage on the
    /// surviving graph.
    pub estimated_coverage: f64,
    /// Per-machine space reports.
    pub per_machine: Vec<SpaceReport>,
    /// The subsampling level the merged sketch decoded at.
    pub sample_level: usize,
    /// That level's sampling probability `p = 2^{−level}`.
    pub sampling_p: f64,
    /// Surviving edges recovered from the merged sketch.
    pub recovered_edges: usize,
}

/// Distributed **dynamic** k-cover: shard the signed updates across
/// `machines` (deletes co-located with their inserts), build one
/// [`DynamicSketch`] per machine, merge by cell-wise addition, recover
/// the densest decodable level, and run greedy on the recovered
/// degree-capped instance.
///
/// Because the dynamic sketch is linear, the merged sketch is
/// **bit-identical** to a single-machine build over the whole stream —
/// the determinism contract holds exactly, not just up to tie-breaking.
///
/// # Panics
///
/// Panics if no subsampling level decodes (the sketch was sized with
/// too few levels for the surviving edge count).
pub fn dynamic_distributed_k_cover(
    stream: &dyn DynamicEdgeStream,
    cfg: &DistConfig,
) -> DynDistResult {
    let params = cfg.dynamic_sketch_params(stream.num_sets());
    let locals: Vec<DynamicSketch> = (0..cfg.machines)
        .map(|i| {
            let shard = DynamicShardedStream::new(stream, i, cfg.machines, cfg.shard_seed());
            DynamicSketch::from_stream(params, cfg.seed, &shard)
        })
        .collect();
    solve_dynamic_locals(locals, cfg)
}

/// Recover + greedy-solve tail shared by every dynamic executor: decode
/// the merged sketch's densest level and run greedy on the recovered,
/// degree-capped instance. Returns `(family, estimated_coverage,
/// sample)`.
pub(crate) fn recover_and_solve(
    merged: &DynamicSketch,
    k: usize,
) -> (Vec<SetId>, f64, coverage_sketch::DynamicSample) {
    let sample = merged.recover_expect();
    let trace = bucket_greedy_k_cover(&merged.csr_view(&sample), k);
    let family = trace.family();
    let estimated = merged.estimate_coverage(&sample, &family);
    (family, estimated, sample)
}

/// Shared reduce + recover + solve tail of the serial dynamic executors.
pub(crate) fn solve_dynamic_locals(locals: Vec<DynamicSketch>, cfg: &DistConfig) -> DynDistResult {
    let per_machine: Vec<SpaceReport> = locals.iter().map(|s| s.space_report()).collect();
    let mut iter = locals.into_iter();
    let mut merged = iter.next().expect("at least one machine");
    for s in iter {
        merged.merge_from(&s);
    }
    let (family, estimated_coverage, sample) = recover_and_solve(&merged, cfg.k);
    DynDistResult {
        estimated_coverage,
        per_machine,
        sample_level: sample.level,
        sampling_p: sample.sampling_p,
        recovered_edges: sample.edges.len(),
        family,
    }
}

/// How to start one worker subprocess: a program plus the arguments
/// that put it into worker mode (serving framed jobs on stdin/stdout,
/// or over TCP with `--connect ADDR` appended).
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command for an explicit program and arguments.
    pub fn new(program: impl Into<PathBuf>, args: impl IntoIterator<Item = String>) -> Self {
        WorkerCommand {
            program: program.into(),
            args: args.into_iter().collect(),
        }
    }

    /// Re-invoke the *current executable* with the given arguments — how
    /// the CLI (`coverage worker`) and the bench harness spawn workers.
    pub fn current_exe(args: impl IntoIterator<Item = String>) -> std::io::Result<Self> {
        Ok(Self::new(std::env::current_exe()?, args))
    }

    /// Spawn the worker with piped stdin/stdout — a pipe worker's link
    /// ([`crate::ProcessRunner`]).
    pub(crate) fn spawn(&self) -> std::io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    }

    /// Spawn the worker with `--connect ADDR` appended and **no**
    /// parent-owned protocol pipes — how [`crate::SocketRunner`]
    /// launches loopback workers: the framed protocol rides the TCP
    /// connection the child dials back.
    pub(crate) fn spawn_connected(&self, addr: &str) -> std::io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .arg("--connect")
            .arg(addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_data::planted_k_cover;
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
    fn serial_simulation_equals_threaded_simulation() {
        let (stream, _, _) = workload();
        for machines in [1usize, 3, 8] {
            let cfg =
                DistConfig::new(machines, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
            let threaded = distributed_k_cover(&stream, &cfg);
            let serial = distributed_k_cover_serial(&stream, &cfg);
            assert_eq!(serial.family, threaded.family, "machines={machines}");
            assert_eq!(serial.merged_edges, threaded.merged_edges);
            assert_eq!(serial.per_machine.len(), threaded.per_machine.len());
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
    fn dynamic_output_invariant_in_machine_count() {
        let p = planted_k_cover(30, 3_000, 4, 100, 3).instance;
        let w = coverage_data::churn_workload(&p, 0.4, 9);
        let mut families = Vec::new();
        for machines in [1usize, 2, 5] {
            let cfg =
                DistConfig::new(machines, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
            let res = dynamic_distributed_k_cover(&w.stream, &cfg);
            families.push((res.family, res.sample_level, res.recovered_edges));
        }
        for win in families.windows(2) {
            assert_eq!(
                win[0], win[1],
                "dynamic result must not depend on machine count"
            );
        }
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff_after(1), Duration::from_millis(10));
        assert_eq!(retry.backoff_after(2), Duration::from_millis(20));
        assert_eq!(retry.backoff_after(3), Duration::from_millis(40));
        assert_eq!(retry.backoff_after(20), Duration::from_millis(500));
    }

    #[test]
    fn deadline_wheel_tracks_the_soonest_deadline() {
        let mut wheel = DeadlineWheel::new(3);
        let now = Instant::now();
        assert_eq!(wheel.next_deadline(), None);
        assert!(wheel.expired(now).is_empty());
        wheel.arm(0, now + Duration::from_secs(5));
        wheel.arm(2, now + Duration::from_secs(1));
        assert_eq!(wheel.next_deadline(), Some(now + Duration::from_secs(1)));
        assert_eq!(wheel.expired(now + Duration::from_secs(2)), vec![2]);
        wheel.disarm(2);
        assert_eq!(wheel.next_deadline(), Some(now + Duration::from_secs(5)));
        assert_eq!(
            wheel.expired(now + Duration::from_secs(10)),
            vec![0],
            "disarmed slots never expire"
        );
    }

    #[test]
    fn run_error_is_typed_and_displayable() {
        let spawn = RunError::from(std::io::Error::other("nope"));
        assert!(matches!(spawn, RunError::Spawn(_)));
        assert!(spawn.to_string().contains("nope"));
        let panic = RunError::Panic(panic_message(Box::new("boom".to_string())));
        assert!(panic.to_string().contains("boom"));
        assert_eq!(panic_message(Box::new(17u32)), "non-string panic payload");
    }

    #[test]
    fn threaded_simulation_survives_a_machine_panic() {
        // The crossbeam shim converts a panicking scope into Err, which
        // distributed_k_cover must turn into a serial rebuild — never an
        // abort. Simulate by driving the shim directly the way the
        // executor does.
        let result = crossbeam::scope(|scope| {
            scope.spawn(|_| panic!("machine down"));
        });
        assert!(result.is_err(), "the shim must capture scoped panics");
    }

    #[test]
    fn dynamic_quality_matches_insertion_only_on_survivors() {
        let planted = planted_k_cover(30, 3_000, 4, 100, 7);
        let w = coverage_data::churn_workload(&planted.instance, 0.5, 13);
        let cfg = DistConfig::new(4, 4, 0.3, 11).with_sizing(SketchSizing::Budget(2_000));
        let dyn_res = dynamic_distributed_k_cover(&w.stream, &cfg);
        // Insertion-only pipeline on the surviving graph.
        let surv_stream = VecStream::from_instance(&w.surviving);
        let ins_res = distributed_k_cover_serial(&surv_stream, &cfg);
        let dyn_cov = w.surviving.coverage(&dyn_res.family);
        let ins_cov = w.surviving.coverage(&ins_res.family);
        assert!(
            dyn_cov as f64 >= 0.9 * ins_cov as f64,
            "dynamic cover {dyn_cov} far below insertion-only {ins_cov}"
        );
    }
}
