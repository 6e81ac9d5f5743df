//! # coverage-dist
//!
//! Distributed coverage maximization via **composable sketches** — the
//! extension the paper points to in its conclusion ("in an accompanied
//! paper, we also show how to apply this to distributed models"; Bateni,
//! Esfandiari, Mirrokni, *Distributed coverage maximization via
//! sketching*, the paper's `[10]`).
//!
//! The key fact (proved constructive by
//! [`ThresholdSketch::merge_from`](coverage_sketch::ThresholdSketch::merge_from)):
//! the `H≤n` sketch's retained elements are the lowest-hash prefix of the
//! elements it saw, so sketches built on *any partition of the edges*
//! merge into exactly the sketch of the whole input. That makes the
//! MapReduce-style schema trivially correct:
//!
//! 1. **Map**: each of `w` machines sketches its shard of the edges
//!    (`Õ(n)` memory each, one local pass);
//! 2. **Reduce**: merge the `w` sketches (tree or fold — associative);
//! 3. **Solve**: run greedy on the merged sketch.
//!
//! The output is *identical* (same retained elements; same family up to
//! degree-cap tie-breaking) to the single-machine Algorithm 3, which is
//! the property the companion paper's round-efficient algorithms build
//! on.
//!
//! Every executor runs that schema as one pipeline ([`pipeline`]):
//! partition the stream in one pass, build one sketch per shard, reduce
//! them in memory with [`tree_reduce_with`], solve — and returns one
//! [`RunReport`]. Only the build step differs:
//! [`distributed_k_cover`] builds the shards one after another on the
//! calling thread (the reference), [`ParallelRunner`] on scoped
//! threads, and the [`Coordinator`] on worker processes. Same output (a
//! property-tested determinism contract), real speedup.
//!
//! ## Dynamic (insert/delete) workloads
//!
//! The same schema runs **deletion** workloads unchanged: signed updates
//! are routed by a hash of the edge (so a delete always lands on the
//! machine holding its insert), each machine builds a linear
//! [`DynamicSketch`](coverage_sketch::DynamicSketch), and the identical
//! generic reduce tree ([`tree_reduce_with`], via the [`Composable`]
//! trait) merges them by cell-wise addition. Because the dynamic sketch
//! is linear, its determinism contract is *stronger* than the
//! insertion-only one: the merged sketch is bit-identical to a
//! single-machine build for any partition, thread count, batch size, or
//! reduce shape. [`dynamic_distributed_k_cover`] is the serial
//! reference; [`ParallelRunner::run_dynamic`] and
//! [`Coordinator::run_dynamic`] are the parallel executors.
//!
//! ## Real processes and networks
//!
//! [`Coordinator`] replaces the simulated machines with real OS worker
//! processes: the CLI binary re-invoked in a hidden `worker` mode,
//! speaking the framed binary protocol of [`proto`] over a duplex link —
//! its stdin/stdout pipes ([`ProcessRunner`]) or a TCP connection it
//! dials back (`coverage worker --connect HOST:PORT`, [`SocketRunner`]).
//! One dispatch loop serves both: shards travel as chunked streams so
//! ingest overlaps transfer, liveness is heartbeat-graded (live →
//! suspect → dead, with late joiners admitted mid-run), and workers
//! ship snapshots back as binary wire frames. The parent restores them
//! and runs the identical in-memory reduction, so the family is
//! bit-identical to the serial and in-process parallel executors — a
//! contract that survives worker loss, because a dead worker's shards
//! are re-dispatched to survivors and `merge_from` is associative and
//! commutative. The [`net`] module docs cover the fault model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod net;
pub mod parallel;
pub mod partition;
pub mod pipeline;
pub mod proto;
pub mod rounds;
pub mod runner;
pub mod worker;

pub use fault::{Fault, FaultParseError, FaultPlan, SplitMix64};
pub use net::{
    Coordinator, HeartbeatStats, ProcessResult, ProcessRunner, SocketRunStats, SocketRunner,
    WorkerState, WorkerSummary,
};
pub use parallel::{partition_edges, partition_updates, ParallelRunner};
pub use partition::{shard_of_edge, DynamicShardedStream, ShardedStream};
pub use pipeline::{distributed_k_cover, dynamic_distributed_k_cover, RunReport, SampleLevel};
pub use proto::{ChunkPayload, Message, ProtoError};
pub use rounds::{
    tree_reduce_via, tree_reduce_with, BinaryTransport, Composable, FaultyTransport, Loopback,
    RoundCost, RoundsReport, ShipFormat, Shipment, Transport,
};
pub use runner::{DistConfig, RetryPolicy, RunError, WorkerCommand};
