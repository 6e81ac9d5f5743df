//! The worker coordinator and its parts: the distributed runtime over
//! transports that can actually lose things.
//!
//! Worker processes fail in more ways than a clean EOF — silent hangs,
//! half-open or stalled links, partitions, slow links — and this module
//! runs the map → tree-reduce → solve pipeline on primitives that
//! survive them, over pipe and TCP workers alike:
//!
//! - [`listener::Coordinator`] — the one coordinator, over duplex
//!   worker links: a child's stdin/stdout pipes
//!   ([`ProcessRunner`]) or TCP connections ([`SocketRunner`]), accepted
//!   from workers started as `coverage worker --connect HOST:PORT` (or
//!   self-spawned on loopback). Both speak the same framed protocol
//!   ([`crate::proto`]) — the CVPR framing is transport-agnostic by
//!   design.
//! - [`registry`] — the worker registry: heartbeat-probe liveness
//!   grading (joining → live → suspect → dead), per-worker RTT stats,
//!   and admission of late or rejoining workers mid-run.
//! - [`chunk`] — chunked shard streaming: bounded `JobChunk` frames
//!   with per-chunk checksums, strict in-order ingest, and duplicate
//!   rejection by chunk index, so transfer and ingest overlap.
//!
//! The determinism contract is unchanged and non-negotiable: under any
//! fault schedule — network faults (`drop@N`, `stall<MS>@N`, `dup@N`)
//! layered over worker faults (crash/hang/delay/corrupt) — the family
//! is bit-identical to the serial executor, because shard jobs are
//! self-contained and `merge_from` is associative and commutative.

pub mod chunk;
pub mod listener;
pub mod registry;

pub use chunk::{ChunkPlan, ChunkVerdict, ChunkedBuild};
pub use listener::{Coordinator, ProcessResult, ProcessRunner, SocketRunStats, SocketRunner};
pub use registry::{HeartbeatStats, Liveness, WorkerRegistry, WorkerState, WorkerSummary};
