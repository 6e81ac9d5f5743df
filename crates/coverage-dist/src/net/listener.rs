//! The one worker coordinator: [`Coordinator`] drives shard jobs over
//! duplex worker links, streams each shard in bounded chunks, grades
//! liveness by heartbeats, and recovers from every worker and network
//! failure the fault plan can inject. [`ProcessRunner`] is the
//! coordinator over pipe workers, [`SocketRunner`] over TCP workers.
//!
//! ## Links
//!
//! A link is a byte reader, a byte writer and a *sever* operation. A
//! pipe worker's link is its child's stdout/stdin, severed by killing
//! the child; a TCP worker's link is its connection, severed by
//! `shutdown(Both)`. Everything above the link is one code path: the
//! handshake, heartbeats, chunk streaming under the ack window,
//! deadlines, retries, the registry and the inline fallback. So every
//! fault kind fires on both transports: `drop@N` severs the link
//! mid-stream, `stall<MS>@N` pauses its writer, `dup@N` writes a chunk
//! twice.
//!
//! ## Thread shape
//!
//! Each link gets a dedicated **reader** thread (frames → the shared
//! event channel, so a stalled peer blocks its reader, never the
//! coordinator) and a dedicated **writer** thread (commands → frames, so
//! a peer that stops reading blocks its writer, never the coordinator).
//! Pipe workers are admitted as they are spawned; TCP adds one
//! **acceptor** thread that polls the listener and forwards new
//! connections. The main loop is single-threaded and event-driven,
//! waiting on whichever comes first: a frame, a heartbeat tick, a job
//! deadline, a retry backoff maturing, a scheduled late spawn, or the
//! empty-registry grace deadline.
//!
//! ## Why recovery cannot change the answer
//!
//! Every shard job is self-contained (params + seed + the shard's
//! edges) and `merge_from` is associative and commutative, so a shard
//! requeued after a mid-stream link loss — or rebuilt inline when the
//! registry empties — produces byte-identical locals. The coordinator
//! restores each reply's snapshot and reduces the locals in memory, in
//! shard order regardless of which worker built them, through the same
//! pipeline tail as the in-process executors ([`crate::pipeline`]); the
//! family is therefore bit-identical to the serial executor under
//! **any** fault schedule, which `tests/process_execution.rs`,
//! `tests/socket_execution.rs` and the chaos suite assert.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coverage_core::SetId;
use coverage_sketch::{DynamicSketch, ThresholdSketch};
use coverage_stream::{DynamicEdgeStream, EdgeStream};

use crate::fault::{Fault, FaultPlan};
use crate::parallel::{DEFAULT_BATCH, DEFAULT_FAN_IN};
use crate::pipeline::{run_pipeline, Mapped, RunReport, ShardSketch};
use crate::proto::{read_message, write_message, Message, ProtoError};
use crate::rounds::RoundsReport;
use crate::runner::{DeadlineWheel, DistConfig, RetryPolicy, RunError, WorkerCommand};

use super::registry::{HeartbeatStats, Liveness, WorkerRegistry, WorkerSummary};

/// Fault/recovery/registry accounting of one coordinator run: the
/// counter block of every [`RunReport`] (all zero for in-process runs).
#[derive(Clone, Debug, Default)]
pub struct SocketRunStats {
    /// Workers admitted to the registry over the whole run (spawned
    /// pipe workers and accepted connections).
    pub workers_joined: usize,
    /// Of those, workers admitted after shard dispatch had begun (late
    /// joiners and rejoining worker processes).
    pub late_joiners: usize,
    /// Workers declared dead (EOF, wire error, missed heartbeats, or
    /// deadline reap).
    pub workers_lost: usize,
    /// Times a worker crossed live→suspect on missed heartbeats.
    pub suspect_transitions: usize,
    /// Times a suspect worker recovered to live on a late echo.
    pub suspect_recoveries: usize,
    /// Shard jobs requeued to survivors after their worker died
    /// mid-job (including mid-stream link losses).
    pub shards_requeued: usize,
    /// Shards built inline in the coordinator because the registry
    /// emptied or the shard exhausted its retry allowance.
    pub shards_built_inline: usize,
    /// Workers reaped by the per-job deadline (hangs and over-deadline
    /// stalls).
    pub deadline_reaps: usize,
    /// Shard jobs re-dispatched after waiting out a backoff.
    pub retries: usize,
    /// Typed protocol faults observed on links (corrupt frames,
    /// version mismatches, unexpected replies).
    pub proto_faults: usize,
    /// Injected `drop@N` faults: links severed mid-stream.
    pub conn_drops_injected: usize,
    /// Injected `stall<MS>@N` faults: writes paused without closing.
    pub stalls_injected: usize,
    /// Injected `dup@N` faults: chunks delivered twice.
    pub chunk_dups_injected: usize,
    /// Total [`Message::JobChunk`] frames enqueued to workers.
    pub chunks_streamed: usize,
    /// Shards for which a chunk was acked (ingested) before the last
    /// chunk had been sent — the observable proof that chunked
    /// streaming overlapped transfer and ingest.
    pub overlap_shards: usize,
    /// Total link bytes of worker reply frames.
    pub wire_bytes: u64,
    /// Heartbeat probe round-trip latency aggregated over every worker.
    pub heartbeat: HeartbeatStats,
    /// Per-worker registry summaries, in admission order.
    pub workers: Vec<WorkerSummary>,
}

/// The flat view of a [`RunReport`] that [`ProcessRunner::run`]
/// returns: the same run, with the counters lifted out of
/// [`SocketRunStats`] under the pipe executor's older names.
#[derive(Clone, Debug)]
pub struct ProcessResult {
    /// The selected family.
    pub family: Vec<SetId>,
    /// Inverse-probability estimate of the family's coverage.
    pub estimated_coverage: f64,
    /// The merged sketch's final size (edges).
    pub merged_edges: usize,
    /// Tree-reduce round/communication accounting.
    pub rounds: RoundsReport,
    /// [`SocketRunStats::workers_joined`].
    pub workers_spawned: usize,
    /// [`SocketRunStats::workers_lost`].
    pub workers_lost: usize,
    /// [`SocketRunStats::shards_requeued`].
    pub shards_resharded: usize,
    /// [`SocketRunStats::shards_built_inline`].
    pub shards_built_inline: usize,
    /// [`SocketRunStats::deadline_reaps`].
    pub deadline_reaps: usize,
    /// [`SocketRunStats::retries`].
    pub retries: usize,
    /// [`SocketRunStats::proto_faults`].
    pub proto_faults: usize,
    /// [`SocketRunStats::wire_bytes`].
    pub wire_bytes: u64,
    /// [`SocketRunStats::heartbeat`].
    pub heartbeat: HeartbeatStats,
    /// Wall-clock nanoseconds partitioning the stream.
    pub partition_ns: u64,
    /// Wall-clock nanoseconds streaming shards, collecting replies and
    /// restoring their snapshots.
    pub map_ns: u64,
    /// Wall-clock nanoseconds in the reduce + solve tail.
    pub reduce_solve_ns: u64,
}

impl From<RunReport> for ProcessResult {
    fn from(r: RunReport) -> Self {
        let s = r.stats;
        ProcessResult {
            family: r.family,
            estimated_coverage: r.estimated_coverage,
            merged_edges: r.merged_edges,
            rounds: r.rounds,
            workers_spawned: s.workers_joined,
            workers_lost: s.workers_lost,
            shards_resharded: s.shards_requeued,
            shards_built_inline: s.shards_built_inline,
            deadline_reaps: s.deadline_reaps,
            retries: s.retries,
            proto_faults: s.proto_faults,
            wire_bytes: s.wire_bytes,
            heartbeat: s.heartbeat,
            partition_ns: r.partition_ns,
            map_ns: r.map_ns,
            reduce_solve_ns: r.reduce_solve_ns,
        }
    }
}

/// Cuts a link from the coordinator's side: kills (and reaps) a pipe
/// worker, or shuts a connection down both ways. Either way the link's
/// reader sees the stream end and a blocked writer fails.
type Sever = Box<dyn Fn() + Send + Sync>;

/// One worker's duplex byte link.
struct Link {
    peer: String,
    input: Box<dyn Read + Send>,
    output: Box<dyn Write + Send>,
    sever: Sever,
}

impl Link {
    /// A spawned child's stdout/stdin pipes.
    fn pipe(mut child: Child) -> Link {
        let input = child.stdout.take().expect("worker stdout is piped");
        let output = child.stdin.take().expect("worker stdin is piped");
        let peer = format!("pid {}", child.id());
        let child = Mutex::new(child);
        Link {
            peer,
            input: Box::new(input),
            output: Box::new(output),
            sever: Box::new(move || {
                if let Ok(mut child) = child.lock() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }),
        }
    }

    /// An accepted TCP connection.
    fn tcp(stream: TcpStream) -> std::io::Result<Link> {
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        let _ = stream.set_nodelay(true);
        Ok(Link {
            peer,
            input: Box::new(stream.try_clone()?),
            output: Box::new(stream.try_clone()?),
            sever: Box::new(move || {
                let _ = stream.shutdown(Shutdown::Both);
            }),
        })
    }
}

/// One event delivered to the coordinator's main loop.
enum Event {
    /// The acceptor took a new connection.
    Joined(Link),
    /// A frame (or the typed read failure that ended the stream) from
    /// link `0`'s reader.
    Frame(usize, Result<(Message, u64), ProtoError>),
    /// Link `0`'s writer finished streaming shard `1`'s chunks.
    SentAll(usize, usize),
    /// Link `0`'s writer hit an I/O error.
    WriteErr(usize),
}

/// One command to a link's writer thread.
enum WriteCmd {
    /// Write a single control frame (heartbeat probe, shutdown).
    Frame(Message),
    /// Stream one shard: the `ChunkStart*` frame, its chunks under
    /// flow control, and optionally an injected network fault.
    Shard {
        shard: usize,
        start: Message,
        chunks: Vec<Message>,
        net_fault: Option<Fault>,
    },
    /// Exit the writer thread.
    Stop,
}

/// What a link's writer thread shares with the coordinator.
struct Shared {
    /// Chunks of the in-flight shard acked (ingested) so far — the
    /// writer's flow control.
    acked: AtomicU32,
    /// Set when the link is being torn down, so a writer blocked in
    /// flow control or an injected stall bails out.
    gone: AtomicBool,
    sever: Sever,
}

/// Coordinator-side handle on one link (registry entry `ci`).
struct Conn {
    shared: Arc<Shared>,
    cmd: Option<Sender<WriteCmd>>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    /// The shard whose reply this link owes, if any.
    inflight: Option<usize>,
    /// Whether the writer has reported streaming every chunk of the
    /// in-flight shard.
    sent_all: bool,
    /// Chunk count of the in-flight shard.
    chunks_total: u32,
    /// Whether this shard already counted toward `overlap_shards`.
    overlap_counted: bool,
}

fn spawn_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    tx: Sender<Event>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = listener.set_nonblocking(true);
        while !stop.load(Ordering::Acquire) {
            match listener.accept().and_then(|(stream, _)| Link::tcp(stream)) {
                Ok(link) => {
                    if tx.send(Event::Joined(link)).is_err() {
                        return;
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    })
}

fn spawn_conn_reader(ci: usize, input: Box<dyn Read + Send>, tx: Sender<Event>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut input = BufReader::new(input);
        loop {
            match read_message(&mut input) {
                Ok(ok) => {
                    if tx.send(Event::Frame(ci, Ok(ok))).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Frame(ci, Err(e)));
                    return;
                }
            }
        }
    })
}

/// Drain queued control frames (heartbeat probes, shutdown) so a long
/// chunk stream never starves liveness. Returns `Ok(false)` when a
/// `Stop` was drained — the caller abandons its stream and exits.
fn drain_control(out: &mut impl Write, cmds: &Receiver<WriteCmd>) -> Result<bool, ProtoError> {
    loop {
        match cmds.try_recv() {
            Ok(WriteCmd::Frame(msg)) => {
                write_message(out, &msg)?;
            }
            Ok(WriteCmd::Stop) => return Ok(false),
            // The coordinator never queues a second shard while one is
            // in flight; drop it defensively rather than interleave two
            // streams.
            Ok(WriteCmd::Shard { .. }) => {}
            Err(TryRecvError::Empty) => return Ok(true),
            Err(TryRecvError::Disconnected) => return Ok(false),
        }
    }
}

/// Stream one shard's chunks under flow control, executing an injected
/// network fault mid-stream. Returns `Ok(true)` when every chunk was
/// written (the caller reports `SentAll`) and `Ok(false)` when the
/// stream was abandoned — injected drop, torn-down link, or a drained
/// `Stop`.
fn stream_shard(
    out: &mut impl Write,
    shared: &Shared,
    cmds: &Receiver<WriteCmd>,
    window: u32,
    start: &Message,
    chunks: &[Message],
    net_fault: Option<Fault>,
) -> Result<bool, ProtoError> {
    write_message(out, start)?;
    if chunks.is_empty() && matches!(net_fault, Some(Fault::DropConn)) {
        // Even an empty shard's stream can be severed before the worker
        // replies.
        (shared.sever)();
        return Ok(false);
    }
    for (i, chunk) in chunks.iter().enumerate() {
        if !drain_control(out, cmds)? {
            return Ok(false);
        }
        // Flow control: at most `window` unacked chunks in flight, so a
        // slow ingester applies backpressure instead of ballooning its
        // link buffer — and so acks arriving before the last chunk is
        // sent are an honest overlap observation.
        while (i as u32) >= shared.acked.load(Ordering::Acquire).saturating_add(window) {
            if shared.gone.load(Ordering::Acquire) {
                return Ok(false);
            }
            if !drain_control(out, cmds)? {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        write_message(out, chunk)?;
        if i == 0 {
            match net_fault {
                Some(Fault::DropConn) => {
                    // Sever mid-stream: the worker's build dies with the
                    // link; the reader's EOF requeues the shard.
                    (shared.sever)();
                    return Ok(false);
                }
                Some(Fault::Stall(ms)) => {
                    // Stop writing without closing. Heartbeat probes
                    // queue unwritten behind the stall, so the pending
                    // probe ages into the suspect threshold — the
                    // half-open-link detector under test.
                    let mut left = ms;
                    while left > 0 && !shared.gone.load(Ordering::Acquire) {
                        let step = left.min(10);
                        std::thread::sleep(Duration::from_millis(step));
                        left -= step;
                    }
                }
                Some(Fault::DupChunk) => {
                    // Deliver chunk 0 twice; the worker must reject the
                    // replay by index without touching its sketch.
                    write_message(out, chunk)?;
                }
                _ => {}
            }
        }
    }
    Ok(true)
}

fn spawn_conn_writer(
    ci: usize,
    output: Box<dyn Write + Send>,
    shared: Arc<Shared>,
    cmds: Receiver<WriteCmd>,
    window: u32,
    tx: Sender<Event>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut out = BufWriter::new(output);
        while let Ok(cmd) = cmds.recv() {
            match cmd {
                WriteCmd::Stop => return,
                WriteCmd::Frame(msg) => {
                    if write_message(&mut out, &msg).is_err() {
                        let _ = tx.send(Event::WriteErr(ci));
                        return;
                    }
                }
                WriteCmd::Shard {
                    shard,
                    start,
                    chunks,
                    net_fault,
                } => {
                    match stream_shard(&mut out, &shared, &cmds, window, &start, &chunks, net_fault)
                    {
                        Ok(true) => {
                            if tx.send(Event::SentAll(ci, shard)).is_err() {
                                return;
                            }
                        }
                        // Abandoned stream (injected drop / teardown): the
                        // reader-side EOF carries the news; nothing to send.
                        Ok(false) => return,
                        Err(_) => {
                            let _ = tx.send(Event::WriteErr(ci));
                            return;
                        }
                    }
                }
            }
        }
    })
}

/// Where a coordinator's workers come from.
#[derive(Clone, Debug)]
enum Workers {
    /// Spawn the command with piped stdin/stdout; each child is a link.
    Pipes(WorkerCommand),
    /// Bind `listen` and accept TCP links; with a command, also spawn
    /// workers that dial back (`--connect ADDR`).
    Tcp {
        listen: String,
        command: Option<WorkerCommand>,
    },
}

impl Workers {
    /// Start one worker. A pipe worker is its own link; a TCP worker
    /// dials `addr` and arrives through the acceptor, so only its
    /// process is kept (in `children`, killed at wind-down).
    fn spawn(&self, addr: &str, children: &mut Vec<Child>) -> std::io::Result<Option<Link>> {
        match self {
            Workers::Pipes(command) => command.spawn().map(|child| Some(Link::pipe(child))),
            Workers::Tcp { command, .. } => {
                if let Some(command) = command {
                    children.push(command.spawn_connected(addr)?);
                }
                Ok(None)
            }
        }
    }
}

/// The worker coordinator: the executor pipeline of
/// [`crate::pipeline`], with each shard built by a worker at the far end
/// of a link — a pipe to a child process or a TCP connection. `R` is the
/// shape [`run`](Self::run) returns: the [`RunReport`], or the flat
/// [`ProcessResult`] view that [`ProcessRunner`] keeps for older
/// callers.
///
/// Three deployment shapes share the implementation:
///
/// - **Pipes** ([`Coordinator::pipes`], [`ProcessRunner::new`]): spawn
///   `processes` copies of the worker command, each speaking the framed
///   protocol ([`crate::proto`]) on its stdin/stdout.
/// - **Loopback TCP** ([`Coordinator::loopback`], [`SocketRunner::new`]):
///   bind an ephemeral loopback port and launch `processes` copies of
///   the worker command with `--connect ADDR` appended.
/// - **Listen** ([`Coordinator::listen`]): bind a given address and wait
///   for externally-started `coverage worker --connect HOST:PORT`
///   processes — the multi-host shape. Workers may connect at any
///   point; a worker joining after dispatch began is admitted mid-run
///   and handed queued shards.
///
/// The parent partitions the stream with the same
/// [`partition_edges`](crate::partition_edges)/[`partition_updates`](crate::partition_updates) and
/// [`DistConfig::shard_seed`] as the in-process executors and orders
/// the returned locals by shard index, so the in-memory reduce sees the
/// exact sequence they see and the selected family is identical.
/// Workers reply with binary snapshot frames; only those reply bytes
/// count as [`SocketRunStats::wire_bytes`].
///
/// Liveness is heartbeat-driven, not EOF-driven: the coordinator probes
/// every link on a fixed cadence, and the registry grades each worker
/// by the age of its oldest unanswered probe (live → suspect → dead;
/// see [`super::registry`]). A crash is EOF from the reader, a hang or
/// over-deadline stall is reaped by the per-job deadline, a corrupt
/// reply or version mismatch is a typed error from [`read_message`]. A
/// dead worker's in-flight shard is requeued after an exponential
/// backoff ([`RetryPolicy`]). A shard that exhausts its attempts or the
/// run-wide retry budget is built inline, and so is every remaining
/// shard when the registry empties with nothing scheduled to join — at
/// once without a listener, after the join grace with one. The run
/// always completes, with the degradation visible in
/// [`SocketRunStats`].
///
/// Shards travel as **chunked streams** ([`super::chunk`]): a
/// `ChunkStart*` frame, then bounded `JobChunk` frames under an ack
/// window, so workers ingest while the shard is still arriving. A link
/// lost mid-stream requeues the whole shard — idempotent because shard
/// jobs are self-contained.
///
/// A [`FaultPlan`] ([`Self::with_fault_plan`]) injects faults
/// reproducibly from a seed; each shard's fault is consumed on its
/// first dispatch (see `tests/chaos.rs`).
#[derive(Clone, Debug)]
pub struct Coordinator<R> {
    cfg: DistConfig,
    workers: Workers,
    processes: usize,
    fan_in: usize,
    batch: usize,
    fault_plan: FaultPlan,
    job_timeout: Duration,
    retry: RetryPolicy,
    chunk_items: usize,
    chunk_window: u32,
    heartbeat_every: Duration,
    suspect_after: Duration,
    dead_after: Duration,
    join_grace: Duration,
    late_spawns: Vec<Duration>,
    report: PhantomData<fn() -> R>,
}

/// The coordinator over pipe workers; [`run`](Coordinator::run) returns
/// the flat [`ProcessResult`].
pub type ProcessRunner = Coordinator<ProcessResult>;

/// The coordinator over TCP workers; [`run`](Coordinator::run) returns
/// the [`RunReport`].
pub type SocketRunner = Coordinator<RunReport>;

/// Default per-job deadline — generous for real shard builds, tight
/// enough that an operator notices a hung fleet inside a minute.
const DEFAULT_JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Items (edges or signed updates) per [`Message::JobChunk`].
const DEFAULT_CHUNK_ITEMS: usize = 16 * 1024;
/// Unacked chunks allowed in flight per link.
const DEFAULT_CHUNK_WINDOW: u32 = 4;
/// Heartbeat probe cadence per link.
const DEFAULT_HEARTBEAT_EVERY: Duration = Duration::from_millis(100);
/// Unanswered-probe age that turns a worker suspect.
const DEFAULT_SUSPECT_AFTER: Duration = Duration::from_millis(400);
/// Unanswered-probe age that declares a worker dead.
const DEFAULT_DEAD_AFTER: Duration = Duration::from_secs(3);
/// How long an empty registry with a listener waits for a
/// (re)connection before the remaining shards degrade to inline builds.
const DEFAULT_JOIN_GRACE: Duration = Duration::from_secs(5);

impl ProcessRunner {
    /// A runner over `processes ≥ 1` pipe workers spawned via `command`
    /// ([`Coordinator::pipes`]).
    pub fn new(cfg: DistConfig, command: WorkerCommand, processes: usize) -> Self {
        Self::pipes(cfg, command, processes)
    }
}

impl SocketRunner {
    /// A runner over `processes ≥ 1` loopback TCP workers spawned via
    /// `command` ([`Coordinator::loopback`]).
    pub fn new(cfg: DistConfig, command: WorkerCommand, processes: usize) -> Self {
        Self::loopback(cfg, command, processes)
    }
}

impl<R> Coordinator<R> {
    fn with_workers(cfg: DistConfig, workers: Workers, processes: usize) -> Self {
        Coordinator {
            cfg,
            workers,
            processes,
            fan_in: DEFAULT_FAN_IN,
            batch: DEFAULT_BATCH,
            fault_plan: FaultPlan::none(),
            job_timeout: DEFAULT_JOB_TIMEOUT,
            retry: RetryPolicy::default(),
            chunk_items: DEFAULT_CHUNK_ITEMS,
            chunk_window: DEFAULT_CHUNK_WINDOW,
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            suspect_after: DEFAULT_SUSPECT_AFTER,
            dead_after: DEFAULT_DEAD_AFTER,
            join_grace: DEFAULT_JOIN_GRACE,
            late_spawns: Vec::new(),
            report: PhantomData,
        }
    }

    /// Pipe mode: spawn `processes ≥ 1` copies of `command`, each
    /// speaking the framed protocol on its stdin/stdout.
    pub fn pipes(cfg: DistConfig, command: WorkerCommand, processes: usize) -> Self {
        assert!(processes >= 1, "need at least one worker process");
        Self::with_workers(cfg, Workers::Pipes(command), processes)
    }

    /// Loopback TCP mode: bind an ephemeral loopback port and launch
    /// `processes ≥ 1` copies of `command` with `--connect ADDR`
    /// appended.
    pub fn loopback(cfg: DistConfig, command: WorkerCommand, processes: usize) -> Self {
        assert!(processes >= 1, "need at least one worker process");
        let workers = Workers::Tcp {
            listen: "127.0.0.1:0".to_string(),
            command: Some(command),
        };
        Self::with_workers(cfg, workers, processes)
    }

    /// Listen mode: bind `addr` (e.g. `0.0.0.0:7700`) and serve
    /// externally-started `coverage worker --connect HOST:PORT`
    /// processes. No workers are spawned; if none connects within the
    /// join grace, every shard is built inline.
    pub fn listen(cfg: DistConfig, addr: impl Into<String>) -> Self {
        let workers = Workers::Tcp {
            listen: addr.into(),
            command: None,
        };
        Self::with_workers(cfg, workers, 0)
    }

    /// Override the reduce fan-in (`≥ 2`).
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "fan-in must be at least 2");
        self.fan_in = fan_in;
        self
    }

    /// Override the worker update-batch size (`≥ 1`).
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch must be at least 1");
        self.batch = batch;
        self
    }

    /// Thread a deterministic [`FaultPlan`] through the run. Worker
    /// faults (crash/hang/delay/corrupt) ride in the `ChunkStart*`
    /// frame and are executed by the worker at stream completion;
    /// network faults (drop/stall/dup) are executed coordinator-side by
    /// the link's fault-aware writer. Each shard's fault is consumed on
    /// its first dispatch.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the per-job deadline. A worker that has not replied
    /// within this window is reaped and its shard requeued — the only
    /// detector that catches a *hung* worker. It must exceed any
    /// injected stall, or the stall is indistinguishable from a hang.
    pub fn with_job_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "job timeout must be positive");
        self.job_timeout = timeout;
        self
    }

    /// Override the retry/backoff discipline for failed shard jobs.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts >= 1, "need at least one attempt");
        self.retry = retry;
        self
    }

    /// Override the items carried per [`Message::JobChunk`] (`≥ 1`).
    /// Smaller chunks mean earlier ingest overlap and more frames.
    pub fn with_chunk_items(mut self, items: usize) -> Self {
        assert!(items >= 1, "chunks must carry at least one item");
        self.chunk_items = items;
        self
    }

    /// Override the per-link ack window (`≥ 1` unacked chunks).
    pub fn with_chunk_window(mut self, window: u32) -> Self {
        assert!(window >= 1, "window must be at least 1");
        self.chunk_window = window;
        self
    }

    /// Override the liveness timings: probe cadence, the unanswered
    /// probe age that turns a worker suspect, and the age that declares
    /// it dead (`every < suspect < dead`).
    pub fn with_heartbeats(mut self, every: Duration, suspect: Duration, dead: Duration) -> Self {
        assert!(
            !every.is_zero() && every < suspect && suspect < dead,
            "need probe cadence < suspect threshold < dead threshold"
        );
        self.heartbeat_every = every;
        self.suspect_after = suspect;
        self.dead_after = dead;
        self
    }

    /// How long an empty registry waits for a (re)connection before the
    /// remaining shards degrade to inline builds. Only a listener can
    /// admit a replacement, so pipe workers never wait.
    pub fn with_join_grace(mut self, grace: Duration) -> Self {
        self.join_grace = grace;
        self
    }

    /// Schedule one extra worker process to be spawned `after` the first
    /// shard is dispatched (pipe and loopback modes), so it joins a run
    /// already under way — deterministic late-joiner admission for tests
    /// and the chaos suite. May be called multiple times.
    pub fn with_late_worker_after(mut self, after: Duration) -> Self {
        self.late_spawns.push(after);
        self
    }

    /// Start the workers and drive every shard job to a snapshot: a
    /// worker's reply, or an inline build. See the module docs for the
    /// thread shape and the type-level docs for the recovery discipline.
    fn dispatch<S: ShardSketch>(
        &self,
        shards: &[Vec<S::Item>],
        params: S::Params,
    ) -> Result<(Vec<S::Snapshot>, SocketRunStats), RunError> {
        let n_shards = shards.len();
        let seed = self.cfg.seed;
        let inline = |shard: usize| S::build(params, seed, &shards[shard]).snapshot();
        let listener = match &self.workers {
            Workers::Tcp { listen, .. } => Some(TcpListener::bind(listen)?),
            Workers::Pipes(_) => None,
        };
        let addr = match &listener {
            Some(l) => l.local_addr()?.to_string(),
            None => String::new(),
        };
        let (tx, rx) = channel::<Event>();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = listener.map(|l| spawn_acceptor(l, stop.clone(), tx.clone()));

        let started = Instant::now();
        let mut children: Vec<Child> = Vec::new();
        let mut spawned: Vec<Link> = Vec::new();
        let mut pending_spawns: Vec<Instant> = Vec::new();
        // Listen mode (`processes == 0`) spawns no workers of its own.
        if self.processes > 0 {
            let want = self.processes.min(n_shards).max(1);
            let mut spawn_err: Option<std::io::Error> = None;
            for _ in 0..want {
                match self.workers.spawn(&addr, &mut children) {
                    Ok(link) => spawned.extend(link),
                    Err(e) => spawn_err = Some(e),
                }
            }
            if children.is_empty() && spawned.is_empty() {
                stop.store(true, Ordering::Release);
                drop(tx);
                if let Some(acceptor) = acceptor {
                    let _ = acceptor.join();
                }
                return Err(RunError::Spawn(spawn_err.unwrap_or_else(|| {
                    std::io::Error::other("no worker could be spawned")
                })));
            }
        }

        let mut faults = self.fault_plan.schedule(n_shards);
        let mut registry = WorkerRegistry::new();
        let mut conns: Vec<Conn> = Vec::new();
        let mut wheel = DeadlineWheel::new(0);
        let mut stats = SocketRunStats::default();

        let mut queue: VecDeque<usize> = (0..n_shards).collect();
        let mut ready_at: Vec<Instant> = vec![started; n_shards];
        let mut attempts: Vec<usize> = vec![0; n_shards];
        let mut snapshots: Vec<Option<S::Snapshot>> = (0..n_shards).map(|_| None).collect();
        let mut resolved = 0usize;
        let mut retries_spent = 0usize;
        let mut nonce_counter: u64 = 0x4E45_5400_0000_0000;
        let mut next_probe = started + self.heartbeat_every;
        let mut dispatch_started = false;
        // The registry starts empty; the grace clock starts now so a run
        // nobody connects to still terminates (inline).
        let mut empty_since: Option<Instant> = Some(started);

        // Admit a link: start its reader and writer, and send the
        // handshake probe whose first echo moves the worker joining →
        // live, so it becomes dispatchable.
        macro_rules! admit {
            ($link:expr) => {{
                let Link {
                    peer,
                    input,
                    output,
                    sever,
                } = $link;
                let ci = registry.admit(peer, dispatch_started);
                stats.workers_joined += 1;
                if dispatch_started {
                    stats.late_joiners += 1;
                }
                let shared = Arc::new(Shared {
                    acked: AtomicU32::new(0),
                    gone: AtomicBool::new(false),
                    sever,
                });
                let (cmd_tx, cmd_rx) = channel::<WriteCmd>();
                let reader = spawn_conn_reader(ci, input, tx.clone());
                let writer = spawn_conn_writer(
                    ci,
                    output,
                    shared.clone(),
                    cmd_rx,
                    self.chunk_window,
                    tx.clone(),
                );
                nonce_counter += 1;
                let _ = cmd_tx.send(WriteCmd::Frame(Message::Heartbeat {
                    nonce: nonce_counter,
                }));
                registry.note_probe(ci, nonce_counter, Instant::now());
                conns.push(Conn {
                    shared,
                    cmd: Some(cmd_tx),
                    reader: Some(reader),
                    writer: Some(writer),
                    inflight: None,
                    sent_all: false,
                    chunks_total: 0,
                    overlap_counted: false,
                });
                empty_since = None;
            }};
        }

        // A shard's dispatch failed: retry after a backoff, or build it
        // inline once its attempts or the run-wide budget run out.
        macro_rules! fail_shard {
            ($shard:expr) => {{
                let shard = $shard;
                attempts[shard] += 1;
                retries_spent += 1;
                if attempts[shard] >= self.retry.max_attempts || retries_spent > self.retry.budget {
                    snapshots[shard] = Some(inline(shard));
                    stats.shards_built_inline += 1;
                    resolved += 1;
                } else {
                    stats.retries += 1;
                    stats.shards_requeued += 1;
                    ready_at[shard] = Instant::now() + self.retry.backoff_after(attempts[shard]);
                    queue.push_front(shard);
                }
            }};
        }

        // Declare a link dead: sever it, unblock its writer, and requeue
        // whatever it owed.
        macro_rules! reap_conn {
            ($ci:expr) => {{
                let ci = $ci;
                if registry.usable(ci) {
                    stats.workers_lost += 1;
                }
                registry.mark_dead(ci);
                wheel.disarm(ci);
                conns[ci].shared.gone.store(true, Ordering::Release);
                (conns[ci].shared.sever)();
                conns[ci].cmd = None;
                if let Some(shard) = conns[ci].inflight.take() {
                    fail_shard!(shard);
                }
                if registry.usable_count() == 0 && empty_since.is_none() {
                    empty_since = Some(Instant::now());
                }
            }};
        }

        for link in spawned {
            admit!(link);
        }

        while resolved < n_shards {
            let now = Instant::now();

            // Late spawns whose time has come.
            while pending_spawns.first().is_some_and(|&at| at <= now) {
                pending_spawns.remove(0);
                if let Ok(Some(link)) = self.workers.spawn(&addr, &mut children) {
                    admit!(link);
                }
            }

            // Assign phase: every live idle link takes the next shard
            // whose backoff has matured.
            loop {
                let now = Instant::now();
                let Some(ci) = (0..conns.len()).find(|&ci| {
                    registry.dispatchable(ci)
                        && conns[ci].inflight.is_none()
                        && conns[ci].cmd.is_some()
                }) else {
                    break;
                };
                let Some(pos) = queue.iter().position(|&s| ready_at[s] <= now) else {
                    break;
                };
                let shard = queue.remove(pos).expect("position is in range");
                // Split the shard's scheduled fault by executor: worker
                // faults ride in the ChunkStart frame; network faults
                // are executed by this side's fault-aware writer.
                let fault = faults[shard].take();
                let (worker_fault, net_fault) = match fault {
                    Some(f) if f.is_network() => (None, Some(f)),
                    f => (f, None),
                };
                match net_fault {
                    Some(Fault::DropConn) => stats.conn_drops_injected += 1,
                    Some(Fault::Stall(_)) => stats.stalls_injected += 1,
                    Some(Fault::DupChunk) => stats.chunk_dups_injected += 1,
                    _ => {}
                }
                let plan = S::plan(
                    shard,
                    &shards[shard],
                    self.chunk_items,
                    params,
                    seed,
                    worker_fault,
                    self.batch,
                );
                let chunks_total = plan.chunks.len() as u32;
                stats.chunks_streamed += plan.chunks.len();
                if !dispatch_started && self.processes > 0 {
                    // Late spawns count from the first dispatch, so they
                    // join a run already under way.
                    pending_spawns = self.late_spawns.iter().map(|d| now + *d).collect();
                    pending_spawns.sort();
                }
                dispatch_started = true;
                let conn = &mut conns[ci];
                conn.shared.acked.store(0, Ordering::Release);
                conn.sent_all = false;
                conn.chunks_total = chunks_total;
                conn.overlap_counted = false;
                let sent = conn
                    .cmd
                    .as_ref()
                    .expect("dispatchable conn has a writer")
                    .send(WriteCmd::Shard {
                        shard,
                        start: plan.start,
                        chunks: plan.chunks,
                        net_fault,
                    })
                    .is_ok();
                if sent {
                    conn.inflight = Some(shard);
                    registry.job_started(ci);
                    wheel.arm(ci, now + self.job_timeout);
                } else {
                    // Writer already gone: free requeue (no attempt
                    // spent).
                    stats.shards_requeued += 1;
                    queue.push_front(shard);
                    reap_conn!(ci);
                }
            }

            // Probe phase: a fixed cadence per link, one probe
            // outstanding at a time (the oldest governs liveness).
            let now = Instant::now();
            if now >= next_probe {
                next_probe = now + self.heartbeat_every;
                for ci in 0..conns.len() {
                    if !registry.usable(ci) || registry.probe_pending(ci) {
                        continue;
                    }
                    let Some(cmd) = conns[ci].cmd.as_ref() else {
                        continue;
                    };
                    nonce_counter += 1;
                    let nonce = nonce_counter;
                    if cmd
                        .send(WriteCmd::Frame(Message::Heartbeat { nonce }))
                        .is_ok()
                    {
                        registry.note_probe(ci, nonce, now);
                    } else {
                        reap_conn!(ci);
                    }
                }
            }

            // Liveness phase: grade every pending probe's age.
            for ci in 0..conns.len() {
                match registry.check_liveness(ci, now, self.suspect_after, self.dead_after) {
                    Liveness::TurnedDead => reap_conn!(ci),
                    Liveness::TurnedSuspect | Liveness::Unchanged => {}
                }
            }

            if resolved >= n_shards {
                break;
            }

            // Degradation: registry empty and nothing scheduled to join
            // → build the rest inline, at once when no listener can
            // admit a replacement, else once the join grace expires.
            if registry.usable_count() == 0 && pending_spawns.is_empty() {
                let since = *empty_since.get_or_insert(now);
                if acceptor.is_none() || now.saturating_duration_since(since) >= self.join_grace {
                    break;
                }
            }

            // Wait phase: the next frame, or whichever timer fires
            // first. The probe cadence bounds the wait, so the loop
            // always wakes.
            let mut wake = next_probe;
            if let Some(t) = wheel.next_deadline() {
                wake = wake.min(t);
            }
            if let Some(&t) = pending_spawns.first() {
                wake = wake.min(t);
            }
            if let Some(since) = empty_since {
                if registry.usable_count() == 0 && pending_spawns.is_empty() {
                    wake = wake.min(since + self.join_grace);
                }
            }
            if (0..conns.len()).any(|ci| registry.dispatchable(ci) && conns[ci].inflight.is_none())
            {
                if let Some(t) = queue.iter().map(|&s| ready_at[s]).min() {
                    wake = wake.min(t);
                }
            }

            match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok(Event::Joined(link)) => admit!(link),
                Ok(Event::Frame(ci, Ok((msg, bytes)))) => {
                    if !registry.usable(ci) {
                        continue; // Stale event from a reaped link.
                    }
                    match msg {
                        Message::Heartbeat { nonce } => {
                            registry.note_echo(ci, nonce, Instant::now());
                        }
                        Message::ChunkAck { shard, index } => {
                            let conn = &mut conns[ci];
                            if conn.inflight == Some(shard as usize) {
                                conn.shared.acked.store(index + 1, Ordering::Release);
                                if !conn.sent_all
                                    && index + 1 < conn.chunks_total
                                    && !conn.overlap_counted
                                {
                                    // Ingest demonstrably began before
                                    // the stream finished sending.
                                    conn.overlap_counted = true;
                                    stats.overlap_shards += 1;
                                }
                            }
                        }
                        msg => {
                            let inflight = conns[ci].inflight;
                            match inflight {
                                Some(shard) => match S::reply(msg) {
                                    Some(snap) => {
                                        if snapshots[shard].is_none() {
                                            snapshots[shard] = Some(snap);
                                            resolved += 1;
                                        }
                                        stats.wire_bytes += bytes;
                                        conns[ci].inflight = None;
                                        registry.job_finished(ci);
                                        wheel.disarm(ci);
                                    }
                                    None => {
                                        // Decoded frame, wrong species of
                                        // reply: a protocol violation.
                                        stats.proto_faults += 1;
                                        reap_conn!(ci);
                                    }
                                },
                                None => {
                                    // Unsolicited reply.
                                    stats.proto_faults += 1;
                                    reap_conn!(ci);
                                }
                            }
                        }
                    }
                }
                Ok(Event::Frame(ci, Err(e))) => {
                    if !registry.usable(ci) {
                        continue;
                    }
                    if matches!(e, ProtoError::Wire(_)) {
                        // Corrupt frame or version mismatch — typed,
                        // counted, recovered.
                        stats.proto_faults += 1;
                    }
                    reap_conn!(ci);
                }
                Ok(Event::SentAll(ci, shard)) => {
                    if registry.usable(ci) && conns[ci].inflight == Some(shard) {
                        conns[ci].sent_all = true;
                    }
                }
                Ok(Event::WriteErr(ci)) => {
                    if registry.usable(ci) {
                        reap_conn!(ci);
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    for ci in wheel.expired(now) {
                        if !registry.usable(ci) {
                            continue;
                        }
                        // The deadline reaper: catches hung workers and
                        // over-deadline stalls.
                        stats.deadline_reaps += 1;
                        reap_conn!(ci);
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        // Unresolved shards — empty registry or exhausted budgets —
        // degrade to inline builds so the run still completes.
        for (shard, snap) in snapshots.iter_mut().enumerate() {
            if snap.is_none() {
                *snap = Some(inline(shard));
                stats.shards_built_inline += 1;
            }
        }

        // Wind down: stop accepting, polite shutdown to survivors, then
        // sever everything and join the threads.
        stop.store(true, Ordering::Release);
        for (ci, conn) in conns.iter().enumerate() {
            if registry.usable(ci) {
                if let Some(cmd) = conn.cmd.as_ref() {
                    let _ = cmd.send(WriteCmd::Frame(Message::Shutdown));
                    let _ = cmd.send(WriteCmd::Stop);
                }
            }
            conn.shared.gone.store(true, Ordering::Release);
        }
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for conn in &mut conns {
            conn.cmd = None;
            (conn.shared.sever)();
            if let Some(writer) = conn.writer.take() {
                let _ = writer.join();
            }
            if let Some(reader) = conn.reader.take() {
                let _ = reader.join();
            }
        }
        drop(tx);
        if let Some(acceptor) = acceptor {
            let _ = acceptor.join();
        }

        stats.suspect_transitions = registry.suspect_transitions();
        stats.suspect_recoveries = registry.suspect_recoveries();
        stats.heartbeat = registry.aggregate_rtt();
        stats.workers = registry.summaries();

        Ok((
            snapshots
                .into_iter()
                .map(|s| s.expect("every shard resolved"))
                .collect(),
            stats,
        ))
    }

    /// Run the insertion-only pipeline over the workers.
    ///
    /// Returns `Err` only when the listener cannot bind or not a single
    /// worker could be spawned; every failure after that is recovered
    /// per the type-level docs.
    pub fn run(&self, stream: &dyn EdgeStream) -> Result<R, RunError>
    where
        R: From<RunReport>,
    {
        self.execute::<ThresholdSketch>(stream).map(R::from)
    }

    /// Run the dynamic (insert/delete) pipeline over the workers.
    ///
    /// # Panics
    ///
    /// Panics if no subsampling level of the merged sketch decodes (the
    /// sketch was sized with too few levels for the surviving edges).
    pub fn run_dynamic(&self, stream: &dyn DynamicEdgeStream) -> Result<RunReport, RunError> {
        self.execute::<DynamicSketch>(stream)
    }

    /// The pipeline with its map step on the workers: stream every shard
    /// as a chunked job, then restore the replied snapshots (or inline
    /// builds) in shard order.
    fn execute<S: ShardSketch>(&self, stream: &S::Stream<'_>) -> Result<RunReport, RunError> {
        run_pipeline::<S, RunError>(
            stream,
            &self.cfg,
            self.batch,
            self.fan_in,
            |shards, params| {
                let (snapshots, stats) = self.dispatch::<S>(shards, params)?;
                Ok(Mapped {
                    locals: snapshots.iter().map(S::restore).collect(),
                    per_machine: Vec::new(),
                    stats,
                })
            },
        )
    }
}
