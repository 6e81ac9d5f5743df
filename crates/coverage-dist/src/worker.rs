//! The worker half of the distributed runtime.
//!
//! A worker is the CLI binary re-invoked in its hidden `worker` mode. It
//! serves framed messages ([`proto`](crate::proto)) on one link: its
//! stdin/stdout when the coordinator spawned it as a pipe worker
//! ([`run_stdio`]), or a TCP connection it dials itself
//! ([`run_connect`]). The coordinator streams each shard as a
//! `ChunkStart*` frame and bounded [`Message::JobChunk`] frames; the
//! worker ingests the chunks strictly in order, acks each one once it is
//! ingested, and writes the snapshot back when the stream completes. A
//! [`Message::Heartbeat`] is echoed back verbatim between chunks — the
//! coordinator's liveness/version probe. The one-frame
//! [`Message::JobSketch`]/[`Message::JobDynamic`] jobs are still served,
//! one in-order reply each, though no executor sends them any more. The
//! worker holds no cross-job state: determinism lives entirely in the
//! job (params + seed + shard), exactly as for the in-process executors.
//!
//! Fault injection: a job may carry a [`Fault`] the worker executes
//! faithfully — [`Fault::Crash`] exits the loop without replying (the
//! coordinator sees EOF, the same observable as a crashed or killed
//! worker), [`Fault::Hang`] stalls forever (only the coordinator's
//! deadline reaper can detect it), [`Fault::Delay`] sleeps before
//! replying normally, and [`Fault::CorruptReply`] flips one bit of the
//! reply frame (the coordinator's checksum catches it as a typed error).
//! Each triggers the matching detection/recovery path in
//! [`Coordinator`](crate::Coordinator).
//!
//! A worker whose link the coordinator severs exits quietly with status
//! 0, as on a clean EOF: the cut is the coordinator's decision, not a
//! worker failure.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};

use coverage_sketch::{DynamicSketch, DynamicSnapshot, SketchSnapshot, ThresholdSketch};

use crate::fault::Fault;
use crate::net::chunk::{ChunkVerdict, ChunkedBuild};
use crate::proto::{read_message, write_corrupted_message, write_message, Message, ProtoError};

/// Execute a job's pre-reply fault, if any. Returns `false` when the
/// worker must die silently (crash), `true` when it should proceed to
/// reply (possibly after a delay). [`Fault::Hang`] never returns.
fn pre_reply_fault(fault: &Option<Fault>) -> bool {
    match fault {
        Some(Fault::Crash) => false,
        Some(Fault::Hang) => loop {
            // Stall forever: the parent's deadline reaper kills us.
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
        Some(Fault::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            true
        }
        Some(Fault::CorruptReply) | None => true,
        // Network faults are executed coordinator-side by the link
        // writer and never ride in job frames; a worker that does see
        // one treats it as no fault (the codec is total either way).
        Some(Fault::DropConn) | Some(Fault::Stall(_)) | Some(Fault::DupChunk) => true,
    }
}

/// Write `reply`, honoring a [`Fault::CorruptReply`] injection.
fn write_reply(
    output: &mut impl Write,
    reply: &Message,
    fault: &Option<Fault>,
    seed: u64,
) -> Result<u64, ProtoError> {
    match fault {
        Some(Fault::CorruptReply) => write_corrupted_message(output, reply, seed),
        _ => write_message(output, reply),
    }
}

/// Serve framed jobs from `input` until EOF, shutdown, or an injected
/// failure. Every job produces exactly one in-order reply on `output`;
/// a chunked job also acks each chunk as it is ingested.
///
/// Returns `Ok(())` on a clean end (EOF between frames, an explicit
/// [`Message::Shutdown`], or an injected failure) and the underlying
/// [`ProtoError`] when the link breaks or a frame is corrupt.
pub fn worker_loop(input: &mut impl Read, output: &mut impl Write) -> Result<(), ProtoError> {
    // At most one chunked shard stream is open at a time (the
    // coordinator never pipelines a second job before the reply).
    let mut chunked: Option<ChunkedBuild> = None;
    // The (shard, chunk count) of the most recently completed stream,
    // so a duplicate of its tail arriving *after* completion is
    // recognized and dropped instead of killing the connection.
    let mut finished: Option<(u32, u32)> = None;
    loop {
        let msg = match read_message(input) {
            Ok((msg, _)) => msg,
            Err(ProtoError::Eof) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Message::JobSketch {
                params,
                seed,
                fault,
                batch,
                edges,
                ..
            } => {
                if !pre_reply_fault(&fault) {
                    // Injected death: leave without replying. The parent
                    // observes EOF on our stdout, indistinguishable from
                    // a crash.
                    return Ok(());
                }
                let mut sketch = ThresholdSketch::new(params, seed);
                for chunk in edges.chunks(batch.max(1)) {
                    sketch.update_batch(chunk);
                }
                let reply = Message::ReplySketch {
                    snapshot: SketchSnapshot::of(&sketch),
                };
                write_reply(output, &reply, &fault, seed)?;
            }
            Message::JobDynamic {
                params,
                seed,
                fault,
                batch,
                updates,
                ..
            } => {
                if !pre_reply_fault(&fault) {
                    return Ok(());
                }
                let mut sketch = DynamicSketch::new(params, seed);
                for chunk in updates.chunks(batch.max(1)) {
                    sketch.update_batch(chunk);
                }
                let reply = Message::ReplyDynamic {
                    snapshot: DynamicSnapshot::of(&sketch),
                };
                write_reply(output, &reply, &fault, seed)?;
            }
            Message::Heartbeat { nonce } => {
                // Liveness/version probe: echo the nonce verbatim so the
                // parent can match reply to probe.
                write_message(output, &Message::Heartbeat { nonce })?;
            }
            Message::ChunkStartSketch {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            } => {
                if chunked.is_some() {
                    return Err(ProtoError::Wire(coverage_sketch::WireError::Malformed(
                        "chunk stream opened while one is in progress",
                    )));
                }
                let build = ChunkedBuild::sketch(shard, chunks, params, seed, fault, batch);
                if build.complete() {
                    // Empty shard: reply immediately.
                    if !finish_chunked(output, build)? {
                        return Ok(());
                    }
                } else {
                    chunked = Some(build);
                }
            }
            Message::ChunkStartDynamic {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            } => {
                if chunked.is_some() {
                    return Err(ProtoError::Wire(coverage_sketch::WireError::Malformed(
                        "chunk stream opened while one is in progress",
                    )));
                }
                let build = ChunkedBuild::dynamic(shard, chunks, params, seed, fault, batch);
                if build.complete() {
                    if !finish_chunked(output, build)? {
                        return Ok(());
                    }
                } else {
                    chunked = Some(build);
                }
            }
            Message::JobChunk {
                shard,
                index,
                count,
                payload,
            } => {
                let Some(build) = chunked.as_mut() else {
                    if finished == Some((shard, count)) && index < count {
                        // A straggling duplicate from the stream that
                        // just completed: dropped like any other replay.
                        continue;
                    }
                    return Err(ProtoError::Wire(coverage_sketch::WireError::Malformed(
                        "chunk without an open stream",
                    )));
                };
                match build.accept(shard, index, count, payload)? {
                    ChunkVerdict::Ingested => {
                        // Ack means *ingested*: the coordinator's flow
                        // control and overlap observation both rely on
                        // that.
                        write_message(output, &Message::ChunkAck { shard, index })?;
                        if build.complete() {
                            let build = chunked.take().expect("stream is open");
                            finished = Some((shard, count));
                            if !finish_chunked(output, build)? {
                                return Ok(());
                            }
                        }
                    }
                    // A replayed chunk: dropped silently — no ack, no
                    // ingest, sketch untouched.
                    ChunkVerdict::DuplicateRejected => {}
                }
            }
            Message::Shutdown => return Ok(()),
            Message::ReplySketch { .. }
            | Message::ReplyDynamic { .. }
            | Message::ChunkAck { .. } => {
                // Replies and acks flow worker → parent only; receiving
                // one here means the pipes are crossed.
                return Err(ProtoError::Wire(coverage_sketch::WireError::Malformed(
                    "worker received a reply message",
                )));
            }
        }
    }
}

/// Close a completed chunk stream: execute its pre-reply fault and
/// write the reply. Returns `false` when the injected fault says the
/// worker must die silently.
fn finish_chunked(output: &mut impl Write, build: ChunkedBuild) -> Result<bool, ProtoError> {
    let (reply, fault, seed) = build.finish()?;
    if !pre_reply_fault(&fault) {
        return Ok(false);
    }
    write_reply(output, &reply, &fault, seed)?;
    Ok(true)
}

/// Whether a [`worker_loop`] error only says the coordinator severed
/// the link — killed the pipe or shut the connection down while the
/// worker was writing an ack or a reply.
fn link_severed(e: &ProtoError) -> bool {
    matches!(e, ProtoError::Io(io) if matches!(io.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset))
}

/// The process exit code for a finished [`worker_loop`]: 0 for a clean
/// end or a severed link; otherwise the error is printed and the code
/// is 1.
fn exit_code(result: Result<(), ProtoError>) -> i32 {
    match result {
        Err(e) if !link_severed(&e) => {
            eprintln!("worker: {e}");
            1
        }
        _ => 0,
    }
}

/// Run [`worker_loop`] over this process's stdin/stdout — the body of
/// the CLI's hidden `worker` subcommand. Returns the process exit code.
pub fn run_stdio() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = BufReader::new(stdin.lock());
    let mut output = BufWriter::new(stdout.lock());
    exit_code(worker_loop(&mut input, &mut output))
}

/// Dial the coordinator at `addr` and run [`worker_loop`] over the TCP
/// connection — the body of `coverage worker --connect HOST:PORT`.
/// Returns the process exit code. The framed protocol is byte-identical
/// to the pipe transport.
pub fn run_connect(addr: &str) -> i32 {
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: connect {addr}: {e}");
            return 1;
        }
    };
    // Replies and acks are latency-sensitive (the coordinator's flow
    // control waits on acks); don't let Nagle batch them.
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("worker: {e}");
            return 1;
        }
    };
    let mut input = BufReader::new(read_half);
    let mut output = BufWriter::new(stream);
    exit_code(worker_loop(&mut input, &mut output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::ShipFormat;
    use coverage_core::Edge;
    use coverage_sketch::{DynamicSketchParams, SketchParams};
    use coverage_stream::{SignedEdge, VecStream};

    fn shard_edges(n: u64) -> Vec<Edge> {
        (0..n).map(|e| Edge::new((e % 5) as u32, e * 7)).collect()
    }

    #[test]
    fn worker_builds_the_same_sketch_as_inline() {
        let params = SketchParams::with_budget(5, 2, 0.5, 120);
        let edges = shard_edges(600);
        let mut jobs = Vec::new();
        write_message(
            &mut jobs,
            &Message::JobSketch {
                params,
                seed: 33,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 128,
                edges: edges.clone(),
            },
        )
        .unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let (reply, _) = read_message(&mut &replies[..]).unwrap();
        let inline = ThresholdSketch::from_stream(params, 33, &VecStream::new(5, edges));
        match reply {
            Message::ReplySketch { snapshot, .. } => {
                assert_eq!(snapshot, SketchSnapshot::of(&inline));
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn worker_answers_jobs_in_order() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mut jobs = Vec::new();
        for seed in [1u64, 2, 3] {
            write_message(
                &mut jobs,
                &Message::JobSketch {
                    params,
                    seed,
                    ship: ShipFormat::Binary,
                    fault: None,
                    batch: 64,
                    edges: shard_edges(100),
                },
            )
            .unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for seed in [1u64, 2, 3] {
            let (reply, _) = read_message(&mut cursor).unwrap();
            match reply {
                Message::ReplySketch { snapshot, .. } => assert_eq!(snapshot.raw_seed, {
                    coverage_hash::UnitHash::new(seed).seed()
                }),
                other => panic!("wrong reply: {other:?}"),
            }
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn injected_failure_dies_without_reply() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mut jobs = Vec::new();
        write_message(
            &mut jobs,
            &Message::JobSketch {
                params,
                seed: 1,
                ship: ShipFormat::Binary,
                fault: Some(Fault::Crash),
                batch: 64,
                edges: shard_edges(50),
            },
        )
        .unwrap();
        // A second job that would normally be answered.
        write_message(
            &mut jobs,
            &Message::JobSketch {
                params,
                seed: 2,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 64,
                edges: shard_edges(50),
            },
        )
        .unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        assert!(replies.is_empty(), "failing worker must not reply");
    }

    #[test]
    fn dynamic_job_roundtrips_through_worker() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(4, 2, 0.5, 90));
        let updates: Vec<SignedEdge> = (0..300u64)
            .map(|e| {
                let edge = Edge::new((e % 4) as u32, e);
                if e % 5 == 0 {
                    SignedEdge::delete(edge)
                } else {
                    SignedEdge::insert(edge)
                }
            })
            .collect();
        let mut jobs = Vec::new();
        write_message(
            &mut jobs,
            &Message::JobDynamic {
                params,
                seed: 19,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 77,
                updates: updates.clone(),
            },
        )
        .unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let (reply, _) = read_message(&mut &replies[..]).unwrap();
        let mut inline = DynamicSketch::new(params, 19);
        inline.update_batch(&updates);
        match reply {
            Message::ReplyDynamic { snapshot, .. } => {
                assert_eq!(snapshot, DynamicSnapshot::of(&inline));
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn shutdown_ends_the_loop() {
        let mut jobs = Vec::new();
        write_message(&mut jobs, &Message::Shutdown).unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    fn delayed_job_still_replies_identically() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let edges = shard_edges(80);
        let replies = |fault| {
            let mut jobs = Vec::new();
            write_message(
                &mut jobs,
                &Message::JobSketch {
                    params,
                    seed: 4,
                    ship: ShipFormat::Binary,
                    fault,
                    batch: 32,
                    edges: edges.clone(),
                },
            )
            .unwrap();
            let mut out = Vec::new();
            worker_loop(&mut &jobs[..], &mut out).unwrap();
            out
        };
        // A short delay changes the timing, never the bytes.
        assert_eq!(replies(Some(Fault::Delay(5))), replies(None));
    }

    #[test]
    fn corrupt_reply_fails_the_parent_checksum() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mut jobs = Vec::new();
        write_message(
            &mut jobs,
            &Message::JobSketch {
                params,
                seed: 21,
                ship: ShipFormat::Binary,
                fault: Some(Fault::CorruptReply),
                batch: 32,
                edges: shard_edges(120),
            },
        )
        .unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        assert!(!replies.is_empty(), "corrupt replies still travel");
        assert!(
            matches!(read_message(&mut &replies[..]), Err(ProtoError::Wire(_))),
            "a corrupted reply must be a typed wire error on the parent side"
        );
    }

    #[test]
    fn heartbeat_is_echoed_verbatim() {
        let mut jobs = Vec::new();
        write_message(&mut jobs, &Message::Heartbeat { nonce: 77 }).unwrap();
        write_message(&mut jobs, &Message::Heartbeat { nonce: u64::MAX }).unwrap();
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for expect in [77u64, u64::MAX] {
            match read_message(&mut cursor).unwrap().0 {
                Message::Heartbeat { nonce } => assert_eq!(nonce, expect),
                other => panic!("wrong reply: {other:?}"),
            }
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn chunked_stream_acks_every_chunk_and_replies_like_a_blob_job() {
        let params = SketchParams::with_budget(5, 2, 0.5, 120);
        let edges = shard_edges(600);
        let plan = crate::net::chunk::plan_sketch(4, &edges, 100, params, 33, None, 128);
        let mut jobs = Vec::new();
        write_message(&mut jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            write_message(&mut jobs, chunk).unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for expect in 0..6u32 {
            match read_message(&mut cursor).unwrap().0 {
                Message::ChunkAck { shard, index } => {
                    assert_eq!((shard, index), (4, expect));
                }
                other => panic!("expected an ack: {other:?}"),
            }
        }
        let inline = ThresholdSketch::from_stream(params, 33, &VecStream::new(5, edges));
        match read_message(&mut cursor).unwrap().0 {
            Message::ReplySketch { snapshot, .. } => {
                assert_eq!(snapshot, SketchSnapshot::of(&inline));
            }
            other => panic!("wrong reply: {other:?}"),
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn duplicated_chunks_are_not_acked_twice_and_never_double_ingested() {
        // Dynamic build: the linear sketch is not idempotent, so a
        // duplicate that slipped through would change the snapshot.
        let params = DynamicSketchParams::new(SketchParams::with_budget(4, 2, 0.5, 90));
        let updates: Vec<SignedEdge> = (0..300u64)
            .map(|e| SignedEdge::insert(Edge::new((e % 4) as u32, e)))
            .collect();
        let plan = crate::net::chunk::plan_dynamic(0, &updates, 64, params, 19, None, 77);
        let mut jobs = Vec::new();
        write_message(&mut jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            // Every chunk delivered twice — the dup@N fault's shape.
            write_message(&mut jobs, chunk).unwrap();
            write_message(&mut jobs, chunk).unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        let mut acks = 0;
        loop {
            match read_message(&mut cursor).unwrap().0 {
                Message::ChunkAck { .. } => acks += 1,
                Message::ReplyDynamic { snapshot, .. } => {
                    let mut inline = DynamicSketch::new(params, 19);
                    for sub in updates.chunks(77) {
                        inline.update_batch(sub);
                    }
                    assert_eq!(snapshot, DynamicSnapshot::of(&inline));
                    break;
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert_eq!(acks, plan.chunks.len(), "one ack per unique chunk");
        assert!(cursor.is_empty());
    }

    #[test]
    fn chunk_gap_is_a_typed_error_and_crash_fault_ends_a_chunked_stream() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        // Gap: a chunk stream whose first frame has index 1.
        let mut jobs = Vec::new();
        let plan = crate::net::chunk::plan_sketch(0, &shard_edges(100), 40, params, 1, None, 32);
        write_message(&mut jobs, &plan.start).unwrap();
        write_message(&mut jobs, &plan.chunks[1]).unwrap();
        let mut replies = Vec::new();
        assert!(worker_loop(&mut &jobs[..], &mut replies).is_err());

        // A crash fault on the stream kills the worker after the last
        // chunk, without a reply (acks still travel).
        let mut jobs = Vec::new();
        let plan = crate::net::chunk::plan_sketch(
            0,
            &shard_edges(100),
            40,
            params,
            1,
            Some(Fault::Crash),
            32,
        );
        write_message(&mut jobs, &plan.start).unwrap();
        for chunk in &plan.chunks {
            write_message(&mut jobs, chunk).unwrap();
        }
        let mut replies = Vec::new();
        worker_loop(&mut &jobs[..], &mut replies).unwrap();
        let mut cursor = &replies[..];
        for _ in 0..plan.chunks.len() {
            assert!(matches!(
                read_message(&mut cursor).unwrap().0,
                Message::ChunkAck { .. }
            ));
        }
        assert!(cursor.is_empty(), "crashing stream must not reply");
    }

    #[test]
    fn only_a_severed_link_counts_as_a_quiet_exit() {
        use std::io::Error;
        for kind in [ErrorKind::BrokenPipe, ErrorKind::ConnectionReset] {
            assert!(link_severed(&ProtoError::Io(Error::from(kind))), "{kind:?}");
        }
        // A mid-frame cut, any other I/O error and a corrupt frame are
        // worker failures that print and exit 1.
        for kind in [ErrorKind::UnexpectedEof, ErrorKind::PermissionDenied] {
            assert!(
                !link_severed(&ProtoError::Io(Error::from(kind))),
                "{kind:?}"
            );
        }
        let corrupt = coverage_sketch::WireError::Malformed("corrupt");
        assert!(!link_severed(&ProtoError::Wire(corrupt)));
        assert!(!link_severed(&ProtoError::Eof));
        assert_eq!(exit_code(Ok(())), 0);
        assert_eq!(
            exit_code(Err(ProtoError::Io(Error::from(ErrorKind::BrokenPipe)))),
            0
        );
    }

    #[test]
    fn old_version_frame_is_a_typed_error_not_a_hang() {
        // A version-1 frame (the version field is validated before the
        // checksum, so patching the bytes is enough to simulate an old
        // peer).
        let mut jobs = Vec::new();
        write_message(&mut jobs, &Message::Heartbeat { nonce: 1 }).unwrap();
        jobs[4] = 1;
        jobs[5] = 0;
        let mut replies = Vec::new();
        let err = worker_loop(&mut &jobs[..], &mut replies).unwrap_err();
        assert!(matches!(
            err,
            ProtoError::Wire(coverage_sketch::WireError::UnsupportedVersion { found: 1 })
        ));
        assert!(replies.is_empty());
    }
}
