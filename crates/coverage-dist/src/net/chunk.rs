//! Chunked shard streaming: the coordinator-side **plan** that splits a
//! shard into a `ChunkStart*` frame plus bounded [`Message::JobChunk`]
//! frames, and the worker-side [`ChunkedBuild`] state machine that
//! ingests those chunks strictly in order.
//!
//! Chunking exists to overlap partition and map: a worker starts
//! `update_batch` ingest on the first chunk instead of waiting for its
//! whole shard to arrive, and the coordinator observes the overlap
//! through [`Message::ChunkAck`] frames (an ack means *ingested*, not
//! merely received). The stream is strictly ordered — chunk `i+1` is
//! only ever ingested after chunk `i` — so the bytes fed to the sketch
//! are identical to the blob job's, and the reply snapshot is
//! bit-identical to an unchunked build by construction. A duplicated
//! chunk (the `dup@N` network fault, or a retransmitting middlebox) is
//! rejected by index without touching the sketch; a gap or a
//! chunk-count mismatch is a typed error that kills the connection
//! rather than risking a silently wrong sketch.

use coverage_core::Edge;
use coverage_sketch::{
    DynamicSketch, DynamicSketchParams, DynamicSnapshot, SketchParams, SketchSnapshot,
    ThresholdSketch, WireError,
};
use coverage_stream::SignedEdge;

use crate::fault::Fault;
use crate::proto::{ChunkPayload, Message, ProtoError};

/// A shard's job rendered as a chunked stream: the opening
/// `ChunkStart*` frame and the [`Message::JobChunk`] frames that follow
/// it, in send order.
pub struct ChunkPlan {
    /// The `ChunkStartSketch`/`ChunkStartDynamic` frame.
    pub start: Message,
    /// The `JobChunk` frames, index order.
    pub chunks: Vec<Message>,
}

fn chunk_count(items: usize, per_chunk: usize) -> u32 {
    (items.div_ceil(per_chunk.max(1))) as u32
}

/// Split an insertion-only shard into a chunked stream carrying at most
/// `per_chunk` edges per [`Message::JobChunk`]. An empty shard yields a
/// start frame with `chunks == 0` and no chunk frames.
#[allow(clippy::too_many_arguments)]
pub fn plan_sketch(
    shard: u32,
    edges: &[Edge],
    per_chunk: usize,
    params: SketchParams,
    seed: u64,
    fault: Option<Fault>,
    batch: usize,
) -> ChunkPlan {
    let per_chunk = per_chunk.max(1);
    let count = chunk_count(edges.len(), per_chunk);
    let chunks = edges
        .chunks(per_chunk)
        .enumerate()
        .map(|(i, slice)| Message::JobChunk {
            shard,
            index: i as u32,
            count,
            payload: ChunkPayload::Edges(slice.to_vec()),
        })
        .collect();
    ChunkPlan {
        start: Message::ChunkStartSketch {
            shard,
            chunks: count,
            params,
            seed,
            fault,
            batch,
        },
        chunks,
    }
}

/// Split a dynamic shard into a chunked stream carrying at most
/// `per_chunk` signed updates per [`Message::JobChunk`].
#[allow(clippy::too_many_arguments)]
pub fn plan_dynamic(
    shard: u32,
    updates: &[SignedEdge],
    per_chunk: usize,
    params: DynamicSketchParams,
    seed: u64,
    fault: Option<Fault>,
    batch: usize,
) -> ChunkPlan {
    let per_chunk = per_chunk.max(1);
    let count = chunk_count(updates.len(), per_chunk);
    let chunks = updates
        .chunks(per_chunk)
        .enumerate()
        .map(|(i, slice)| Message::JobChunk {
            shard,
            index: i as u32,
            count,
            payload: ChunkPayload::Updates(slice.to_vec()),
        })
        .collect();
    ChunkPlan {
        start: Message::ChunkStartDynamic {
            shard,
            chunks: count,
            params,
            seed,
            fault,
            batch,
        },
        chunks,
    }
}

enum BuildKind {
    Sketch(ThresholdSketch),
    Dynamic(DynamicSketch),
}

/// What [`ChunkedBuild::accept`] decided about one incoming chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkVerdict {
    /// The chunk was in order and has been ingested; ack it.
    Ingested,
    /// A duplicate of an already-ingested chunk (its index is behind the
    /// cursor). Dropped without touching the sketch and without an ack —
    /// re-acking a duplicate could double-advance coordinator flow
    /// control.
    DuplicateRejected,
}

/// The worker-side state of one in-progress chunked shard build:
/// sketch under construction, strict in-order cursor, and the reply
/// metadata carried by the opening `ChunkStart*` frame.
pub struct ChunkedBuild {
    shard: u32,
    count: u32,
    next: u32,
    seed: u64,
    fault: Option<Fault>,
    batch: usize,
    kind: BuildKind,
    dups_rejected: u64,
}

fn malformed(what: &'static str) -> ProtoError {
    ProtoError::Wire(WireError::Malformed(what))
}

impl ChunkedBuild {
    /// Open an insertion-only build from a
    /// [`Message::ChunkStartSketch`]'s fields.
    pub fn sketch(
        shard: u32,
        count: u32,
        params: SketchParams,
        seed: u64,
        fault: Option<Fault>,
        batch: usize,
    ) -> Self {
        ChunkedBuild {
            shard,
            count,
            next: 0,
            seed,
            fault,
            batch,
            kind: BuildKind::Sketch(ThresholdSketch::new(params, seed)),
            dups_rejected: 0,
        }
    }

    /// Open a dynamic build from a [`Message::ChunkStartDynamic`]'s
    /// fields.
    pub fn dynamic(
        shard: u32,
        count: u32,
        params: DynamicSketchParams,
        seed: u64,
        fault: Option<Fault>,
        batch: usize,
    ) -> Self {
        ChunkedBuild {
            shard,
            count,
            next: 0,
            seed,
            fault,
            batch,
            kind: BuildKind::Dynamic(DynamicSketch::new(params, seed)),
            dups_rejected: 0,
        }
    }

    /// The shard this build belongs to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Whether every announced chunk has been ingested.
    pub fn complete(&self) -> bool {
        self.next == self.count
    }

    /// Duplicate chunks rejected so far.
    pub fn dups_rejected(&self) -> u64 {
        self.dups_rejected
    }

    /// Feed one [`Message::JobChunk`]'s fields to the build.
    ///
    /// In-order chunks are ingested through `update_batch` in
    /// `batch`-sized sub-slices (bit-identical to the blob job's ingest
    /// order). A chunk whose index is **behind** the cursor is a
    /// duplicate: rejected, counted, sketch untouched. A chunk **ahead**
    /// of the cursor (a gap), a chunk-count mismatch, a wrong shard id,
    /// a payload-kind mismatch, or a chunk past a completed stream is a
    /// typed [`ProtoError`] — the stream is unrecoverable and the
    /// coordinator must requeue the whole shard.
    pub fn accept(
        &mut self,
        shard: u32,
        index: u32,
        count: u32,
        payload: ChunkPayload,
    ) -> Result<ChunkVerdict, ProtoError> {
        if shard != self.shard {
            return Err(malformed("chunk for a different shard"));
        }
        if count != self.count {
            return Err(malformed("chunk count mismatch within a stream"));
        }
        if index < self.next {
            self.dups_rejected += 1;
            return Ok(ChunkVerdict::DuplicateRejected);
        }
        if self.complete() || index > self.next {
            return Err(malformed("chunk gap: stream is not in order"));
        }
        let batch = self.batch.max(1);
        match (&mut self.kind, payload) {
            (BuildKind::Sketch(sketch), ChunkPayload::Edges(edges)) => {
                for sub in edges.chunks(batch) {
                    sketch.update_batch(sub);
                }
            }
            (BuildKind::Dynamic(sketch), ChunkPayload::Updates(updates)) => {
                for sub in updates.chunks(batch) {
                    sketch.update_batch(sub);
                }
            }
            _ => return Err(malformed("chunk payload kind mismatch")),
        }
        self.next += 1;
        Ok(ChunkVerdict::Ingested)
    }

    /// Close a complete build: returns the reply [`Message`] plus the
    /// fault/seed the worker must honor around writing it (mirroring the
    /// blob-job reply path). Errors if chunks are still outstanding.
    pub fn finish(self) -> Result<(Message, Option<Fault>, u64), ProtoError> {
        if !self.complete() {
            return Err(malformed("chunk stream finished early"));
        }
        let reply = match self.kind {
            BuildKind::Sketch(sketch) => Message::ReplySketch {
                snapshot: SketchSnapshot::of(&sketch),
            },
            BuildKind::Dynamic(sketch) => Message::ReplyDynamic {
                snapshot: DynamicSnapshot::of(&sketch),
            },
        };
        Ok((reply, self.fault, self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(n: u64) -> Vec<Edge> {
        (0..n)
            .map(|e| Edge::new((e % 7) as u32, e * 3 + 1))
            .collect()
    }

    fn updates(n: u64) -> Vec<SignedEdge> {
        (0..n)
            .map(|e| {
                let edge = Edge::new((e % 5) as u32, e);
                if e % 4 == 0 {
                    SignedEdge::delete(edge)
                } else {
                    SignedEdge::insert(edge)
                }
            })
            .collect()
    }

    fn drive(plan: ChunkPlan) -> ChunkedBuild {
        let mut build = match plan.start {
            Message::ChunkStartSketch {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            } => ChunkedBuild::sketch(shard, chunks, params, seed, fault, batch),
            Message::ChunkStartDynamic {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            } => ChunkedBuild::dynamic(shard, chunks, params, seed, fault, batch),
            other => panic!("not a chunk start: {other:?}"),
        };
        for msg in plan.chunks {
            match msg {
                Message::JobChunk {
                    shard,
                    index,
                    count,
                    payload,
                } => {
                    assert_eq!(
                        build.accept(shard, index, count, payload).unwrap(),
                        ChunkVerdict::Ingested
                    );
                }
                other => panic!("not a chunk: {other:?}"),
            }
        }
        build
    }

    #[test]
    fn chunked_build_matches_the_unchunked_sketch_bit_for_bit() {
        let params = SketchParams::with_budget(6, 2, 0.5, 150);
        let shard = edges(1000);
        // Uneven chunk sizes, including one that doesn't divide the batch.
        for per_chunk in [1usize, 7, 64, 999, 1000, 5000] {
            let plan = plan_sketch(3, &shard, per_chunk, params, 42, None, 33);
            let build = drive(plan);
            assert!(build.complete());
            let (reply, fault, seed) = build.finish().unwrap();
            assert_eq!(fault, None);
            assert_eq!(seed, 42);
            let mut blob = ThresholdSketch::new(params, 42);
            for sub in shard.chunks(33) {
                blob.update_batch(sub);
            }
            match reply {
                Message::ReplySketch { snapshot, .. } => {
                    assert_eq!(snapshot, SketchSnapshot::of(&blob), "per_chunk={per_chunk}");
                }
                other => panic!("wrong reply: {other:?}"),
            }
        }
    }

    #[test]
    fn chunked_dynamic_build_matches_the_unchunked_sketch() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(4, 2, 0.5, 90));
        let shard = updates(700);
        let plan = plan_dynamic(0, &shard, 128, params, 9, None, 50);
        let (reply, _, _) = drive(plan).finish().unwrap();
        let mut blob = DynamicSketch::new(params, 9);
        for sub in shard.chunks(50) {
            blob.update_batch(sub);
        }
        match reply {
            Message::ReplyDynamic { snapshot, .. } => {
                assert_eq!(snapshot, DynamicSnapshot::of(&blob));
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn duplicate_chunks_are_rejected_without_touching_the_sketch() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(4, 2, 0.5, 90));
        let shard = updates(600);
        let plan = plan_dynamic(1, &shard, 100, params, 5, None, 64);
        let replayed: Vec<Message> = plan.chunks.clone();
        let mut build = match plan.start {
            Message::ChunkStartDynamic {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            } => ChunkedBuild::dynamic(shard, chunks, params, seed, fault, batch),
            other => panic!("not a chunk start: {other:?}"),
        };
        // Deliver each chunk twice, back to back — the dup@N fault's
        // shape. A linear dynamic sketch is NOT idempotent, so if a
        // duplicate slipped through, the snapshot comparison below would
        // catch it.
        for msg in replayed {
            let Message::JobChunk {
                shard,
                index,
                count,
                payload,
            } = msg
            else {
                panic!("not a chunk");
            };
            assert_eq!(
                build.accept(shard, index, count, payload.clone()).unwrap(),
                ChunkVerdict::Ingested
            );
            assert_eq!(
                build.accept(shard, index, count, payload).unwrap(),
                ChunkVerdict::DuplicateRejected
            );
        }
        assert_eq!(build.dups_rejected(), 6);
        let (reply, _, _) = build.finish().unwrap();
        let mut blob = DynamicSketch::new(params, 5);
        for sub in shard.chunks(64) {
            blob.update_batch(sub);
        }
        match reply {
            Message::ReplyDynamic { snapshot, .. } => {
                assert_eq!(snapshot, DynamicSnapshot::of(&blob));
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn gaps_mismatches_and_early_finish_are_typed_errors() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let mk = || ChunkedBuild::sketch(2, 3, params, 1, None, 16);
        let payload = || ChunkPayload::Edges(edges(10));

        // Gap: chunk 1 before chunk 0.
        assert!(mk().accept(2, 1, 3, payload()).is_err());
        // Wrong shard.
        assert!(mk().accept(9, 0, 3, payload()).is_err());
        // Count mismatch.
        assert!(mk().accept(2, 0, 4, payload()).is_err());
        // Payload kind mismatch.
        assert!(mk()
            .accept(2, 0, 3, ChunkPayload::Updates(updates(3)))
            .is_err());
        // Early finish.
        assert!(mk().finish().is_err());
        // Chunk past a completed stream.
        let mut done = ChunkedBuild::sketch(0, 1, params, 1, None, 16);
        done.accept(0, 0, 1, payload()).unwrap();
        assert!(done.complete());
        assert!(done.accept(0, 1, 1, payload()).is_err());
    }

    #[test]
    fn empty_shard_plans_zero_chunks_and_finishes_immediately() {
        let params = SketchParams::with_budget(3, 1, 0.5, 60);
        let plan = plan_sketch(0, &[], 64, params, 7, None, 16);
        match &plan.start {
            Message::ChunkStartSketch { chunks, .. } => assert_eq!(*chunks, 0),
            other => panic!("wrong start: {other:?}"),
        }
        assert!(plan.chunks.is_empty());
        let build = drive(plan);
        assert!(build.complete());
        let (reply, _, _) = build.finish().unwrap();
        let empty = ThresholdSketch::new(params, 7);
        match reply {
            Message::ReplySketch { snapshot, .. } => {
                assert_eq!(snapshot, SketchSnapshot::of(&empty));
            }
            other => panic!("wrong reply: {other:?}"),
        }
    }
}
