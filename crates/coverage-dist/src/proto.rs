//! The coordinator↔worker protocol of the distributed executors.
//!
//! The [`Coordinator`](crate::Coordinator) talks to every worker with
//! these messages over its duplex link — a pipe worker's stdin/stdout or
//! a TCP worker's connection, byte for byte the same frames. The
//! envelope (header, length, checksum, validation order, clean EOF
//! versus a mid-frame cut) is `coverage_sketch::frame`'s; this module is
//! the payload schema on it, under its own magic so a snapshot frame can
//! never be confused for a protocol message.
//!
//! ## Schema (magic `CVPR`, version 2)
//!
//! Kinds 1–10: [`Message::JobSketch`], [`Message::JobDynamic`],
//! [`Message::ReplySketch`], [`Message::ReplyDynamic`],
//! [`Message::Shutdown`], [`Message::Heartbeat`],
//! [`Message::ChunkStartSketch`], [`Message::ChunkStartDynamic`],
//! [`Message::JobChunk`], [`Message::ChunkAck`]. The flags byte is
//! reserved (0). Payloads above [`MAX_FRAME_PAYLOAD`] are rejected
//! before any allocation.
//!
//! Version 2 replaced version 1's boolean `fail` flag in the job
//! payloads with a generalized fault descriptor (a [`Fault`] code plus
//! argument) and added the [`Message::Heartbeat`] probe. A frame from
//! either side of the version fence is reported as a **typed**
//! [`WireError::UnsupportedVersion`] — an old-version worker can never
//! look like a hang or a crash.
//!
//! ## Conversation
//!
//! The parent sends one *job* (a shard of edges or signed updates plus
//! the sketch parameters) and the worker answers with one *reply*
//! carrying its local sketch's snapshot as a binary `CVSK` frame
//! (`coverage_sketch::wire`). Job and reply payloads keep a one-byte
//! ship code that always holds the binary code; a frame carrying any
//! other code is a typed [`WireError::Malformed`] error. A
//! [`Message::Heartbeat`] is echoed back
//! verbatim — the parent's liveness/version probe. A
//! [`Message::Shutdown`] — or simply closing the link — ends the worker.
//! Jobs carry an optional [`Fault`] for deterministic fault injection:
//! the worker executes it (crash without replying, hang forever, delay,
//! or corrupt its reply frame), and the parent observes each through a
//! different detector — EOF, the deadline reaper, nothing, or the frame
//! checksum (see `net/listener.rs`).

use std::io::{Read, Write};

use coverage_core::Edge;
use coverage_sketch::frame::{
    checksum64, send, Frame, FrameSpec, WireReader, WireWriter, CHECKSUM_LEN, HEADER_LEN,
};
use coverage_sketch::{
    DynamicSketchParams, DynamicSnapshot, SketchParams, SketchSnapshot, WireError,
};
use coverage_stream::SignedEdge;

use crate::fault::Fault;
use crate::rounds::ShipFormat;

pub use coverage_sketch::frame::ProtoError;

/// Protocol frame magic (distinct from the snapshot frame magic).
pub const PROTO_MAGIC: [u8; 4] = *b"CVPR";
/// Current protocol version. Version 2 generalized the job fault flag
/// and added the heartbeat probe; version-1 frames are rejected as
/// typed [`WireError::UnsupportedVersion`] errors.
pub const PROTO_VERSION: u16 = 2;

/// Hard cap on a frame's payload length. A length field above this is a
/// typed wire error detected **before** the payload buffer is allocated,
/// so a corrupt or hostile length can never balloon parent memory.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 28;

/// The `CVPR` envelope.
pub const CVPR: FrameSpec = FrameSpec {
    magic: PROTO_MAGIC,
    version: PROTO_VERSION,
    kinds: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    max_payload: MAX_FRAME_PAYLOAD as u64,
};

const KIND_JOB_SKETCH: u8 = 1;
const KIND_JOB_DYNAMIC: u8 = 2;
const KIND_REPLY_SKETCH: u8 = 3;
const KIND_REPLY_DYNAMIC: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_HEARTBEAT: u8 = 6;
const KIND_CHUNK_START_SKETCH: u8 = 7;
const KIND_CHUNK_START_DYNAMIC: u8 = 8;
const KIND_JOB_CHUNK: u8 = 9;
const KIND_CHUNK_ACK: u8 = 10;

/// The ship code every job and reply payload carries: binary snapshot
/// frames. Decoders reject any other code as a typed error.
const SHIP_BINARY: u8 = 0;

const FAULT_NONE: u8 = 0;
const FAULT_CRASH: u8 = 1;
const FAULT_HANG: u8 = 2;
const FAULT_DELAY: u8 = 3;
const FAULT_CORRUPT: u8 = 4;
const FAULT_DROP: u8 = 5;
const FAULT_STALL: u8 = 6;
const FAULT_DUP: u8 = 7;

const CHUNK_EDGES: u8 = 0;
const CHUNK_UPDATES: u8 = 1;

/// One protocol message.
#[derive(Clone, Debug)]
pub enum Message {
    /// Parent → worker: build an insertion-only sketch over `edges`.
    JobSketch {
        /// Sketch parameters for the worker's local sketch.
        params: SketchParams,
        /// Shared hash seed (workers must agree to merge).
        seed: u64,
        /// How the reply snapshot travels back. Always encoded as the
        /// binary ship code, and decoded as [`ShipFormat::Binary`].
        ship: ShipFormat,
        /// Deterministic fault injection: the worker executes this
        /// fault instead of (or around) replying normally.
        fault: Option<Fault>,
        /// Update-batch size (parity with the in-process executors).
        batch: usize,
        /// The shard of edges to ingest.
        edges: Vec<Edge>,
    },
    /// Parent → worker: build a dynamic sketch over signed `updates`.
    JobDynamic {
        /// Dynamic sketch parameters for the worker's local sketch.
        params: DynamicSketchParams,
        /// Shared hash seed (workers must agree to merge).
        seed: u64,
        /// How the reply snapshot travels back. Always encoded as the
        /// binary ship code, and decoded as [`ShipFormat::Binary`].
        ship: ShipFormat,
        /// Deterministic fault injection: the worker executes this
        /// fault instead of (or around) replying normally.
        fault: Option<Fault>,
        /// Update-batch size (parity with the in-process executors).
        batch: usize,
        /// The shard of signed updates to ingest.
        updates: Vec<SignedEdge>,
    },
    /// Worker → parent: the local insertion-only sketch's snapshot.
    ReplySketch {
        /// The worker's local snapshot.
        snapshot: SketchSnapshot,
    },
    /// Worker → parent: the local dynamic sketch's snapshot.
    ReplyDynamic {
        /// The worker's local snapshot.
        snapshot: DynamicSnapshot,
    },
    /// Liveness/version probe. The parent sends it; a live,
    /// version-compatible worker echoes the same nonce back. An
    /// old-version worker answers with a frame the parent rejects as a
    /// typed [`WireError::UnsupportedVersion`] — never a silent hang.
    Heartbeat {
        /// Opaque echo token chosen by the sender.
        nonce: u64,
    },
    /// Coordinator → worker: open a **chunked** insertion-only shard
    /// stream. Everything a [`Message::JobSketch`] carries except the
    /// edges, which follow in `chunks` bounded [`Message::JobChunk`]
    /// frames — the worker starts ingesting on the first chunk instead
    /// of waiting for the whole shard.
    ChunkStartSketch {
        /// Shard index this stream builds (echoed in every chunk/ack).
        shard: u32,
        /// How many [`Message::JobChunk`] frames follow (may be 0 for an
        /// empty shard).
        chunks: u32,
        /// Sketch parameters for the worker's local sketch.
        params: SketchParams,
        /// Shared hash seed (workers must agree to merge).
        seed: u64,
        /// Deterministic **worker** fault, executed when the last chunk
        /// has been ingested (network faults never ride in frames).
        fault: Option<Fault>,
        /// Update-batch size (parity with the in-process executors).
        batch: usize,
    },
    /// Coordinator → worker: open a chunked **dynamic** shard stream;
    /// the signed updates follow in [`Message::JobChunk`] frames.
    ChunkStartDynamic {
        /// Shard index this stream builds (echoed in every chunk/ack).
        shard: u32,
        /// How many [`Message::JobChunk`] frames follow.
        chunks: u32,
        /// Dynamic sketch parameters for the worker's local sketch.
        params: DynamicSketchParams,
        /// Shared hash seed (workers must agree to merge).
        seed: u64,
        /// Deterministic worker fault, executed at stream completion.
        fault: Option<Fault>,
        /// Update-batch size (parity with the in-process executors).
        batch: usize,
    },
    /// Coordinator → worker: one bounded slice of a chunked shard
    /// stream. Carries the shard id, its index in the stream, the total
    /// chunk count, and a payload-level FNV checksum (verified at decode
    /// on top of the frame checksum), so a duplicate, reordered, or torn
    /// chunk is always a typed observation.
    JobChunk {
        /// The shard this chunk belongs to.
        shard: u32,
        /// 0-based position in the stream; the worker ingests chunks
        /// strictly in order and rejects duplicates by this index.
        index: u32,
        /// Total chunks in the stream (repeated per chunk so a worker
        /// can validate consistency without trusting its own state).
        count: u32,
        /// The slice of the shard's payload.
        payload: ChunkPayload,
    },
    /// Worker → coordinator: chunk `index` of `shard` has been
    /// **ingested** (not merely received). The coordinator uses acks for
    /// flow control (bounded chunks in flight) and to observe that
    /// ingest started before the last chunk was sent.
    ChunkAck {
        /// The shard whose chunk was ingested.
        shard: u32,
        /// The ingested chunk's index.
        index: u32,
    },
    /// Parent → worker: exit cleanly.
    Shutdown,
}

/// The payload of one [`Message::JobChunk`]: a slice of an
/// insertion-only shard's edges or of a dynamic shard's signed updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPayload {
    /// A slice of an insertion-only shard.
    Edges(Vec<Edge>),
    /// A slice of a dynamic shard's signed updates.
    Updates(Vec<SignedEdge>),
}

impl ChunkPayload {
    /// Number of items (edges or updates) in this slice.
    pub fn len(&self) -> usize {
        match self {
            ChunkPayload::Edges(e) => e.len(),
            ChunkPayload::Updates(u) => u.len(),
        }
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn put_fault(w: &mut WireWriter, fault: &Option<Fault>) {
    let (code, arg) = match fault {
        None => (FAULT_NONE, 0),
        Some(Fault::Crash) => (FAULT_CRASH, 0),
        Some(Fault::Hang) => (FAULT_HANG, 0),
        Some(Fault::Delay(ms)) => (FAULT_DELAY, *ms),
        Some(Fault::CorruptReply) => (FAULT_CORRUPT, 0),
        // Network faults are executed by the coordinator's connection
        // wrapper and never ride in a job frame in practice, but the
        // codec stays total so a round-trip can never panic.
        Some(Fault::DropConn) => (FAULT_DROP, 0),
        Some(Fault::Stall(ms)) => (FAULT_STALL, *ms),
        Some(Fault::DupChunk) => (FAULT_DUP, 0),
    };
    w.put_u8(code);
    w.put_varint(arg);
}

fn get_fault(r: &mut WireReader<'_>) -> Result<Option<Fault>, WireError> {
    let code = r.get_u8()?;
    let arg = r.get_varint()?;
    Ok(match code {
        FAULT_NONE => None,
        FAULT_CRASH => Some(Fault::Crash),
        FAULT_HANG => Some(Fault::Hang),
        FAULT_DELAY => Some(Fault::Delay(arg)),
        FAULT_CORRUPT => Some(Fault::CorruptReply),
        FAULT_DROP => Some(Fault::DropConn),
        FAULT_STALL => Some(Fault::Stall(arg)),
        FAULT_DUP => Some(Fault::DupChunk),
        _ => return Err(WireError::Malformed("unknown fault code")),
    })
}

/// Read a payload's ship code, which must be the binary one.
fn get_ship(r: &mut WireReader<'_>) -> Result<ShipFormat, WireError> {
    match r.get_u8()? {
        SHIP_BINARY => Ok(ShipFormat::Binary),
        _ => Err(WireError::Malformed("ship code is not binary")),
    }
}

/// Write a reply's snapshot frame behind the binary ship code.
fn put_frame(w: &mut WireWriter, frame: &[u8]) {
    w.put_u8(SHIP_BINARY);
    w.put_varint(frame.len() as u64);
    w.put_bytes(frame);
}

/// Read a reply's ship code and the snapshot frame behind it.
fn get_frame<'a>(r: &mut WireReader<'a>) -> Result<&'a [u8], WireError> {
    get_ship(r)?;
    let len = r.get_len()?;
    r.get_bytes(len)
}

fn get_u32v(r: &mut WireReader<'_>) -> Result<u32, WireError> {
    u32::try_from(r.get_varint()?).map_err(|_| WireError::Malformed("chunk field exceeds u32"))
}

/// Write `msg`'s payload and return its kind.
fn put_payload(w: &mut WireWriter, msg: &Message) -> u8 {
    match msg {
        Message::JobSketch {
            params,
            seed,
            fault,
            batch,
            edges,
            ..
        } => {
            w.put_params(params);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(w, fault);
            w.put_varint(*batch as u64);
            w.put_edges(edges);
            KIND_JOB_SKETCH
        }
        Message::JobDynamic {
            params,
            seed,
            fault,
            batch,
            updates,
            ..
        } => {
            w.put_dynamic_params(params);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(w, fault);
            w.put_varint(*batch as u64);
            w.put_updates(updates);
            KIND_JOB_DYNAMIC
        }
        Message::ReplySketch { snapshot } => {
            put_frame(w, &snapshot.encode_binary());
            KIND_REPLY_SKETCH
        }
        Message::ReplyDynamic { snapshot } => {
            put_frame(w, &snapshot.encode_binary());
            KIND_REPLY_DYNAMIC
        }
        Message::Heartbeat { nonce } => {
            w.put_u64(*nonce);
            KIND_HEARTBEAT
        }
        Message::ChunkStartSketch {
            shard,
            chunks,
            params,
            seed,
            fault,
            batch,
        } => {
            w.put_varint(*shard as u64);
            w.put_varint(*chunks as u64);
            w.put_params(params);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(w, fault);
            w.put_varint(*batch as u64);
            KIND_CHUNK_START_SKETCH
        }
        Message::ChunkStartDynamic {
            shard,
            chunks,
            params,
            seed,
            fault,
            batch,
        } => {
            w.put_varint(*shard as u64);
            w.put_varint(*chunks as u64);
            w.put_dynamic_params(params);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(w, fault);
            w.put_varint(*batch as u64);
            KIND_CHUNK_START_DYNAMIC
        }
        Message::JobChunk {
            shard,
            index,
            count,
            payload,
        } => {
            w.put_varint(*shard as u64);
            w.put_varint(*index as u64);
            w.put_varint(*count as u64);
            // Serialize the items into their own region so a per-chunk
            // checksum can cover exactly the payload bytes.
            let mut items = WireWriter::new();
            let tag = match payload {
                ChunkPayload::Edges(edges) => {
                    items.put_edges(edges);
                    CHUNK_EDGES
                }
                ChunkPayload::Updates(updates) => {
                    items.put_updates(updates);
                    CHUNK_UPDATES
                }
            };
            let items = items.into_bytes();
            w.put_u8(tag);
            w.put_u64(checksum64(&items));
            w.put_varint(items.len() as u64);
            w.put_bytes(&items);
            KIND_JOB_CHUNK
        }
        Message::ChunkAck { shard, index } => {
            w.put_varint(*shard as u64);
            w.put_varint(*index as u64);
            KIND_CHUNK_ACK
        }
        Message::Shutdown => KIND_SHUTDOWN,
    }
}

fn decode_payload(frame: Frame<'_>) -> Result<Message, WireError> {
    let mut r = WireReader::new(frame.payload);
    let msg = match frame.kind {
        KIND_JOB_SKETCH => Message::JobSketch {
            params: r.get_params()?,
            seed: r.get_u64()?,
            ship: get_ship(&mut r)?,
            fault: get_fault(&mut r)?,
            batch: r.get_len()?,
            edges: r.get_edges()?,
        },
        KIND_JOB_DYNAMIC => Message::JobDynamic {
            params: r.get_dynamic_params()?,
            seed: r.get_u64()?,
            ship: get_ship(&mut r)?,
            fault: get_fault(&mut r)?,
            batch: r.get_len()?,
            updates: r.get_updates()?,
        },
        KIND_REPLY_SKETCH => Message::ReplySketch {
            snapshot: SketchSnapshot::decode_binary(get_frame(&mut r)?)?,
        },
        KIND_REPLY_DYNAMIC => Message::ReplyDynamic {
            snapshot: DynamicSnapshot::decode_binary(get_frame(&mut r)?)?,
        },
        KIND_HEARTBEAT => Message::Heartbeat {
            nonce: r.get_u64()?,
        },
        KIND_CHUNK_START_SKETCH => Message::ChunkStartSketch {
            shard: get_u32v(&mut r)?,
            chunks: get_u32v(&mut r)?,
            params: r.get_params()?,
            seed: r.get_u64()?,
            fault: {
                get_ship(&mut r)?;
                get_fault(&mut r)?
            },
            batch: r.get_len()?,
        },
        KIND_CHUNK_START_DYNAMIC => Message::ChunkStartDynamic {
            shard: get_u32v(&mut r)?,
            chunks: get_u32v(&mut r)?,
            params: r.get_dynamic_params()?,
            seed: r.get_u64()?,
            fault: {
                get_ship(&mut r)?;
                get_fault(&mut r)?
            },
            batch: r.get_len()?,
        },
        KIND_JOB_CHUNK => {
            let shard = get_u32v(&mut r)?;
            let index = get_u32v(&mut r)?;
            let count = get_u32v(&mut r)?;
            let tag = r.get_u8()?;
            let sum = r.get_u64()?;
            let len = r.get_len()?;
            let items = r.get_bytes(len)?;
            if checksum64(items) != sum {
                return Err(WireError::ChecksumMismatch);
            }
            let mut ir = WireReader::new(items);
            let payload = match tag {
                CHUNK_EDGES => ChunkPayload::Edges(ir.get_edges()?),
                CHUNK_UPDATES => ChunkPayload::Updates(ir.get_updates()?),
                _ => return Err(WireError::Malformed("unknown chunk payload tag")),
            };
            if !ir.is_done() {
                return Err(WireError::Malformed("leftover chunk payload bytes"));
            }
            Message::JobChunk {
                shard,
                index,
                count,
                payload,
            }
        }
        KIND_CHUNK_ACK => Message::ChunkAck {
            shard: get_u32v(&mut r)?,
            index: get_u32v(&mut r)?,
        },
        KIND_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::UnknownKind { found: other }),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes"));
    }
    Ok(msg)
}

/// Write one framed message, returning the total bytes put on the link.
pub fn write_message(out: &mut impl Write, msg: &Message) -> Result<u64, ProtoError> {
    Ok(send(out, &CVPR.encode(0, |w| put_payload(w, msg)))?)
}

/// Write `msg` as a frame with exactly one bit flipped in its payload
/// (or, for an empty payload, in its checksum), deterministically
/// positioned by `seed` — the executable [`Fault::CorruptReply`]. The
/// checksum is computed over the *pristine* frame and the flip lands in
/// the payload region (never the header), so the receiver is guaranteed
/// a typed [`WireError::ChecksumMismatch`] — never silently merged
/// garbage.
pub fn write_corrupted_message(
    out: &mut impl Write,
    msg: &Message,
    seed: u64,
) -> Result<u64, ProtoError> {
    let mut frame = CVPR.encode(0, |w| put_payload(w, msg));
    // An empty payload puts the checksum trailer right after the header.
    let (at, bit) = match frame.len() - HEADER_LEN - CHECKSUM_LEN {
        0 => (seed % 8, (seed / 8) % 8),
        len => (seed % len as u64, (seed / 7) % 8),
    };
    frame[HEADER_LEN + at as usize] ^= 1 << bit;
    Ok(send(out, &frame)?)
}

/// Read one framed message, returning it with the total bytes consumed.
///
/// Returns [`ProtoError::Eof`] when the link closes cleanly *between*
/// frames (a finished worker); a link that dies mid-frame is an
/// [`ProtoError::Io`], and a frame that fails validation (magic,
/// version, kind, checksum, payload structure) is a [`ProtoError::Wire`].
pub fn read_message(input: &mut impl Read) -> Result<(Message, u64), ProtoError> {
    CVPR.read(input, decode_payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_sketch::ThresholdSketch;
    use coverage_stream::VecStream;

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        let written = write_message(&mut buf, msg).unwrap();
        assert_eq!(written as usize, buf.len());
        let mut cursor = &buf[..];
        let (back, read) = read_message(&mut cursor).unwrap();
        assert_eq!(read, written);
        assert!(cursor.is_empty());
        back
    }

    #[test]
    fn job_sketch_roundtrips() {
        let msg = Message::JobSketch {
            params: SketchParams::with_budget(6, 2, 0.5, 100),
            seed: 42,
            ship: ShipFormat::Binary,
            fault: None,
            batch: 4096,
            edges: vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)],
        };
        match roundtrip(&msg) {
            Message::JobSketch {
                params,
                seed,
                ship,
                fault,
                batch,
                edges,
            } => {
                assert_eq!(params, SketchParams::with_budget(6, 2, 0.5, 100));
                assert_eq!(seed, 42);
                assert_eq!(ship, ShipFormat::Binary);
                assert_eq!(fault, None);
                assert_eq!(batch, 4096);
                assert_eq!(
                    edges,
                    vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)]
                );
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn every_fault_kind_roundtrips() {
        for fault in [
            Some(Fault::Crash),
            Some(Fault::Hang),
            Some(Fault::Delay(1234)),
            Some(Fault::CorruptReply),
            None,
        ] {
            let msg = Message::JobSketch {
                params: SketchParams::with_budget(4, 1, 0.5, 40),
                seed: 3,
                ship: ShipFormat::Binary,
                fault,
                batch: 16,
                edges: vec![Edge::new(1u32, 2u64)],
            };
            match roundtrip(&msg) {
                Message::JobSketch { fault: back, .. } => assert_eq!(back, fault),
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn job_dynamic_roundtrips_signs() {
        let params = DynamicSketchParams::new(SketchParams::with_budget(3, 1, 0.5, 50));
        let msg = Message::JobDynamic {
            params,
            seed: 7,
            ship: ShipFormat::Binary,
            fault: Some(Fault::Crash),
            batch: 512,
            updates: vec![
                SignedEdge::insert(Edge::new(1u32, 10u64)),
                SignedEdge::delete(Edge::new(1u32, 10u64)),
            ],
        };
        match roundtrip(&msg) {
            Message::JobDynamic {
                params: p,
                fault,
                updates,
                ship,
                ..
            } => {
                assert_eq!(p, params);
                assert_eq!(fault, Some(Fault::Crash));
                assert_eq!(ship, ShipFormat::Binary);
                assert_eq!(updates.len(), 2);
                assert!(updates[0].sign() > 0);
                assert!(updates[1].sign() < 0);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn replies_roundtrip() {
        let params = SketchParams::with_budget(4, 2, 0.5, 80);
        let edges: Vec<Edge> = (0..200u64).map(|e| Edge::new((e % 4) as u32, e)).collect();
        let sketch = ThresholdSketch::from_stream(params, 11, &VecStream::new(4, edges));
        let snapshot = SketchSnapshot::of(&sketch);
        let msg = Message::ReplySketch {
            snapshot: snapshot.clone(),
        };
        match roundtrip(&msg) {
            Message::ReplySketch { snapshot: back } => assert_eq!(back, snapshot),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn a_json_ship_code_is_a_typed_wire_error() {
        // Rewrite the ship code of otherwise valid job, chunk-start and
        // reply frames to 1 (the JSON code) and re-checksum: each must
        // decode as a typed error, never as a message.
        let params = SketchParams::with_budget(4, 2, 0.5, 80);
        let edges: Vec<Edge> = (0..50u64).map(|e| Edge::new((e % 4) as u32, e)).collect();
        let sketch = ThresholdSketch::from_stream(params, 11, &VecStream::new(4, edges.clone()));
        let frames = [
            Message::JobSketch {
                params,
                seed: 11,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 64,
                edges,
            },
            Message::ChunkStartSketch {
                shard: 0,
                chunks: 1,
                params,
                seed: 11,
                fault: None,
                batch: 64,
            },
            Message::ReplySketch {
                snapshot: SketchSnapshot::of(&sketch),
            },
        ];
        // Offset of the ship byte in each payload: job and chunk-start
        // payloads put it after the params and the seed, replies first.
        let mut params_len = WireWriter::new();
        params_len.put_params(&params);
        let params_len = params_len.len();
        let offsets = [params_len + 8, 2 + params_len + 8, 0];
        for (msg, at) in frames.iter().zip(offsets) {
            let mut buf = Vec::new();
            write_message(&mut buf, msg).unwrap();
            assert_eq!(buf[16 + at], SHIP_BINARY, "{msg:?}");
            buf[16 + at] = 1;
            let body_len = buf.len() - 8;
            let sum = checksum64(&buf[..body_len]).to_le_bytes();
            buf[body_len..].copy_from_slice(&sum);
            assert!(
                matches!(
                    read_message(&mut &buf[..]),
                    Err(ProtoError::Wire(WireError::Malformed(_)))
                ),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn shutdown_roundtrips() {
        assert!(matches!(roundtrip(&Message::Shutdown), Message::Shutdown));
    }

    #[test]
    fn heartbeat_roundtrips_its_nonce() {
        match roundtrip(&Message::Heartbeat { nonce: 0xDEAD_BEEF }) {
            Message::Heartbeat { nonce } => assert_eq!(nonce, 0xDEAD_BEEF),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn chunk_frames_roundtrip() {
        let start = Message::ChunkStartSketch {
            shard: 3,
            chunks: 7,
            params: SketchParams::with_budget(6, 2, 0.5, 100),
            seed: 42,
            fault: Some(Fault::Delay(5)),
            batch: 4096,
        };
        match roundtrip(&start) {
            Message::ChunkStartSketch {
                shard,
                chunks,
                params,
                seed,
                fault,
                ..
            } => {
                assert_eq!((shard, chunks, seed), (3, 7, 42));
                assert_eq!(params, SketchParams::with_budget(6, 2, 0.5, 100));
                assert_eq!(fault, Some(Fault::Delay(5)));
            }
            other => panic!("wrong message: {other:?}"),
        }
        let dstart = Message::ChunkStartDynamic {
            shard: 1,
            chunks: 2,
            params: DynamicSketchParams::new(SketchParams::with_budget(3, 1, 0.5, 50)),
            seed: 9,
            fault: None,
            batch: 64,
        };
        match roundtrip(&dstart) {
            Message::ChunkStartDynamic { shard, chunks, .. } => {
                assert_eq!((shard, chunks), (1, 2));
            }
            other => panic!("wrong message: {other:?}"),
        }
        let chunk = Message::JobChunk {
            shard: 3,
            index: 2,
            count: 7,
            payload: ChunkPayload::Edges(vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)]),
        };
        match roundtrip(&chunk) {
            Message::JobChunk {
                shard,
                index,
                count,
                payload,
            } => {
                assert_eq!((shard, index, count), (3, 2, 7));
                assert_eq!(
                    payload,
                    ChunkPayload::Edges(vec![Edge::new(0u32, 7u64), Edge::new(5u32, u64::MAX)])
                );
            }
            other => panic!("wrong message: {other:?}"),
        }
        let dchunk = Message::JobChunk {
            shard: 1,
            index: 0,
            count: 2,
            payload: ChunkPayload::Updates(vec![
                SignedEdge::insert(Edge::new(1u32, 10u64)),
                SignedEdge::delete(Edge::new(1u32, 10u64)),
            ]),
        };
        match roundtrip(&dchunk) {
            Message::JobChunk {
                payload: ChunkPayload::Updates(u),
                ..
            } => {
                assert!(u[0].sign() > 0 && u[1].sign() < 0);
            }
            other => panic!("wrong message: {other:?}"),
        }
        match roundtrip(&Message::ChunkAck { shard: 5, index: 4 }) {
            Message::ChunkAck { shard, index } => assert_eq!((shard, index), (5, 4)),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn chunk_payload_checksum_catches_item_corruption() {
        // Corrupt an item byte but fix up the frame checksum, simulating
        // corruption that slipped past the outer envelope: the inner
        // per-chunk checksum must still catch it.
        let msg = Message::JobChunk {
            shard: 0,
            index: 0,
            count: 1,
            payload: ChunkPayload::Edges((0..50u64).map(|e| Edge::new(1u32, e)).collect()),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let body_len = buf.len() - 8;
        buf[body_len - 1] ^= 0x40;
        let sum = checksum64(&buf[..body_len]).to_le_bytes();
        buf[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            read_message(&mut &buf[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
    }

    #[test]
    fn corrupted_writer_output_is_a_typed_checksum_error() {
        let msg = Message::JobSketch {
            params: SketchParams::with_budget(4, 1, 0.5, 40),
            seed: 5,
            ship: ShipFormat::Binary,
            fault: None,
            batch: 16,
            edges: vec![Edge::new(0u32, 1u64), Edge::new(2u32, 3u64)],
        };
        for seed in 0u64..32 {
            let mut buf = Vec::new();
            let written = write_corrupted_message(&mut buf, &msg, seed).unwrap();
            assert_eq!(written as usize, buf.len());
            match read_message(&mut &buf[..]) {
                Err(ProtoError::Wire(_)) => {}
                other => {
                    panic!("seed {seed}: corrupt frame must be a typed wire error, got {other:?}")
                }
            }
        }
        // Empty payload: the flip lands in the checksum trailer.
        let mut buf = Vec::new();
        write_corrupted_message(&mut buf, &Message::Shutdown, 11).unwrap();
        assert!(matches!(
            read_message(&mut &buf[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
    }
}
