//! The parent↔worker pipe protocol of the subprocess executor.
//!
//! [`ProcessRunner`](crate::ProcessRunner) talks to its workers over
//! plain stdin/stdout pipes with length-prefixed, checksummed message
//! frames — the same envelope discipline as the snapshot wire format
//! (`coverage_sketch::wire`), under its own magic so a snapshot frame
//! can never be confused for a protocol message.
//!
//! ## Frame layout (version 2)
//!
//! | offset   | size | field                                   |
//! |----------|------|-----------------------------------------|
//! | 0        | 4    | magic `b"CVPR"`                         |
//! | 4        | 2    | protocol version, `u16` LE (currently 2)|
//! | 6        | 1    | message kind                            |
//! | 7        | 1    | reserved (0)                            |
//! | 8        | 8    | payload length `u64` LE                 |
//! | 16       | len  | payload                                 |
//! | 16 + len | 8    | FNV-1a 64 checksum of bytes `0..16+len` |
//!
//! Version 2 replaced version 1's boolean `fail` flag in the job
//! payloads with a generalized fault descriptor (a [`Fault`] code plus
//! argument) and added the [`Message::Heartbeat`] probe. A frame from
//! either side of the version fence is reported as a **typed**
//! [`WireError::UnsupportedVersion`] — an old-version worker can never
//! look like a hang or a crash. Payloads above [`MAX_FRAME_PAYLOAD`]
//! are rejected before any allocation.
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
//! [`Message::Shutdown`] — or simply closing the pipe — ends the worker.
//! Jobs carry an optional [`Fault`] for deterministic fault injection:
//! the worker executes it (crash without replying, hang forever, delay,
//! or corrupt its reply frame), and the parent observes each through a
//! different detector — EOF, the deadline reaper, nothing, or the frame
//! checksum (see `net/listener.rs`).

use std::io::{Read, Write};

use coverage_core::Edge;
use coverage_sketch::wire::{checksum64, WireReader, WireWriter};
use coverage_sketch::{
    DynamicSketchParams, DynamicSnapshot, SketchParams, SketchSnapshot, WireError,
};
use coverage_stream::SignedEdge;

use crate::fault::Fault;
use crate::rounds::ShipFormat;

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

/// A protocol failure: either the pipe broke or a frame was corrupt.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying pipe failed mid-frame.
    Io(std::io::Error),
    /// A frame or its payload failed validation.
    Wire(WireError),
    /// The pipe closed cleanly between frames (worker exit / EOF).
    Eof,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "pipe error: {e}"),
            ProtoError::Wire(e) => write!(f, "protocol frame error: {e}"),
            ProtoError::Eof => write!(f, "pipe closed"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Wire(e)
    }
}

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

fn get_fault(r: &mut WireReader<'_>) -> Result<Option<Fault>, ProtoError> {
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
        _ => return Err(WireError::Malformed("unknown fault code").into()),
    })
}

/// Read a payload's ship code, which must be the binary one.
fn get_ship(r: &mut WireReader<'_>) -> Result<(), ProtoError> {
    match r.get_u8()? {
        SHIP_BINARY => Ok(()),
        _ => Err(WireError::Malformed("ship code is not binary").into()),
    }
}

/// Write a reply's snapshot frame behind the binary ship code.
fn put_frame(w: &mut WireWriter, frame: &[u8]) {
    w.put_u8(SHIP_BINARY);
    w.put_varint(frame.len() as u64);
    w.put_bytes(frame);
}

/// Read a reply's ship code and the snapshot frame behind it.
fn get_frame<'a>(r: &mut WireReader<'a>) -> Result<&'a [u8], ProtoError> {
    get_ship(r)?;
    let len = r.get_len()?;
    Ok(r.get_bytes(len)?)
}

fn put_base_params(w: &mut WireWriter, p: &SketchParams) {
    w.put_varint(p.num_sets as u64);
    w.put_varint(p.k as u64);
    w.put_u64(p.epsilon.to_bits());
    w.put_varint(p.degree_cap as u64);
    w.put_varint(p.edge_budget as u64);
    w.put_varint(p.edge_slack as u64);
    w.put_u8(p.dedup as u8);
}

fn get_base_params(r: &mut WireReader<'_>) -> Result<SketchParams, ProtoError> {
    Ok(SketchParams {
        num_sets: r.get_len()?,
        k: r.get_len()?,
        epsilon: f64::from_bits(r.get_u64()?),
        degree_cap: r.get_len()?,
        edge_budget: r.get_len()?,
        edge_slack: r.get_len()?,
        dedup: match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("dedup flag is not 0 or 1").into()),
        },
    })
}

fn get_u32v(r: &mut WireReader<'_>) -> Result<u32, ProtoError> {
    u32::try_from(r.get_varint()?)
        .map_err(|_| WireError::Malformed("chunk field exceeds u32").into())
}

fn encode_payload(msg: &Message) -> (u8, Vec<u8>) {
    let mut w = WireWriter::new();
    match msg {
        Message::JobSketch {
            params,
            seed,
            fault,
            batch,
            edges,
            ..
        } => {
            put_base_params(&mut w, params);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(&mut w, fault);
            w.put_varint(*batch as u64);
            w.put_varint(edges.len() as u64);
            for e in edges {
                w.put_varint(e.set.0 as u64);
                w.put_varint(e.element.0);
            }
            (KIND_JOB_SKETCH, w.into_bytes())
        }
        Message::JobDynamic {
            params,
            seed,
            fault,
            batch,
            updates,
            ..
        } => {
            put_base_params(&mut w, &params.base);
            w.put_varint(params.levels as u64);
            w.put_varint(params.rows as u64);
            w.put_varint(params.row_len as u64);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(&mut w, fault);
            w.put_varint(*batch as u64);
            w.put_varint(updates.len() as u64);
            for u in updates {
                w.put_u8(if u.sign() >= 0 { 0 } else { 1 });
                w.put_varint(u.edge.set.0 as u64);
                w.put_varint(u.edge.element.0);
            }
            (KIND_JOB_DYNAMIC, w.into_bytes())
        }
        Message::ReplySketch { snapshot } => {
            put_frame(&mut w, &snapshot.encode_binary());
            (KIND_REPLY_SKETCH, w.into_bytes())
        }
        Message::ReplyDynamic { snapshot } => {
            put_frame(&mut w, &snapshot.encode_binary());
            (KIND_REPLY_DYNAMIC, w.into_bytes())
        }
        Message::Heartbeat { nonce } => {
            w.put_u64(*nonce);
            (KIND_HEARTBEAT, w.into_bytes())
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
            put_base_params(&mut w, params);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(&mut w, fault);
            w.put_varint(*batch as u64);
            (KIND_CHUNK_START_SKETCH, w.into_bytes())
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
            put_base_params(&mut w, &params.base);
            w.put_varint(params.levels as u64);
            w.put_varint(params.rows as u64);
            w.put_varint(params.row_len as u64);
            w.put_u64(*seed);
            w.put_u8(SHIP_BINARY);
            put_fault(&mut w, fault);
            w.put_varint(*batch as u64);
            (KIND_CHUNK_START_DYNAMIC, w.into_bytes())
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
                    items.put_varint(edges.len() as u64);
                    for e in edges {
                        items.put_varint(e.set.0 as u64);
                        items.put_varint(e.element.0);
                    }
                    CHUNK_EDGES
                }
                ChunkPayload::Updates(updates) => {
                    items.put_varint(updates.len() as u64);
                    for u in updates {
                        items.put_u8(if u.sign() >= 0 { 0 } else { 1 });
                        items.put_varint(u.edge.set.0 as u64);
                        items.put_varint(u.edge.element.0);
                    }
                    CHUNK_UPDATES
                }
            };
            let items = items.into_bytes();
            w.put_u8(tag);
            w.put_u64(checksum64(&items));
            w.put_varint(items.len() as u64);
            w.put_bytes(&items);
            (KIND_JOB_CHUNK, w.into_bytes())
        }
        Message::ChunkAck { shard, index } => {
            w.put_varint(*shard as u64);
            w.put_varint(*index as u64);
            (KIND_CHUNK_ACK, w.into_bytes())
        }
        Message::Shutdown => (KIND_SHUTDOWN, Vec::new()),
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, ProtoError> {
    let mut r = WireReader::new(payload);
    let msg = match kind {
        KIND_JOB_SKETCH => {
            let params = get_base_params(&mut r)?;
            let seed = r.get_u64()?;
            get_ship(&mut r)?;
            let fault = get_fault(&mut r)?;
            let batch = r.get_len()?;
            let n = r.get_len()?;
            if n > r.remaining() {
                return Err(WireError::Malformed("edge count exceeds payload size").into());
            }
            let mut edges = Vec::with_capacity(n);
            for _ in 0..n {
                let set = u32::try_from(r.get_varint()?)
                    .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                edges.push(Edge::new(set, r.get_varint()?));
            }
            Message::JobSketch {
                params,
                seed,
                ship: ShipFormat::Binary,
                fault,
                batch,
                edges,
            }
        }
        KIND_JOB_DYNAMIC => {
            let base = get_base_params(&mut r)?;
            let levels = r.get_len()?;
            let rows = r.get_len()?;
            let row_len = r.get_len()?;
            let params = DynamicSketchParams {
                base,
                levels,
                rows,
                row_len,
            };
            let seed = r.get_u64()?;
            get_ship(&mut r)?;
            let fault = get_fault(&mut r)?;
            let batch = r.get_len()?;
            let n = r.get_len()?;
            if n > r.remaining() {
                return Err(WireError::Malformed("update count exceeds payload size").into());
            }
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let sign = r.get_u8()?;
                let set = u32::try_from(r.get_varint()?)
                    .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                let edge = Edge::new(set, r.get_varint()?);
                updates.push(match sign {
                    0 => SignedEdge::insert(edge),
                    1 => SignedEdge::delete(edge),
                    _ => return Err(WireError::Malformed("unknown update sign").into()),
                });
            }
            Message::JobDynamic {
                params,
                seed,
                ship: ShipFormat::Binary,
                fault,
                batch,
                updates,
            }
        }
        KIND_REPLY_SKETCH => Message::ReplySketch {
            snapshot: SketchSnapshot::decode_binary(get_frame(&mut r)?)?,
        },
        KIND_REPLY_DYNAMIC => Message::ReplyDynamic {
            snapshot: DynamicSnapshot::decode_binary(get_frame(&mut r)?)?,
        },
        KIND_HEARTBEAT => Message::Heartbeat {
            nonce: r.get_u64()?,
        },
        KIND_CHUNK_START_SKETCH => {
            let shard = get_u32v(&mut r)?;
            let chunks = get_u32v(&mut r)?;
            let params = get_base_params(&mut r)?;
            let seed = r.get_u64()?;
            get_ship(&mut r)?;
            let fault = get_fault(&mut r)?;
            let batch = r.get_len()?;
            Message::ChunkStartSketch {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            }
        }
        KIND_CHUNK_START_DYNAMIC => {
            let shard = get_u32v(&mut r)?;
            let chunks = get_u32v(&mut r)?;
            let base = get_base_params(&mut r)?;
            let params = DynamicSketchParams {
                base,
                levels: r.get_len()?,
                rows: r.get_len()?,
                row_len: r.get_len()?,
            };
            let seed = r.get_u64()?;
            get_ship(&mut r)?;
            let fault = get_fault(&mut r)?;
            let batch = r.get_len()?;
            Message::ChunkStartDynamic {
                shard,
                chunks,
                params,
                seed,
                fault,
                batch,
            }
        }
        KIND_JOB_CHUNK => {
            let shard = get_u32v(&mut r)?;
            let index = get_u32v(&mut r)?;
            let count = get_u32v(&mut r)?;
            let tag = r.get_u8()?;
            let sum = r.get_u64()?;
            let len = r.get_len()?;
            let items = r.get_bytes(len)?;
            if checksum64(items) != sum {
                return Err(WireError::ChecksumMismatch.into());
            }
            let mut ir = WireReader::new(items);
            let n = ir.get_len()?;
            if n > ir.remaining() {
                return Err(WireError::Malformed("chunk item count exceeds payload size").into());
            }
            let payload = match tag {
                CHUNK_EDGES => {
                    let mut edges = Vec::with_capacity(n);
                    for _ in 0..n {
                        let set = u32::try_from(ir.get_varint()?)
                            .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                        edges.push(Edge::new(set, ir.get_varint()?));
                    }
                    ChunkPayload::Edges(edges)
                }
                CHUNK_UPDATES => {
                    let mut updates = Vec::with_capacity(n);
                    for _ in 0..n {
                        let sign = ir.get_u8()?;
                        let set = u32::try_from(ir.get_varint()?)
                            .map_err(|_| WireError::Malformed("set id exceeds u32"))?;
                        let edge = Edge::new(set, ir.get_varint()?);
                        updates.push(match sign {
                            0 => SignedEdge::insert(edge),
                            1 => SignedEdge::delete(edge),
                            _ => return Err(WireError::Malformed("unknown update sign").into()),
                        });
                    }
                    ChunkPayload::Updates(updates)
                }
                _ => return Err(WireError::Malformed("unknown chunk payload tag").into()),
            };
            if !ir.is_done() {
                return Err(WireError::Malformed("leftover chunk payload bytes").into());
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
        other => return Err(WireError::UnknownKind { found: other }.into()),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes").into());
    }
    Ok(msg)
}

/// Write one framed message, returning the total bytes put on the pipe.
pub fn write_message(out: &mut impl Write, msg: &Message) -> Result<u64, ProtoError> {
    let (kind, payload) = encode_payload(msg);
    let mut w = WireWriter::new();
    w.put_bytes(&PROTO_MAGIC);
    w.put_u16(PROTO_VERSION);
    w.put_u8(kind);
    w.put_u8(0);
    w.put_u64(payload.len() as u64);
    w.put_bytes(&payload);
    let frame_body = w.into_bytes();
    let sum = checksum64(&frame_body);
    out.write_all(&frame_body)?;
    out.write_all(&sum.to_le_bytes())?;
    out.flush()?;
    Ok(frame_body.len() as u64 + 8)
}

/// Write `msg` as a frame with exactly one bit flipped in its payload
/// (or, for an empty payload, in its checksum), deterministically
/// positioned by `seed` — the executable [`Fault::CorruptReply`]. The
/// checksum is computed over the *pristine* body and the flip lands in
/// the payload region (never the header), so the receiver is guaranteed
/// a typed [`WireError::ChecksumMismatch`] — never silently merged
/// garbage.
pub fn write_corrupted_message(
    out: &mut impl Write,
    msg: &Message,
    seed: u64,
) -> Result<u64, ProtoError> {
    let (kind, payload) = encode_payload(msg);
    let mut w = WireWriter::new();
    w.put_bytes(&PROTO_MAGIC);
    w.put_u16(PROTO_VERSION);
    w.put_u8(kind);
    w.put_u8(0);
    w.put_u64(payload.len() as u64);
    w.put_bytes(&payload);
    let mut frame_body = w.into_bytes();
    let mut sum = checksum64(&frame_body).to_le_bytes();
    if payload.is_empty() {
        sum[(seed % 8) as usize] ^= 1 << ((seed / 8) % 8);
    } else {
        let at = 16 + (seed as usize % payload.len());
        frame_body[at] ^= 1 << ((seed / 7) % 8);
    }
    out.write_all(&frame_body)?;
    out.write_all(&sum)?;
    out.flush()?;
    Ok(frame_body.len() as u64 + 8)
}

/// Read one framed message, returning it with the total bytes consumed.
///
/// Returns [`ProtoError::Eof`] when the pipe closes cleanly *between*
/// frames (a finished worker); a pipe that dies mid-frame is an
/// [`ProtoError::Io`], and a frame that fails validation (magic,
/// version, checksum, payload structure) is a [`ProtoError::Wire`].
pub fn read_message(input: &mut impl Read) -> Result<(Message, u64), ProtoError> {
    let mut header = [0u8; 16];
    // Distinguish clean EOF (no bytes at all) from a mid-frame cut.
    let mut got = 0usize;
    while got < header.len() {
        match input.read(&mut header[got..])? {
            0 if got == 0 => return Err(ProtoError::Eof),
            0 => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "pipe closed mid-frame",
                )))
            }
            n => got += n,
        }
    }
    if header[0..4] != PROTO_MAGIC {
        return Err(WireError::BadMagic.into());
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTO_VERSION {
        return Err(WireError::UnsupportedVersion { found: version }.into());
    }
    let kind = header[6];
    let payload_len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| WireError::Malformed("payload length exceeds the address space"))?;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Malformed("frame payload exceeds the size cap").into());
    }
    let mut payload = vec![0u8; payload_len];
    input.read_exact(&mut payload)?;
    let mut sum = [0u8; 8];
    input.read_exact(&mut sum)?;
    let mut body = Vec::with_capacity(16 + payload_len);
    body.extend_from_slice(&header);
    body.extend_from_slice(&payload);
    if checksum64(&body) != u64::from_le_bytes(sum) {
        return Err(WireError::ChecksumMismatch.into());
    }
    let msg = decode_payload(kind, &payload)?;
    Ok((msg, 16 + payload_len as u64 + 8))
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
        put_base_params(&mut params_len, &params);
        let params_len = params_len.into_bytes().len();
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

    /// A reader that returns at most one byte per `read` call — the
    /// worst-case TCP segmentation, which never respects frame
    /// boundaries the way pipe writes mostly do.
    struct OneByteReader<'a>(&'a [u8]);

    impl std::io::Read for OneByteReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn every_message_decodes_from_a_one_byte_at_a_time_reader() {
        let params = SketchParams::with_budget(4, 2, 0.5, 80);
        let edges: Vec<Edge> = (0..200u64).map(|e| Edge::new((e % 4) as u32, e)).collect();
        let sketch = ThresholdSketch::from_stream(params, 11, &VecStream::new(4, edges.clone()));
        let messages = vec![
            Message::JobSketch {
                params,
                seed: 42,
                ship: ShipFormat::Binary,
                fault: Some(Fault::Delay(3)),
                batch: 64,
                edges: edges.clone(),
            },
            Message::JobDynamic {
                params: DynamicSketchParams::new(params),
                seed: 7,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 32,
                updates: vec![SignedEdge::insert(Edge::new(1u32, 2u64))],
            },
            Message::ReplySketch {
                snapshot: SketchSnapshot::of(&sketch),
            },
            Message::Heartbeat { nonce: u64::MAX },
            Message::ChunkStartSketch {
                shard: 2,
                chunks: 3,
                params,
                seed: 1,
                fault: None,
                batch: 16,
            },
            Message::JobChunk {
                shard: 2,
                index: 1,
                count: 3,
                payload: ChunkPayload::Edges(edges),
            },
            Message::ChunkAck { shard: 2, index: 1 },
            Message::Shutdown,
        ];
        // All frames concatenated through the 1-byte reader decode in
        // order and byte-for-byte.
        let mut buf = Vec::new();
        for m in &messages {
            write_message(&mut buf, m).unwrap();
        }
        let mut reader = OneByteReader(&buf);
        for m in &messages {
            let (back, _) = read_message(&mut reader).unwrap();
            let mut a = Vec::new();
            let mut b = Vec::new();
            write_message(&mut a, m).unwrap();
            write_message(&mut b, &back).unwrap();
            assert_eq!(a, b, "short-read decode must be byte-identical");
        }
        assert!(matches!(read_message(&mut reader), Err(ProtoError::Eof)));
    }

    #[test]
    fn old_version_frames_are_typed_not_fatal() {
        // Hand-craft a version-1 frame: take a valid frame, rewrite the
        // version field, and re-checksum — exactly the bytes an
        // old-version worker would produce.
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        let body_len = buf.len() - 8;
        buf[4] = 1;
        buf[5] = 0;
        let sum = checksum64(&buf[..body_len]).to_le_bytes();
        buf[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            read_message(&mut &buf[..]),
            Err(ProtoError::Wire(WireError::UnsupportedVersion { found: 1 }))
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

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        // A 16-byte header claiming a payload beyond the cap, with
        // nothing behind it: if the reader tried to allocate/read it,
        // this would be an Io error — the cap must fire first.
        let mut header = Vec::new();
        header.extend_from_slice(&PROTO_MAGIC);
        header.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        header.push(KIND_SHUTDOWN);
        header.push(0);
        header.extend_from_slice(&((MAX_FRAME_PAYLOAD as u64 + 1).to_le_bytes()));
        assert!(matches!(
            read_message(&mut &header[..]),
            Err(ProtoError::Wire(WireError::Malformed(_)))
        ));
    }

    #[test]
    fn empty_pipe_is_clean_eof() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_message(&mut empty), Err(ProtoError::Eof)));
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_message(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::BadMagic))
        ));
        // Version bump.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            read_message(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::UnsupportedVersion { found: 9 }))
        ));
        // Payload-area corruption → checksum. (Shutdown has no payload;
        // flip a checksum byte instead.)
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            read_message(&mut &bad[..]),
            Err(ProtoError::Wire(WireError::ChecksumMismatch))
        ));
        // Mid-frame cut → Io, not Eof.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_message(&mut &cut[..]),
            Err(ProtoError::Io(_))
        ));
    }
}
