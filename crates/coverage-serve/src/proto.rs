//! The client↔daemon protocol of the serving subsystem.
//!
//! The envelope (header, length, checksum, validation order, clean EOF
//! versus a mid-frame cut) is `coverage_sketch::frame`'s, shared with
//! the snapshot schema (`coverage_sketch::wire`) and the dist worker
//! protocol (`coverage_dist::proto`); this module is the payload schema
//! on it, under its own magic so a serve frame can never be confused
//! with either.
//!
//! ## Schema (magic `CVSV`, version 2)
//!
//! Request kinds 1–6 ([`Request::Update`], [`Request::Query`],
//! [`Request::Stats`], [`Request::Flush`], [`Request::Snapshot`],
//! [`Request::Shutdown`]); reply kinds 64–68 ([`Reply::Query`],
//! [`Reply::Stats`], [`Reply::Flush`], [`Reply::Snapshot`],
//! [`Reply::Error`]). The flags byte is reserved (0). Payloads above
//! [`MAX_SERVE_PAYLOAD`] are rejected before any allocation.
//!
//! ## Conversation
//!
//! Clients send [`Request`] frames; the daemon answers with [`Reply`]
//! frames matched by the request's `id`. [`Request::Update`] is
//! fire-and-forget (no reply on success; a rejected batch — e.g. a
//! delete in insertion-only mode — answers [`Reply::Error`]). Requests
//! are handled strictly in arrival order, so replies arrive in request
//! order. [`Request::Shutdown`] drains the engine and answers one
//! final [`Reply::Stats`]; closing the pipe drains without a reply.
//! Snapshot responses carry `coverage_sketch::wire` binary frames
//! (magic `CVSK`) as opaque payload bytes.

use std::io::{Read, Write};

use coverage_core::SetId;
use coverage_dist::{RoundCost, RoundsReport};
use coverage_sketch::frame::{send, Frame, FrameSpec, WireReader, WireWriter};
use coverage_sketch::WireError;
use coverage_stream::SignedEdge;

use crate::engine::{QueryAnswer, ServeError, ServeStats};

/// A serve protocol failure: the shared framed-link failures, plus the
/// engine refusing an operation (e.g. already shut down).
pub type ProtoError = coverage_sketch::frame::ProtoError<ServeError>;

impl From<ServeError> for ProtoError {
    fn from(e: ServeError) -> Self {
        ProtoError::Engine(e)
    }
}

/// Serve frame magic (distinct from snapshot `CVSK` and dist `CVPR`).
pub const SERVE_MAGIC: [u8; 4] = *b"CVSV";
/// Current serve protocol version (2 added the degraded-mode flag to
/// stats payloads).
pub const SERVE_VERSION: u16 = 2;

/// Hard ceiling on a frame's declared payload length, checked *before*
/// the payload buffer is allocated so a corrupt or hostile length field
/// cannot trigger an enormous allocation.
pub const MAX_SERVE_PAYLOAD: u64 = 1 << 28;

/// The `CVSV` envelope (request and reply kinds alike).
pub const CVSV: FrameSpec = FrameSpec {
    magic: SERVE_MAGIC,
    version: SERVE_VERSION,
    kinds: &[1, 2, 3, 4, 5, 6, 64, 65, 66, 67, 68],
    max_payload: MAX_SERVE_PAYLOAD,
};

const KIND_UPDATE: u8 = 1;
const KIND_QUERY: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_FLUSH: u8 = 4;
const KIND_SNAPSHOT: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;
const KIND_REPLY_QUERY: u8 = 64;
const KIND_REPLY_STATS: u8 = 65;
const KIND_REPLY_FLUSH: u8 = 66;
const KIND_REPLY_SNAPSHOT: u8 = 67;
const KIND_REPLY_ERROR: u8 = 68;

/// Client → daemon.
#[derive(Clone, Debug)]
pub enum Request {
    /// Stream a batch of signed updates into the live store. No reply
    /// on success; [`Reply::Error`] (same `id`) on rejection.
    Update {
        /// Echoed in an error reply if the batch is rejected.
        id: u64,
        /// The signed updates, in intended application order.
        updates: Vec<SignedEdge>,
    },
    /// Answer `k`-cover on the freshest published snapshot.
    Query {
        /// Reply correlation id.
        id: u64,
        /// Target family size.
        k: usize,
    },
    /// Report the engine's counters.
    Stats {
        /// Reply correlation id.
        id: u64,
    },
    /// Publish everything applied so far as a fresh epoch.
    Flush {
        /// Reply correlation id.
        id: u64,
    },
    /// Publish, then ship binary snapshots of the live store.
    Snapshot {
        /// Reply correlation id.
        id: u64,
    },
    /// Drain the queue, publish a final epoch, answer [`Reply::Stats`],
    /// and exit.
    Shutdown {
        /// Reply correlation id.
        id: u64,
    },
}

/// Daemon → client.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Answer to a [`Request::Query`].
    Query {
        /// The request's id.
        id: u64,
        /// The epoch-tagged deterministic answer.
        answer: QueryAnswer,
    },
    /// Answer to a [`Request::Stats`] or [`Request::Shutdown`].
    Stats {
        /// The request's id.
        id: u64,
        /// Counters at reply time (final counters for a shutdown).
        stats: ServeStats,
    },
    /// Answer to a [`Request::Flush`].
    Flush {
        /// The request's id.
        id: u64,
        /// The epoch now published.
        epoch: u64,
        /// Updates visible at that epoch.
        updates_applied: u64,
    },
    /// Answer to a [`Request::Snapshot`].
    Snapshot {
        /// The request's id.
        id: u64,
        /// The epoch the snapshots were exported at.
        epoch: u64,
        /// One `coverage_sketch::wire` binary frame per live sketch.
        frames: Vec<Vec<u8>>,
    },
    /// A rejected request (bad update batch, unknown operation, …).
    Error {
        /// The offending request's id.
        id: u64,
        /// Human-readable rejection reason.
        message: String,
    },
}

fn put_answer(w: &mut WireWriter, a: &QueryAnswer) {
    w.put_varint(a.epoch);
    w.put_varint(a.updates_applied);
    w.put_varint(a.guess_index as u64);
    w.put_varint(a.guess_k as u64);
    w.put_varint(a.family.len() as u64);
    for s in &a.family {
        w.put_varint(s.0 as u64);
    }
    w.put_varint(a.sketch_coverage as u64);
    w.put_u64(a.estimate.to_bits());
    w.put_u64(a.sampling_p.to_bits());
}

fn get_answer(r: &mut WireReader<'_>) -> Result<QueryAnswer, WireError> {
    let epoch = r.get_varint()?;
    let updates_applied = r.get_varint()?;
    let guess_index = r.get_len()?;
    let guess_k = r.get_len()?;
    let len = r.get_count("family length exceeds payload size")?;
    let mut family = Vec::with_capacity(len);
    for _ in 0..len {
        family.push(SetId(r.get_set_id()?));
    }
    Ok(QueryAnswer {
        epoch,
        updates_applied,
        guess_index,
        guess_k,
        family,
        sketch_coverage: r.get_len()?,
        estimate: f64::from_bits(r.get_u64()?),
        sampling_p: f64::from_bits(r.get_u64()?),
    })
}

fn put_stats(w: &mut WireWriter, s: &ServeStats) {
    w.put_varint(s.epoch);
    w.put_varint(s.epochs_published);
    w.put_varint(s.publish_failures);
    w.put_varint(s.updates_enqueued);
    w.put_varint(s.updates_applied);
    w.put_varint(s.published_updates);
    w.put_varint(s.queries_served);
    w.put_u8(u8::from(s.degraded));
    w.put_varint(s.report.rounds.len() as u64);
    for r in &s.report.rounds {
        w.put_varint(r.sketches_in as u64);
        w.put_varint(r.sketches_out as u64);
        w.put_varint(r.words_shipped);
        w.put_varint(r.bytes_shipped);
    }
}

fn get_stats(r: &mut WireReader<'_>) -> Result<ServeStats, WireError> {
    let epoch = r.get_varint()?;
    let epochs_published = r.get_varint()?;
    let publish_failures = r.get_varint()?;
    let updates_enqueued = r.get_varint()?;
    let updates_applied = r.get_varint()?;
    let published_updates = r.get_varint()?;
    let queries_served = r.get_varint()?;
    let degraded = match r.get_u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("unknown degraded flag")),
    };
    let n = r.get_count("round count exceeds payload size")?;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(RoundCost {
            sketches_in: r.get_len()?,
            sketches_out: r.get_len()?,
            words_shipped: r.get_varint()?,
            bytes_shipped: r.get_varint()?,
        });
    }
    Ok(ServeStats {
        epoch,
        epochs_published,
        publish_failures,
        updates_enqueued,
        updates_applied,
        published_updates,
        queries_served,
        degraded,
        report: RoundsReport { rounds },
    })
}

/// Write `msg`'s payload and return its kind.
fn put_request(w: &mut WireWriter, msg: &Request) -> u8 {
    match msg {
        Request::Update { id, updates } => {
            w.put_varint(*id);
            w.put_updates(updates);
            KIND_UPDATE
        }
        Request::Query { id, k } => {
            w.put_varint(*id);
            w.put_varint(*k as u64);
            KIND_QUERY
        }
        Request::Stats { id } => {
            w.put_varint(*id);
            KIND_STATS
        }
        Request::Flush { id } => {
            w.put_varint(*id);
            KIND_FLUSH
        }
        Request::Snapshot { id } => {
            w.put_varint(*id);
            KIND_SNAPSHOT
        }
        Request::Shutdown { id } => {
            w.put_varint(*id);
            KIND_SHUTDOWN
        }
    }
}

fn decode_request(frame: Frame<'_>) -> Result<Request, WireError> {
    let mut r = WireReader::new(frame.payload);
    let msg = match frame.kind {
        KIND_UPDATE => Request::Update {
            id: r.get_varint()?,
            updates: r.get_updates()?,
        },
        KIND_QUERY => Request::Query {
            id: r.get_varint()?,
            k: r.get_len()?,
        },
        KIND_STATS => Request::Stats {
            id: r.get_varint()?,
        },
        KIND_FLUSH => Request::Flush {
            id: r.get_varint()?,
        },
        KIND_SNAPSHOT => Request::Snapshot {
            id: r.get_varint()?,
        },
        KIND_SHUTDOWN => Request::Shutdown {
            id: r.get_varint()?,
        },
        other => return Err(WireError::UnknownKind { found: other }),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes"));
    }
    Ok(msg)
}

/// Write `msg`'s payload and return its kind.
fn put_reply(w: &mut WireWriter, msg: &Reply) -> u8 {
    match msg {
        Reply::Query { id, answer } => {
            w.put_varint(*id);
            put_answer(w, answer);
            KIND_REPLY_QUERY
        }
        Reply::Stats { id, stats } => {
            w.put_varint(*id);
            put_stats(w, stats);
            KIND_REPLY_STATS
        }
        Reply::Flush {
            id,
            epoch,
            updates_applied,
        } => {
            w.put_varint(*id);
            w.put_varint(*epoch);
            w.put_varint(*updates_applied);
            KIND_REPLY_FLUSH
        }
        Reply::Snapshot { id, epoch, frames } => {
            w.put_varint(*id);
            w.put_varint(*epoch);
            w.put_varint(frames.len() as u64);
            for frame in frames {
                w.put_varint(frame.len() as u64);
                w.put_bytes(frame);
            }
            KIND_REPLY_SNAPSHOT
        }
        Reply::Error { id, message } => {
            w.put_varint(*id);
            w.put_varint(message.len() as u64);
            w.put_bytes(message.as_bytes());
            KIND_REPLY_ERROR
        }
    }
}

fn decode_reply(frame: Frame<'_>) -> Result<Reply, WireError> {
    let mut r = WireReader::new(frame.payload);
    let msg = match frame.kind {
        KIND_REPLY_QUERY => Reply::Query {
            id: r.get_varint()?,
            answer: get_answer(&mut r)?,
        },
        KIND_REPLY_STATS => Reply::Stats {
            id: r.get_varint()?,
            stats: get_stats(&mut r)?,
        },
        KIND_REPLY_FLUSH => Reply::Flush {
            id: r.get_varint()?,
            epoch: r.get_varint()?,
            updates_applied: r.get_varint()?,
        },
        KIND_REPLY_SNAPSHOT => {
            let id = r.get_varint()?;
            let epoch = r.get_varint()?;
            let n = r.get_count("frame count exceeds payload size")?;
            let mut frames = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.get_len()?;
                frames.push(r.get_bytes(len)?.to_vec());
            }
            Reply::Snapshot { id, epoch, frames }
        }
        KIND_REPLY_ERROR => {
            let id = r.get_varint()?;
            let len = r.get_len()?;
            let message = std::str::from_utf8(r.get_bytes(len)?)
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?
                .to_string();
            Reply::Error { id, message }
        }
        other => return Err(WireError::UnknownKind { found: other }),
    };
    if !r.is_done() {
        return Err(WireError::Malformed("leftover payload bytes"));
    }
    Ok(msg)
}

/// Write one framed request; returns the bytes put on the pipe.
pub fn write_request(out: &mut impl Write, msg: &Request) -> Result<u64, ProtoError> {
    Ok(send(out, &CVSV.encode(0, |w| put_request(w, msg)))?)
}

/// Read one framed request ([`ProtoError::Eof`] on clean hangup).
pub fn read_request(input: &mut impl Read) -> Result<(Request, u64), ProtoError> {
    CVSV.read(input, decode_request)
}

/// Write one framed reply; returns the bytes put on the pipe.
pub fn write_reply(out: &mut impl Write, msg: &Reply) -> Result<u64, ProtoError> {
    Ok(send(out, &CVSV.encode(0, |w| put_reply(w, msg)))?)
}

/// Read one framed reply ([`ProtoError::Eof`] on clean hangup).
pub fn read_reply(input: &mut impl Read) -> Result<(Reply, u64), ProtoError> {
    CVSV.read(input, decode_reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::Edge;

    fn roundtrip_request(msg: &Request) -> Request {
        let mut buf = Vec::new();
        let written = write_request(&mut buf, msg).unwrap();
        assert_eq!(written as usize, buf.len());
        let mut cursor = &buf[..];
        let (back, read) = read_request(&mut cursor).unwrap();
        assert_eq!(read, written);
        assert!(cursor.is_empty());
        back
    }

    fn roundtrip_reply(msg: &Reply) -> Reply {
        let mut buf = Vec::new();
        let written = write_reply(&mut buf, msg).unwrap();
        let (back, read) = read_reply(&mut &buf[..]).unwrap();
        assert_eq!(read, written);
        back
    }

    #[test]
    fn update_roundtrips_signs() {
        let msg = Request::Update {
            id: 9,
            updates: vec![
                SignedEdge::insert(Edge::new(3u32, 17u64)),
                SignedEdge::delete(Edge::new(3u32, 17u64)),
                SignedEdge::insert(Edge::new(0u32, u64::MAX)),
            ],
        };
        match roundtrip_request(&msg) {
            Request::Update { id, updates } => {
                assert_eq!(id, 9);
                assert_eq!(updates.len(), 3);
                assert!(updates[0].sign() > 0);
                assert!(updates[1].sign() < 0);
                assert_eq!(updates[2].edge, Edge::new(0u32, u64::MAX));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn control_requests_roundtrip() {
        for (msg, want_id) in [
            (Request::Query { id: 1, k: 4 }, 1),
            (Request::Stats { id: 2 }, 2),
            (Request::Flush { id: 3 }, 3),
            (Request::Snapshot { id: 4 }, 4),
            (Request::Shutdown { id: 5 }, 5),
        ] {
            let back = roundtrip_request(&msg);
            let id = match back {
                Request::Update { id, .. }
                | Request::Query { id, .. }
                | Request::Stats { id }
                | Request::Flush { id }
                | Request::Snapshot { id }
                | Request::Shutdown { id } => id,
            };
            assert_eq!(id, want_id);
        }
    }

    #[test]
    fn query_reply_roundtrips_bit_exactly() {
        let answer = QueryAnswer {
            epoch: 7,
            updates_applied: 4_000,
            guess_index: 2,
            guess_k: 4,
            family: vec![SetId(5), SetId(0), SetId(31)],
            sketch_coverage: 1234,
            estimate: 9876.5,
            sampling_p: 0.125,
        };
        match roundtrip_reply(&Reply::Query {
            id: 11,
            answer: answer.clone(),
        }) {
            Reply::Query { id, answer: back } => {
                assert_eq!(id, 11);
                assert!(back.bit_eq(&answer));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn stats_reply_roundtrips_rounds() {
        let stats = ServeStats {
            epoch: 3,
            epochs_published: 3,
            publish_failures: 1,
            updates_enqueued: 500,
            updates_applied: 480,
            published_updates: 400,
            queries_served: 42,
            degraded: true,
            report: RoundsReport {
                rounds: vec![
                    RoundCost {
                        sketches_in: 8,
                        sketches_out: 8,
                        words_shipped: 999,
                        bytes_shipped: 0,
                    },
                    RoundCost {
                        sketches_in: 8,
                        sketches_out: 8,
                        words_shipped: 1234,
                        bytes_shipped: 777,
                    },
                ],
            },
        };
        match roundtrip_reply(&Reply::Stats {
            id: 1,
            stats: stats.clone(),
        }) {
            Reply::Stats { stats: back, .. } => {
                assert_eq!(back.epoch, 3);
                assert!(back.degraded);
                assert_eq!(back.staleness(), 80);
                assert_eq!(back.queue_lag(), 20);
                assert_eq!(back.report.rounds, stats.report.rounds);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn snapshot_and_error_replies_roundtrip() {
        match roundtrip_reply(&Reply::Snapshot {
            id: 2,
            epoch: 5,
            frames: vec![vec![1, 2, 3], vec![], vec![255; 64]],
        }) {
            Reply::Snapshot { epoch, frames, .. } => {
                assert_eq!(epoch, 5);
                assert_eq!(frames.len(), 3);
                assert_eq!(frames[2].len(), 64);
            }
            other => panic!("wrong message: {other:?}"),
        }
        match roundtrip_reply(&Reply::Error {
            id: 3,
            message: "no deletes in insert-only mode".into(),
        }) {
            Reply::Error { id, message } => {
                assert_eq!(id, 3);
                assert!(message.contains("insert-only"));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }
}
