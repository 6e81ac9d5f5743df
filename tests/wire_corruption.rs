//! Adversarial decoding over the three wire protocols — `CVSK` sketch
//! snapshots, `CVPR` worker messages and `CVSV` serve traffic, which
//! share one frame envelope. Every class of frame corruption — bit
//! flips at every offset, truncation at every length, version bumps,
//! kind swaps, length-field lies — must surface as a **typed** error,
//! never a panic: a [`WireError`] for a bad frame, a clean EOF for a
//! stream that ends between frames, an I/O error for one that ends
//! inside a frame. A snapshot that fails to decode must leave a
//! receiving sketch's state untouched (decode validates the whole frame
//! before anything is restored or merged).

use std::io::Read;

use coverage_suite::dist::proto::{read_message, write_message, CVPR};
use coverage_suite::dist::{ChunkPayload, Message, RoundsReport};
use coverage_suite::prelude::*;
use coverage_suite::serve::proto::{read_reply, read_request, write_reply, write_request, CVSV};
use coverage_suite::serve::{Reply, Request};
use coverage_suite::sketch::frame::{checksum64, FrameSpec, ProtoError, CHECKSUM_LEN, HEADER_LEN};
use coverage_suite::sketch::wire::{CVSK, WIRE_VERSION};
use coverage_suite::sketch::WireError;

/// A small but non-trivial threshold snapshot and its binary frame.
fn threshold_frame() -> (SketchSnapshot, Vec<u8>) {
    let params = SketchParams::with_budget(12, 3, 0.4, 400);
    let mut sketch = ThresholdSketch::new(params, 99);
    let edges: Vec<Edge> = (0..900u64)
        .map(|e| Edge::new((e % 12) as u32, e * 11))
        .collect();
    sketch.update_batch(&edges);
    let snap = SketchSnapshot::of(&sketch);
    let frame = snap.encode_binary();
    (snap, frame)
}

/// A dynamic snapshot and its binary frame.
fn dynamic_frame() -> (DynamicSnapshot, Vec<u8>) {
    let params = DynamicSketchParams::new(SketchParams::with_budget(10, 2, 0.4, 300));
    let mut sketch = DynamicSketch::new(params, 7);
    let updates: Vec<SignedEdge> = (0..500u64)
        .map(|e| {
            let edge = Edge::new((e % 10) as u32, e * 3);
            if e % 7 == 0 {
                SignedEdge::delete(edge)
            } else {
                SignedEdge::insert(edge)
            }
        })
        .collect();
    sketch.update_batch(&updates);
    let snap = DynamicSnapshot::of(&sketch);
    let frame = snap.encode_binary();
    (snap, frame)
}

/// Rewrite a frame's trailing checksum so header/payload edits are
/// *only* caught by the field validation under test, not the checksum.
fn fix_checksum(frame: &mut [u8]) {
    let body = frame.len() - CHECKSUM_LEN;
    let sum = checksum64(&frame[..body]).to_le_bytes();
    frame[body..].copy_from_slice(&sum);
}

/// The transport receive path: decode, then merge into `acc`. On any
/// decode error the accumulator must be byte-for-byte unchanged.
fn receive(acc: &mut ThresholdSketch, frame: &[u8]) -> Result<(), WireError> {
    let snap = SketchSnapshot::decode_binary(frame)?;
    acc.merge_from(&snap.restore());
    Ok(())
}

// ---------------------------------------------------------------------
// One harness for three protocols.
// ---------------------------------------------------------------------

/// How one decode attempt ended, each protocol's error folded into one
/// shape.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The frame decoded; the decoded value, encoded again.
    Decoded(Vec<u8>),
    /// A typed frame or payload error.
    Wire(WireError),
    /// The stream ended inside a frame.
    Io,
    /// The stream ended cleanly before a frame.
    Eof,
}

fn fold<E: std::fmt::Debug>(result: Result<Vec<u8>, ProtoError<E>>) -> Outcome {
    match result {
        Ok(bytes) => Outcome::Decoded(bytes),
        Err(ProtoError::Wire(e)) => Outcome::Wire(e),
        Err(ProtoError::Io(_)) => Outcome::Io,
        Err(ProtoError::Eof) => Outcome::Eof,
        Err(e) => panic!("a decoder reported {e:?}"),
    }
}

/// A protocol's public decoder for one frame.
#[derive(Clone, Copy)]
enum Decoder {
    /// A whole buffer: `CVSK` snapshots.
    Buffer(fn(&[u8]) -> Outcome),
    /// One frame off a byte stream: `CVPR` and `CVSV` links.
    Stream(fn(&mut dyn Read) -> Outcome),
}

impl Decoder {
    fn decode(self, bytes: &[u8]) -> Outcome {
        match self {
            Decoder::Buffer(decode) => decode(bytes),
            Decoder::Stream(read) => read(&mut &bytes[..]),
        }
    }
}

fn threshold_decoder(bytes: &[u8]) -> Outcome {
    match SketchSnapshot::decode_binary(bytes) {
        Ok(snap) => Outcome::Decoded(snap.encode_binary()),
        Err(e) => Outcome::Wire(e),
    }
}

fn dynamic_decoder(bytes: &[u8]) -> Outcome {
    match DynamicSnapshot::decode_binary(bytes) {
        Ok(snap) => Outcome::Decoded(snap.encode_binary()),
        Err(e) => Outcome::Wire(e),
    }
}

fn cvpr_frame(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    write_message(&mut buf, msg).expect("in-memory write");
    buf
}

fn cvpr_decoder(mut input: &mut dyn Read) -> Outcome {
    fold(read_message(&mut input).map(|(msg, _)| cvpr_frame(&msg)))
}

fn request_frame(msg: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, msg).expect("in-memory write");
    buf
}

fn request_decoder(mut input: &mut dyn Read) -> Outcome {
    fold(read_request(&mut input).map(|(msg, _)| request_frame(&msg)))
}

fn reply_frame(msg: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    write_reply(&mut buf, msg).expect("in-memory write");
    buf
}

fn reply_decoder(mut input: &mut dyn Read) -> Outcome {
    fold(read_reply(&mut input).map(|(msg, _)| reply_frame(&msg)))
}

/// One frame under test.
struct Sample {
    name: &'static str,
    spec: FrameSpec,
    frame: Vec<u8>,
    decoder: Decoder,
}

impl Sample {
    fn decode(&self, bytes: &[u8]) -> Outcome {
        self.decoder.decode(bytes)
    }

    /// Read one frame off `input` (stream protocols only).
    fn read(&self, input: &mut dyn Read) -> Outcome {
        match self.decoder {
            Decoder::Stream(read) => read(input),
            Decoder::Buffer(_) => unreachable!("{} is decoded from buffers", self.name),
        }
    }

    fn is_stream(&self) -> bool {
        matches!(self.decoder, Decoder::Stream(_))
    }

    fn payload_len(&self) -> usize {
        self.frame.len() - HEADER_LEN - CHECKSUM_LEN
    }
}

/// One frame of every kind of every protocol. Payloads stay small so
/// the exhaustive bit-flip sweep stays fast.
fn samples() -> Vec<Sample> {
    let params = SketchParams::with_budget(6, 2, 0.5, 40);
    let dparams = DynamicSketchParams::new(params);
    let edges: Vec<Edge> = (0..60u64)
        .map(|e| Edge::new((e % 6) as u32, e * 7))
        .collect();
    let updates: Vec<SignedEdge> = edges
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            if i % 5 == 0 {
                SignedEdge::delete(e)
            } else {
                SignedEdge::insert(e)
            }
        })
        .collect();
    let mut sketch = ThresholdSketch::new(params, 5);
    sketch.update_batch(&edges);
    let snapshot = SketchSnapshot::of(&sketch);
    let mut dsketch = DynamicSketch::new(dparams, 5);
    dsketch.update_batch(&updates[..12]);
    let dsnapshot = DynamicSnapshot::of(&dsketch);

    let cvsk = |name: &'static str, frame: Vec<u8>, decode: fn(&[u8]) -> Outcome| Sample {
        name,
        spec: CVSK,
        frame,
        decoder: Decoder::Buffer(decode),
    };
    let mut out = vec![
        cvsk("CVSK threshold", threshold_frame().1, threshold_decoder),
        cvsk("CVSK dynamic", dsnapshot.encode_binary(), dynamic_decoder),
    ];

    let messages = [
        (
            "CVPR job-sketch",
            Message::JobSketch {
                params,
                seed: 42,
                ship: ShipFormat::Binary,
                fault: Some(Fault::Delay(3)),
                batch: 64,
                edges: edges[..20].to_vec(),
            },
        ),
        (
            "CVPR job-dynamic",
            Message::JobDynamic {
                params: dparams,
                seed: 7,
                ship: ShipFormat::Binary,
                fault: None,
                batch: 32,
                updates: updates[..20].to_vec(),
            },
        ),
        ("CVPR reply-sketch", Message::ReplySketch { snapshot }),
        (
            "CVPR reply-dynamic",
            Message::ReplyDynamic {
                snapshot: dsnapshot,
            },
        ),
        ("CVPR shutdown", Message::Shutdown),
        ("CVPR heartbeat", Message::Heartbeat { nonce: u64::MAX }),
        (
            "CVPR chunk-start-sketch",
            Message::ChunkStartSketch {
                shard: 2,
                chunks: 3,
                params,
                seed: 1,
                fault: Some(Fault::Crash),
                batch: 16,
            },
        ),
        (
            "CVPR chunk-start-dynamic",
            Message::ChunkStartDynamic {
                shard: 1,
                chunks: 2,
                params: dparams,
                seed: 9,
                fault: None,
                batch: 16,
            },
        ),
        (
            "CVPR job-chunk",
            Message::JobChunk {
                shard: 2,
                index: 1,
                count: 3,
                payload: ChunkPayload::Edges(edges[..20].to_vec()),
            },
        ),
        ("CVPR chunk-ack", Message::ChunkAck { shard: 2, index: 1 }),
    ];
    out.extend(messages.iter().map(|(name, msg)| Sample {
        name,
        spec: CVPR,
        frame: cvpr_frame(msg),
        decoder: Decoder::Stream(cvpr_decoder),
    }));

    let requests = [
        (
            "CVSV update",
            Request::Update {
                id: 9,
                updates: updates[..20].to_vec(),
            },
        ),
        ("CVSV query", Request::Query { id: 1, k: 4 }),
        ("CVSV stats", Request::Stats { id: 2 }),
        ("CVSV flush", Request::Flush { id: 3 }),
        ("CVSV snapshot", Request::Snapshot { id: 4 }),
        ("CVSV shutdown", Request::Shutdown { id: 5 }),
    ];
    out.extend(requests.iter().map(|(name, msg)| Sample {
        name,
        spec: CVSV,
        frame: request_frame(msg),
        decoder: Decoder::Stream(request_decoder),
    }));

    let answer = QueryAnswer {
        epoch: 7,
        updates_applied: 4_000,
        guess_index: 2,
        guess_k: 4,
        family: vec![SetId(5), SetId(0)],
        sketch_coverage: 1234,
        estimate: 9876.5,
        sampling_p: 0.125,
    };
    let stats = ServeStats {
        epoch: 3,
        epochs_published: 3,
        publish_failures: 0,
        updates_enqueued: 500,
        updates_applied: 480,
        published_updates: 400,
        queries_served: 42,
        degraded: false,
        report: RoundsReport { rounds: Vec::new() },
    };
    let replies = [
        ("CVSV reply-query", Reply::Query { id: 11, answer }),
        ("CVSV reply-stats", Reply::Stats { id: 1, stats }),
        (
            "CVSV reply-flush",
            Reply::Flush {
                id: 3,
                epoch: 6,
                updates_applied: 4_096,
            },
        ),
        (
            "CVSV reply-snapshot",
            Reply::Snapshot {
                id: 2,
                epoch: 5,
                frames: vec![vec![1, 2, 3]],
            },
        ),
        (
            "CVSV reply-error",
            Reply::Error {
                id: 3,
                message: "no deletes in insert-only mode".into(),
            },
        ),
    ];
    out.extend(replies.iter().map(|(name, msg)| Sample {
        name,
        spec: CVSV,
        frame: reply_frame(msg),
        decoder: Decoder::Stream(reply_decoder),
    }));
    out
}

#[test]
fn every_sample_decodes_back_to_its_own_bytes() {
    // The harness's baseline: untouched frames decode, and what they
    // decode to encodes to the same bytes.
    for s in samples() {
        assert_eq!(
            s.decode(&s.frame),
            Outcome::Decoded(s.frame.clone()),
            "{}",
            s.name
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // The checksum covers header + payload and is itself part of the
    // frame, so *any* one-bit corruption must fail to decode — either
    // at a header field check or at the checksum gate. No exceptions,
    // no panics.
    for s in samples() {
        for byte in 0..s.frame.len() {
            for bit in 0..8 {
                let mut bad = s.frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    !matches!(s.decode(&bad), Outcome::Decoded(_)),
                    "{}: flip at byte {byte} bit {bit} must not decode",
                    s.name
                );
            }
        }
    }
}

#[test]
fn every_truncation_is_a_typed_truncated_error() {
    // Buffers: every cut is `Truncated`, through the protocol's own
    // decoder and through the shared frame decoder alike. Streams: no
    // bytes at all is a clean EOF, any other cut an I/O error.
    for s in samples() {
        for len in 0..s.frame.len() {
            let cut = &s.frame[..len];
            let buffer_outcomes = match s.decoder {
                Decoder::Buffer(_) => vec![s.decode(cut), frame_outcome(&s.spec, cut)],
                Decoder::Stream(_) => vec![frame_outcome(&s.spec, cut)],
            };
            for outcome in buffer_outcomes {
                match outcome {
                    Outcome::Wire(WireError::Truncated { needed, have }) => {
                        assert_eq!(have, len, "{}", s.name);
                        assert!(
                            needed > have,
                            "{}: cut at {len}: needed {needed} > have {have}",
                            s.name
                        );
                    }
                    other => panic!(
                        "{}: cut at {len}: expected Truncated, got {other:?}",
                        s.name
                    ),
                }
            }
            if s.is_stream() {
                let want = if len == 0 { Outcome::Eof } else { Outcome::Io };
                assert_eq!(s.decode(cut), want, "{}: cut at {len}", s.name);
            }
        }
    }
    let (_, dframe) = dynamic_frame();
    for len in 0..dframe.len() {
        assert!(
            matches!(
                DynamicSnapshot::decode_binary(&dframe[..len]),
                Err(WireError::Truncated { .. })
            ),
            "dynamic cut at {len} must be Truncated"
        );
    }
}

/// The shared frame decoder's verdict on `bytes` under `spec`.
fn frame_outcome(spec: &FrameSpec, bytes: &[u8]) -> Outcome {
    match spec.decode(bytes) {
        Ok(frame) => Outcome::Decoded(frame.payload.to_vec()),
        Err(e) => Outcome::Wire(e),
    }
}

#[test]
fn version_bump_is_unsupported_version_not_checksum_noise() {
    // A frame from a future format version must be reported as exactly
    // that — the header is validated before the checksum so the error
    // is actionable, not a generic mismatch.
    for s in samples() {
        let mut frame = s.frame.clone();
        frame[4..6].copy_from_slice(&(s.spec.version + 1).to_le_bytes());
        fix_checksum(&mut frame);
        match s.decode(&frame) {
            Outcome::Wire(WireError::UnsupportedVersion { found }) => {
                assert_eq!(found, s.spec.version + 1, "{}", s.name)
            }
            other => panic!("{}: expected UnsupportedVersion, got {other:?}", s.name),
        }
    }
    assert_eq!(CVSK.version, WIRE_VERSION);
}

#[test]
fn old_version_frames_are_typed_not_fatal() {
    // Exactly the bytes an old-version peer would produce: the version
    // field rewritten, the checksum valid. An old worker or client must
    // read as a typed error, never as a hang or a crash.
    for s in samples() {
        let mut frame = s.frame.clone();
        frame[4..6].copy_from_slice(&(s.spec.version - 1).to_le_bytes());
        fix_checksum(&mut frame);
        assert_eq!(
            s.decode(&frame),
            Outcome::Wire(WireError::UnsupportedVersion {
                found: s.spec.version - 1
            }),
            "{}",
            s.name
        );
    }
}

#[test]
fn bad_magic_and_unknown_kind_are_typed() {
    let all = samples();
    for s in &all {
        let mut bad = s.frame.clone();
        bad[0] = b'X';
        fix_checksum(&mut bad);
        assert_eq!(
            s.decode(&bad),
            Outcome::Wire(WireError::BadMagic),
            "{}",
            s.name
        );
        let mut bad = s.frame.clone();
        bad[6] = 0xEE; // kind byte
        fix_checksum(&mut bad);
        assert_eq!(
            s.decode(&bad),
            Outcome::Wire(WireError::UnknownKind { found: 0xEE }),
            "{}",
            s.name
        );
        // Another protocol's frame is rejected by its magic.
        for other in all.iter().filter(|o| o.spec.magic != s.spec.magic) {
            assert_eq!(
                s.decode(&other.frame),
                Outcome::Wire(WireError::BadMagic),
                "{} read as {}",
                other.name,
                s.name
            );
        }
    }
}

#[test]
fn corrupt_frames_are_typed_errors() {
    // Header corruption without a re-sealed checksum still reports the
    // header field, because the header is checked first — the kind
    // included, before the checksum, on every protocol.
    for s in samples() {
        let mut bad = s.frame.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            s.decode(&bad),
            Outcome::Wire(WireError::BadMagic),
            "{}",
            s.name
        );
        let mut bad = s.frame.clone();
        bad[4] = 9;
        assert_eq!(
            s.decode(&bad),
            Outcome::Wire(WireError::UnsupportedVersion { found: 9 }),
            "{}",
            s.name
        );
        let mut bad = s.frame.clone();
        bad[6] = 0xEE;
        assert_eq!(
            s.decode(&bad),
            Outcome::Wire(WireError::UnknownKind { found: 0xEE }),
            "{}",
            s.name
        );
        let mut bad = s.frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(
            s.decode(&bad),
            Outcome::Wire(WireError::ChecksumMismatch),
            "{}",
            s.name
        );
        let cut = &s.frame[..s.frame.len() - 3];
        match s.decode(cut) {
            Outcome::Wire(WireError::Truncated { .. }) if !s.is_stream() => {}
            Outcome::Io if s.is_stream() => {}
            other => panic!("{}: a frame cut short gave {other:?}", s.name),
        }
    }
}

#[test]
fn length_field_lies_are_typed() {
    for s in samples() {
        let payload_len = s.payload_len();
        // Inflated length: the frame claims more payload than arrives.
        let mut bad = s.frame.clone();
        bad[8..16].copy_from_slice(&((payload_len + 40) as u64).to_le_bytes());
        fix_checksum(&mut bad);
        let want = if s.is_stream() {
            Outcome::Io
        } else {
            Outcome::Wire(WireError::Truncated {
                needed: s.frame.len() + 40,
                have: s.frame.len(),
            })
        };
        assert_eq!(s.decode(&bad), want, "{}: inflated length", s.name);
        // Deflated length: bytes left over after the declared frame. A
        // stream reads the shorter frame, whose trailer is then payload.
        if payload_len >= 4 {
            let mut bad = s.frame.clone();
            bad[8..16].copy_from_slice(&((payload_len - 4) as u64).to_le_bytes());
            fix_checksum(&mut bad);
            let want = if s.is_stream() {
                WireError::ChecksumMismatch
            } else {
                WireError::TrailingBytes
            };
            assert_eq!(s.decode(&bad), Outcome::Wire(want), "{}: deflated", s.name);
        }
        // Appending junk after a valid frame is trailing garbage to a
        // buffer; on a stream the frame decodes and the junk is the
        // start of a frame cut short.
        let mut bad = s.frame.clone();
        bad.extend_from_slice(&[0u8; 7]);
        match s.decoder {
            Decoder::Buffer(_) => assert_eq!(
                s.decode(&bad),
                Outcome::Wire(WireError::TrailingBytes),
                "{}",
                s.name
            ),
            Decoder::Stream(_) => {
                let mut stream = &bad[..];
                assert_eq!(s.read(&mut stream), Outcome::Decoded(s.frame.clone()));
                assert_eq!(s.read(&mut stream), Outcome::Io, "{}", s.name);
            }
        }
    }
}

#[test]
fn oversized_payload_is_rejected_before_allocation() {
    // A bare header claiming a payload beyond the protocol's cap, with
    // nothing behind it: if the reader tried to allocate and read it,
    // this would be an I/O error — the cap must fire first.
    for s in samples().into_iter().filter(Sample::is_stream) {
        let mut header = s.frame[..HEADER_LEN].to_vec();
        header[8..16].copy_from_slice(&(s.spec.max_payload + 1).to_le_bytes());
        assert!(
            matches!(s.decode(&header), Outcome::Wire(WireError::Malformed(_))),
            "{}",
            s.name
        );
    }
}

#[test]
fn empty_pipe_is_clean_eof() {
    for s in samples().into_iter().filter(Sample::is_stream) {
        assert_eq!(s.decode(&[]), Outcome::Eof, "{}", s.name);
    }
}

/// A reader that returns at most one byte per `read` call — the
/// worst-case TCP segmentation, which never respects frame boundaries
/// the way pipe writes mostly do.
struct OneByteReader<'a>(&'a [u8]);

impl Read for OneByteReader<'_> {
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
    // All of a stream protocol's frames, concatenated and fed through
    // the one-byte reader, decode in order and byte-for-byte.
    for spec in [CVPR, CVSV] {
        let samples: Vec<Sample> = samples()
            .into_iter()
            .filter(|s| s.spec.magic == spec.magic)
            .collect();
        let stream: Vec<u8> = samples.iter().flat_map(|s| s.frame.clone()).collect();
        let mut reader = OneByteReader(&stream);
        for s in &samples {
            assert_eq!(
                s.read(&mut reader),
                Outcome::Decoded(s.frame.clone()),
                "{}: short-read decode must be byte-identical",
                s.name
            );
        }
        assert_eq!(samples[0].read(&mut reader), Outcome::Eof);
    }
}

// ---------------------------------------------------------------------
// Snapshot-specific checks.
// ---------------------------------------------------------------------

#[test]
fn cross_kind_frames_are_rejected_as_wrong_kind() {
    let (_, tframe) = threshold_frame();
    let (_, dframe) = dynamic_frame();
    assert!(matches!(
        DynamicSnapshot::decode_binary(&tframe),
        Err(WireError::WrongKind { .. })
    ));
    assert!(matches!(
        SketchSnapshot::decode_binary(&dframe),
        Err(WireError::WrongKind { .. })
    ));
}

#[test]
fn corrupt_frames_never_mutate_the_receiving_sketch() {
    let (_, frame) = threshold_frame();
    let params = SketchParams::with_budget(12, 3, 0.4, 400);
    let mut acc = ThresholdSketch::new(params, 99);
    let edges: Vec<Edge> = (0..200u64)
        .map(|e| Edge::new((e % 12) as u32, e * 5 + 1))
        .collect();
    acc.update_batch(&edges);
    let before = acc.canonical_content();
    // Walk every corruption class through the receive path; the
    // accumulator must be untouched by each failed receive …
    let mut cut = frame.clone();
    cut.truncate(frame.len() / 2);
    let mut flipped = frame.clone();
    flipped[HEADER_LEN + 3] ^= 0x10;
    let mut bumped = frame.clone();
    bumped[4..6].copy_from_slice(&(WIRE_VERSION + 9).to_le_bytes());
    fix_checksum(&mut bumped);
    for bad in [&cut, &flipped, &bumped, &frame[..0].to_vec()] {
        assert!(receive(&mut acc, bad).is_err());
        assert_eq!(
            acc.canonical_content(),
            before,
            "failed receive must not mutate"
        );
    }
    // … and a subsequent good receive must still work on the same
    // accumulator (the error left no poisoned half-state behind).
    receive(&mut acc, &frame).expect("clean frame still merges");
    assert_ne!(acc.canonical_content(), before);
}

#[test]
fn dynamic_geometry_lies_are_rejected_without_allocation_blowup() {
    // Rewrite the dynamic payload's cell-count prefix to claim an
    // absurd sparse-cell count; the decoder must refuse (typed) rather
    // than trust it and allocate.
    let (_, frame) = dynamic_frame();
    for len in [0usize, 1, HEADER_LEN, HEADER_LEN + 1] {
        // Sanity: tiny prefixes of the dynamic frame are also typed errors.
        assert!(DynamicSnapshot::decode_binary(&frame[..len]).is_err());
    }
    // Flip payload bytes in bulk (zero the first 16 payload bytes) and
    // fix the checksum: whatever structural lie results, the decoder
    // must answer with a typed error or an equal-value decode — never a
    // panic or a giant allocation.
    let mut bad = frame.clone();
    let end = (HEADER_LEN + 16).min(bad.len() - CHECKSUM_LEN);
    for b in &mut bad[HEADER_LEN..end] {
        *b = 0;
    }
    fix_checksum(&mut bad);
    let _ = DynamicSnapshot::decode_binary(&bad);
}
