//! Byte pinning for every frame kind of the three wire protocols: the
//! `CVSK` sketch snapshots, the `CVPR` worker protocol and the `CVSV`
//! serve protocol. Each case encodes one deterministic frame and checks
//! its length and FNV-1a-64 checksum against a recorded constant, so a
//! refactor of the codecs that moves a single byte fails here, naming
//! the frame.

use coverage_suite::core::{Edge, SetId};
use coverage_suite::dist::proto::write_message;
use coverage_suite::dist::{ChunkPayload, Fault, Message, RoundCost, RoundsReport, ShipFormat};
use coverage_suite::serve::{write_reply, write_request, QueryAnswer, Reply, Request, ServeStats};
use coverage_suite::sketch::wire::checksum64;
use coverage_suite::sketch::{
    DynamicSketch, DynamicSketchParams, DynamicSnapshot, SketchCounters, SketchParams,
    SketchSnapshot, SnapshotEntry, ThresholdSketch,
};
use coverage_suite::stream::SignedEdge;

fn params() -> SketchParams {
    SketchParams::with_budget(12, 3, 0.4, 400)
}

fn dynamic_params() -> DynamicSketchParams {
    DynamicSketchParams::new(SketchParams::with_budget(10, 2, 0.4, 300))
}

fn edges() -> Vec<Edge> {
    (0..900u64)
        .map(|e| Edge::new((e % 12) as u32, e * 11))
        .collect()
}

fn updates() -> Vec<SignedEdge> {
    (0..500u64)
        .map(|e| {
            let edge = Edge::new((e % 10) as u32, e * 3);
            if e % 7 == 0 {
                SignedEdge::delete(edge)
            } else {
                SignedEdge::insert(edge)
            }
        })
        .collect()
}

fn threshold_snapshot() -> SketchSnapshot {
    let mut sketch = ThresholdSketch::new(params(), 99);
    sketch.update_batch(&edges());
    SketchSnapshot::of(&sketch)
}

fn dynamic_snapshot() -> DynamicSnapshot {
    let mut sketch = DynamicSketch::new(dynamic_params(), 7);
    sketch.update_batch(&updates());
    DynamicSnapshot::of(&sketch)
}

/// A hand-built snapshot with unsorted keys and hashes that are not
/// `h(key)`: both fallback flags engage.
fn non_canonical_snapshot() -> SketchSnapshot {
    SketchSnapshot {
        raw_seed: 123,
        params: SketchParams::with_budget(4, 1, 0.5, 10),
        bound: u64::MAX,
        entries: vec![
            SnapshotEntry {
                key: 50,
                hash: 7,
                sets: vec![1, 3],
                truncated: true,
            },
            SnapshotEntry {
                key: 10,
                hash: 9,
                sets: vec![0],
                truncated: false,
            },
        ],
        counters: SketchCounters::default(),
    }
}

/// Each case's `(length, checksum64)` against its recorded pin.
fn check(cases: Vec<(&str, Vec<u8>)>, pins: &[(&str, usize, u64)]) {
    assert_eq!(cases.len(), pins.len(), "one pin per frame");
    for ((name, frame), &(pinned, len, sum)) in cases.iter().zip(pins) {
        assert_eq!(*name, pinned);
        assert_eq!(
            (frame.len(), checksum64(frame)),
            (len, sum),
            "frame {name} moved"
        );
    }
}

#[test]
fn cvsk_frames_are_pinned() {
    let cases = vec![
        ("threshold", threshold_snapshot().encode_binary()),
        (
            "threshold-fallbacks",
            non_canonical_snapshot().encode_binary(),
        ),
        ("dynamic", dynamic_snapshot().encode_binary()),
    ];
    check(cases, CVSK_PINS);
}

fn cvpr(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    let written = write_message(&mut buf, msg).expect("in-memory write");
    assert_eq!(written as usize, buf.len());
    buf
}

#[test]
fn cvpr_frames_are_pinned() {
    // Every fault code the job payloads carry, 0 through 7.
    let faults = [
        ("job-sketch/none", None),
        ("job-sketch/crash", Some(Fault::Crash)),
        ("job-sketch/hang", Some(Fault::Hang)),
        ("job-sketch/delay", Some(Fault::Delay(1234))),
        ("job-sketch/corrupt", Some(Fault::CorruptReply)),
        ("job-sketch/drop", Some(Fault::DropConn)),
        ("job-sketch/stall", Some(Fault::Stall(300))),
        ("job-sketch/dup", Some(Fault::DupChunk)),
    ];
    let mut cases = Vec::new();
    for (name, fault) in faults {
        cases.push((
            name,
            cvpr(&Message::JobSketch {
                params: params(),
                seed: 42,
                ship: ShipFormat::Binary,
                fault,
                batch: 4096,
                edges: edges()[..40].to_vec(),
            }),
        ));
    }
    cases.push((
        "job-dynamic",
        cvpr(&Message::JobDynamic {
            params: dynamic_params(),
            seed: 7,
            ship: ShipFormat::Binary,
            fault: Some(Fault::Delay(5)),
            batch: 512,
            updates: updates()[..40].to_vec(),
        }),
    ));
    cases.push((
        "reply-sketch",
        cvpr(&Message::ReplySketch {
            snapshot: threshold_snapshot(),
        }),
    ));
    cases.push((
        "reply-dynamic",
        cvpr(&Message::ReplyDynamic {
            snapshot: dynamic_snapshot(),
        }),
    ));
    cases.push(("shutdown", cvpr(&Message::Shutdown)));
    cases.push((
        "heartbeat",
        cvpr(&Message::Heartbeat { nonce: 0xDEAD_BEEF }),
    ));
    cases.push((
        "chunk-start-sketch",
        cvpr(&Message::ChunkStartSketch {
            shard: 3,
            chunks: 7,
            params: params(),
            seed: 42,
            fault: Some(Fault::CorruptReply),
            batch: 4096,
        }),
    ));
    cases.push((
        "chunk-start-dynamic",
        cvpr(&Message::ChunkStartDynamic {
            shard: 1,
            chunks: 2,
            params: dynamic_params(),
            seed: 9,
            fault: None,
            batch: 64,
        }),
    ));
    cases.push((
        "job-chunk-edges",
        cvpr(&Message::JobChunk {
            shard: 3,
            index: 2,
            count: 7,
            payload: ChunkPayload::Edges(edges()[..64].to_vec()),
        }),
    ));
    cases.push((
        "job-chunk-updates",
        cvpr(&Message::JobChunk {
            shard: 1,
            index: 0,
            count: 2,
            payload: ChunkPayload::Updates(updates()[..64].to_vec()),
        }),
    ));
    cases.push(("chunk-ack", cvpr(&Message::ChunkAck { shard: 5, index: 4 })));
    check(cases, CVPR_PINS);
}

fn request(msg: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    let written = write_request(&mut buf, msg).expect("in-memory write");
    assert_eq!(written as usize, buf.len());
    buf
}

fn reply(msg: &Reply) -> Vec<u8> {
    let mut buf = Vec::new();
    let written = write_reply(&mut buf, msg).expect("in-memory write");
    assert_eq!(written as usize, buf.len());
    buf
}

#[test]
fn cvsv_frames_are_pinned() {
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
    let cases = vec![
        (
            "update",
            request(&Request::Update {
                id: 9,
                updates: updates()[..64].to_vec(),
            }),
        ),
        ("query", request(&Request::Query { id: 1, k: 4 })),
        ("stats", request(&Request::Stats { id: 2 })),
        ("flush", request(&Request::Flush { id: 3 })),
        ("snapshot", request(&Request::Snapshot { id: 4 })),
        ("shutdown", request(&Request::Shutdown { id: 5 })),
        ("reply-query", reply(&Reply::Query { id: 11, answer })),
        ("reply-stats", reply(&Reply::Stats { id: 1, stats })),
        (
            "reply-flush",
            reply(&Reply::Flush {
                id: 3,
                epoch: 6,
                updates_applied: 4_096,
            }),
        ),
        (
            "reply-snapshot",
            reply(&Reply::Snapshot {
                id: 2,
                epoch: 5,
                frames: vec![threshold_snapshot().encode_binary(), Vec::new()],
            }),
        ),
        (
            "reply-error",
            reply(&Reply::Error {
                id: 3,
                message: "no deletes in insert-only mode".into(),
            }),
        ),
    ];
    check(cases, CVSV_PINS);
}

// Recorded from the codecs before they moved onto the shared frame
// module; a change here is a wire-format change.

const CVSK_PINS: &[(&str, usize, u64)] = &[
    ("threshold", 1347, 0x7233d78d434b40bf),
    ("threshold-fallbacks", 84, 0xb374ad6f7be4442c),
    ("dynamic", 20006, 0x878e4c5ea8fc0b5c),
];

const CVPR_PINS: &[(&str, usize, u64)] = &[
    ("job-sketch/none", 161, 0x8845d174c0f8d069),
    ("job-sketch/crash", 161, 0x117fb966dfe4148f),
    ("job-sketch/hang", 161, 0x415ccc9e43396cbc),
    ("job-sketch/delay", 162, 0x4b132a176e4b9e71),
    ("job-sketch/corrupt", 161, 0x0311c97d02cba171),
    ("job-sketch/drop", 161, 0xc1f431ad291aeacd),
    ("job-sketch/stall", 162, 0x5d14c81609802c48),
    ("job-sketch/dup", 161, 0x683e988be7791665),
    ("job-dynamic", 177, 0x81dd9ac965b67430),
    ("reply-sketch", 1374, 0x4e18e1c6359a6c0c),
    ("reply-dynamic", 20034, 0x43f5a4e50bcdf6e0),
    ("shutdown", 24, 0x230a64c91578a64f),
    ("heartbeat", 32, 0xc3ca42bb462fa5cb),
    ("chunk-start-sketch", 54, 0x1079ab569c643214),
    ("chunk-start-dynamic", 57, 0xed9fbd8355e65994),
    ("job-chunk-edges", 219, 0xae3cc7db9e71da85),
    ("job-chunk-updates", 252, 0x1789173784b8be46),
    ("chunk-ack", 26, 0x97eb11b4941294f6),
];

const CVSV_PINS: &[(&str, usize, u64)] = &[
    ("update", 239, 0x9d46d600c70f1fe2),
    ("query", 26, 0x8643a52b239544d0),
    ("stats", 25, 0xcdd1fa51354171cb),
    ("flush", 25, 0xcb037ee46c293955),
    ("snapshot", 25, 0xbdc42659b3cca424),
    ("shutdown", 25, 0xe7046ae273f4142a),
    ("reply-query", 52, 0x16c92d4078f6b681),
    ("reply-stats", 48, 0xc509709d394d78cb),
    ("reply-flush", 28, 0x50ef4d99dd721794),
    ("reply-snapshot", 1377, 0x5e682563016eb6f6),
    ("reply-error", 56, 0xaa52f7adf7acc80c),
];
