//! The TCP socket executor's determinism contract, exercised with
//! **real worker processes over real sockets**: the `coverage` binary
//! Cargo built for this test run, self-spawned in its hidden
//! `worker --connect` mode against a loopback coordinator. For the same
//! `DistConfig`, [`SocketRunner`] must select the identical cover as
//! the sequential simulation and the pipe-based [`ProcessRunner`] —
//! including runs where connections are severed mid-stream (the shard
//! requeue path), stalled without closing (the suspect → recover path),
//! or fed duplicated chunks (rejected by index), down to the degenerate
//! case where every worker dies and the coordinator builds inline. Late
//! joiners must be admitted mid-run and handed queued shards.

use std::time::Duration;

use proptest::prelude::*;

use coverage_suite::data::{planted_k_cover, uniform_instance, zipf_instance};
use coverage_suite::dist::fault::MAX_DELAY_MS;
use coverage_suite::prelude::*;

fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_coverage"), ["worker".to_string()])
}

/// Build a seeded stream from one of the three generator families.
fn generated_stream(generator: u8, n: usize, m: u64, k: usize, seed: u64) -> VecStream {
    let inst = match generator % 3 {
        0 => uniform_instance(n, m, (m / 20).max(8) as usize, seed),
        1 => zipf_instance(n, m, 0.6, 1.05, (m / 8).max(8) as usize, seed),
        _ => planted_k_cover(n, m, k.max(1), (m / 16).max(4) as usize, seed).instance,
    };
    let mut stream = VecStream::from_instance(&inst);
    ArrivalOrder::Random(seed ^ 0xA5).apply(stream.edges_mut());
    stream
}

/// A signed update stream: every edge inserted, a deterministic subset
/// deleted again.
fn signed_updates(stream: &VecStream, churn_seed: u64) -> Vec<SignedEdge> {
    let mut updates: Vec<SignedEdge> = stream
        .edges()
        .iter()
        .copied()
        .map(SignedEdge::insert)
        .collect();
    updates.extend(
        stream
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                (*i as u64 ^ churn_seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0
            })
            .map(|(_, e)| SignedEdge::delete(*e)),
    );
    updates
}

#[test]
fn socket_family_matches_serial_parallel_and_pipes() {
    let stream = generated_stream(2, 30, 3_000, 4, 11);
    let cfg = DistConfig::new(6, 4, 0.3, 11).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    let pipes = ProcessRunner::new(cfg, worker_command(), 3)
        .run(&stream)
        .expect("pipe run");
    let socket = SocketRunner::new(cfg, worker_command(), 3)
        .run(&stream)
        .expect("socket run");
    assert_eq!(socket.family, serial.family);
    assert_eq!(socket.family, pipes.family);
    assert_eq!(socket.merged_edges, serial.merged_edges);
    assert_eq!(socket.stats.workers_joined, 3);
    assert_eq!(socket.stats.workers_lost, 0);
    assert_eq!(socket.stats.shards_requeued, 0);
    assert!(
        socket.stats.wire_bytes > 0,
        "chunk frames travel a real socket and must be accounted"
    );
    assert!(
        socket.stats.chunks_streamed >= 6,
        "every non-empty shard ships at least one JobChunk frame"
    );
}

#[test]
fn chunked_streaming_overlaps_ingest_with_transfer() {
    let stream = generated_stream(0, 30, 4_000, 4, 17);
    let cfg = DistConfig::new(6, 4, 0.3, 17).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    // Tiny chunks and a small ack window force many in-flight frames per
    // shard, so a worker must start ingesting long before the tail chunk
    // is even written.
    let socket = SocketRunner::new(cfg, worker_command(), 2)
        .with_chunk_items(64)
        .with_chunk_window(2)
        .run(&stream)
        .expect("socket run with tiny chunks");
    assert_eq!(socket.family, serial.family);
    assert!(
        socket.stats.chunks_streamed > 6,
        "64-item chunks must split every shard into many frames (got {})",
        socket.stats.chunks_streamed
    );
    assert!(
        socket.stats.overlap_shards >= 1,
        "at least one shard must ack an early chunk (ingest began) \
         before its last chunk was sent"
    );
}

#[test]
fn mid_stream_connection_drop_requeues_and_the_family_survives() {
    let stream = generated_stream(2, 30, 3_000, 4, 23);
    let cfg = DistConfig::new(8, 4, 0.3, 23).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    // Shard 0's connection is severed after its first chunk; the whole
    // shard must be requeued to a survivor and rebuilt bit-identically.
    let socket = SocketRunner::new(cfg, worker_command(), 2)
        .with_fault_plan(FaultPlan::new(23).with_fault(0, Fault::DropConn))
        .run(&stream)
        .expect("socket run past a severed connection");
    assert_eq!(
        socket.family, serial.family,
        "a shard lost mid-stream must requeue without changing the cover"
    );
    assert_eq!(socket.stats.conn_drops_injected, 1);
    assert!(socket.stats.workers_lost >= 1);
    assert!(
        socket.stats.shards_requeued >= 1,
        "the severed shard must be re-dispatched to a survivor"
    );
}

#[test]
fn stalled_connection_turns_suspect_then_recovers() {
    let stream = generated_stream(1, 24, 2_500, 3, 29);
    let cfg = DistConfig::new(6, 3, 0.3, 29).with_sizing(SketchSizing::Budget(1_200));
    let serial = distributed_k_cover(&stream, &cfg);
    // Shard 1's stream stalls for 600ms without closing. Probes queued
    // behind the stall age past the suspect threshold (120ms) but not
    // the dead one (5s), so the worker must be graded suspect and then
    // snap back to live when the stall ends and the echo drains.
    let socket = SocketRunner::new(cfg, worker_command(), 2)
        .with_fault_plan(FaultPlan::new(29).with_fault(1, Fault::Stall(600)))
        .with_heartbeats(
            Duration::from_millis(40),
            Duration::from_millis(120),
            Duration::from_secs(5),
        )
        .run(&stream)
        .expect("socket run past a stalled stream");
    assert_eq!(socket.family, serial.family);
    assert_eq!(socket.stats.stalls_injected, 1);
    assert!(
        socket.stats.suspect_transitions >= 1,
        "a 600ms stall must trip the 120ms suspect threshold"
    );
    assert!(
        socket.stats.suspect_recoveries >= 1,
        "the stalled worker answers its probe once the stall ends"
    );
    assert_eq!(
        socket.stats.workers_lost, 0,
        "suspect is not dead: no connection may be severed"
    );
}

/// The one report across executors: the serial simulation, the
/// threads, pipe workers and TCP workers run the same pipeline and must
/// report the same run — family, merged edges or decoded sample, the
/// estimate bit for bit, and the in-memory reduce's rounds and words —
/// on an insert-only input and on a churn input.
#[test]
fn every_executor_returns_the_same_run_report() {
    let agree = |name: &str, got: &RunReport, want: &RunReport| {
        assert_eq!(got.family, want.family, "{name}: family");
        assert_eq!(got.merged_edges, want.merged_edges, "{name}: merged edges");
        assert_eq!(got.sample, want.sample, "{name}: decoded sample");
        assert_eq!(
            got.estimated_coverage.to_bits(),
            want.estimated_coverage.to_bits(),
            "{name}: estimate"
        );
        assert_eq!(
            got.rounds.num_rounds(),
            want.rounds.num_rounds(),
            "{name}: rounds"
        );
        assert_eq!(
            got.rounds.total_words(),
            want.rounds.total_words(),
            "{name}: words"
        );
    };
    let stream = generated_stream(2, 24, 2_000, 3, 61);
    let cfg = DistConfig::new(6, 3, 0.3, 61).with_sizing(SketchSizing::Budget(1_200));
    let pipes = Coordinator::<RunReport>::pipes(cfg, worker_command(), 2);
    let tcp = SocketRunner::new(cfg, worker_command(), 2);

    let serial = distributed_k_cover(&stream, &cfg);
    assert_eq!(serial.sample, None);
    agree(
        "threads",
        &ParallelRunner::new(cfg, 3).run(&stream),
        &serial,
    );
    agree("pipes", &pipes.run(&stream).expect("pipe run"), &serial);
    agree("tcp", &tcp.run(&stream).expect("socket run"), &serial);

    let churn = VecDynamicStream::new(24, signed_updates(&stream, 61));
    let serial = dynamic_distributed_k_cover(&churn, &cfg);
    assert!(serial.sample.is_some());
    agree(
        "threads (churn)",
        &ParallelRunner::new(cfg, 3).run_dynamic(&churn),
        &serial,
    );
    let run = pipes.run_dynamic(&churn).expect("dynamic pipe run");
    agree("pipes (churn)", &run, &serial);
    let run = tcp.run_dynamic(&churn).expect("dynamic socket run");
    agree("tcp (churn)", &run, &serial);
}

#[test]
fn duplicated_chunks_are_rejected_by_index_on_the_linear_sketch() {
    let stream = generated_stream(2, 24, 2_000, 3, 41);
    let dyn_stream = VecDynamicStream::new(24, signed_updates(&stream, 41));
    let cfg = DistConfig::new(5, 3, 0.3, 41).with_sizing(SketchSizing::Budget(1_200));
    let serial = dynamic_distributed_k_cover(&dyn_stream, &cfg);
    // The dynamic sketch is linear, so a double-ingested chunk would
    // corrupt cell counts silently. Bit-equality with the serial
    // reference is the proof the duplicate was rejected by index.
    let socket = SocketRunner::new(cfg, worker_command(), 2)
        .with_fault_plan(FaultPlan::new(41).with_fault(0, Fault::DupChunk))
        .with_chunk_items(128)
        .run_dynamic(&dyn_stream)
        .expect("dynamic socket run with a duplicated chunk");
    assert_eq!(socket.family, serial.family);
    assert_eq!(socket.sample, serial.sample);
    assert_eq!(socket.merged_edges, serial.merged_edges);
    assert_eq!(socket.stats.chunk_dups_injected, 1);
}

#[test]
fn total_worker_loss_degrades_to_inline_and_still_matches() {
    let stream = generated_stream(1, 20, 1_500, 3, 31);
    let cfg = DistConfig::new(6, 3, 0.3, 31).with_sizing(SketchSizing::Budget(1_000));
    let serial = distributed_k_cover(&stream, &cfg);
    // One worker whose first stream is severed: the registry empties, no
    // late joiner arrives within the grace window, and the coordinator
    // must fall back to building every remaining shard inline.
    let socket = SocketRunner::new(cfg, worker_command(), 1)
        .with_fault_plan(FaultPlan::new(31).with_fault(0, Fault::DropConn))
        .with_join_grace(Duration::from_millis(200))
        .run(&stream)
        .expect("socket run past total worker loss");
    assert_eq!(socket.family, serial.family);
    assert_eq!(socket.stats.workers_lost, 1);
    assert!(
        socket.stats.shards_built_inline >= 1,
        "with no survivors the coordinator builds shards itself"
    );
}

#[test]
fn late_joining_worker_is_admitted_and_used() {
    let stream = generated_stream(0, 40, 5_000, 4, 37);
    let cfg = DistConfig::new(12, 4, 0.3, 37).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    // One initial worker grinding twelve shards one at a time through
    // tiny chunks, plus a second worker spawned 20ms into the run: the
    // late joiner must be admitted mid-run and handed queued shards.
    // The first shard's stream stalls for 300ms, so the one initial
    // worker cannot finish every shard before the late spawn connects.
    let socket = SocketRunner::new(cfg, worker_command(), 1)
        .with_chunk_items(64)
        .with_late_worker_after(Duration::from_millis(20))
        .with_fault_plan(FaultPlan::new(37).with_fault(0, Fault::Stall(300)))
        .run(&stream)
        .expect("socket run with a late joiner");
    assert_eq!(socket.family, serial.family);
    assert!(
        socket.stats.late_joiners >= 1,
        "the scheduled late worker must be admitted"
    );
    let late_shards: usize = socket
        .stats
        .workers
        .iter()
        .filter(|w| w.late_joiner)
        .map(|w| w.shards_completed)
        .sum();
    assert!(
        late_shards >= 1,
        "the late joiner must complete at least one queued shard \
         (summaries: {:?})",
        socket.stats.workers
    );
}

#[test]
fn heartbeat_rtt_lands_in_socket_and_process_stats() {
    let stream = generated_stream(2, 24, 2_500, 3, 43);
    let cfg = DistConfig::new(6, 3, 0.3, 43).with_sizing(SketchSizing::Budget(1_200));
    let socket = SocketRunner::new(cfg, worker_command(), 2)
        .with_heartbeats(
            Duration::from_millis(20),
            Duration::from_millis(400),
            Duration::from_secs(3),
        )
        .with_chunk_items(128)
        .run(&stream)
        .expect("socket run");
    let hb = &socket.stats.heartbeat;
    assert!(hb.probes >= 1, "probes must tick during the run");
    assert!(hb.min_ns() <= hb.mean_ns() && hb.mean_ns() <= hb.max_ns());
    assert!(hb.max_ns() > 0, "a loopback RTT is small but not zero");
    // The pipe executor records its handshake-probe RTTs too.
    let pipes = ProcessRunner::new(cfg, worker_command(), 2)
        .run(&stream)
        .expect("pipe run");
    assert!(
        pipes.heartbeat.probes >= 1,
        "ProcessRunner must surface probe RTTs on its result"
    );
}

#[test]
fn malformed_fault_specs_get_typed_errors() {
    use coverage_suite::dist::FaultParseError;
    assert_eq!(
        FaultPlan::parse("crash@0"),
        Err(FaultParseError::MissingColon("crash@0".to_string()))
    );
    assert_eq!(
        FaultPlan::parse("x:crash@0"),
        Err(FaultParseError::BadSeed("x".to_string()))
    );
    assert_eq!(
        FaultPlan::parse("7:rand101"),
        Err(FaultParseError::BadRandomPct("rand101".to_string()))
    );
    assert_eq!(
        FaultPlan::parse("7:drop"),
        Err(FaultParseError::MissingShard("drop".to_string()))
    );
    assert_eq!(
        FaultPlan::parse("7:dup@x"),
        Err(FaultParseError::BadShard("x".to_string()))
    );
    assert_eq!(
        FaultPlan::parse("7:stall@0"),
        Err(FaultParseError::BadMillis("stall".to_string()))
    );
    assert_eq!(
        FaultPlan::parse("7:flop@0"),
        Err(FaultParseError::UnknownKind("flop".to_string()))
    );
    // Boundary percentages are valid and round-trip.
    assert_eq!(FaultPlan::parse("7:rand0"), Ok(FaultPlan::new(7)));
    let full = FaultPlan::parse("7:rand100").expect("rand100 is in range");
    assert_eq!(FaultPlan::parse(&full.to_string()), Ok(full));
}

/// One arbitrary fault of any of the seven kinds, with millisecond
/// arguments already inside the clamp range so `with_fault` is lossless
/// (boundary values 0 and `MAX_DELAY_MS` included).
fn arb_fault() -> impl Strategy<Value = Fault> {
    (0u8..7, 0u64..MAX_DELAY_MS + 1).prop_map(|(kind, ms)| match kind {
        0 => Fault::Crash,
        1 => Fault::Hang,
        2 => Fault::Delay(ms),
        3 => Fault::CorruptReply,
        4 => Fault::DropConn,
        5 => Fault::Stall(ms),
        _ => Fault::DupChunk,
    })
}

proptest! {
    /// `FaultPlan::parse` inverts `Display` for every plan over all
    /// seven fault kinds, any shard set, and the full 0..=100 random
    /// percentage range (boundaries included).
    #[test]
    fn fault_plan_display_parse_round_trip(
        seed in 0u64..10_000,
        entries in proptest::collection::vec((0usize..64, arb_fault()), 0..6),
        pct in 0u8..101,
    ) {
        let mut plan = FaultPlan::new(seed);
        for (shard, fault) in entries {
            plan = plan.with_fault(shard, fault);
        }
        plan = plan.with_random_pct(pct);
        let spelled = plan.to_string();
        prop_assert_eq!(
            FaultPlan::parse(&spelled),
            Ok(plan),
            "spelling `{}` must parse back to the same plan",
            spelled
        );
    }
}
