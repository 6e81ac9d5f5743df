//! The multiprocess executor's determinism contract, exercised with
//! **real worker subprocesses**: the `coverage` binary Cargo built for
//! this test run, re-invoked in its hidden `worker` mode. For the same
//! `DistConfig`, [`ProcessRunner`] must select the identical cover as
//! the sequential simulation and the in-process [`ParallelRunner`] —
//! **including runs where workers are killed mid-round** and their shards re-dispatched (the re-shard
//! recovery path), down to the degenerate case where every worker dies
//! and the parent degrades to building shards inline.

use proptest::prelude::*;

use coverage_suite::data::{planted_k_cover, uniform_instance, zipf_instance};
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
fn multiprocess_family_matches_serial_and_parallel() {
    let stream = generated_stream(2, 30, 3_000, 4, 11);
    let cfg = DistConfig::new(6, 4, 0.3, 11).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    let parallel = ParallelRunner::new(cfg, 3).run(&stream);
    let process = ProcessRunner::new(cfg, worker_command(), 3)
        .run(&stream)
        .expect("multiprocess run");
    assert_eq!(process.family, serial.family);
    assert_eq!(process.family, parallel.family);
    assert_eq!(process.merged_edges, serial.merged_edges);
    assert_eq!(process.workers_spawned, 3);
    assert_eq!(process.workers_lost, 0);
    assert!(
        process.wire_bytes > 0,
        "worker replies travel a real pipe and must be accounted"
    );
}

#[test]
fn killed_workers_reshard_and_the_family_survives() {
    let stream = generated_stream(2, 30, 3_000, 4, 23);
    let cfg = DistConfig::new(8, 4, 0.3, 23).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    // Kill two of three workers on their first shard dispatch.
    let process = ProcessRunner::new(cfg, worker_command(), 3)
        .with_fault_plan(
            FaultPlan::new(23)
                .with_fault(0, Fault::Crash)
                .with_fault(1, Fault::Crash),
        )
        .run(&stream)
        .expect("run with injected kills");
    assert_eq!(
        process.family, serial.family,
        "re-shard recovery must not change the selected cover"
    );
    assert_eq!(process.workers_lost, 2);
    assert!(process.shards_resharded >= 2);
    assert_eq!(process.shards_built_inline, 0);
}

#[test]
fn total_worker_loss_degrades_to_inline_and_still_matches() {
    let stream = generated_stream(1, 20, 1_500, 3, 31);
    let cfg = DistConfig::new(6, 3, 0.3, 31).with_sizing(SketchSizing::Budget(1_000));
    let serial = distributed_k_cover(&stream, &cfg);
    // A single worker that dies on its first job: no survivors, so the
    // parent must build every remaining shard inline.
    let process = ProcessRunner::new(cfg, worker_command(), 1)
        .with_fault_plan(FaultPlan::new(31).with_fault(0, Fault::Crash))
        .run(&stream)
        .expect("run past total worker loss");
    assert_eq!(process.family, serial.family);
    assert_eq!(process.workers_lost, 1);
    assert!(
        process.shards_built_inline >= 1,
        "with no survivors the parent builds shards itself"
    );
}

#[test]
fn hung_worker_is_reaped_by_the_deadline_and_the_family_survives() {
    let stream = generated_stream(2, 30, 3_000, 4, 47);
    let cfg = DistConfig::new(8, 4, 0.3, 47).with_sizing(SketchSizing::Budget(1_500));
    let serial = distributed_k_cover(&stream, &cfg);
    // Shard 1's worker stalls forever; only the deadline reaper can get
    // the shard back. A generous timeout keeps slow-CI runs honest while
    // an infinite hang still trips it.
    let process = ProcessRunner::new(cfg, worker_command(), 3)
        .with_fault_plan(FaultPlan::new(47).with_fault(1, Fault::Hang))
        .with_job_timeout(std::time::Duration::from_millis(500))
        .run(&stream)
        .expect("run past a hung worker");
    assert_eq!(
        process.family, serial.family,
        "deadline-reaped shards must rebuild bit-identically"
    );
    assert!(
        process.deadline_reaps >= 1,
        "the stalled worker must be reaped by the deadline wheel"
    );
    assert!(process.workers_lost >= 1);
    assert!(process.shards_resharded >= 1 || process.shards_built_inline >= 1);
}

#[test]
fn corrupt_reply_is_detected_and_the_shard_requeued() {
    let stream = generated_stream(0, 24, 2_000, 3, 53);
    let cfg = DistConfig::new(6, 3, 0.3, 53).with_sizing(SketchSizing::Budget(1_200));
    let serial = distributed_k_cover(&stream, &cfg);
    let process = ProcessRunner::new(cfg, worker_command(), 2)
        .with_fault_plan(FaultPlan::new(53).with_fault(2, Fault::CorruptReply))
        .run(&stream)
        .expect("run past a corrupted reply");
    assert_eq!(
        process.family, serial.family,
        "a checksum-failed frame must be requeued, not trusted"
    );
    assert!(
        process.proto_faults >= 1,
        "the corrupted frame must surface as a typed protocol fault"
    );
}

#[test]
fn network_faults_fire_on_pipe_links_and_the_family_survives() {
    let stream = generated_stream(2, 24, 2_000, 3, 59);
    let cfg = DistConfig::new(6, 3, 0.3, 59).with_sizing(SketchSizing::Budget(1_200));
    let serial = distributed_k_cover(&stream, &cfg);
    // The socket chaos schedule on pipes: shard 0's worker is killed
    // after its first chunk, shard 1's stream stalls for 300ms, and
    // shard 2's first chunk is written twice.
    let process = ProcessRunner::new(cfg, worker_command(), 3)
        .with_fault_plan(
            FaultPlan::new(59)
                .with_fault(0, Fault::DropConn)
                .with_fault(1, Fault::Stall(300))
                .with_fault(2, Fault::DupChunk),
        )
        .with_chunk_items(128)
        .run(&stream)
        .expect("run past network faults on pipes");
    assert_eq!(
        process.family, serial.family,
        "network faults on pipe links must not change the selected cover"
    );
    assert_eq!(process.merged_edges, serial.merged_edges);
    assert!(process.workers_lost >= 1, "drop@0 must sever a pipe worker");
    assert!(
        process.shards_resharded >= 1,
        "the severed shard must be re-dispatched to a survivor"
    );
}

#[test]
fn dynamic_multiprocess_matches_the_serial_dynamic_reference() {
    let stream = generated_stream(2, 24, 2_000, 3, 41);
    let dyn_stream = VecDynamicStream::new(24, signed_updates(&stream, 41));
    let cfg = DistConfig::new(5, 3, 0.3, 41).with_sizing(SketchSizing::Budget(1_200));
    let serial = dynamic_distributed_k_cover(&dyn_stream, &cfg);
    let process = ProcessRunner::new(cfg, worker_command(), 3)
        .run_dynamic(&dyn_stream)
        .expect("dynamic multiprocess run");
    assert_eq!(process.family, serial.family);
    assert_eq!(process.sample, serial.sample);
    assert_eq!(process.merged_edges, serial.merged_edges);
    // And the recovery path holds for the linear sketch too.
    let killed = ProcessRunner::new(cfg, worker_command(), 2)
        .with_fault_plan(FaultPlan::new(41).with_fault(1, Fault::Crash))
        .run_dynamic(&dyn_stream)
        .expect("dynamic run with a kill");
    assert_eq!(killed.family, serial.family);
    assert_eq!(killed.stats.workers_lost, 1);
}

proptest! {
    // Each case spawns real processes; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The determinism contract across generators, worker counts and
    /// injected kills, property-tested end to end.
    #[test]
    fn process_determinism_contract(
        generator in 0u8..3,
        machines in 2usize..8,
        processes in 1usize..4,
        kill_first in 0u8..2,
        seed in 0u64..500,
    ) {
        let kill_first = kill_first == 1;
        let stream = generated_stream(generator, 20, 1_200, 3, seed);
        let cfg = DistConfig::new(machines, 3, 0.3, seed)
            .with_sizing(SketchSizing::Budget(900));
        let serial = distributed_k_cover(&stream, &cfg);
        let mut runner = ProcessRunner::new(cfg, worker_command(), processes);
        if kill_first {
            runner = runner.with_fault_plan(FaultPlan::new(seed).with_fault(0, Fault::Crash));
        }
        let process = runner.run(&stream).expect("multiprocess run");
        prop_assert_eq!(
            &process.family, &serial.family,
            "generator={} machines={} processes={} kill={}",
            generator, machines, processes, kill_first
        );
        prop_assert_eq!(process.merged_edges, serial.merged_edges);
    }
}
