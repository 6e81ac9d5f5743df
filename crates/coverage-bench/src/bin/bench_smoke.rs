//! CI smoke benchmark: sequential simulation vs parallel executor on a
//! fixed workload.
//!
//! Runs the same distributed k-cover configuration through
//! `distributed_k_cover` (the strictly single-threaded serial
//! simulation: one partition pass, then one shard after another) and
//! `ParallelRunner` (the same pipeline with a concurrent map), then:
//!
//! * **fails (exit 1)** if the parallel family diverges from the
//!   sequential one — the determinism contract, enforced on every CI run;
//! * **fails (exit 1)** if the parallel wall clock does not beat the
//!   sequential simulation — the perf-regression gate;
//! * writes `BENCH_2.json` (wall clocks, speedup, peak sketch space from
//!   the per-machine `SpaceReport`s) for artifact upload and run-to-run
//!   comparison.
//!
//! A second case exercises the **dynamic** (insert/delete) pipeline on a
//! churn workload over the same planted instance and writes
//! `BENCH_3.json`:
//!
//! * **fails (exit 1)** if the parallel dynamic executor's family
//!   diverges from the serial dynamic reference — the (exact, linear)
//!   dynamic determinism contract;
//! * **fails (exit 1)** if the dynamic cover's value on the surviving
//!   graph falls below the paper's `(1 − 1/e − ε)` bound relative to the
//!   insertion-only pipeline run on the surviving edges — the dynamic
//!   accuracy gate;
//! * records both wall clocks so the dynamic premium (linear cells ×
//!   log m levels vs one threshold sketch) is tracked run to run.
//!
//! A third case exercises the **flat ingestion engine** on the
//! `SketchBank` hot path (every edge through every Algorithm 5 guess)
//! and writes `BENCH_4.json`:
//!
//! * **fails (exit 1)** if the flat bank's retained content diverges,
//!   on any guess, from a bank of map-backed [`ReferenceSketch`]es —
//!   the engine-equivalence contract;
//! * **fails (exit 1)** if the flat bank's single-thread ingest
//!   throughput is below **1.5×** the reference bank's — the flat-engine
//!   perf gate (shared hashing + bank-wide bound pre-filter + arena
//!   storage must actually pay);
//! * records single-sketch flat/reference throughput and the parallel
//!   runner's bank build for run-to-run comparison.
//!
//! A fourth case exercises the **zero-rebuild solve path** (Algorithm 3
//! line 3 — "run greedy on the sketch") on the same 8-guess bank and
//! writes `BENCH_5.json`:
//!
//! * **fails (exit 1)** if, on any guess, the bucket-queue greedy on
//!   the sketch's `csr_view()` diverges — family *or* full trace — from
//!   the lazy greedy on the owned `instance()` rebuild (the
//!   engine-equivalence contract of the solve path);
//! * **fails (exit 1)** if the end-to-end solve (`csr_view` + bucket
//!   greedy, all guesses) is not at least **2×** faster than the seed
//!   path (`instance()` rebuild + lazy greedy) — the solve-path perf
//!   gate;
//! * records the export-only timings (`instance()` vs `csr_view()`) so
//!   the rebuild premium is tracked run to run.
//!
//! A fifth case exercises the **binary wire format and the multiprocess
//! executor** and writes `BENCH_6.json`:
//!
//! * **fails (exit 1)** if the multiprocess executor (real worker
//!   subprocesses — this binary re-spawned in a hidden `__worker` mode,
//!   speaking the framed pipe protocol) selects a different family than
//!   the sequential simulation or the in-process parallel executor —
//!   including a run where workers are killed mid-round and their
//!   shards re-dispatched to survivors (the recovery contract);
//! * **fails (exit 1)** if the binary snapshot frame is not at least
//!   **5×** smaller than the JSON encoding on the 8-guess bank
//!   snapshots — the wire-size gate;
//! * **fails (exit 1)** if a binary encode+decode round trip is not at
//!   least **3×** faster than the JSON round trip on the same
//!   snapshots — the wire-speed gate;
//! * records the dynamic-snapshot codec numbers alongside (the sparse
//!   cell encoding) for run-to-run comparison.
//!
//! A sixth case exercises the **serving subsystem** under mixed load
//! (concurrent ingest + lock-free queries) and writes `BENCH_7.json`:
//!
//! * **fails (exit 1)** if any answer recorded by a concurrent query
//!   thread is not **bit-identical** to a query on the journal-prefix
//!   rebuild at the answer's reported epoch — the serving consistency
//!   contract (no torn reads, no cross-epoch families);
//! * **fails (exit 1)** if an ingest-only engine run (writers, queue,
//!   epoch publication; no journal, no queries) retains less than
//!   **0.8×** the throughput of the batch `SketchBank` build of the
//!   same stream — the queue-plus-publication overhead gate, measured
//!   without query CPU contention so it holds on single-core runners;
//! * **fails (exit 1)** unless the recorded answers span at least two
//!   distinct epochs with at least one mid-stream epoch — proof the
//!   queries really ran against snapshots published *during* ingest,
//!   not just the final state.
//!
//! A seventh case exercises the **batch-vectorized hot paths and the
//! parallel executors** added on top of the flat engine and writes
//! `BENCH_8.json`:
//!
//! * **fails (exit 1)** if the batched-vectorized bank ingest (chunked
//!   shared hashing, bank-wide bound pre-filter, 8-wide unrolled mixer,
//!   probe-window prefetch, fused descriptor appends) retains different
//!   content, counters, or acceptance bound than the frozen per-edge
//!   scalar engine (`consume_scalar`) or the batched-scalar hybrid
//!   (`consume_batched_scalar`) — the vectorization-equivalence
//!   contract;
//! * **fails (exit 1)** if the batched-vectorized ingest is not at
//!   least **1.3×** faster than the frozen per-edge scalar engine —
//!   the vectorization perf gate (the batched-scalar hybrid is timed
//!   alongside, informationally, to split the batching effect from the
//!   unroll/prefetch effect);
//! * **fails (exit 1)** if the parallel runner's family diverges from
//!   the serial simulation's — the pipeline determinism contract (the
//!   wall clock is recorded; the speedup itself is hardware-dependent,
//!   so only equivalence is gated);
//! * **fails (exit 1)** if the parallel multi-guess solve's full traces
//!   diverge from the per-guess sequential loop — the parallel-solve
//!   determinism contract;
//! * **fails (exit 1)** if the parallel multi-guess solve is not at
//!   least **1.5×** faster than the sequential per-guess
//!   `instance()` + lazy-greedy loop — the multi-guess solve perf gate.
//!
//! * **fails (exit 1)** if, under an injected worker crash plus an
//!   injected infinite hang, the multiprocess executor does not land on
//!   the bit-identical family within **2×** the fault-free wall clock —
//!   the fault-recovery gate (→ `BENCH_9.json`; the deadline reaper,
//!   retry/backoff, and reshard paths must all fire).
//!
//! * **fails (exit 1)** if the loopback TCP socket executor is not
//!   within **1.5×** the pipe executor's fault-free wall clock, if no
//!   shard's chunked stream overlapped ingest with transfer, or if the
//!   family diverges — fault-free or under a severed connection plus a
//!   500ms stall — the socket-transport gate (→ `BENCH_10.json`; the
//!   heartbeat liveness, shard-requeue, and chunk-streaming paths must
//!   all fire).
//!
//! Usage: `bench_smoke [bench2.json [bench3.json [bench4.json
//! [bench5.json [bench6.json [bench7.json [bench8.json [bench9.json
//! [bench10.json]]]]]]]]]` (defaults `BENCH_2.json` … `BENCH_10.json`
//! in the current directory).

use std::collections::HashMap;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use coverage_algs::{
    k_cover_streaming, solve_guesses_parallel, solve_guesses_serial, KCoverConfig,
};
use coverage_core::offline::{bucket_greedy_k_cover, lazy_greedy_k_cover};
use coverage_core::{CoverageView, SetId};
use coverage_data::{churn_workload, planted_k_cover};
use coverage_dist::{
    distributed_k_cover, dynamic_distributed_k_cover, partition_updates, DistConfig, Fault,
    FaultPlan, ParallelRunner, ProcessRunner, RunReport, SocketRunner, WorkerCommand,
};
use coverage_serve::{answer_query, LiveStore, QueryAnswer, ServeConfig, ServeEngine, ServeFinish};
use coverage_sketch::{
    DynamicSketch, DynamicSnapshot, ReferenceSketch, SketchBank, SketchParams, SketchSizing,
    SketchSnapshot, ThresholdSketch,
};
use coverage_stream::{ArrivalOrder, EdgeStream, SignedEdge, VecStream};
use serde::Serialize;

/// Machines to simulate; deliberately larger than `THREADS` so the
/// serial harness pays its per-machine re-filtering passes.
const MACHINES: usize = 8;
/// Worker threads for the parallel executor (the gate's headline number).
const THREADS: usize = 4;
/// Timed repetitions; the minimum is reported (CI machines are noisy).
const REPS: usize = 3;
/// Hash seed the bank cases (BENCH_4 ingest, BENCH_5 solve) share.
const BANK_SEED: u64 = 77;
/// Ingest batch size of the bank cases.
const BANK_BATCH: usize = 4096;

/// The Algorithm 5-style geometric `k'` guess ladder both bank cases
/// run on (one sketch per guess, each with its own degree cap and
/// budget — the realistic bank shape for one pass). Defined once so
/// BENCH_4 (ingest) and BENCH_5 (solve) can never desynchronize.
fn guess_ladder(n: usize) -> Vec<SketchParams> {
    (0..8)
        .map(|g| SketchParams::with_budget(n, 1 << g, 0.3, 2_000 + 600 * g))
        .collect()
}

#[derive(Serialize)]
struct RunnerRecord {
    wall_ms: f64,
    peak_machine_edges: u64,
    peak_machine_aux_words: u64,
    merged_edges: usize,
    family: Vec<u32>,
}

#[derive(Serialize)]
struct SmokeRecord {
    bench: &'static str,
    workload: &'static str,
    stream_edges: usize,
    machines: usize,
    threads: usize,
    sequential: RunnerRecord,
    parallel: RunnerRecord,
    parallel_partition_ms: f64,
    parallel_map_ms: f64,
    speedup: f64,
    families_match: bool,
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = f();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (out.expect("reps >= 1"), best_ms)
}

#[derive(Serialize)]
struct DynamicSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    updates: usize,
    deletes: usize,
    surviving_edges: usize,
    machines: usize,
    threads: usize,
    dynamic_serial_wall_ms: f64,
    dynamic_parallel_wall_ms: f64,
    insertion_only_wall_ms: f64,
    dynamic_covered: usize,
    insertion_only_covered: usize,
    accuracy_ratio: f64,
    accuracy_bound: f64,
    sample_level: usize,
    recovered_edges: usize,
    dynamic_space_words: u64,
    families_match: bool,
}

/// The dynamic smoke case: churn half the planted instance away and
/// compare the dynamic pipeline against the insertion-only pipeline on
/// the surviving edges. Returns the record and whether both gates hold.
fn dynamic_smoke(planted: &coverage_core::CoverageInstance) -> (DynamicSmokeRecord, bool) {
    let eps = 0.3;
    let w = churn_workload(planted, 0.5, 17);
    let cfg = DistConfig::new(MACHINES, 6, eps, 21).with_sizing(SketchSizing::Budget(6_000));

    let (serial, serial_ms) = best_of(REPS, || dynamic_distributed_k_cover(&w.stream, &cfg));
    let runner = ParallelRunner::new(cfg, THREADS);
    let (par, par_ms) = best_of(REPS, || runner.run_dynamic(&w.stream));

    // Insertion-only reference on the surviving edge set.
    let mut surv_stream = VecStream::from_instance(&w.surviving);
    ArrivalOrder::Random(8).apply(surv_stream.edges_mut());
    let ins_cfg = KCoverConfig::new(6, eps, 21).with_sizing(SketchSizing::Budget(6_000));
    let (ins, ins_ms) = best_of(REPS, || k_cover_streaming(&surv_stream, &ins_cfg));

    let dynamic_covered = w.surviving.coverage(&par.family);
    let insertion_only_covered = w.surviving.coverage(&ins.family).max(1);
    let accuracy_ratio = dynamic_covered as f64 / insertion_only_covered as f64;
    let accuracy_bound = 1.0 - 1.0 / std::f64::consts::E - eps;
    let families_match = par.family == serial.family;
    let record = DynamicSmokeRecord {
        bench: "BENCH_3",
        workload: "churn_workload(planted_k_cover(n=200, m=100_000, k=6), churn=0.5, seed=17)",
        updates: w.stream.updates().len(),
        deletes: w.stream.num_deletes(),
        surviving_edges: w.surviving.num_edges(),
        machines: MACHINES,
        threads: THREADS,
        dynamic_serial_wall_ms: serial_ms,
        dynamic_parallel_wall_ms: par_ms,
        insertion_only_wall_ms: ins_ms,
        dynamic_covered,
        insertion_only_covered,
        accuracy_ratio,
        accuracy_bound,
        sample_level: par.sample.map_or(0, |s| s.level),
        recovered_edges: par.merged_edges,
        dynamic_space_words: par
            .per_machine
            .iter()
            .map(|r| r.total_words())
            .max()
            .unwrap_or(0),
        families_match,
    };
    (record, families_match && accuracy_ratio >= accuracy_bound)
}

/// One engine's timing on the ingest workload.
#[derive(Serialize)]
struct IngestRecord {
    wall_ms: f64,
    edges_per_sec: f64,
}

#[derive(Serialize)]
struct IngestSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    stream_edges: usize,
    guesses: usize,
    batch: usize,
    /// Flat engine, full bank, shared-hash batched path (the gated number).
    flat_bank: IngestRecord,
    /// Map-backed reference bank: per-sketch hashing, per-edge updates.
    reference_bank: IngestRecord,
    /// Flat engine, one sketch, batched path.
    flat_single: IngestRecord,
    /// Map-backed reference, one sketch.
    reference_single: IngestRecord,
    /// Parallel runner building the same bank (informational).
    parallel_bank_wall_ms: f64,
    bank_speedup: f64,
    single_speedup: f64,
    contents_match: bool,
}

/// The flat-engine ingest smoke case (→ `BENCH_4.json`): same planted
/// instance, pushed through the shared [`guess_ladder`] bank with both
/// ingestion engines. Returns the record, whether both gates (content
/// equivalence, ≥1.5× bank speedup) hold, and the built flat bank —
/// which the solve case ([`solve_smoke`]) queries, so the stream is
/// ingested once for both benches.
fn ingest_smoke(stream: &VecStream) -> (IngestSmokeRecord, bool, SketchBank) {
    let guesses = guess_ladder(stream.num_sets());
    let edges = stream.len_hint().expect("materialized stream");

    let (flat_bank, flat_ms) = best_of(REPS, || {
        let mut bank = SketchBank::new(guesses.iter().copied(), BANK_SEED);
        bank.consume_batched(stream, BANK_BATCH);
        bank
    });
    let (ref_bank, ref_ms) = best_of(REPS, || {
        let mut bank: Vec<ReferenceSketch> = guesses
            .iter()
            .map(|&p| ReferenceSketch::new(p, BANK_SEED))
            .collect();
        // Sketch-major over each batch — exactly the retired
        // `SketchBank::update_batch` behavior.
        stream.for_each_batch(BANK_BATCH, &mut |chunk| {
            for s in &mut bank {
                s.update_batch(chunk);
            }
        });
        bank
    });
    let (_, flat_single_ms) = best_of(REPS, || {
        let mut s = ThresholdSketch::new(guesses[3], BANK_SEED);
        s.consume_batched(stream, BANK_BATCH);
        s.edges_stored()
    });
    let (_, ref_single_ms) = best_of(REPS, || {
        let mut s = ReferenceSketch::new(guesses[3], BANK_SEED);
        s.consume(stream);
        s.edges_stored()
    });
    let cfg = DistConfig::new(MACHINES, 6, 0.3, BANK_SEED);
    let runner = ParallelRunner::new(cfg, THREADS);
    let (_, par_ms) = best_of(REPS, || runner.build_bank(&guesses, stream).len());

    let contents_match = flat_bank.sketches().iter().zip(&ref_bank).all(|(f, r)| {
        f.acceptance_bound() == r.acceptance_bound()
            && f.counters() == r.counters()
            && f.canonical_content() == r.canonical_content()
    });
    let eps = |ms: f64| edges as f64 / (ms / 1e3).max(1e-9);
    let bank_speedup = ref_ms / flat_ms.max(1e-9);
    let single_speedup = ref_single_ms / flat_single_ms.max(1e-9);
    let record = IngestSmokeRecord {
        bench: "BENCH_4",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6), 8-guess bank",
        stream_edges: edges,
        guesses: guesses.len(),
        batch: BANK_BATCH,
        flat_bank: IngestRecord {
            wall_ms: flat_ms,
            edges_per_sec: eps(flat_ms),
        },
        reference_bank: IngestRecord {
            wall_ms: ref_ms,
            edges_per_sec: eps(ref_ms),
        },
        flat_single: IngestRecord {
            wall_ms: flat_single_ms,
            edges_per_sec: eps(flat_single_ms),
        },
        reference_single: IngestRecord {
            wall_ms: ref_single_ms,
            edges_per_sec: eps(ref_single_ms),
        },
        parallel_bank_wall_ms: par_ms,
        bank_speedup,
        single_speedup,
        contents_match,
    };
    (record, contents_match && bank_speedup >= 1.5, flat_bank)
}

/// One solve path's timing over all guesses of the bank.
#[derive(Serialize)]
struct SolveRecord {
    /// End-to-end: export the sketch content + run greedy, every guess.
    wall_ms: f64,
    /// Export step alone (informational split of `wall_ms`).
    export_only_wall_ms: f64,
}

#[derive(Serialize)]
struct SolveSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    guesses: usize,
    /// Stored edges across all guess sketches (the solve input size).
    sketch_edges_total: usize,
    /// Seed path: per-query `instance()` rebuild + lazy greedy.
    rebuild_lazy: SolveRecord,
    /// Zero-rebuild path: `csr_view()` + bucket-queue greedy.
    csr_bucket: SolveRecord,
    speedup: f64,
    families_match: bool,
    traces_match: bool,
}

/// The solve-path smoke case (→ `BENCH_5.json`): the bank built by
/// `ingest_smoke`, queried at each guess's `k` ("run greedy on the
/// sketch", Algorithm 3 line 3 — once per guess, exactly the workload
/// under test) through both solve paths. Returns the record and
/// whether all gates (bit-identical families, full trace equality, ≥2×
/// end-to-end speedup) hold.
fn solve_smoke(bank: &SketchBank) -> (SolveSmokeRecord, bool) {
    let sketches = bank.sketches();
    let sketch_edges_total: usize = sketches.iter().map(|s| s.edges_stored()).sum();

    // The timed closures keep the full traces, so the equivalence
    // gates below compare what was actually measured — no extra solve
    // sweeps.
    let (seed_traces, seed_ms) = best_of(REPS, || {
        sketches
            .iter()
            .map(|s| lazy_greedy_k_cover(&s.instance(), s.params().k))
            .collect::<Vec<_>>()
    });
    let (csr_traces, csr_ms) = best_of(REPS, || {
        sketches
            .iter()
            .map(|s| bucket_greedy_k_cover(&s.csr_view(), s.params().k))
            .collect::<Vec<_>>()
    });
    // Export-only split: how much of each path is rebuilding vs solving.
    let (_, rebuild_ms) = best_of(REPS, || {
        sketches
            .iter()
            .map(|s| s.instance().num_edges())
            .sum::<usize>()
    });
    let (_, view_ms) = best_of(REPS, || {
        sketches
            .iter()
            .map(|s| s.csr_view().num_edges())
            .sum::<usize>()
    });

    let families_match = seed_traces
        .iter()
        .zip(&csr_traces)
        .all(|(a, b)| a.family() == b.family());
    let traces_match = seed_traces
        .iter()
        .zip(&csr_traces)
        .all(|(a, b)| a.steps == b.steps);
    let speedup = seed_ms / csr_ms.max(1e-9);
    let record = SolveSmokeRecord {
        bench: "BENCH_5",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6), 8-guess bank",
        guesses: sketches.len(),
        sketch_edges_total,
        rebuild_lazy: SolveRecord {
            wall_ms: seed_ms,
            export_only_wall_ms: rebuild_ms,
        },
        csr_bucket: SolveRecord {
            wall_ms: csr_ms,
            export_only_wall_ms: view_ms,
        },
        speedup,
        families_match,
        traces_match,
    };
    (record, families_match && traces_match && speedup >= 2.0)
}

/// One snapshot codec's size/speed numbers on a fixed snapshot set.
#[derive(Serialize)]
struct WireCodecRecord {
    snapshots: usize,
    json_bytes: u64,
    binary_bytes: u64,
    /// `json_bytes / binary_bytes` — the gated compression factor.
    size_ratio: f64,
    json_roundtrip_ms: f64,
    binary_roundtrip_ms: f64,
    /// JSON round-trip time / binary round-trip time — the gated factor.
    speed_ratio: f64,
    /// Every decoded snapshot compared equal to its source.
    roundtrips_identical: bool,
}

/// Encode + decode every snapshot through both codecs and time the
/// round trips. `S` is either snapshot type; the JSON side is the serde
/// path of the snapshots' `to_json`, the binary side the framed wire
/// codec under test.
fn wire_codec_case<S>(
    snaps: &[S],
    encode: impl Fn(&S) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> S,
) -> WireCodecRecord
where
    S: PartialEq + serde::Serialize + serde::Deserialize,
{
    let json_bytes: u64 = snaps
        .iter()
        .map(|s| serde_json::to_string(s).expect("render json").len() as u64)
        .sum();
    let binary_bytes: u64 = snaps.iter().map(|s| encode(s).len() as u64).sum();
    let (json_ok, json_ms) = best_of(REPS, || {
        snaps.iter().all(|s| {
            let doc = serde_json::to_string(s).expect("render json");
            serde_json::from_str::<S>(&doc).expect("parse json") == *s
        })
    });
    let (bin_ok, bin_ms) = best_of(REPS, || snaps.iter().all(|s| decode(&encode(s)) == *s));
    WireCodecRecord {
        snapshots: snaps.len(),
        json_bytes,
        binary_bytes,
        size_ratio: json_bytes as f64 / (binary_bytes as f64).max(1e-9),
        json_roundtrip_ms: json_ms,
        binary_roundtrip_ms: bin_ms,
        speed_ratio: json_ms / bin_ms.max(1e-9),
        roundtrips_identical: json_ok && bin_ok,
    }
}

/// One multiprocess run's outcome.
#[derive(Serialize)]
struct ProcessCaseRecord {
    wall_ms: f64,
    workers_spawned: usize,
    workers_lost: usize,
    shards_resharded: usize,
    shards_built_inline: usize,
    pipe_bytes: u64,
    family: Vec<u32>,
}

#[derive(Serialize)]
struct WireSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    machines: usize,
    processes: usize,
    /// The 8-guess bank snapshots through both codecs (the gated case).
    threshold_wire: WireCodecRecord,
    /// Per-machine dynamic shard snapshots (sparse cells; informational).
    dynamic_wire: WireCodecRecord,
    multiprocess: ProcessCaseRecord,
    /// Same run with two workers killed mid-round by injected faults.
    multiprocess_killed: ProcessCaseRecord,
    /// serial == parallel == multiprocess == multiprocess-after-kill.
    families_match: bool,
    size_gate: f64,
    speed_gate: f64,
}

/// The wire-format + multiprocess smoke case (→ `BENCH_6.json`).
/// Returns the record and whether every gate holds.
fn wire_smoke(
    bank: &SketchBank,
    stream: &VecStream,
    planted: &coverage_core::CoverageInstance,
    cfg: DistConfig,
    serial_family: &[SetId],
    parallel_family: &[SetId],
) -> (WireSmokeRecord, bool) {
    // --- Codec gates on the 8-guess bank snapshots. ---
    let snaps: Vec<SketchSnapshot> = bank.sketches().iter().map(SketchSnapshot::of).collect();
    let threshold_wire = wire_codec_case(
        &snaps,
        |s| s.encode_binary(),
        |b| SketchSnapshot::decode_binary(b).expect("binary frame decodes"),
    );
    // Dynamic side: the per-machine shard sketches a multiprocess
    // dynamic round would actually put on the wire.
    let w = churn_workload(planted, 0.5, 17);
    let dyn_params = cfg.dynamic_sketch_params(stream.num_sets());
    let dsnaps: Vec<DynamicSnapshot> =
        partition_updates(&w.stream, MACHINES, cfg.shard_seed(), BANK_BATCH)
            .iter()
            .map(|shard| {
                let mut d = DynamicSketch::new(dyn_params, cfg.seed);
                d.update_batch(shard);
                DynamicSnapshot::of(&d)
            })
            .collect();
    let dynamic_wire = wire_codec_case(
        &dsnaps,
        |s| s.encode_binary(),
        |b| DynamicSnapshot::decode_binary(b).expect("binary frame decodes"),
    );

    // --- Multiprocess executor: same family as serial + parallel. ---
    let command = WorkerCommand::current_exe(vec!["__worker".to_string()])
        .expect("bench binary can locate itself");
    let runner = ProcessRunner::new(cfg, command.clone(), THREADS);
    let t = Instant::now();
    let proc_res = runner.run(stream).expect("multiprocess run");
    let proc_ms = t.elapsed().as_secs_f64() * 1e3;
    // Kill two of the four workers mid-round (on their first shard) and
    // require the re-shard recovery path to land on the same family.
    let killer = ProcessRunner::new(cfg, command, THREADS).with_fault_plan(
        FaultPlan::new(6)
            .with_fault(0, Fault::Crash)
            .with_fault(2, Fault::Crash),
    );
    let t = Instant::now();
    let kill_res = killer.run(stream).expect("multiprocess run with kills");
    let kill_ms = t.elapsed().as_secs_f64() * 1e3;

    let case = |res: &coverage_dist::ProcessResult, wall_ms: f64| ProcessCaseRecord {
        wall_ms,
        workers_spawned: res.workers_spawned,
        workers_lost: res.workers_lost,
        shards_resharded: res.shards_resharded,
        shards_built_inline: res.shards_built_inline,
        pipe_bytes: res.wire_bytes,
        family: res.family.iter().map(|s| s.0).collect(),
    };
    let families_match = proc_res.family == serial_family
        && proc_res.family == parallel_family
        && kill_res.family == serial_family;
    let recovery_exercised = kill_res.workers_lost >= 2 && kill_res.shards_resharded >= 2;
    let record = WireSmokeRecord {
        bench: "BENCH_6",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6), 8-guess bank",
        machines: MACHINES,
        processes: THREADS,
        multiprocess: case(&proc_res, proc_ms),
        multiprocess_killed: case(&kill_res, kill_ms),
        threshold_wire,
        dynamic_wire,
        families_match,
        size_gate: 5.0,
        speed_gate: 3.0,
    };
    let ok = families_match
        && recovery_exercised
        && record.threshold_wire.roundtrips_identical
        && record.dynamic_wire.roundtrips_identical
        && record.threshold_wire.size_ratio >= record.size_gate
        && record.threshold_wire.speed_ratio >= record.speed_gate;
    (record, ok)
}

#[derive(Serialize)]
struct ServeSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    updates: usize,
    guesses: usize,
    writers: usize,
    readers: usize,
    publish_every: u64,
    /// Batch reference: the flat bank's `consume_batched` build of the
    /// same stream on the same ladder (BENCH_4's gated number).
    batch_ingest_wall_ms: f64,
    /// The gated number: engine start → flush-complete wall clock for
    /// an ingest-only run (writers + bounded queue + epoch publication;
    /// no journal, no query threads). Isolates the engine's overhead
    /// from query CPU contention, which on a single-core runner would
    /// otherwise dominate the ratio.
    ingest_only_wall_ms: f64,
    /// `batch / ingest_only` — the throughput-retention gate
    /// (≥ `ingest_gate`).
    ingest_ratio: f64,
    ingest_only_updates_per_sec: f64,
    /// Wall clock of the mixed-load run (journal on, query threads
    /// running throughout) that the consistency gate verifies.
    /// Informational: on few-core machines queries and ingest share
    /// CPU, so this is not throughput-gated.
    mixed_ingest_wall_ms: f64,
    epochs_published: u64,
    queries_served: u64,
    answers_recorded: usize,
    /// Distinct epochs the concurrent answers were served from.
    distinct_answer_epochs: usize,
    /// Of those, epochs published mid-stream (0 < applied < total).
    mid_stream_answer_epochs: usize,
    /// Export cost across all published epochs (`RoundCost` words).
    words_shipped: u64,
    /// Every concurrent answer bit-identical to the journal-prefix
    /// rebuild at its reported epoch.
    answers_consistent: bool,
    ingest_gate: f64,
}

/// Journal-replay oracle for one mixed-load run: rebuild a fresh store
/// from the prefix each answered epoch claims and demand every answer
/// be bit-identical to a query on the rebuild.
fn serve_answers_consistent(
    cfg: &ServeConfig,
    answers: &[(usize, QueryAnswer)],
    fin: &ServeFinish,
) -> bool {
    let mut applied_at: HashMap<u64, u64> = HashMap::new();
    for (_, a) in answers {
        match applied_at.insert(a.epoch, a.updates_applied) {
            Some(prev) if prev != a.updates_applied => return false,
            _ => {}
        }
    }
    let mut rebuilt: HashMap<u64, coverage_serve::EpochSnapshot> = HashMap::new();
    for (&epoch, &applied) in &applied_at {
        let mut store = LiveStore::new(cfg);
        store.apply(&fin.journal[..applied as usize]);
        match store.snapshot(epoch, applied) {
            Some(snap) => {
                rebuilt.insert(epoch, snap);
            }
            None => return false,
        }
    }
    let mut reference: HashMap<(u64, usize), QueryAnswer> = HashMap::new();
    answers.iter().all(|(k, a)| {
        let r = reference
            .entry((a.epoch, *k))
            .or_insert_with(|| answer_query(&rebuilt[&a.epoch], *k));
        a.bit_eq(r)
    })
}

/// The serving smoke case (→ `BENCH_7.json`): the same planted stream,
/// pushed through a [`ServeEngine`] on the shared [`guess_ladder`].
/// Two runs: an **ingest-only** run (writers + queue + publication,
/// nothing else) whose wall clock must retain ≥0.8× the batch build's
/// throughput, and a **mixed-load** run (journal on, two query threads
/// reading published epochs the whole time) whose every answer must
/// replay exactly from the journal prefix and span mid-stream epochs
/// (queries really overlapped ingest).
fn serve_smoke(stream: &VecStream, batch_ingest_wall_ms: f64) -> (ServeSmokeRecord, bool) {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const INGEST_GATE: f64 = 0.8;
    let ks = [1usize, 4, 16, 64];
    let updates: Vec<SignedEdge> = stream
        .edges()
        .iter()
        .copied()
        .map(SignedEdge::insert)
        .collect();
    let total = updates.len() as u64;
    let publish_every = (total / 6).max(1);
    let base_cfg = ServeConfig::bank(guess_ladder(stream.num_sets()), BANK_SEED)
        .with_publish_every(publish_every)
        .with_queue_batches(16);
    let batches: Vec<Vec<SignedEdge>> = updates.chunks(BANK_BATCH).map(<[_]>::to_vec).collect();
    // Each writer's share, cloned outside the timed region — the
    // benched cost is the engine's queue + apply + publish, not the
    // harness's buffer duplication.
    let writer_shares = || -> Vec<Vec<Vec<SignedEdge>>> {
        (0..WRITERS)
            .map(|w| batches.iter().skip(w).step_by(WRITERS).cloned().collect())
            .collect()
    };

    // --- Gated run: ingest only (no journal, no queries). Timed by
    // hand rather than through `best_of` so share cloning, engine
    // startup, and the drain stay outside the submit→flush window the
    // gate is about. ---
    let ingest_cfg = base_cfg.clone();
    let mut ingest_only_ms = f64::INFINITY;
    for _ in 0..REPS {
        let shares = writer_shares();
        let engine = ServeEngine::start(ingest_cfg.clone());
        let t = Instant::now();
        std::thread::scope(|scope| {
            for share in shares {
                let engine = &engine;
                scope.spawn(move || {
                    for b in share {
                        engine.submit(b).expect("engine accepts the batch");
                    }
                });
            }
        });
        engine.flush().expect("flush after writers");
        ingest_only_ms = ingest_only_ms.min(t.elapsed().as_secs_f64() * 1e3);
        engine.finish();
    }

    // --- Consistency run: mixed load, journal on. ---
    let mixed_cfg = base_cfg.with_journal(true);
    let engine = ServeEngine::start(mixed_cfg.clone());
    let done = AtomicBool::new(false);
    let t = Instant::now();
    let (mixed_ms, answers) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..READERS {
            let mut handle = engine.query_handle();
            let done = &done;
            readers.push(scope.spawn(move || {
                let mut answers: Vec<(usize, QueryAnswer)> = Vec::new();
                let mut turn = r;
                while !done.load(Ordering::Relaxed) && answers.len() < 2_000 {
                    let k = ks[turn % ks.len()];
                    answers.push((k, handle.query(k)));
                    turn += 1;
                    // Keep the query side from saturating cores the
                    // ingest thread needs; staleness stays bounded.
                    std::thread::sleep(Duration::from_micros(500));
                }
                answers
            }));
        }
        let mut writers = Vec::new();
        for share in writer_shares() {
            let engine = &engine;
            writers.push(scope.spawn(move || {
                for b in share {
                    engine.submit(b).expect("engine accepts the batch");
                }
            }));
        }
        for h in writers {
            h.join().expect("writer thread");
        }
        engine.flush().expect("flush after writers");
        let mixed_ms = t.elapsed().as_secs_f64() * 1e3;
        done.store(true, Ordering::Relaxed);
        let mut answers = Vec::new();
        for h in readers {
            answers.extend(h.join().expect("reader thread"));
        }
        (mixed_ms, answers)
    });
    let fin = engine.finish();

    let distinct: std::collections::HashSet<u64> = answers.iter().map(|(_, a)| a.epoch).collect();
    let mid_stream = answers
        .iter()
        .filter(|(_, a)| a.updates_applied > 0 && a.updates_applied < total)
        .map(|(_, a)| a.epoch)
        .collect::<std::collections::HashSet<u64>>();
    let answers_consistent = serve_answers_consistent(&mixed_cfg, &answers, &fin);
    let ingest_ratio = batch_ingest_wall_ms / ingest_only_ms.max(1e-9);
    let record = ServeSmokeRecord {
        bench: "BENCH_7",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6), 8-guess bank",
        updates: updates.len(),
        guesses: guess_ladder(stream.num_sets()).len(),
        writers: WRITERS,
        readers: READERS,
        publish_every,
        batch_ingest_wall_ms,
        ingest_only_wall_ms: ingest_only_ms,
        ingest_ratio,
        ingest_only_updates_per_sec: total as f64 / (ingest_only_ms / 1e3).max(1e-9),
        mixed_ingest_wall_ms: mixed_ms,
        epochs_published: fin.stats.epochs_published,
        queries_served: fin.stats.queries_served,
        answers_recorded: answers.len(),
        distinct_answer_epochs: distinct.len(),
        mid_stream_answer_epochs: mid_stream.len(),
        words_shipped: fin.stats.report.total_words(),
        answers_consistent,
        ingest_gate: INGEST_GATE,
    };
    let ok = answers_consistent
        && ingest_ratio >= INGEST_GATE
        && distinct.len() >= 2
        && !mid_stream.is_empty();
    (record, ok)
}

#[derive(Serialize)]
struct PipelineSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    stream_edges: usize,
    guesses: usize,
    batch: usize,
    /// Batch-vectorized flat bank: chunked shared hashing, bank-wide
    /// bound pre-filter, unrolled mixer + probe-window prefetch, fused
    /// descriptor appends (the engine BENCH_4 now measures).
    vectorized_bank: IngestRecord,
    /// The frozen pre-PR engine: per-edge shared-hash dispatch into the
    /// unfused scalar probe sequence (`consume_scalar`) — no batching,
    /// no pre-filter. This is the BENCH_4 flat baseline as the seed
    /// shipped it, and the denominator of the gated speedup.
    scalar_bank: IngestRecord,
    /// Informational twin: the batched structure with only the scalar
    /// hash/probe loops swapped back in (`consume_batched_scalar`) —
    /// isolates the unroll/prefetch effect from the batching effect.
    batched_scalar_bank: IngestRecord,
    /// `scalar (per-edge) / vectorized (batched)` — the ≥1.3× gated
    /// number: full batched-vectorized pipeline over the frozen
    /// per-edge engine.
    ingest_speedup: f64,
    /// Retained content, counters, and acceptance bound identical
    /// between the vectorized and scalar ingest paths, every guess.
    ingest_contents_match: bool,
    /// Parallel runner (one partition pass, then the threaded map).
    parallel_wall_ms: f64,
    /// Parallel runner == serial simulation families.
    parallel_families_match: bool,
    /// Sequential per-guess `instance()` + lazy-greedy loop (the
    /// pre-zero-rebuild solve baseline, one guess after another).
    sequential_solve_wall_ms: f64,
    /// Parallel multi-guess solve: one `csr_view` + bucket greedy per
    /// guess on scoped worker threads.
    parallel_solve_wall_ms: f64,
    /// `sequential / parallel` — the ≥1.5× gated number.
    solve_speedup: f64,
    /// Parallel-guess full traces == per-guess sequential loop (both
    /// the serial zero-rebuild twin and the lazy reference).
    solve_traces_match: bool,
}

/// The vectorized/parallel smoke case (→ `BENCH_8.json`): the same
/// planted stream and [`guess_ladder`] bank, pushed through (a) the
/// vectorized vs scalar flat ingest paths, (b) the parallel runner
/// against the serial family, and (c) the parallel vs sequential
/// multi-guess solve. Returns the record and whether every gate holds.
fn pipeline_smoke(
    stream: &VecStream,
    bank: &SketchBank,
    serial_family: &[SetId],
) -> (PipelineSmokeRecord, bool) {
    let guesses = guess_ladder(stream.num_sets());
    let edges = stream.len_hint().expect("materialized stream");

    // (a) Batched-vectorized ingest vs the frozen per-edge scalar
    // engine, identical ladder and seed. The batched-scalar hybrid is
    // timed too (informational) so the record separates "batching +
    // pre-filter" from "unroll + prefetch + fused appends". The ratio
    // is gated, so both gated sides get extra repetitions to keep the
    // best-of estimate stable on noisy single-core runners.
    const INGEST_REPS: usize = 5;
    let (vec_bank, vec_ms) = best_of(INGEST_REPS, || {
        let mut b = SketchBank::new(guesses.iter().copied(), BANK_SEED);
        b.consume_batched(stream, BANK_BATCH);
        b
    });
    let (scal_bank, scal_ms) = best_of(INGEST_REPS, || {
        let mut b = SketchBank::new(guesses.iter().copied(), BANK_SEED);
        b.consume_scalar(stream);
        b
    });
    let (batched_scal_bank, batched_scal_ms) = best_of(REPS, || {
        let mut b = SketchBank::new(guesses.iter().copied(), BANK_SEED);
        b.consume_batched_scalar(stream, BANK_BATCH);
        b
    });
    let ingest_contents_match = vec_bank
        .sketches()
        .iter()
        .zip(scal_bank.sketches())
        .zip(batched_scal_bank.sketches())
        .all(|((a, b), c)| {
            a.acceptance_bound() == b.acceptance_bound()
                && a.counters() == b.counters()
                && a.canonical_content() == b.canonical_content()
                && a.acceptance_bound() == c.acceptance_bound()
                && a.counters() == c.counters()
                && a.canonical_content() == c.canonical_content()
        });
    let ingest_speedup = scal_ms / vec_ms.max(1e-9);

    // (b) The parallel runner on the distributed config.
    let cfg = DistConfig::new(MACHINES, 6, 0.3, 21).with_sizing(SketchSizing::Budget(6_000));
    let runner = ParallelRunner::new(cfg, THREADS);
    let (par, par_ms) = best_of(REPS, || runner.run(stream));
    let parallel_families_match = par.family.as_slice() == serial_family;

    // (c) Parallel multi-guess solve vs the sequential per-guess loop.
    // Both sides finish in ~1 ms, so timer jitter dominates at the
    // default rep count; take the best of more repetitions (still
    // well under 20 ms total) to keep the gated ratio stable.
    const SOLVE_REPS: usize = 9;
    let sketches = bank.sketches();
    let (lazy_traces, seq_ms) = best_of(SOLVE_REPS, || {
        sketches
            .iter()
            .map(|s| lazy_greedy_k_cover(&s.instance(), s.params().k))
            .collect::<Vec<_>>()
    });
    let (par_solves, par_solve_ms) = best_of(SOLVE_REPS, || solve_guesses_parallel(sketches));
    let serial_solves = solve_guesses_serial(sketches);
    let solve_traces_match = par_solves.len() == sketches.len()
        && par_solves
            .iter()
            .zip(&serial_solves)
            .all(|(p, s)| p.trace.steps == s.trace.steps)
        && par_solves
            .iter()
            .zip(&lazy_traces)
            .all(|(p, l)| p.trace.steps == l.steps);
    let solve_speedup = seq_ms / par_solve_ms.max(1e-9);

    let eps = |ms: f64| edges as f64 / (ms / 1e3).max(1e-9);
    let ok = ingest_contents_match
        && ingest_speedup >= 1.3
        && parallel_families_match
        && solve_traces_match
        && solve_speedup >= 1.5;
    let record = PipelineSmokeRecord {
        bench: "BENCH_8",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6), 8-guess bank",
        stream_edges: edges,
        guesses: guesses.len(),
        batch: BANK_BATCH,
        vectorized_bank: IngestRecord {
            wall_ms: vec_ms,
            edges_per_sec: eps(vec_ms),
        },
        scalar_bank: IngestRecord {
            wall_ms: scal_ms,
            edges_per_sec: eps(scal_ms),
        },
        batched_scalar_bank: IngestRecord {
            wall_ms: batched_scal_ms,
            edges_per_sec: eps(batched_scal_ms),
        },
        ingest_speedup,
        ingest_contents_match,
        parallel_wall_ms: par_ms,
        parallel_families_match,
        sequential_solve_wall_ms: seq_ms,
        parallel_solve_wall_ms: par_solve_ms,
        solve_speedup,
        solve_traces_match,
    };
    (record, ok)
}

/// One multiprocess run of the fault smoke case (fault-free or
/// faulted): the wall clock plus every recovery counter the runner
/// keeps, so the record shows *how* the faulted run survived.
#[derive(Serialize)]
struct FaultCaseRecord {
    wall_ms: f64,
    workers_spawned: usize,
    workers_lost: usize,
    shards_resharded: usize,
    shards_built_inline: usize,
    deadline_reaps: usize,
    retries: usize,
    proto_faults: usize,
    family: Vec<u32>,
}

#[derive(Serialize)]
struct FaultSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    /// The injected schedule, in the CLI's `SEED:SPEC` spelling.
    fault_plan: String,
    /// Per-shard deadline of the faulted run, derived from the
    /// fault-free wall clock so the gate scales with the machine.
    job_timeout_ms: u64,
    fault_free: FaultCaseRecord,
    faulted: FaultCaseRecord,
    /// `faulted / fault_free` wall clocks — the ≤2× gated number.
    overhead_ratio: f64,
    overhead_gate: f64,
    /// Faulted == fault-free == serial-simulation families.
    families_match: bool,
}

/// The fault-recovery smoke case (→ `BENCH_9.json`): the same planted
/// stream through the multiprocess executor twice — once fault-free,
/// once under an injected crash *and* an injected infinite hang — and
/// gates that the faulted run lands on the bit-identical family within
/// 2× the fault-free wall clock. The merge-composability of the `H≤n`
/// sketch is what makes the requeue-and-rebuild recovery sound (any
/// shard rebuilds bit-identically), so this is the robustness analogue
/// of the BENCH_6 determinism gate.
fn fault_smoke(
    stream: &VecStream,
    cfg: DistConfig,
    serial_family: &[SetId],
) -> (FaultSmokeRecord, bool) {
    let command = WorkerCommand::current_exe(vec!["__worker".to_string()])
        .expect("bench binary can locate itself");

    let (free, free_ms) = best_of(REPS, || {
        ProcessRunner::new(cfg, command.clone(), THREADS)
            .run(stream)
            .expect("fault-free multiprocess run")
    });

    // The hang can only be recovered by the deadline reaper, so the
    // faulted run's overhead is dominated by the timeout: half the
    // fault-free wall keeps the 2x gate honest while staying far above
    // one shard's build time (clamped so tiny/huge machines behave).
    let job_timeout_ms = ((free_ms * 0.5) as u64).clamp(100, 2_000);
    let plan = FaultPlan::new(9)
        .with_fault(0, Fault::Crash)
        .with_fault(1, Fault::Hang);
    let (faulted, faulted_ms) = best_of(REPS, || {
        ProcessRunner::new(cfg, command.clone(), THREADS)
            .with_fault_plan(plan.clone())
            .with_job_timeout(Duration::from_millis(job_timeout_ms))
            .run(stream)
            .expect("faulted multiprocess run")
    });

    let case = |res: &coverage_dist::ProcessResult, wall_ms: f64| FaultCaseRecord {
        wall_ms,
        workers_spawned: res.workers_spawned,
        workers_lost: res.workers_lost,
        shards_resharded: res.shards_resharded,
        shards_built_inline: res.shards_built_inline,
        deadline_reaps: res.deadline_reaps,
        retries: res.retries,
        proto_faults: res.proto_faults,
        family: res.family.iter().map(|s| s.0).collect(),
    };
    let families_match = free.family == serial_family && faulted.family == serial_family;
    let overhead_ratio = faulted_ms / free_ms.max(1e-9);
    let recovery_exercised = faulted.workers_lost >= 2 && faulted.deadline_reaps >= 1;
    let ok = families_match && recovery_exercised && overhead_ratio <= 2.0;
    let record = FaultSmokeRecord {
        bench: "BENCH_9",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6)",
        fault_plan: plan.to_string(),
        job_timeout_ms,
        fault_free: case(&free, free_ms),
        faulted: case(&faulted, faulted_ms),
        overhead_ratio,
        overhead_gate: 2.0,
        families_match,
    };
    (record, ok)
}

#[derive(Serialize)]
struct SocketCaseRecord {
    wall_ms: f64,
    workers_joined: usize,
    late_joiners: usize,
    workers_lost: usize,
    suspect_transitions: usize,
    suspect_recoveries: usize,
    shards_requeued: usize,
    chunks_streamed: usize,
    overlap_shards: usize,
    heartbeat_probes: u64,
    heartbeat_mean_rtt_us: u64,
    wire_bytes: u64,
    family: Vec<u32>,
}

#[derive(Serialize)]
struct SocketSmokeRecord {
    bench: &'static str,
    workload: &'static str,
    /// The injected network schedule, in the CLI's `SEED:SPEC` spelling.
    fault_plan: String,
    /// The pipe executor on the same worker count — the baseline the
    /// socket overhead is gated against.
    pipes_wall_ms: f64,
    socket: SocketCaseRecord,
    socket_faulted: SocketCaseRecord,
    /// `socket / pipes` fault-free wall clocks — the ≤1.5× gated number.
    overhead_ratio: f64,
    overhead_gate: f64,
    /// ≥1 shard acked an early chunk before its last chunk was sent, so
    /// ingest demonstrably overlapped transfer.
    overlap_observed: bool,
    /// Socket (fault-free and faulted) == pipes == serial families.
    families_match: bool,
}

/// The socket-transport smoke case (→ `BENCH_10.json`): the same
/// planted stream through the loopback TCP executor — once fault-free
/// against the pipe executor's wall clock (≤1.5× gate), once under a
/// severed connection and a 500ms stall — gating that chunked shard
/// streaming overlaps ingest with transfer and that every run lands on
/// the bit-identical family. The network analogue of BENCH_9.
fn socket_smoke(
    stream: &VecStream,
    cfg: DistConfig,
    serial_family: &[SetId],
) -> (SocketSmokeRecord, bool) {
    let command = WorkerCommand::current_exe(vec!["__worker".to_string()])
        .expect("bench binary can locate itself");

    let (pipes, pipes_ms) = best_of(REPS, || {
        ProcessRunner::new(cfg, command.clone(), THREADS)
            .run(stream)
            .expect("pipe baseline run")
    });
    let (sock, sock_ms) = best_of(REPS, || {
        SocketRunner::new(cfg, command.clone(), THREADS)
            .run(stream)
            .expect("fault-free socket run")
    });

    // Sever shard 0's stream after its first chunk and stall shard 1's
    // for 500ms without closing (long enough to trip the default 400ms
    // suspect threshold, short of the 3s dead one). Timed once: the
    // stall is a constant injected cost, not executor overhead.
    let plan = FaultPlan::new(10)
        .with_fault(0, Fault::DropConn)
        .with_fault(1, Fault::Stall(500));
    let (faulted, faulted_ms) = best_of(1, || {
        SocketRunner::new(cfg, command.clone(), THREADS)
            .with_fault_plan(plan.clone())
            .run(stream)
            .expect("faulted socket run")
    });

    let case = |res: &RunReport, wall_ms: f64| SocketCaseRecord {
        wall_ms,
        workers_joined: res.stats.workers_joined,
        late_joiners: res.stats.late_joiners,
        workers_lost: res.stats.workers_lost,
        suspect_transitions: res.stats.suspect_transitions,
        suspect_recoveries: res.stats.suspect_recoveries,
        shards_requeued: res.stats.shards_requeued,
        chunks_streamed: res.stats.chunks_streamed,
        overlap_shards: res.stats.overlap_shards,
        heartbeat_probes: res.stats.heartbeat.probes,
        heartbeat_mean_rtt_us: res.stats.heartbeat.mean_ns() / 1_000,
        wire_bytes: res.stats.wire_bytes,
        family: res.family.iter().map(|s| s.0).collect(),
    };
    let families_match = pipes.family == serial_family
        && sock.family == serial_family
        && faulted.family == serial_family;
    let overhead_ratio = sock_ms / pipes_ms.max(1e-9);
    let overlap_observed = sock.stats.overlap_shards >= 1;
    let recovery_exercised = faulted.stats.workers_lost >= 1 && faulted.stats.shards_requeued >= 1;
    let ok = families_match && overlap_observed && recovery_exercised && overhead_ratio <= 1.5;
    let record = SocketSmokeRecord {
        bench: "BENCH_10",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6)",
        fault_plan: plan.to_string(),
        pipes_wall_ms: pipes_ms,
        socket: case(&sock, sock_ms),
        socket_faulted: case(&faulted, faulted_ms),
        overhead_ratio,
        overhead_gate: 1.5,
        overlap_observed,
        families_match,
    };
    (record, ok)
}

fn main() {
    // Hidden worker mode: `bench_smoke __worker` serves framed sketch
    // jobs on stdin/stdout — how BENCH_6 gets real subprocess workers
    // without depending on another binary's build artifact. With
    // `--connect HOST:PORT` (how the BENCH_10 socket coordinator spawns
    // its loopback workers) the same loop runs over a TCP stream.
    if std::env::args().nth(1).as_deref() == Some("__worker") {
        if std::env::args().nth(2).as_deref() == Some("--connect") {
            let addr = std::env::args().nth(3).unwrap_or_else(|| {
                eprintln!("__worker --connect requires HOST:PORT");
                exit(2);
            });
            exit(coverage_dist::worker::run_connect(&addr));
        }
        exit(coverage_dist::worker::run_stdio());
    }
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_2.json".to_string());
    let dyn_out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_3.json".to_string());
    let ingest_out_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_4.json".to_string());
    let solve_out_path = std::env::args()
        .nth(4)
        .unwrap_or_else(|| "BENCH_5.json".to_string());
    let wire_out_path = std::env::args()
        .nth(5)
        .unwrap_or_else(|| "BENCH_6.json".to_string());
    let serve_out_path = std::env::args()
        .nth(6)
        .unwrap_or_else(|| "BENCH_7.json".to_string());
    let pipeline_out_path = std::env::args()
        .nth(7)
        .unwrap_or_else(|| "BENCH_8.json".to_string());
    let fault_out_path = std::env::args()
        .nth(8)
        .unwrap_or_else(|| "BENCH_9.json".to_string());
    let socket_out_path = std::env::args()
        .nth(9)
        .unwrap_or_else(|| "BENCH_10.json".to_string());

    // Fixed smoke workload: planted 6-cover, n=200 sets, 100k elements,
    // ~860k edges against a 6k-edge sketch budget. Both executors
    // partition once; the cost under test is the map phase, serial
    // against threaded.
    let planted = planted_k_cover(200, 100_000, 6, 4_000, 6);
    let mut stream = VecStream::from_instance(&planted.instance);
    ArrivalOrder::Random(8).apply(stream.edges_mut());
    let cfg = DistConfig::new(MACHINES, 6, 0.3, 21).with_sizing(SketchSizing::Budget(6_000));

    let (seq, seq_ms) = best_of(REPS, || distributed_k_cover(&stream, &cfg));
    let runner = ParallelRunner::new(cfg, THREADS);
    let (par, par_ms) = best_of(REPS, || runner.run(&stream));

    let peak = |reports: &[coverage_stream::SpaceReport]| {
        (
            reports.iter().map(|r| r.peak_edges).max().unwrap_or(0),
            reports.iter().map(|r| r.peak_aux_words).max().unwrap_or(0),
        )
    };
    let (seq_peak_edges, seq_peak_aux) = peak(&seq.per_machine);
    let (par_peak_edges, par_peak_aux) = peak(&par.per_machine);
    let families_match = seq.family == par.family;
    let speedup = seq_ms / par_ms.max(1e-9);

    let record = SmokeRecord {
        bench: "BENCH_2",
        workload: "planted_k_cover(n=200, m=100_000, k=6, set_size=4_000, seed=6)",
        stream_edges: planted.instance.num_edges(),
        machines: MACHINES,
        threads: THREADS,
        sequential: RunnerRecord {
            wall_ms: seq_ms,
            peak_machine_edges: seq_peak_edges,
            peak_machine_aux_words: seq_peak_aux,
            merged_edges: seq.merged_edges,
            family: seq.family.iter().map(|s| s.0).collect(),
        },
        parallel: RunnerRecord {
            wall_ms: par_ms,
            peak_machine_edges: par_peak_edges,
            peak_machine_aux_words: par_peak_aux,
            merged_edges: par.merged_edges,
            family: par.family.iter().map(|s| s.0).collect(),
        },
        parallel_partition_ms: par.partition_ns as f64 / 1e6,
        parallel_map_ms: par.map_ns as f64 / 1e6,
        speedup,
        families_match,
    };
    let json = serde_json::to_string_pretty(&record).expect("render json");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_smoke: cannot write {out_path}: {e}");
        exit(1);
    }
    println!("{json}");
    println!(
        "\nbench_smoke: sequential {seq_ms:.1} ms, parallel {par_ms:.1} ms \
         ({THREADS} threads, {MACHINES} machines) → speedup {speedup:.2}x"
    );

    // --- Dynamic (insert/delete) smoke case → BENCH_3.json. ---
    let (dyn_record, dyn_ok) = dynamic_smoke(&planted.instance);
    let dyn_json = serde_json::to_string_pretty(&dyn_record).expect("render json");
    if let Err(e) = std::fs::write(&dyn_out_path, &dyn_json) {
        eprintln!("bench_smoke: cannot write {dyn_out_path}: {e}");
        exit(1);
    }
    println!("{dyn_json}");
    println!(
        "\nbench_smoke: dynamic serial {:.1} ms, dynamic parallel {:.1} ms, \
         insertion-only-on-survivors {:.1} ms; accuracy {:.4} (bound {:.4})",
        dyn_record.dynamic_serial_wall_ms,
        dyn_record.dynamic_parallel_wall_ms,
        dyn_record.insertion_only_wall_ms,
        dyn_record.accuracy_ratio,
        dyn_record.accuracy_bound,
    );

    // --- Flat ingestion-engine smoke case → BENCH_4.json. ---
    let (ingest_record, ingest_ok, bank) = ingest_smoke(&stream);
    let ingest_json = serde_json::to_string_pretty(&ingest_record).expect("render json");
    if let Err(e) = std::fs::write(&ingest_out_path, &ingest_json) {
        eprintln!("bench_smoke: cannot write {ingest_out_path}: {e}");
        exit(1);
    }
    println!("{ingest_json}");
    println!(
        "\nbench_smoke: bank ingest flat {:.1} ms vs reference {:.1} ms → {:.2}x \
         ({:.1}M edges/s flat); single sketch {:.2}x",
        ingest_record.flat_bank.wall_ms,
        ingest_record.reference_bank.wall_ms,
        ingest_record.bank_speedup,
        ingest_record.flat_bank.edges_per_sec / 1e6,
        ingest_record.single_speedup,
    );

    // --- Zero-rebuild solve-path smoke case → BENCH_5.json. ---
    let (solve_record, solve_ok) = solve_smoke(&bank);
    let solve_json = serde_json::to_string_pretty(&solve_record).expect("render json");
    if let Err(e) = std::fs::write(&solve_out_path, &solve_json) {
        eprintln!("bench_smoke: cannot write {solve_out_path}: {e}");
        exit(1);
    }
    println!("{solve_json}");
    println!(
        "\nbench_smoke: solve-on-sketch rebuild+lazy {:.1} ms vs csr_view+bucket {:.1} ms \
         → {:.2}x (export alone: {:.1} ms vs {:.1} ms)",
        solve_record.rebuild_lazy.wall_ms,
        solve_record.csr_bucket.wall_ms,
        solve_record.speedup,
        solve_record.rebuild_lazy.export_only_wall_ms,
        solve_record.csr_bucket.export_only_wall_ms,
    );

    // --- Wire format + multiprocess smoke case → BENCH_6.json. ---
    let (wire_record, wire_ok) = wire_smoke(
        &bank,
        &stream,
        &planted.instance,
        cfg,
        &seq.family,
        &par.family,
    );
    let wire_json = serde_json::to_string_pretty(&wire_record).expect("render json");
    if let Err(e) = std::fs::write(&wire_out_path, &wire_json) {
        eprintln!("bench_smoke: cannot write {wire_out_path}: {e}");
        exit(1);
    }
    println!("{wire_json}");
    println!(
        "\nbench_smoke: wire codec on the bank snapshots — binary {:.1} KiB vs json \
         {:.1} KiB ({:.1}x smaller), round trip {:.2} ms vs {:.2} ms ({:.1}x faster); \
         multiprocess map {:.1} ms ({} workers), after kills: {} lost, {} resharded",
        wire_record.threshold_wire.binary_bytes as f64 / 1024.0,
        wire_record.threshold_wire.json_bytes as f64 / 1024.0,
        wire_record.threshold_wire.size_ratio,
        wire_record.threshold_wire.binary_roundtrip_ms,
        wire_record.threshold_wire.json_roundtrip_ms,
        wire_record.threshold_wire.speed_ratio,
        wire_record.multiprocess.wall_ms,
        wire_record.multiprocess.workers_spawned,
        wire_record.multiprocess_killed.workers_lost,
        wire_record.multiprocess_killed.shards_resharded,
    );

    // --- Serving mixed-load smoke case → BENCH_7.json. ---
    let (serve_record, serve_ok) = serve_smoke(&stream, ingest_record.flat_bank.wall_ms);
    let serve_json = serde_json::to_string_pretty(&serve_record).expect("render json");
    if let Err(e) = std::fs::write(&serve_out_path, &serve_json) {
        eprintln!("bench_smoke: cannot write {serve_out_path}: {e}");
        exit(1);
    }
    println!("{serve_json}");
    println!(
        "\nbench_smoke: serve ingest-only {:.1} ms vs batch build {:.1} ms → {:.2}x \
         retained ({:.1}M updates/s); mixed load {:.1} ms, {} epochs published, \
         {} answers over {} epochs ({} mid-stream), consistent: {}",
        serve_record.ingest_only_wall_ms,
        serve_record.batch_ingest_wall_ms,
        serve_record.ingest_ratio,
        serve_record.ingest_only_updates_per_sec / 1e6,
        serve_record.mixed_ingest_wall_ms,
        serve_record.epochs_published,
        serve_record.answers_recorded,
        serve_record.distinct_answer_epochs,
        serve_record.mid_stream_answer_epochs,
        serve_record.answers_consistent,
    );

    // --- Vectorized/pipelined hot-path smoke case → BENCH_8.json. ---
    let (pipeline_record, pipeline_ok) = pipeline_smoke(&stream, &bank, &seq.family);
    let pipeline_json = serde_json::to_string_pretty(&pipeline_record).expect("render json");
    if let Err(e) = std::fs::write(&pipeline_out_path, &pipeline_json) {
        eprintln!("bench_smoke: cannot write {pipeline_out_path}: {e}");
        exit(1);
    }
    println!("{pipeline_json}");
    println!(
        "\nbench_smoke: batched-vectorized bank ingest {:.1} ms vs per-edge scalar \
         {:.1} ms → {:.2}x (batched-scalar hybrid {:.1} ms; {:.1}M edges/s); \
         parallel run {:.1} ms; \
         parallel multi-guess solve {:.1} ms vs sequential rebuild+lazy {:.1} ms → {:.2}x",
        pipeline_record.vectorized_bank.wall_ms,
        pipeline_record.scalar_bank.wall_ms,
        pipeline_record.ingest_speedup,
        pipeline_record.batched_scalar_bank.wall_ms,
        pipeline_record.vectorized_bank.edges_per_sec / 1e6,
        pipeline_record.parallel_wall_ms,
        pipeline_record.parallel_solve_wall_ms,
        pipeline_record.sequential_solve_wall_ms,
        pipeline_record.solve_speedup,
    );

    // --- Fault-recovery smoke case → BENCH_9.json. ---
    let (fault_record, fault_ok) = fault_smoke(&stream, cfg, &seq.family);
    let fault_json = serde_json::to_string_pretty(&fault_record).expect("render json");
    if let Err(e) = std::fs::write(&fault_out_path, &fault_json) {
        eprintln!("bench_smoke: cannot write {fault_out_path}: {e}");
        exit(1);
    }
    println!("{fault_json}");
    println!(
        "\nbench_smoke: fault-free multiprocess {:.1} ms; under crash+hang ({}, \
         timeout {} ms): {:.1} ms → {:.2}x overhead (gate {:.1}x), {} lost, \
         {} reaped, {} retried, families identical: {}",
        fault_record.fault_free.wall_ms,
        fault_record.fault_plan,
        fault_record.job_timeout_ms,
        fault_record.faulted.wall_ms,
        fault_record.overhead_ratio,
        fault_record.overhead_gate,
        fault_record.faulted.workers_lost,
        fault_record.faulted.deadline_reaps,
        fault_record.faulted.retries,
        fault_record.families_match,
    );

    // --- Socket-transport smoke case → BENCH_10.json. ---
    let (socket_record, socket_ok) = socket_smoke(&stream, cfg, &seq.family);
    let socket_json = serde_json::to_string_pretty(&socket_record).expect("render json");
    if let Err(e) = std::fs::write(&socket_out_path, &socket_json) {
        eprintln!("bench_smoke: cannot write {socket_out_path}: {e}");
        exit(1);
    }
    println!("{socket_json}");
    println!(
        "\nbench_smoke: socket loopback {:.1} ms vs pipes {:.1} ms → {:.2}x overhead \
         (gate {:.1}x), {} chunks streamed, {} shards overlapped ingest with transfer, \
         mean heartbeat rtt {} us; under {}: {} lost, {} requeued, {} suspect \
         transitions, families identical: {}",
        socket_record.socket.wall_ms,
        socket_record.pipes_wall_ms,
        socket_record.overhead_ratio,
        socket_record.overhead_gate,
        socket_record.socket.chunks_streamed,
        socket_record.socket.overlap_shards,
        socket_record.socket.heartbeat_mean_rtt_us,
        socket_record.fault_plan,
        socket_record.socket_faulted.workers_lost,
        socket_record.socket_faulted.shards_requeued,
        socket_record.socket_faulted.suspect_transitions,
        socket_record.families_match,
    );

    if !families_match {
        eprintln!(
            "bench_smoke: FAIL — parallel family {:?} diverged from sequential {:?}",
            par.family, seq.family
        );
        exit(1);
    }
    if speedup <= 1.0 {
        eprintln!(
            "bench_smoke: FAIL — parallel ({par_ms:.1} ms) did not beat the \
             sequential simulation ({seq_ms:.1} ms)"
        );
        exit(1);
    }
    if !dyn_record.families_match {
        eprintln!(
            "bench_smoke: FAIL — dynamic parallel family diverged from the serial \
             dynamic reference (linear-sketch determinism contract broken)"
        );
        exit(1);
    }
    if !dyn_ok {
        eprintln!(
            "bench_smoke: FAIL — dynamic cover ratio {:.4} fell below the paper \
             bound {:.4} vs the insertion-only run on the surviving edges",
            dyn_record.accuracy_ratio, dyn_record.accuracy_bound
        );
        exit(1);
    }
    if !ingest_record.contents_match {
        eprintln!(
            "bench_smoke: FAIL — flat ingestion engine's retained content diverged \
             from the map-backed reference bank (engine-equivalence contract broken)"
        );
        exit(1);
    }
    if !ingest_ok {
        eprintln!(
            "bench_smoke: FAIL — flat bank ingest speedup {:.2}x fell below the \
             1.5x gate vs the map-backed reference engine",
            ingest_record.bank_speedup
        );
        exit(1);
    }
    if !solve_record.families_match || !solve_record.traces_match {
        eprintln!(
            "bench_smoke: FAIL — csr_view + bucket greedy diverged from the \
             instance() + lazy reference on some guess (solve-path \
             engine-equivalence contract broken)"
        );
        exit(1);
    }
    if !solve_ok {
        eprintln!(
            "bench_smoke: FAIL — solve-on-sketch speedup {:.2}x fell below the \
             2x gate (csr_view + bucket greedy vs instance() + lazy greedy)",
            solve_record.speedup
        );
        exit(1);
    }
    if !wire_record.families_match {
        eprintln!(
            "bench_smoke: FAIL — multiprocess family {:?} (after kills: {:?}) diverged \
             from the sequential simulation (process determinism contract broken)",
            wire_record.multiprocess.family, wire_record.multiprocess_killed.family
        );
        exit(1);
    }
    if !wire_ok {
        eprintln!(
            "bench_smoke: FAIL — wire gates: size {:.2}x (gate {:.0}x), speed {:.2}x \
             (gate {:.0}x), roundtrips identical {}, kill-recovery lost {} / \
             resharded {} (need ≥2 each)",
            wire_record.threshold_wire.size_ratio,
            wire_record.size_gate,
            wire_record.threshold_wire.speed_ratio,
            wire_record.speed_gate,
            wire_record.threshold_wire.roundtrips_identical
                && wire_record.dynamic_wire.roundtrips_identical,
            wire_record.multiprocess_killed.workers_lost,
            wire_record.multiprocess_killed.shards_resharded,
        );
        exit(1);
    }
    if !serve_record.answers_consistent {
        eprintln!(
            "bench_smoke: FAIL — a concurrent query answer diverged from the \
             journal-prefix rebuild at its epoch (serving consistency contract broken)"
        );
        exit(1);
    }
    if !serve_ok {
        eprintln!(
            "bench_smoke: FAIL — serve gates: ingest retention {:.2}x (gate {:.1}x), \
             {} distinct answer epochs (need ≥2), {} mid-stream (need ≥1)",
            serve_record.ingest_ratio,
            serve_record.ingest_gate,
            serve_record.distinct_answer_epochs,
            serve_record.mid_stream_answer_epochs,
        );
        exit(1);
    }
    if !pipeline_record.ingest_contents_match
        || !pipeline_record.parallel_families_match
        || !pipeline_record.solve_traces_match
    {
        eprintln!(
            "bench_smoke: FAIL — BENCH_8 equivalence: vectorized==scalar content {}, \
             parallel==serial family {}, parallel-solve traces {} \
             (a determinism contract broke)",
            pipeline_record.ingest_contents_match,
            pipeline_record.parallel_families_match,
            pipeline_record.solve_traces_match,
        );
        exit(1);
    }
    if !pipeline_ok {
        eprintln!(
            "bench_smoke: FAIL — BENCH_8 perf: batched-vectorized ingest {:.2}x \
             (gate 1.3x) vs the frozen per-edge scalar engine, parallel \
             multi-guess solve {:.2}x (gate 1.5x) vs the sequential \
             rebuild+lazy loop",
            pipeline_record.ingest_speedup, pipeline_record.solve_speedup,
        );
        exit(1);
    }
    if !fault_ok {
        eprintln!(
            "bench_smoke: FAIL — BENCH_9 fault recovery: families identical {}, \
             overhead {:.2}x (gate {:.1}x), workers lost {} (need ≥2), deadline \
             reaps {} (need ≥1) under the injected crash+hang schedule",
            fault_record.families_match,
            fault_record.overhead_ratio,
            fault_record.overhead_gate,
            fault_record.faulted.workers_lost,
            fault_record.faulted.deadline_reaps,
        );
        exit(1);
    }
    if !socket_ok {
        eprintln!(
            "bench_smoke: FAIL — BENCH_10 socket transport: families identical {}, \
             overhead {:.2}x (gate {:.1}x), overlap observed {}, faulted run lost {} \
             / requeued {} (need ≥1 each) under the injected drop+stall schedule",
            socket_record.families_match,
            socket_record.overhead_ratio,
            socket_record.overhead_gate,
            socket_record.overlap_observed,
            socket_record.socket_faulted.workers_lost,
            socket_record.socket_faulted.shards_requeued,
        );
        exit(1);
    }
    println!(
        "bench_smoke: OK — families identical, parallel faster, dynamic within the \
         approximation bound, flat ingest engine ≥1.5x over the reference, \
         zero-rebuild solve path ≥2x over instance()+lazy, binary wire ≥5x smaller \
         and ≥3x faster than json, multiprocess (incl. kill-recovery) bit-identical, \
         serving answers replay exactly at ≥0.8x batch ingest throughput, \
         batched-vectorized ingest ≥1.3x over the frozen per-edge scalar engine, \
         the parallel multi-guess solve ≥1.5x over the sequential rebuild \
         loop with all traces bit-identical, crash+hang recovery \
         bit-identical within the 2x overhead gate, and the socket transport \
         bit-identical under drop+stall within the 1.5x overhead gate with \
         chunked streaming overlapping ingest"
    );
}
