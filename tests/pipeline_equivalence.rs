//! Differential stress suite for the executor pipeline on threads and
//! the parallel multi-guess solve path.
//!
//! The contract under test: **threading is invisible in the output.**
//! For any thread count, shard count, workload family, and update mode
//! (insert-only or churn), [`ParallelRunner`] (one partition pass, then
//! the shard builds on up to `threads` threads) selects the *identical*
//! family as the strictly serial simulation — and the parallel
//! multi-guess solve returns bit-identical full greedy traces to the
//! sequential per-guess loop. (The `pipelined_` test names refer to the
//! executor pipeline: partition → build → reduce → solve.)
//!
//! These tests run in CI's release-mode `RUST_TEST_THREADS ∈ {1, 2, 8}`
//! matrix leg, so the schedule-dependence surface (map-thread
//! scheduling under contention, work-stealing order in the guess
//! solver) is exercised under three different host-parallelism regimes.

use proptest::prelude::*;

use coverage_suite::data::{churn_workload, planted_k_cover, uniform_instance, zipf_instance};
use coverage_suite::prelude::*;
use coverage_suite::sketch::SketchParams;

/// The worker-thread counts the stress matrix sweeps. The executor
/// clamps threads to shards, so 8 also exercises the "more threads
/// than shards" corner on small machine counts.
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

/// Build a seeded instance from one of the three generator families.
/// `generator`: 0 = uniform, 1 = zipf, 2 = planted.
fn generated_instance(generator: u8, n: usize, m: u64, k: usize, seed: u64) -> CoverageInstance {
    match generator % 3 {
        0 => uniform_instance(n, m, (m / 20).max(8) as usize, seed),
        1 => zipf_instance(n, m, 0.6, 1.05, (m / 8).max(8) as usize, seed),
        _ => planted_k_cover(n, m, k.max(1), (m / 16).max(4) as usize, seed).instance,
    }
}

fn generated_stream(generator: u8, n: usize, m: u64, k: usize, seed: u64) -> VecStream {
    let mut stream = VecStream::from_instance(&generated_instance(generator, n, m, k, seed));
    ArrivalOrder::Random(seed ^ 0xA5).apply(stream.edges_mut());
    stream
}

/// Insert-only sweep: parallel == serial, exhaustively over generators
/// × shard counts × the thread matrix. Deterministic (fixed seeds) so a
/// failure pins the exact cell.
#[test]
fn parallel_matches_serial_insert_only() {
    for generator in 0u8..3 {
        for machines in [1usize, 3, 8] {
            let seed = 31 + generator as u64 * 7 + machines as u64;
            let stream = generated_stream(generator, 20, 1_200, 3, seed);
            let cfg =
                DistConfig::new(machines, 3, 0.3, seed).with_sizing(SketchSizing::Budget(800));
            let serial = distributed_k_cover(&stream, &cfg);
            for threads in THREAD_MATRIX {
                let pipe = ParallelRunner::new(cfg, threads).run(&stream);
                assert_eq!(
                    pipe.family, serial.family,
                    "parallel vs serial: gen={generator} machines={machines} threads={threads}"
                );
                assert_eq!(pipe.merged_edges, serial.merged_edges);
            }
        }
    }
}

/// Churn sweep: the dynamic (insert/delete) pipeline under the same
/// matrix — parallel == the serial dynamic reference, over generators ×
/// shard counts × threads, on a 30%-churn workload.
#[test]
fn parallel_matches_serial_churn() {
    for generator in 0u8..3 {
        for machines in [1usize, 4] {
            let seed = 53 + generator as u64 * 11 + machines as u64;
            let inst = generated_instance(generator, 14, 500, 2, seed);
            let workload = churn_workload(&inst, 0.3, seed ^ 0x77);
            let cfg =
                DistConfig::new(machines, 2, 0.3, seed).with_sizing(SketchSizing::Budget(600));
            let serial = dynamic_distributed_k_cover(&workload.stream, &cfg);
            for threads in THREAD_MATRIX {
                let pipe = ParallelRunner::new(cfg, threads).run_dynamic(&workload.stream);
                assert_eq!(
                    pipe.family, serial.family,
                    "dynamic parallel vs serial: gen={generator} machines={machines} threads={threads}"
                );
            }
        }
    }
}

/// Insert-only streams are a special case of dynamic streams; the
/// dynamic parallel path must agree with the dynamic serial reference
/// when fed an [`InsertOnly`] embedding too.
#[test]
fn pipelined_dynamic_handles_insert_only_embedding() {
    let stream = generated_stream(2, 16, 700, 3, 9);
    let embedded = InsertOnly::new(&stream);
    let cfg = DistConfig::new(4, 3, 0.3, 9).with_sizing(SketchSizing::Budget(700));
    let serial = dynamic_distributed_k_cover(&embedded, &cfg);
    for threads in THREAD_MATRIX {
        let pipe = ParallelRunner::new(cfg, threads).run_dynamic(&embedded);
        assert_eq!(pipe.family, serial.family, "threads={threads}");
    }
}

/// The parallel multi-guess solve returns **full traces** (every greedy
/// step: set, gain, coverage-after) bit-identical to the sequential
/// per-guess loop — both the serial zero-rebuild twin and a hand-rolled
/// per-guess `csr_view` + bucket greedy loop.
#[test]
fn parallel_guess_solve_traces_match_sequential_loop() {
    for seed in [3u64, 17, 88] {
        let planted = planted_k_cover(30, 4_000, 5, 160, seed);
        let mut stream = VecStream::from_instance(&planted.instance);
        ArrivalOrder::Random(seed).apply(stream.edges_mut());
        let guesses: Vec<SketchParams> = (0..6)
            .map(|g| SketchParams::with_budget(30, 1 << g, 0.3, 1_200 + 300 * g))
            .collect();
        let mut bank = SketchBank::new(guesses.iter().copied(), seed ^ 0x1F);
        bank.consume_batched(&stream, 512);
        let sketches = bank.sketches();

        let parallel = solve_guesses_parallel(sketches);
        let serial = solve_guesses_serial(sketches);
        assert_eq!(parallel.len(), sketches.len());
        for (g, ((p, s), sketch)) in parallel.iter().zip(&serial).zip(sketches).enumerate() {
            assert_eq!(p.trace.steps, s.trace.steps, "guess {g} seed {seed}");
            assert_eq!(p.result.family, s.result.family, "guess {g} seed {seed}");
            assert_eq!(
                p.result.sketch_coverage, s.result.sketch_coverage,
                "guess {g} seed {seed}"
            );
            // Hand-rolled sequential reference: one csr_view + bucket
            // greedy per guess, in guess order.
            let reference = bucket_greedy_k_cover(&sketch.csr_view(), sketch.params().k);
            assert_eq!(p.trace.steps, reference.steps, "guess {g} seed {seed}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized insert-only cell sampling: any (generator, machines,
    /// threads, batch, seed) point keeps parallel == serial. Complements
    /// the exhaustive fixed-seed sweep above.
    #[test]
    fn pipelined_equivalence_random_cells(
        generator in 0u8..3,
        machines in 1usize..9,
        threads in 1usize..9,
        batch in 1usize..3_000,
        seed in 0u64..500,
    ) {
        let stream = generated_stream(generator, 18, 900, 3, seed);
        let cfg = DistConfig::new(machines, 3, 0.3, seed)
            .with_sizing(SketchSizing::Budget(700));
        let serial = distributed_k_cover(&stream, &cfg);
        let pipe = ParallelRunner::new(cfg, threads)
            .with_batch(batch)
            .run(&stream);
        prop_assert_eq!(&pipe.family, &serial.family,
            "gen={} machines={} threads={} batch={}", generator, machines, threads, batch);
    }

    /// Randomized churn cell sampling for the dynamic pipeline.
    #[test]
    fn pipelined_dynamic_equivalence_random_cells(
        generator in 0u8..3,
        machines in 1usize..6,
        threads in 1usize..6,
        churn in 0.0f64..0.6,
        seed in 0u64..300,
    ) {
        let inst = generated_instance(generator, 12, 400, 2, seed);
        let workload = churn_workload(&inst, churn, seed ^ 0x3C);
        let cfg = DistConfig::new(machines, 2, 0.3, seed)
            .with_sizing(SketchSizing::Budget(500));
        let serial = dynamic_distributed_k_cover(&workload.stream, &cfg);
        let pipe = ParallelRunner::new(cfg, threads).run_dynamic(&workload.stream);
        prop_assert_eq!(&pipe.family, &serial.family,
            "gen={} machines={} threads={} churn={:.2}", generator, machines, threads, churn);
    }
}
