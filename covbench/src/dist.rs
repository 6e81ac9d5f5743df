//! The `dist` phase: one sharded k-cover job on three executors.
//!
//! The same generated input is split into 8 shards and run on threads
//! (`ParallelRunner`), worker processes over pipes (`ProcessRunner`) and
//! loopback TCP workers (`SocketRunner`), two workers each, in rotating
//! order. The per-shard budget is close to a shard's edge count, so the
//! shards store rather than reject and ship large snapshots: this loads
//! partitioning, the job and snapshot codecs, the transports and the tree
//! reduce. The threads executor skips codec and transport, so it is the
//! control. A measured step is one job on each executor.

use std::time::{Duration, Instant};

use coverage_suite::core::offline::bucket_greedy_k_cover;
use coverage_suite::core::SetId;
use coverage_suite::dist::parallel::{DEFAULT_BATCH, DEFAULT_FAN_IN};
use coverage_suite::dist::proto::{read_message, write_message};
use coverage_suite::dist::{
    partition_edges, tree_reduce_with, DistConfig, Message, ParallelRunner, ProcessRunner,
    ShipFormat, SocketRunner, WorkerCommand,
};
use coverage_suite::sketch::{SketchSizing, SketchSnapshot, ThresholdSketch};
use coverage_suite::stream::EdgeStream;

use crate::gen::{Draw, Planted, Shape};
use crate::report::Report;
use crate::stats::{faster_half_mean, median, spread};
use crate::trace::{span_cost_s, Tracer, ROOT};
use crate::Args;

const KSTAR: usize = 8;
/// About 1M edges over 200k elements.
const SHAPE: Shape = Shape {
    golden: KSTAR,
    decoys: 392,
    elements: 200_000,
    decoy_size: 2_000,
    draw: Draw::Uniform,
};
const MACHINES: usize = 8;
const WORKERS: usize = 2;
/// Close to a shard's edge count (about 123k).
const BUDGET: usize = 125_000;
const EPS: f64 = 0.3;
const SETUPS: usize = 3;
const MIN_ROUNDS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exec {
    Threads,
    Pipes,
    Tcp,
}

const EXECS: [Exec; 3] = [Exec::Threads, Exec::Pipes, Exec::Tcp];

impl Exec {
    fn name(self) -> &'static str {
        match self {
            Exec::Threads => "threads",
            Exec::Pipes => "pipes",
            Exec::Tcp => "tcp",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Exec::Threads => "job.threads",
            Exec::Pipes => "job.pipes",
            Exec::Tcp => "job.tcp",
        }
    }
}

struct Runners {
    threads: ParallelRunner,
    pipes: ProcessRunner,
    tcp: SocketRunner,
}

/// What one job reports, whatever the executor.
#[derive(Default)]
struct Job {
    secs: f64,
    family: Vec<SetId>,
    wire_bytes: u64,
    /// Worker losses, retries, inline-built shards and protocol faults.
    recoveries: [usize; 4],
    map_s: f64,
    chunks: usize,
    overlap: usize,
    rtt_ms: f64,
}

fn run_job(exec: Exec, r: &Runners, input: &Planted) -> Result<Job, String> {
    let start = Instant::now();
    let mut job = match exec {
        Exec::Threads => Job {
            family: r.threads.run(&input.stream).family,
            ..Job::default()
        },
        Exec::Pipes => {
            let res = r.pipes.run(&input.stream).map_err(|e| e.to_string())?;
            Job {
                family: res.family,
                wire_bytes: res.wire_bytes,
                recoveries: [
                    res.workers_lost,
                    res.retries,
                    res.shards_built_inline,
                    res.proto_faults,
                ],
                map_s: res.map_ns as f64 * 1e-9,
                ..Job::default()
            }
        }
        Exec::Tcp => {
            let res = r.tcp.run(&input.stream).map_err(|e| e.to_string())?;
            let s = &res.stats;
            Job {
                family: res.family,
                wire_bytes: s.wire_bytes,
                recoveries: [
                    s.workers_lost,
                    s.retries,
                    s.shards_built_inline,
                    s.proto_faults,
                ],
                map_s: res.map_ns as f64 * 1e-9,
                chunks: s.chunks_streamed,
                overlap: s.overlap_shards,
                rtt_ms: s.heartbeat.mean_ns() as f64 * 1e-6,
                ..Job::default()
            }
        }
    };
    job.secs = start.elapsed().as_secs_f64();
    Ok(job)
}

/// The phase once set up: its input and runners, the family every job
/// must return, and the jobs measured so far.
pub struct Dist {
    cfg: DistConfig,
    input: Planted,
    runners: Runners,
    reference: Vec<SetId>,
    warm_failed: u64,
    jobs: Vec<(Exec, Job)>,
    failed: [u64; 3],
    rounds: usize,
    replay: Replay,
}

impl Dist {
    /// Set up SETUPS times: generate the input, then time building the
    /// three runners and one warm job on each (first spawns, page-ins,
    /// allocator growth), so that work moved into runner start-up shows.
    /// `None` when no warm job completed.
    pub fn setup(args: &Args, report: &mut Report) -> Option<Dist> {
        let shape = SHAPE.with_draw(args.draw);
        let cfg = DistConfig::new(MACHINES, KSTAR, EPS, args.seed)
            .with_sizing(SketchSizing::Budget(BUDGET));
        let mut setup_s = Vec::new();
        let mut prints = Vec::new();
        let mut made = None;
        let mut reference: Option<Vec<SetId>> = None;
        let mut warm_failed = 0;
        for _ in 0..SETUPS {
            drop(made.take());
            let input = shape.generate(args.seed);
            let t = Instant::now();
            let command = WorkerCommand::new(&args.coverage_bin, vec!["worker".to_string()]);
            let runners = Runners {
                threads: ParallelRunner::new(cfg, WORKERS),
                pipes: ProcessRunner::new(cfg, command.clone(), WORKERS),
                tcp: SocketRunner::new(cfg, command, WORKERS),
            };
            for exec in EXECS {
                match run_job(exec, &runners, &input) {
                    Ok(job) => {
                        warm_failed += u64::from(job.recoveries.iter().any(|&n| n > 0));
                        match &reference {
                            None => reference = Some(job.family),
                            Some(r) => warm_failed += u64::from(job.family != *r),
                        }
                    }
                    Err(e) => {
                        eprintln!("covbench: warm {} job failed: {e}", exec.name());
                        warm_failed += 1;
                    }
                }
            }
            setup_s.push(t.elapsed().as_secs_f64());
            prints.push(input.fingerprint());
            made = Some((input, runners));
        }
        let (input, runners) = made.expect("at least one set-up");
        report.check(
            "repeated set-ups generate identical inputs",
            prints.windows(2).all(|w| w[0] == w[1]),
        );
        report.phase(
            "dist.setup_jobs",
            (SETUPS * EXECS.len()) as u64,
            warm_failed,
        );
        let Some(reference) = reference else {
            report.check("set-up jobs complete", false);
            return None;
        };
        report.setup(median(&setup_s));
        report.coverage(input.coverage(&reference) as f64 / input.kcover_opt() as f64);
        report.check(
            "the executors' k-cover meets (1-1/e-eps)*OPT",
            input.meets_kcover_bound(&reference, EPS),
        );
        Some(Dist {
            cfg,
            input,
            runners,
            reference,
            warm_failed,
            jobs: Vec::new(),
            failed: [0; 3],
            rounds: 0,
            replay: Replay::default(),
        })
    }

    /// One round: a job on each executor, in an order that rotates from
    /// round to round; traced, each job in a span, then one replay.
    fn round(&mut self, mut tracer: Option<&mut Tracer>) {
        for i in 0..EXECS.len() {
            let slot = (self.rounds + i) % EXECS.len();
            let exec = EXECS[slot];
            let (runners, input) = (&self.runners, &self.input);
            let res = match tracer.as_deref_mut() {
                Some(t) => t.span(exec.span(), ROOT, |_, _| run_job(exec, runners, input)),
                None => run_job(exec, runners, input),
            };
            match res {
                Ok(job) => {
                    let bad = job.family != self.reference || job.recoveries.iter().any(|&n| n > 0);
                    self.failed[slot] += u64::from(bad);
                    self.jobs.push((exec, job));
                }
                Err(e) => {
                    eprintln!("covbench: {} job failed: {e}", exec.name());
                    self.failed[slot] += 1;
                }
            }
        }
        if let Some(t) = tracer {
            self.replay
                .round(t, &self.cfg, &self.input, &self.reference);
        }
        self.rounds += 1;
    }

    /// One measured step: one untraced round.
    pub fn step(&mut self) {
        self.round(None);
    }

    /// Check the measured jobs and report the phase's end-to-end metrics.
    pub fn finish(self, report: &mut Report) {
        self.conclude(report, None);
    }

    /// Measure for `seconds` with every job traced and replayed layer by
    /// layer, and report the phase's per-layer metrics.
    pub fn trace(mut self, seconds: Duration, t: &mut Tracer, report: &mut Report) {
        let spans_before = t.len();
        let start = Instant::now();
        while self.rounds < MIN_ROUNDS || start.elapsed() < seconds {
            self.round(Some(&mut *t));
        }
        self.conclude(report, Some((t, spans_before)));
    }

    /// Check every job; report end-to-end metrics, or per-layer ones from
    /// the spans recorded after the first `usize` spans of the tracer.
    fn conclude(self, report: &mut Report, tracer: Option<(&mut Tracer, usize)>) {
        let Dist {
            input,
            reference: _,
            warm_failed,
            jobs,
            failed,
            rounds: round,
            replay,
            ..
        } = self;
        if jobs.is_empty() {
            report.check("the phase made a measured step", false);
            return;
        }
        for (i, exec) in EXECS.iter().enumerate() {
            report.phase(
                &format!("dist.{}_jobs", exec.name()),
                round as u64,
                failed[i],
            );
        }
        report.check(
        "every job returns the reference family with no worker loss, retry, inline shard or fault",
        warm_failed == 0 && failed.iter().all(|&f| f == 0),
    );
        let per_exec = |exec: Exec, f: fn(&Job) -> f64| -> Vec<f64> {
            jobs.iter()
                .filter(|(e, _)| *e == exec)
                .map(|(_, j)| f(j))
                .collect()
        };
        let secs = |exec: Exec| per_exec(exec, |j| j.secs);
        for exec in EXECS {
            eprintln!(
                "covbench: {} job seconds {}",
                exec.name(),
                spread(&secs(exec))
            );
        }
        let wire: Vec<u64> = jobs
            .iter()
            .filter(|(e, _)| *e != Exec::Threads)
            .map(|(_, j)| j.wire_bytes)
            .collect();
        report.check(
            "pipes and TCP ship the same snapshot bytes on every job",
            wire.windows(2).all(|w| w[0] == w[1]),
        );

        match tracer {
            None => {
                for exec in EXECS {
                    let per_s = input.edges().len() as f64 / faster_half_mean(&secs(exec));
                    report.metric(&format!("{}.edges_per_s", exec.name()), per_s, "edges/s");
                }
                report.metric(
                    "wire_bytes",
                    wire.first().copied().unwrap_or(0) as f64,
                    "bytes",
                );
            }
            Some((t, spans_before)) => {
                report.check(
                    "replayed layers reproduce the threads executor's family",
                    replay.mismatches == 0,
                );
                let recovered =
                    |i: usize| jobs.iter().map(|(_, j)| j.recoveries[i]).sum::<usize>() as f64;
                let med = |name: &str| median(&t.durations(name));
                let meds = |f: fn(&Job) -> f64, exec: Exec| median(&per_exec(exec, f));
                let layers = med("dist.partition")
                    + med("dist.map")
                    + med("dist.reduce")
                    + med("dist.csr")
                    + med("dist.bucket")
                    + med("dist.estimate");
                let threads_wall = median(&secs(Exec::Threads));
                let r = &replay;
                let critical = med("dist.partition")
                    + (median(&r.build) + median(&r.job_decode) + median(&r.wire_encode))
                        / WORKERS as f64
                    + median(&r.job_encode)
                    + median(&r.wire_decode)
                    + med("dist.reduce_wire")
                    + med("dist.csr")
                    + med("dist.bucket")
                    + med("dist.estimate");
                let c = r.counters;
                let arrivals = c[0].max(1) as f64;
                let traced_wall: f64 = EXECS
                    .iter()
                    .map(|e| t.durations(e.span()).iter().sum::<f64>())
                    .sum::<f64>()
                    + t.durations("replay.threads").iter().sum::<f64>()
                    + t.durations("replay.wire").iter().sum::<f64>();
                report.metric("dist.partition.s", med("dist.partition"), "s");
                report.metric("dist.threshold.ingest_s", median(&r.build), "s");
                report.metric(
                    "dist.threshold.stored_share",
                    c[4] as f64 / arrivals,
                    "ratio",
                );
                report.metric(
                    "dist.threshold.bound_reject_share",
                    c[1] as f64 / arrivals,
                    "ratio",
                );
                report.metric(
                    "dist.threshold.cap_reject_share",
                    c[2] as f64 / arrivals,
                    "ratio",
                );
                report.metric("dist.threshold.evictions", c[3] as f64, "count");
                report.metric("dist.rounds.reduce_ms", med("dist.reduce") * 1e3, "ms");
                report.metric(
                    "dist.rounds.reduce_wire_ms",
                    med("dist.reduce_wire") * 1e3,
                    "ms",
                );
                report.metric("dist.csr.export_ms", med("dist.csr") * 1e3, "ms");
                report.metric("dist.bucket.solve_ms", med("dist.bucket") * 1e3, "ms");
                report.metric("dist.wire.encode_ms", median(&r.wire_encode) * 1e3, "ms");
                report.metric("dist.wire.decode_ms", median(&r.wire_decode) * 1e3, "ms");
                report.metric("dist.wire.snapshot_bytes", r.snapshot_bytes as f64, "bytes");
                report.metric(
                    "dist.dist_proto.job_encode_ms",
                    median(&r.job_encode) * 1e3,
                    "ms",
                );
                report.metric(
                    "dist.dist_proto.job_decode_ms",
                    median(&r.job_decode) * 1e3,
                    "ms",
                );
                report.metric("dist.dist_proto.job_bytes", r.job_bytes as f64, "bytes");
                report.metric("dist.runner.map_s", meds(|j| j.map_s, Exec::Pipes), "s");
                report.metric("dist.net.map_s", meds(|j| j.map_s, Exec::Tcp), "s");
                report.metric(
                    "dist.net.chunks_streamed",
                    meds(|j| j.chunks as f64, Exec::Tcp),
                    "count",
                );
                report.metric(
                    "dist.net.overlap_shards",
                    meds(|j| j.overlap as f64, Exec::Tcp),
                    "count",
                );
                report.metric(
                    "dist.net.heartbeat_rtt_ms",
                    meds(|j| j.rtt_ms, Exec::Tcp),
                    "ms",
                );
                report.metric("dist.executors.workers_lost", recovered(0), "count");
                report.metric("dist.executors.retries", recovered(1), "count");
                report.metric("dist.executors.inline_shards", recovered(2), "count");
                report.metric(
                    "dist.transport.pipes_s",
                    median(&secs(Exec::Pipes)) - critical,
                    "s",
                );
                report.metric(
                    "dist.transport.tcp_s",
                    median(&secs(Exec::Tcp)) - critical,
                    "s",
                );
                report.metric(
                    "dist.trace.unattributed_share",
                    (threads_wall - layers) / threads_wall,
                    "ratio",
                );
                report.metric(
                    "dist.trace.overhead_share",
                    (t.len() - spans_before) as f64 * span_cost_s() / traced_wall,
                    "ratio",
                );
            }
        }
    }
}

/// The sharded job replayed layer by layer through public calls: the
/// threads executor's partition, map, in-memory reduce and solve, then
/// the pipe/TCP path's job and snapshot codecs and binary-shipping reduce.
#[derive(Default)]
struct Replay {
    /// Per round, summed over shards: build, job codec, snapshot codec.
    build: Vec<f64>,
    job_encode: Vec<f64>,
    job_decode: Vec<f64>,
    wire_encode: Vec<f64>,
    wire_decode: Vec<f64>,
    job_bytes: u64,
    snapshot_bytes: u64,
    /// Summed shard counters: arrivals, bound rejects, cap rejects,
    /// evictions, edges stored.
    counters: [u64; 5],
    mismatches: u64,
}

impl Replay {
    fn round(&mut self, t: &mut Tracer, cfg: &DistConfig, input: &Planted, family: &[SetId]) {
        let params = cfg.sketch_params(input.stream.num_sets());
        let (shards, locals) = t.span("replay.threads", ROOT, |t, root| {
            let shards = t.span("dist.partition", root, |_, _| {
                partition_edges(&input.stream, MACHINES, cfg.shard_seed(), DEFAULT_BATCH)
            });
            let (locals, builds) = t.span("dist.map", root, |_, _| {
                let per_worker = MACHINES.div_ceil(WORKERS);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = shards
                        .chunks(per_worker)
                        .map(|group| {
                            scope.spawn(move || {
                                group
                                    .iter()
                                    .map(|buf| {
                                        let start = Instant::now();
                                        let mut s = ThresholdSketch::new(params, cfg.seed);
                                        for chunk in buf.chunks(DEFAULT_BATCH) {
                                            s.update_batch(chunk);
                                        }
                                        (s, start.elapsed().as_secs_f64())
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let built: Vec<(ThresholdSketch, f64)> = handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("shard build thread panicked"))
                        .collect();
                    let secs: f64 = built.iter().map(|b| b.1).sum();
                    (built.into_iter().map(|b| b.0).collect::<Vec<_>>(), secs)
                })
            });
            self.build.push(builds);
            let owned = locals.clone();
            let merged = t.span("dist.reduce", root, |_, _| {
                tree_reduce_with(owned, DEFAULT_FAN_IN, ShipFormat::InMemory).0
            });
            let view = t.span("dist.csr", root, |_, _| merged.csr_view());
            let got = t
                .span("dist.bucket", root, |_, _| {
                    bucket_greedy_k_cover(&view, cfg.k)
                })
                .family();
            t.span("dist.estimate", root, |_, _| merged.estimate_coverage(&got));
            self.mismatches += u64::from(got != family);
            (shards, locals)
        });
        self.counters = [0; 5];
        for s in &locals {
            let c = s.counters();
            for (acc, v) in self.counters.iter_mut().zip([
                c.arrivals,
                c.rejected_by_bound,
                c.rejected_by_cap,
                c.evictions,
                s.edges_stored() as u64,
            ]) {
                *acc += v;
            }
        }

        let mut sums = [0f64; 4];
        let (mut job_bytes, mut snapshot_bytes) = (0, 0);
        t.span("replay.wire", ROOT, |t, root| {
            let mut restored = Vec::with_capacity(locals.len());
            for (edges, local) in shards.into_iter().zip(&locals) {
                let msg = Message::JobSketch {
                    params,
                    seed: cfg.seed,
                    ship: ShipFormat::Binary,
                    fault: None,
                    batch: DEFAULT_BATCH,
                    edges,
                };
                let mut frame = Vec::new();
                let t0 = Instant::now();
                job_bytes += write_message(&mut frame, &msg).expect("in-memory write");
                let t1 = Instant::now();
                read_message(&mut frame.as_slice()).expect("job frame decodes");
                let t2 = Instant::now();
                let bytes = SketchSnapshot::of(local).encode_binary();
                let t3 = Instant::now();
                let back = SketchSnapshot::decode_binary(&bytes)
                    .expect("snapshot decodes")
                    .restore();
                let t4 = Instant::now();
                snapshot_bytes += bytes.len() as u64;
                for (i, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)]
                    .into_iter()
                    .enumerate()
                {
                    sums[i] += (b - a).as_secs_f64();
                }
                t.record("dist.job_codec", root, t0, t2);
                t.record("dist.wire_codec", root, t2, t4);
                restored.push(back);
            }
            t.span("dist.reduce_wire", root, |_, _| {
                tree_reduce_with(restored, DEFAULT_FAN_IN, ShipFormat::Binary)
            });
        });
        self.job_encode.push(sums[0]);
        self.job_decode.push(sums[1]);
        self.wire_encode.push(sums[2]);
        self.wire_decode.push(sums[3]);
        self.job_bytes = job_bytes;
        self.snapshot_bytes = snapshot_bytes;
    }
}
