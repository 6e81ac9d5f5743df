//! The `serve` phase: reads beside writes on the `coverage serve` daemon.
//!
//! The daemon runs as a child process speaking its framed protocol over
//! stdin/stdout, with the default publish cadence and queue. Set-up
//! spawns it, fills it past sketch saturation with large update frames
//! and flushes. Then the client offers an open loop of update frames and
//! k-cover queries at fixed rates well inside what the daemon sustains
//! on this input, while a reader thread collects the replies. Latency
//! counts from each request's due time, so a stall also charges the
//! requests queued behind it. Queries load the bucket solve, publishes
//! load the CSR export, and all traffic crosses the protocol codec and
//! the engine. A measured step is one slice of the open loop, whose
//! schedule then pauses, with every query of the slice answered, until
//! the next step.

use std::io::{BufReader, BufWriter};
use std::iter::Peekable;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use coverage_suite::core::offline::bucket_greedy_k_cover;
use coverage_suite::serve::{
    answer_query, read_reply, read_request, write_reply, write_request, LiveStore, QueryAnswer,
    Reply, Request, ServeConfig, ServeStats,
};
use coverage_suite::stream::SignedEdge;

use crate::gen::{Draw, Planted, Shape};
use crate::report::Report;
use crate::stats::{median, typical_quantile, Percentiles};
use crate::trace::{span_cost_s, SpanId, Tracer, ROOT};
use crate::Args;

const KSTAR: usize = 8;
/// About 4.3M edges over 300k elements; the traffic cycles through them.
const SHAPE: Shape = Shape {
    golden: KSTAR,
    decoys: 192,
    elements: 300_000,
    decoy_size: 21_000,
    draw: Draw::Uniform,
};
const BUDGET: usize = 20_000;
const GUESSES: usize = 8;
const EPS: f64 = 0.25;
/// Set-up fill: far past the point where every guess's sketch evicts,
/// and long enough that ingest, not process start, dominates set-up.
const FILL_EDGES: usize = 1_500_000;
const FILL_FRAME: usize = 16_384;
/// Open-loop traffic well inside what the daemon sustains here: updates at
/// half the 1.6M/s where query p90 starts to climb, and queries at a
/// quarter of the 400/s where their backlog starts to grow, so that a
/// passing slowdown of a shared host does not queue them up.
const UPDATE_FRAME: usize = 4_000;
const UPDATE_RATE: f64 = 800_000.0;
const QUERY_RATE: f64 = 100.0;
const STATS_RATE: f64 = 2.0;
const SETUPS: usize = 3;
/// Traffic runs in slices of this much schedule time, one per measured
/// step, between the other phases' steps.
const SLICE: Duration = Duration::from_millis(2_500);
/// How long the daemon may take to answer after a slice's last request.
const DRAIN_GRACE: Duration = Duration::from_secs(30);
/// Reply ids of the closing flush and query, outside the traffic's ids.
const FLUSH_ID: u64 = u64::MAX - 1;
const FINAL_ID: u64 = u64::MAX;

fn config(seed: u64) -> ServeConfig {
    ServeConfig::bank_ladder(SHAPE.num_sets(), GUESSES, EPS, BUDGET, seed)
}

/// The `i`-th update the client sends (fill first, then traffic), cycling
/// through the instance's edges.
fn update(input: &Planted, i: usize) -> SignedEdge {
    let edges = input.edges();
    SignedEdge::insert(edges[i % edges.len()])
}

fn frame(input: &Planted, from: usize, len: usize) -> Vec<SignedEdge> {
    (from..from + len).map(|i| update(input, i)).collect()
}

/// The daemon child process; dropping it closes stdin, waits for the
/// drain, and kills the process if it does not exit.
struct Daemon {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn(args: &Args) -> std::io::Result<Self> {
        let mut child = Command::new(&args.coverage_bin)
            .args(["serve", "--n", &SHAPE.num_sets().to_string()])
            .args([
                "--budget",
                &BUDGET.to_string(),
                "--guesses",
                &GUESSES.to_string(),
            ])
            .args(["--eps", &EPS.to_string(), "--seed", &args.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().map(BufWriter::new);
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Daemon {
            child,
            stdin,
            stdout,
        })
    }

    /// Spawn, fill, flush: the timed set-up. Returns the set-up seconds.
    fn fill(&mut self, input: &Planted) -> Result<f64, String> {
        let start = Instant::now();
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        for (id, from) in (0..FILL_EDGES).step_by(FILL_FRAME).enumerate() {
            let updates = frame(input, from, FILL_FRAME.min(FILL_EDGES - from));
            write_request(
                stdin,
                &Request::Update {
                    id: id as u64,
                    updates,
                },
            )
            .map_err(|e| e.to_string())?;
        }
        write_request(stdin, &Request::Flush { id: FLUSH_ID }).map_err(|e| e.to_string())?;
        let stdout = self.stdout.as_mut().ok_or("stdout closed")?;
        match read_reply(stdout).map_err(|e| e.to_string())? {
            (
                Reply::Flush {
                    updates_applied, ..
                },
                _,
            ) if updates_applied == FILL_EDGES as u64 => Ok(start.elapsed().as_secs_f64()),
            (other, _) => Err(format!("unexpected reply to the fill flush: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        drop(self.stdout.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Request kinds of the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Update,
    Query,
    Stats,
}

/// Fixed-rate open-loop schedule: request `i` of a kind is due at
/// `offset + i * period` after the start, whether or not earlier
/// requests have been answered.
#[derive(Clone)]
pub struct Schedule {
    streams: Vec<(Kind, u64, u64, u64)>,
}

impl Schedule {
    /// `(kind, period_ns, offset_ns)` per request stream.
    pub fn new(streams: &[(Kind, u64, u64)]) -> Self {
        Schedule {
            streams: streams
                .iter()
                .map(|&(k, p, o)| (k, p.max(1), o, 0))
                .collect(),
        }
    }

    /// The next due request before `horizon_ns`: kind, its index within
    /// the kind, and its due time. Ties go to the earlier-listed stream.
    pub fn next(&mut self, horizon_ns: u64) -> Option<(Kind, u64, u64)> {
        let (slot, due) = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, &(_, period, offset, n))| (i, offset + n * period))
            .min_by_key(|&(i, due)| (due, i))?;
        if due >= horizon_ns {
            return None;
        }
        let s = &mut self.streams[slot];
        s.3 += 1;
        Some((s.0, s.3 - 1, due))
    }
}

/// How late a request went out, and how long its reply took, both
/// counted from its due time.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

pub fn latency_ms(due_ns: u64, received_ns: u64) -> f64 {
    received_ns.saturating_sub(due_ns) as f64 * 1e-6
}

/// Age of an answer: how long before the query was sent the newest update
/// the answer includes was sent. Updates sent in between are missing from
/// the answer, so at a fixed update rate this tracks the missing updates
/// converted to time, measured on the generator's own clock.
pub fn answer_age_ms(query_sent_ns: u64, newest_included_sent_ns: u64) -> f64 {
    query_sent_ns.saturating_sub(newest_included_sent_ns) as f64 * 1e-6
}

/// Send time of the newest update included in an answer that reflects
/// `applied` updates: the last traffic frame it covers, or the traffic
/// start when it covers only the set-up fill.
fn newest_included_ns(frame_sent_ns: &[u64], applied: u64) -> u64 {
    let frames = (applied as usize).saturating_sub(FILL_EDGES) / UPDATE_FRAME;
    frames.checked_sub(1).map_or(0, |j| frame_sent_ns[j])
}

/// What the client sent. Due times and lateness are on the real clock,
/// in ns since the phase's start; send times are on the schedule's clock,
/// which stops between slices, so answer ages do not count the pauses.
#[derive(Default)]
struct Sent {
    /// By index: send time of each update frame, and due and send time of
    /// each query.
    frame_sent_ns: Vec<u64>,
    query_due_ns: Vec<u64>,
    query_sent_ns: Vec<u64>,
    /// Queries sent by the end of each slice.
    slice_ends: Vec<usize>,
    lateness_ms: Vec<f64>,
    write_error: Option<String>,
}

/// What the reader threads received.
#[derive(Default)]
struct Received {
    /// `(query index, receive time in ns since the phase's start, answer)`.
    answers: Vec<(u64, u64, QueryAnswer)>,
    stats: Vec<ServeStats>,
    errors: u64,
    flushed: Option<u64>,
    last: Option<QueryAnswer>,
    read_error: Option<String>,
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The open loop's three request streams.
fn schedule() -> Schedule {
    Schedule::new(&[
        (
            Kind::Update,
            (UPDATE_FRAME as f64 / UPDATE_RATE * 1e9) as u64,
            0,
        ),
        (
            Kind::Query,
            (1e9 / QUERY_RATE) as u64,
            (0.5e9 / QUERY_RATE) as u64,
        ),
        (
            Kind::Stats,
            (1e9 / STATS_RATE) as u64,
            (1e9 / STATS_RATE) as u64,
        ),
    ])
}

/// Send every request `schedule` has due before `to` on its clock, each
/// at its due time; schedule time `from` is real time `real0`.
fn generate(
    stdin: &mut BufWriter<ChildStdin>,
    input: &Planted,
    schedule: &mut Schedule,
    (from, to): (u64, u64),
    (start, real0): (Instant, u64),
    sent: &mut Sent,
) {
    while let Some((kind, index, due)) = schedule.next(to) {
        let due_real = real0 + due.saturating_sub(from);
        let now = ns_since(start);
        if now < due_real {
            std::thread::sleep(Duration::from_nanos(due_real - now));
        }
        let request = match kind {
            Kind::Update => {
                let next = FILL_EDGES + sent.frame_sent_ns.len() * UPDATE_FRAME;
                Request::Update {
                    id: index,
                    updates: frame(input, next, UPDATE_FRAME),
                }
            }
            Kind::Query => Request::Query {
                id: index,
                k: KSTAR,
            },
            Kind::Stats => Request::Stats { id: index },
        };
        if let Err(e) = write_request(stdin, &request) {
            sent.write_error = Some(e.to_string());
            return;
        }
        let at = ns_since(start);
        let at_schedule = from + at.saturating_sub(real0);
        match kind {
            Kind::Update => sent.frame_sent_ns.push(at_schedule),
            Kind::Query => {
                sent.query_due_ns.push(due_real);
                sent.query_sent_ns.push(at_schedule);
            }
            Kind::Stats => {}
        }
        sent.lateness_ms
            .push(lateness_ns(due_real, at) as f64 * 1e-6);
    }
}

/// Read `replies` replies into `got`, stopping early if the pipe fails.
fn collect(
    stdout: &mut BufReader<ChildStdout>,
    start: Instant,
    replies: usize,
    got: &mut Received,
) {
    for _ in 0..replies {
        match read_reply(stdout) {
            Ok((
                Reply::Query {
                    id: FINAL_ID,
                    answer,
                },
                _,
            )) => got.last = Some(answer),
            Ok((Reply::Query { id, answer }, _)) => got.answers.push((id, ns_since(start), answer)),
            Ok((Reply::Stats { stats, .. }, _)) => got.stats.push(stats),
            Ok((
                Reply::Flush {
                    updates_applied, ..
                },
                _,
            )) => got.flushed = Some(updates_applied),
            Ok((Reply::Error { message, .. }, _)) => {
                eprintln!("covbench: daemon error reply: {message}");
                got.errors += 1;
            }
            Ok((Reply::Snapshot { .. }, _)) => got.errors += 1,
            Err(e) => {
                got.read_error = Some(e.to_string());
                return;
            }
        }
    }
}

/// Run `send` while a reader thread collects `replies` replies into
/// `got`. A daemon that has not answered them all within the grace period
/// after the last send is killed, which ends the reader with the pipe.
fn exchange(
    daemon: &mut Daemon,
    start: Instant,
    replies: usize,
    got: &mut Received,
    send: impl FnOnce(&mut BufWriter<ChildStdin>),
) {
    let Daemon {
        child,
        stdin: Some(stdin),
        stdout: Some(stdout),
    } = daemon
    else {
        return;
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| collect(stdout, start, replies, got));
        send(stdin);
        let deadline = Instant::now() + DRAIN_GRACE;
        while !reader.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !reader.is_finished() {
            let _ = child.kill();
        }
        reader.join().expect("reply reader panicked");
    });
}

/// The phase once set up: the filled daemon, the open loop's schedule and
/// clock, and what was sent and received so far.
pub struct Serve {
    input: Planted,
    seed: u64,
    daemon: Daemon,
    schedule: Schedule,
    /// The schedule's clock: traffic time served so far, in ns.
    clock_ns: u64,
    start: Instant,
    sent: Sent,
    got: Received,
}

impl Serve {
    /// Set up SETUPS times: spawn, fill past saturation, flush. The last
    /// daemon serves the traffic. `None` when any set-up failed.
    pub fn setup(args: &Args, report: &mut Report) -> Option<Serve> {
        let input = SHAPE.with_draw(args.draw).generate(args.seed);
        let mut setup_s = Vec::new();
        let mut daemon = None;
        let mut setup_failed = 0;
        for _ in 0..SETUPS {
            drop(daemon.take());
            let filled = Daemon::spawn(args)
                .map_err(|e| e.to_string())
                .and_then(|mut d| d.fill(&input).map(|secs| (d, secs)));
            match filled {
                Ok((d, secs)) => {
                    setup_s.push(secs);
                    daemon = Some(d);
                }
                Err(e) => {
                    eprintln!("covbench: daemon set-up failed: {e}");
                    setup_failed += 1;
                }
            }
        }
        report.phase("serve.setup", SETUPS as u64, setup_failed);
        let Some(daemon) = daemon.filter(|_| setup_failed == 0) else {
            report.check("every daemon set-up fills and flushes", false);
            return None;
        };
        report.setup(median(&setup_s));
        Some(Serve {
            input,
            seed: args.seed,
            daemon,
            schedule: schedule(),
            clock_ns: 0,
            start: Instant::now(),
            sent: Sent::default(),
            got: Received::default(),
        })
    }

    /// One measured step: one slice of traffic, every query in it answered.
    pub fn step(&mut self) {
        let from = self.clock_ns;
        let to = from + SLICE.as_nanos() as u64;
        self.clock_ns = to;
        if self.sent.write_error.is_some() || self.got.read_error.is_some() {
            return;
        }
        let mut peek = self.schedule.clone();
        let mut replies = 0;
        while let Some((kind, _, _)) = peek.next(to) {
            replies += usize::from(kind != Kind::Update);
        }
        let Serve {
            input,
            daemon,
            schedule,
            start,
            sent,
            got,
            ..
        } = self;
        let real0 = ns_since(*start);
        exchange(daemon, *start, replies, got, |stdin| {
            generate(stdin, input, schedule, (from, to), (*start, real0), sent)
        });
        self.sent.slice_ends.push(self.sent.query_due_ns.len());
    }

    /// Close the traffic, check it and report the phase's end-to-end
    /// metrics.
    pub fn finish(self, report: &mut Report) {
        self.conclude(report, None);
    }

    /// Serve `seconds` of traffic, then replay the engine and codec layers
    /// traced, and report the phase's per-layer metrics.
    pub fn trace(mut self, seconds: Duration, t: &mut Tracer, report: &mut Report) {
        while self.clock_ns < seconds.as_nanos() as u64 {
            self.step();
        }
        self.conclude(report, Some(t));
    }

    /// Flush, ask the final query, stop the daemon, check everything
    /// received, and report end-to-end or (traced) per-layer metrics.
    fn conclude(mut self, report: &mut Report, tracer: Option<&mut Tracer>) {
        let mut sent_close = Ok(());
        exchange(&mut self.daemon, self.start, 2, &mut self.got, |stdin| {
            sent_close = [
                Request::Flush { id: FLUSH_ID },
                Request::Query {
                    id: FINAL_ID,
                    k: KSTAR,
                },
            ]
            .iter()
            .try_for_each(|r| write_request(stdin, r).map(drop));
        });
        if let Err(e) = sent_close {
            self.sent.write_error.get_or_insert(e.to_string());
        }
        drop(self.daemon);
        let Serve {
            input,
            seed,
            clock_ns,
            sent,
            got,
            ..
        } = self;
        let traffic_s = clock_ns as f64 * 1e-9;

        let (frames, queries) = (sent.frame_sent_ns.len(), sent.query_sent_ns.len() as u64);
        let unanswered = queries.saturating_sub(got.answers.len() as u64);
        report.phase("serve.update_frames", frames as u64, got.errors);
        report.phase("serve.queries", queries, unanswered);
        for err in [&sent.write_error, &got.read_error].into_iter().flatten() {
            eprintln!("covbench: pipe error: {err}");
        }
        report.check(
            "the daemon pipes stay healthy",
            sent.write_error.is_none() && got.read_error.is_none(),
        );
        report.check(
            "every query is answered and no request is refused",
            unanswered == 0 && got.errors == 0,
        );

        let total_updates = (FILL_EDGES + frames * UPDATE_FRAME) as u64;
        let mut store = LiveStore::new(&config(seed));
        let mut apply = |from: usize, len: usize| store.apply(&frame(&input, from, len));
        for from in (0..FILL_EDGES).step_by(FILL_FRAME) {
            apply(from, FILL_FRAME.min(FILL_EDGES - from));
        }
        for f in 0..frames {
            apply(FILL_EDGES + f * UPDATE_FRAME, UPDATE_FRAME);
        }
        let final_ok = match &got.last {
            Some(answer) => {
                let replayed = store
                    .snapshot(answer.epoch, answer.updates_applied)
                    .map(|snap| answer_query(&snap, KSTAR));
                answer.updates_applied == total_updates
                    && got.flushed == Some(total_updates)
                    && replayed.is_some_and(|r| r.bit_eq(answer))
            }
            None => false,
        };
        report.phase("serve.final_query", 1, u64::from(!final_ok));
        report.check(
            "the final answer is bit-identical to a LiveStore replay of every update",
            final_ok,
        );
        let last = got.last.as_ref();
        report.check(
            "the final answer meets (1-1/e-eps)*OPT",
            last.is_some_and(|a| input.meets_kcover_bound(&a.family, EPS)),
        );
        let covered = last.map_or(0, |a| input.coverage(&a.family));
        report.coverage(covered as f64 / input.kcover_opt() as f64);

        let (mut latencies, mut ages) = (Vec::new(), Vec::new());
        let mut by_slice = vec![Vec::new(); sent.slice_ends.len()];
        for (id, at, answer) in &got.answers {
            let i = *id as usize;
            if let (Some(&due), Some(&sent_at)) =
                (sent.query_due_ns.get(i), sent.query_sent_ns.get(i))
            {
                latencies.push(latency_ms(due, *at));
                let slice = sent.slice_ends.partition_point(|&end| end <= i);
                by_slice[slice].push(latency_ms(due, *at));
                let newest = newest_included_ns(&sent.frame_sent_ns, answer.updates_applied);
                ages.push(answer_age_ms(sent_at, newest));
            }
        }
        report.check(
            "every answer carries the id of a query sent",
            latencies.len() == got.answers.len(),
        );
        if latencies.is_empty() || got.stats.is_empty() {
            report.check("queries and stats requests were answered", false);
            return;
        }
        let lat = Percentiles::new(&latencies);
        let slices: Vec<Percentiles> = by_slice
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| Percentiles::new(l))
            .collect();
        report.check(
            "query_p90_ms has at least ten samples beyond it in every slice",
            slices.len() == by_slice.len() && slices.iter().all(|p| p.supports(0.9)),
        );
        eprintln!(
            "covbench: {} queries in {traffic_s:.1}s, p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms (supported: {})",
            lat.count(),
            lat.at(0.5),
            lat.at(0.9),
            lat.at(0.99),
            lat.supports(0.99)
        );

        match tracer {
            None => {
                report.metric("query_p50_ms", typical_quantile(&slices, 0.5), "ms");
                report.metric("query_p90_ms", typical_quantile(&slices, 0.9), "ms");
                report.metric("answer_age_p50_ms", median(&ages), "ms");
            }
            Some(t) => {
                let spans_before = t.len();
                let answers: Vec<QueryAnswer> =
                    got.answers.iter().map(|(_, _, a)| a.clone()).collect();
                let layers = trace_layers(t, &input, seed, &answers, frames);
                let med = |name: &str| median(&t.durations(name));
                let codec_ms = (med("proto.answer_encode") + med("proto.answer_decode")) * 1e3;
                let stat = |f: fn(&ServeStats) -> u64| {
                    median(&got.stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
                };
                let lateness = Percentiles::new(&sent.lateness_ms);
                report.check(
                    "traced replay answers match the daemon's answers",
                    layers == 0,
                );
                report.metric(
                    "serve.bank.ingest_s",
                    t.durations("serve.apply_fill").iter().sum(),
                    "s",
                );
                report.metric("serve.engine.publish_ms", med("serve.publish") * 1e3, "ms");
                report.metric("serve.engine.answer_ms", med("serve.answer") * 1e3, "ms");
                report.metric(
                    "serve.engine.queue_wait_ms",
                    lat.at(0.5) - med("serve.answer") * 1e3 - codec_ms,
                    "ms",
                );
                report.metric("serve.csr.export_ms", med("serve.csr") * 1e3, "ms");
                report.metric("serve.bucket.solve_ms", med("serve.bucket") * 1e3, "ms");
                report.metric(
                    "serve.serve_proto.update_encode_us",
                    med("proto.update_encode") * 1e6,
                    "us",
                );
                report.metric(
                    "serve.serve_proto.update_decode_us",
                    med("proto.update_decode") * 1e6,
                    "us",
                );
                report.metric(
                    "serve.serve_proto.answer_encode_us",
                    med("proto.answer_encode") * 1e6,
                    "us",
                );
                report.metric(
                    "serve.serve_proto.answer_decode_us",
                    med("proto.answer_decode") * 1e6,
                    "us",
                );
                report.metric(
                    "serve.stats.epochs",
                    got.stats.last().map_or(0, |s| s.epoch) as f64,
                    "count",
                );
                report.metric(
                    "serve.stats.staleness",
                    stat(ServeStats::staleness),
                    "count",
                );
                report.metric(
                    "serve.stats.queue_lag",
                    stat(ServeStats::queue_lag),
                    "count",
                );
                report.metric("serve.query_p99_ms", lat.at(0.99), "ms");
                report.metric("serve.gen.lateness_p99_ms", lateness.at(0.99), "ms");
                report.metric(
                    "serve.trace.overhead_share",
                    (t.len() - spans_before) as f64 * span_cost_s()
                        / t.durations("replay.engine").iter().sum::<f64>(),
                    "ratio",
                );
            }
        }
    }
}

/// Check the daemon's answers published at `applied` updates against one
/// replayed publish and answer at the same prefix; returns mismatches.
fn check_prefix(
    t: &mut Tracer,
    root: SpanId,
    store: &LiveStore,
    applied: u64,
    pending: &mut Peekable<std::slice::Iter<QueryAnswer>>,
) -> u64 {
    let mut replayed: Option<QueryAnswer> = None;
    let mut mismatches = 0;
    while let Some(a) = pending.next_if(|a| a.updates_applied <= applied) {
        // The daemon publishes whole frames, so every answer sits on a
        // frame boundary the replay also passes through.
        let same = a.updates_applied == applied
            && replayed
                .get_or_insert_with(|| {
                    let snap = t.span("serve.publish", root, |_, _| {
                        store.snapshot(a.epoch, applied)
                    });
                    let snap = snap.expect("an insert-only store always publishes");
                    t.span("serve.answer", root, |_, _| answer_query(&snap, KSTAR))
                })
                .bit_eq(a);
        mismatches += u64::from(!same);
    }
    mismatches
}

/// Replay the engine and codec layers through their public calls, one
/// span per call; returns how many of the daemon's answers differ from
/// the replay's at the same prefix of updates.
fn trace_layers(
    t: &mut Tracer,
    input: &Planted,
    seed: u64,
    answers: &[QueryAnswer],
    frames: usize,
) -> u64 {
    t.span("replay.engine", ROOT, |t, root| {
        let mut store = LiveStore::new(&config(seed));
        let mut pending = answers.iter().peekable();
        let mut applied = 0;
        for from in (0..FILL_EDGES).step_by(FILL_FRAME) {
            let updates = frame(input, from, FILL_FRAME.min(FILL_EDGES - from));
            t.span("serve.apply_fill", root, |_, _| store.apply(&updates));
            applied += updates.len() as u64;
        }
        let mut mismatches = check_prefix(t, root, &store, applied, &mut pending);
        for f in 0..frames {
            let updates = frame(input, FILL_EDGES + f * UPDATE_FRAME, UPDATE_FRAME);
            let request = Request::Update {
                id: f as u64,
                updates,
            };
            let mut bytes = Vec::new();
            t.span("proto.update_encode", root, |_, _| {
                write_request(&mut bytes, &request).expect("in-memory write")
            });
            let decoded = t.span("proto.update_decode", root, |_, _| {
                read_request(&mut bytes.as_slice()).expect("frame decodes")
            });
            if let (Request::Update { updates, .. }, _) = decoded {
                t.span("serve.apply", root, |_, _| store.apply(&updates));
                applied += updates.len() as u64;
            }
            mismatches += check_prefix(t, root, &store, applied, &mut pending);
        }
        mismatches += pending.count() as u64;
        if let LiveStore::Bank(bank) = &store {
            for sketch in bank.sketches() {
                let view = t.span("serve.csr", root, |_, _| sketch.csr_view());
                t.span("serve.bucket", root, |_, _| {
                    bucket_greedy_k_cover(&view, KSTAR)
                });
            }
        }
        for (id, answer) in answers.iter().enumerate().step_by(4) {
            let reply = Reply::Query {
                id: id as u64,
                answer: answer.clone(),
            };
            let mut bytes = Vec::new();
            t.span("proto.answer_encode", root, |_, _| {
                write_reply(&mut bytes, &reply).expect("in-memory write")
            });
            t.span("proto.answer_decode", root, |_, _| {
                read_reply(&mut bytes.as_slice()).expect("frame decodes")
            });
        }
        mismatches
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_streams_in_due_order() {
        let mut s = Schedule::new(&[(Kind::Update, 10, 0), (Kind::Query, 25, 5)]);
        let mut got = Vec::new();
        while let Some(e) = s.next(60) {
            got.push(e);
        }
        assert_eq!(
            got,
            vec![
                (Kind::Update, 0, 0),
                (Kind::Query, 0, 5),
                (Kind::Update, 1, 10),
                (Kind::Update, 2, 20),
                (Kind::Update, 3, 30),
                (Kind::Query, 1, 30),
                (Kind::Update, 4, 40),
                (Kind::Update, 5, 50),
                (Kind::Query, 2, 55),
            ]
        );
    }

    #[test]
    fn schedule_counts_match_rate_times_horizon() {
        let mut s = Schedule::new(&[
            (Kind::Update, 20_000_000, 0),
            (Kind::Query, 25_000_000, 12_500_000),
        ]);
        let (mut updates, mut queries) = (0, 0);
        while let Some((kind, _, _)) = s.next(10_000_000_000) {
            match kind {
                Kind::Update => updates += 1,
                _ => queries += 1,
            }
        }
        assert_eq!((updates, queries), (500, 400));
    }

    #[test]
    fn latency_and_lateness_count_from_the_due_time() {
        // Sent 3 ms late, answered 5 ms after it was due.
        assert_eq!(lateness_ns(10_000_000, 13_000_000), 3_000_000);
        assert_eq!(latency_ms(10_000_000, 15_000_000), 5.0);
        // Early sends are not negative lateness.
        assert_eq!(lateness_ns(10_000_000, 9_000_000), 0);
    }

    #[test]
    fn answer_age_counts_back_to_the_newest_included_update() {
        // Frames sent at 0, 20, 40 and 60 ms after the traffic start.
        let sent = [0, 20_000_000, 40_000_000, 60_000_000];
        let applied = |frames: usize| (FILL_EDGES + frames * UPDATE_FRAME) as u64;
        assert_eq!(newest_included_ns(&sent, applied(0)), 0);
        assert_eq!(newest_included_ns(&sent, applied(3)), 40_000_000);
        // Asked at 65 ms and answered from three frames: the newest update
        // it includes went out 25 ms before the query.
        assert_eq!(
            answer_age_ms(65_000_000, newest_included_ns(&sent, applied(3))),
            25.0
        );
        assert_eq!(
            answer_age_ms(65_000_000, newest_included_ns(&sent, applied(4))),
            5.0
        );
        assert_eq!(answer_age_ms(10, 20), 0.0);
    }
}
