//! `coverage` — a command-line front end for the streaming coverage
//! library.
//!
//! ```text
//! coverage kcover    --n 200 --m 50000 --k 8 [--budget 5000] [--workload zipf]
//! coverage setcover  --n 200 --m 20000 --kstar 10 --lambda 0.1
//! coverage multipass --n 200 --m 40000 --kstar 10 --rounds 3
//! coverage dist      --n 200 --m 40000 --k 6 --machines 8
//! coverage serve     --n 200 --guesses 8                  # framed daemon on stdin/stdout
//! coverage gen       --n 50 --m 1000 --workload uniform   # dump edges as TSV
//! ```
//!
//! Everything is seeded (`--seed`, default 42) and prints a result table
//! plus the space report, so the tool doubles as a quick benchmarking
//! harness on synthetic workloads.

use std::collections::HashMap;
use std::process::exit;

use coverage_suite::core::report::{fmt_count, fmt_f, Table};
use coverage_suite::data::domains::blog_watch;
use coverage_suite::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden `worker` mode must not go through flag parsing: it
    // speaks the framed binary protocol on stdin/stdout (pipe mode) or
    // over a TCP connection (`worker --connect HOST:PORT`), and is
    // spawned by `dist --processes` / `dist --sockets` (or started by
    // hand against a `dist --listen` coordinator).
    if args.first().map(String::as_str) == Some("worker") {
        let code = match args.get(1).map(String::as_str) {
            Some("--connect") => match args.get(2) {
                Some(addr) => coverage_suite::dist::worker::run_connect(addr),
                None => {
                    eprintln!("worker --connect requires HOST:PORT");
                    2
                }
            },
            None => coverage_suite::dist::worker::run_stdio(),
            Some(other) => {
                eprintln!("unknown worker argument `{other}` (expected --connect HOST:PORT)");
                2
            }
        };
        exit(code);
    }
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        exit(2);
    };
    if let Some(known) = flags_of(&cmd) {
        if let Some(bad) = flags.keys().find(|key| !known.contains(&key.as_str())) {
            eprintln!("unknown flag --{bad} for `{cmd}`\n{USAGE}");
            exit(2);
        }
    }
    match cmd.as_str() {
        "kcover" => cmd_kcover(&flags),
        "setcover" => cmd_setcover(&flags),
        "multipass" => cmd_multipass(&flags),
        "dist" => cmd_dist(&flags),
        "serve" => cmd_serve(&flags),
        "solve" => cmd_solve(&flags),
        "lemmas" => cmd_lemmas(&flags),
        "gen" => cmd_gen(&flags),
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            exit(2);
        }
    }
}

const USAGE: &str = "coverage — streaming coverage problems (SPAA'17 H<=n sketch)

USAGE:
  coverage kcover    --n <sets> --m <elements> --k <k> [--budget B] [--eps E] [--workload W] [--seed S]
                     [--input FILE.sets]   # load an instance instead of generating one
                     [--dynamic] [--pattern churn|window|adversarial] [--churn F]
                     # --dynamic: run on a signed insert/delete stream (default
                     #   pattern: churn with fraction F, default 0.3) and compare
                     #   against the insertion-only run on the surviving edges
  coverage setcover  --n <sets> --m <elements> --kstar <k*> --lambda <L> [--budget B] [--eps E] [--seed S]
  coverage multipass --n <sets> --m <elements> --kstar <k*> --rounds <r> [--budget B] [--eps E] [--seed S]
  coverage dist      --n <sets> --m <elements> --k <k> --machines <w> [--parallel T] [--budget B] [--seed S]
                     [--workload W] [--processes P] [--sockets P] [--listen ADDR]
                     [--fault-plan SEED:SPEC] [--job-timeout-ms MS] [--chunk-items N] [--late-worker-ms MS]
                     # every executor partitions the stream into w shards,
                     #   builds one sketch per shard, merges them in memory
                     #   with a tree reduce and solves; all print the same
                     #   table and select the same cover. Default: the
                     #   sequential simulation, one shard after another
                     # --parallel T: build the shards on T threads
                     # --processes P: build the shards on P real worker
                     #   subprocesses (this binary re-invoked in a hidden
                     #   `worker` mode, framed binary pipes) with heartbeat
                     #   liveness and chunked shard streaming
                     # --sockets P: like --processes, but the workers dial
                     #   back over loopback TCP (`worker --connect`)
                     # --listen ADDR: socket coordinator without self-spawn —
                     #   bind ADDR (e.g. 0.0.0.0:7700) and wait for workers
                     #   started by hand as `coverage worker --connect ADDR`
                     # --fault-plan: deterministic fault injection for the
                     #   worker executors — SPEC is a comma list of crash@N,
                     #   hang@N, delay<MS>@N, corrupt@N, rand<PCT> and the
                     #   network kinds drop@N, stall<MS>@N, dup@N
                     #   (e.g. 7:crash@0,drop@2,rand10). The run must
                     #   still produce the fault-free family.
                     # --job-timeout-ms: per-shard deadline before a stalled
                     #   worker is reaped and its shard requeued
                     # --chunk-items N: shard streaming chunk size (items
                     #   per JobChunk frame); --late-worker-ms MS: spawn one
                     #   extra worker MS after the first shard is dispatched
  coverage serve     --n <sets> [--guesses G] [--dynamic [--k K]] [--eps E] [--budget B] [--seed S]
                     [--publish-every U] [--queue Q] [--journal] [--journal-recover]
                     # long-lived serving daemon speaking the framed CVSV
                     #   protocol on stdin/stdout: writers stream signed edges
                     #   in (update frames), readers get k-cover answers from
                     #   epoch-tagged published snapshots (query frames), plus
                     #   stats/flush/snapshot/shutdown frames. A fresh epoch is
                     #   published every U applied updates (default 65536); the
                     #   bounded queue of Q batches (default 16) exerts
                     #   backpressure on writers. Default store: a G-guess H<=n
                     #   bank (insertion-only); --dynamic serves the l0 sketch
                     #   and accepts deletes. --journal-recover (implies
                     #   --journal) restarts a crashed ingest thread from the
                     #   applied-update journal, pinned to the last published
                     #   epoch, instead of serving degraded
  coverage solve     --n <sets> --m <elements> --k <k> [--workload W] [--seed S]
                     # offline solver comparison: greedy / local search / stochastic / parallel
  coverage lemmas    [--n N] [--m M] [--seed S]        # empirical Section 2 lemma checks
  coverage gen       --n <sets> --m <elements> [--workload W] [--seed S] [--format tsv|sets|json]
                     [--deletions F]   # emit a signed churn stream as 3-column TSV
                                       # (op +/-, set, element); F = churn fraction

WORKLOADS: uniform (default) | zipf | planted | blogs
DEFAULTS:  --eps 0.25  --budget 5000  --seed 42
A flag the subcommand does not read exits 2.";

/// The flags each subcommand reads; `None` for a command that has no
/// flag list (unknown commands and `help`).
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "kcover" => &[
            "n", "m", "k", "budget", "eps", "workload", "seed", "input", "dynamic", "pattern",
            "churn",
        ],
        "setcover" => &["n", "m", "kstar", "lambda", "budget", "eps", "seed"],
        "multipass" => &["n", "m", "kstar", "rounds", "budget", "eps", "seed"],
        "dist" => &[
            "n",
            "m",
            "k",
            "machines",
            "parallel",
            "budget",
            "seed",
            "workload",
            "processes",
            "sockets",
            "listen",
            "fault-plan",
            "job-timeout-ms",
            "chunk-items",
            "late-worker-ms",
        ],
        "serve" => &[
            "n",
            "guesses",
            "dynamic",
            "k",
            "eps",
            "budget",
            "seed",
            "publish-every",
            "queue",
            "journal",
            "journal-recover",
            "ingest-panic-after",
        ],
        "solve" => &["n", "m", "k", "workload", "seed"],
        "lemmas" => &["n", "m", "seed"],
        "gen" => &["n", "m", "workload", "seed", "format", "deletions"],
        _ => return None,
    })
}

/// Split `cmd flag-value pairs` into a command plus a flag map. A flag
/// followed by another flag (or by nothing) is a bare boolean switch
/// and maps to `"true"` — e.g. `kcover --dynamic`.
fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let (cmd, rest) = args.split_first()?;
    let mut flags = HashMap::new();
    let mut it = rest.iter().peekable();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?;
        let val = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("just peeked").clone(),
            _ => "true".to_string(),
        };
        flags.insert(key.to_string(), val);
    }
    Some((cmd.clone(), flags))
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: {v}");
            exit(2);
        }),
        None => default,
    }
}

fn require<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> T {
    match flags.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: {v}");
            exit(2);
        }),
        None => {
            eprintln!("missing required flag --{key}\n{USAGE}");
            exit(2);
        }
    }
}

/// Build the requested workload; returns the instance and, when known, the
/// planted optimum for a k-cover of size `k`.
fn workload(
    flags: &HashMap<String, String>,
    k: usize,
) -> (coverage_suite::core::CoverageInstance, Option<usize>) {
    let n: usize = require(flags, "n");
    let m: u64 = require(flags, "m");
    let seed: u64 = get(flags, "seed", 42);
    let kind = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("uniform");
    match kind {
        "uniform" => (
            uniform_instance(n, m, (m / 50).max(10) as usize, seed),
            None,
        ),
        "zipf" => (
            zipf_instance(n, m, 0.5, 1.05, (m / 4).max(8) as usize, seed),
            None,
        ),
        "planted" => {
            let p = planted_k_cover(n, m, k.max(1), (m / 20).max(4) as usize, seed);
            (p.instance, Some(p.optimal_value))
        }
        "blogs" => (blog_watch(n, m, seed), None),
        other => {
            eprintln!("unknown workload `{other}` (uniform|zipf|planted|blogs)");
            exit(2);
        }
    }
}

fn stream_of(inst: &coverage_suite::core::CoverageInstance, seed: u64) -> VecStream {
    let mut s = VecStream::from_instance(inst);
    ArrivalOrder::Random(seed ^ 0xC11).apply(s.edges_mut());
    s
}

fn print_header(inst: &coverage_suite::core::CoverageInstance) {
    println!(
        "instance: n={} m={} |E|={}",
        fmt_count(inst.num_sets() as u64),
        fmt_count(inst.num_elements() as u64),
        fmt_count(inst.num_edges() as u64)
    );
}

fn cmd_kcover(flags: &HashMap<String, String>) {
    let k: usize = require(flags, "k");
    // The adversarial dynamic pattern constructs its own planted
    // instance (the transient decoy inflation needs construction-time
    // ground truth), so dispatch it before generating a base instance
    // that would only be thrown away.
    if flags.contains_key("dynamic")
        && flags.get("pattern").map(String::as_str) == Some("adversarial")
    {
        if flags.contains_key("input") {
            eprintln!(
                "--pattern adversarial generates its own planted instance and \
                 cannot run on --input; use --pattern churn or window"
            );
            exit(2);
        }
        cmd_kcover_dynamic(flags, k, None);
        return;
    }
    let (inst, opt) = match flags.get("input") {
        Some(path) => match coverage_suite::data::load_text(path) {
            Ok(inst) => (inst, None),
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                exit(2);
            }
        },
        None => workload(flags, k),
    };
    if flags.contains_key("dynamic") {
        cmd_kcover_dynamic(flags, k, Some(&inst));
        return;
    }
    print_header(&inst);
    let seed: u64 = get(flags, "seed", 42);
    let eps: f64 = get(flags, "eps", 0.25);
    let budget: usize = get(flags, "budget", 5_000);
    let stream = stream_of(&inst, seed);
    let res = k_cover_streaming(
        &stream,
        &KCoverConfig::new(k, eps, seed).with_sizing(SketchSizing::Budget(budget)),
    );
    let covered = inst.coverage(&res.family);
    let mut t = Table::new("k-cover (Algorithm 3)", &["metric", "value"]);
    t.row(vec!["family".into(), format!("{:?}", res.family)]);
    t.row(vec!["covered".into(), fmt_count(covered as u64)]);
    if let Some(opt) = opt {
        t.row(vec![
            "coverage/OPT".into(),
            fmt_f(covered as f64 / opt as f64, 4),
        ]);
    }
    t.row(vec!["estimate".into(), fmt_f(res.estimated_coverage, 1)]);
    t.row(vec!["sampling p*".into(), fmt_f(res.sampling_p, 6)]);
    t.row(vec![
        "space (edges)".into(),
        fmt_count(res.space.peak_edges),
    ]);
    t.row(vec!["passes".into(), res.space.passes.to_string()]);
    println!("{}", t.render());
}

/// `kcover --dynamic`: build a signed insert/delete workload over the
/// generated instance (`None` only for the adversarial pattern, which
/// plants its own), run the dynamic pipeline, and compare its cover
/// against the insertion-only run on the surviving edges — the paper's
/// approximation story, judged on the graph the deletions leave behind.
fn cmd_kcover_dynamic(
    flags: &HashMap<String, String>,
    k: usize,
    inst: Option<&coverage_suite::core::CoverageInstance>,
) {
    use coverage_suite::data::{
        adversarial_insert_delete, churn_workload, sliding_window_workload,
    };
    let seed: u64 = get(flags, "seed", 42);
    let eps: f64 = get(flags, "eps", 0.25);
    let budget: usize = get(flags, "budget", 5_000);
    let churn: f64 = get(flags, "churn", 0.3);
    if !(0.0..=1.0).contains(&churn) {
        eprintln!("--churn must lie in [0,1], got {churn}");
        exit(2);
    }
    let pattern = flags.get("pattern").map(String::as_str).unwrap_or("churn");
    let (stream, surviving) = match pattern {
        "churn" => {
            let w = churn_workload(
                inst.expect("churn pattern has a base instance"),
                churn,
                seed ^ 0xD11,
            );
            (w.stream, w.surviving)
        }
        "window" => {
            let w = sliding_window_workload(
                inst.expect("window pattern has a base instance"),
                5,
                2,
                seed ^ 0xD12,
            );
            (w.stream, w.surviving)
        }
        "adversarial" => {
            let n: usize = require(flags, "n");
            let m: u64 = require(flags, "m");
            let w = adversarial_insert_delete(n, m, k.max(1), (m / 20).max(4) as usize, seed);
            (w.stream, w.planted.instance)
        }
        other => {
            eprintln!("unknown pattern `{other}` (churn|window|adversarial)");
            exit(2);
        }
    };
    println!(
        "dynamic stream: {} updates ({} inserts, {} deletes), {} surviving edges",
        fmt_count(stream.updates().len() as u64),
        fmt_count(stream.num_inserts() as u64),
        fmt_count(stream.num_deletes() as u64),
        fmt_count(surviving.num_edges() as u64)
    );
    let dyn_res = dynamic_k_cover(
        &stream,
        &DynamicKCoverConfig::new(k, eps, seed).with_sizing(SketchSizing::Budget(budget)),
    );
    // The insertion-only reference on the surviving edge set.
    let ins_res = k_cover_streaming(
        &stream_of(&surviving, seed),
        &KCoverConfig::new(k, eps, seed).with_sizing(SketchSizing::Budget(budget)),
    );
    let dyn_cov = surviving.coverage(&dyn_res.family);
    let ins_cov = surviving.coverage(&ins_res.family).max(1);
    let mut t = Table::new(
        format!("dynamic k-cover ({pattern} pattern)"),
        &["metric", "value"],
    );
    t.row(vec!["family".into(), format!("{:?}", dyn_res.family)]);
    t.row(vec![
        "covered (surviving)".into(),
        fmt_count(dyn_cov as u64),
    ]);
    t.row(vec![
        "insertion-only on survivors".into(),
        fmt_count(ins_cov as u64),
    ]);
    t.row(vec![
        "dynamic/insertion-only".into(),
        fmt_f(dyn_cov as f64 / ins_cov as f64, 4),
    ]);
    t.row(vec![
        "estimate".into(),
        fmt_f(dyn_res.estimated_coverage, 1),
    ]);
    t.row(vec![
        "sample level".into(),
        dyn_res.sample_level.to_string(),
    ]);
    t.row(vec!["sampling p".into(), fmt_f(dyn_res.sampling_p, 6)]);
    t.row(vec![
        "recovered edges".into(),
        fmt_count(dyn_res.recovered_edges as u64),
    ]);
    t.row(vec![
        "space (words)".into(),
        fmt_count(dyn_res.space.total_words()),
    ]);
    println!("{}", t.render());
}

fn cmd_setcover(flags: &HashMap<String, String>) {
    let k_star: usize = require(flags, "kstar");
    let n: usize = require(flags, "n");
    let m: u64 = require(flags, "m");
    let seed: u64 = get(flags, "seed", 42);
    let lambda: f64 = get(flags, "lambda", 0.1);
    let eps: f64 = get(flags, "eps", 0.5);
    let budget: usize = get(flags, "budget", 5_000);
    let p = planted_set_cover(n, m, k_star, (m / 20).max(4) as usize, seed);
    print_header(&p.instance);
    let stream = stream_of(&p.instance, seed);
    let res = set_cover_outliers(
        &stream,
        &OutlierConfig::new(lambda, eps, seed).with_sizing(SketchSizing::Budget(budget)),
    );
    let mut t = Table::new(
        "set cover with outliers (Algorithm 5)",
        &["metric", "value"],
    );
    t.row(vec!["sets used".into(), res.family.len().to_string()]);
    t.row(vec![
        "|S|/k*".into(),
        fmt_f(res.family.len() as f64 / k_star as f64, 3),
    ]);
    t.row(vec![
        "covered fraction".into(),
        fmt_f(p.instance.coverage_fraction(&res.family), 4),
    ]);
    t.row(vec!["verified".into(), res.verified.to_string()]);
    t.row(vec!["guesses built".into(), res.num_guesses.to_string()]);
    t.row(vec![
        "space (edges)".into(),
        fmt_count(res.space.peak_edges),
    ]);
    println!("{}", t.render());
}

fn cmd_multipass(flags: &HashMap<String, String>) {
    let k_star: usize = require(flags, "kstar");
    let n: usize = require(flags, "n");
    let m: u64 = require(flags, "m");
    let seed: u64 = get(flags, "seed", 42);
    let rounds: usize = get(flags, "rounds", 3);
    let eps: f64 = get(flags, "eps", 0.5);
    let budget: usize = get(flags, "budget", 5_000);
    let p = planted_set_cover(n, m, k_star, (m / 20).max(4) as usize, seed);
    print_header(&p.instance);
    let stream = stream_of(&p.instance, seed);
    let res = set_cover_multipass(
        &stream,
        &MultiPassConfig::new(rounds, eps, seed)
            .with_m(p.instance.num_elements())
            .with_sizing(SketchSizing::Budget(budget)),
    );
    let mut t = Table::new("set cover (Algorithm 6)", &["metric", "value"]);
    t.row(vec!["cover size".into(), res.family.len().to_string()]);
    t.row(vec![
        "|S|/k*".into(),
        fmt_f(res.family.len() as f64 / k_star as f64, 3),
    ]);
    t.row(vec![
        "is cover".into(),
        p.instance.is_cover(&res.family).to_string(),
    ]);
    t.row(vec!["passes".into(), res.passes.to_string()]);
    t.row(vec![
        "residual edges".into(),
        fmt_count(res.residual_edges as u64),
    ]);
    t.row(vec![
        "space (edges)".into(),
        fmt_count(res.space.peak_edges),
    ]);
    println!("{}", t.render());
}

fn cmd_dist(flags: &HashMap<String, String>) {
    let k: usize = require(flags, "k");
    let machines: usize = get(flags, "machines", 4);
    let (inst, opt) = workload(flags, k);
    print_header(&inst);
    let seed: u64 = get(flags, "seed", 42);
    let budget: usize = get(flags, "budget", 5_000);
    let stream = stream_of(&inst, seed);
    let cfg = DistConfig::new(machines, k, 0.25, seed).with_sizing(SketchSizing::Budget(budget));
    let threads: usize = get(flags, "parallel", 0);
    let fault_plan = flags.get("fault-plan").map(|s| match FaultPlan::parse(s) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("invalid --fault-plan: {e}");
            exit(2);
        }
    });
    let job_timeout_ms: u64 = get(flags, "job-timeout-ms", 0);
    let on_workers = get(flags, "processes", 0usize) > 0
        || get(flags, "sockets", 0usize) > 0
        || flags.contains_key("listen");
    if !on_workers && (fault_plan.is_some() || job_timeout_ms > 0) {
        eprintln!(
            "--fault-plan/--job-timeout-ms require worker processes \
             (--processes P, --sockets P or --listen ADDR)"
        );
        exit(2);
    }
    let (executor, res) = if on_workers {
        run_dist_workers(cfg, flags, fault_plan, job_timeout_ms, &stream)
    } else if threads > 0 {
        let res = ParallelRunner::new(cfg, threads).run(&stream);
        (format!("{threads} threads"), res)
    } else {
        let res = distributed_k_cover(&stream, &cfg);
        ("sequential simulation".to_string(), res)
    };

    let covered = inst.coverage(&res.family);
    let title = format!("distributed k-cover ({machines} machines, {executor})");
    let mut t = Table::new(title, &["metric", "value"]);
    t.row(vec!["family".into(), format!("{:?}", res.family)]);
    t.row(vec!["covered".into(), fmt_count(covered as u64)]);
    if let Some(opt) = opt {
        t.row(vec![
            "coverage/OPT".into(),
            fmt_f(covered as f64 / opt as f64, 4),
        ]);
    }
    if let Some(peak) = res.per_machine.iter().map(|r| r.peak_edges).max() {
        t.row(vec!["max per-machine edges".into(), fmt_count(peak)]);
    }
    t.row(vec![
        "merged edges".into(),
        fmt_count(res.merged_edges as u64),
    ]);
    if on_workers {
        worker_rows(&mut t, &res.stats);
    }
    t.row(vec![
        "reduce rounds".into(),
        res.rounds.num_rounds().to_string(),
    ]);
    t.row(vec![
        "words shipped".into(),
        fmt_count(res.rounds.total_words()),
    ]);
    t.row(vec![
        "partition ms".into(),
        fmt_f(res.partition_ns as f64 / 1e6, 2),
    ]);
    t.row(vec!["map ms".into(), fmt_f(res.map_ns as f64 / 1e6, 2)]);
    t.row(vec![
        "reduce+solve ms".into(),
        fmt_f(res.reduce_solve_ns as f64 / 1e6, 2),
    ]);
    println!("{}", t.render());
}

/// `dist --processes P` / `--sockets P` / `--listen ADDR`: the worker
/// coordinator. Pipe mode spawns `P` copies of this binary in the
/// hidden `worker` mode; loopback mode spawns them as
/// `worker --connect`; listen mode binds `ADDR` and waits for workers
/// started by hand. Returns the executor's name for the table title and
/// the run's report.
fn run_dist_workers(
    cfg: DistConfig,
    flags: &HashMap<String, String>,
    fault_plan: Option<FaultPlan>,
    job_timeout_ms: u64,
    stream: &VecStream,
) -> (String, RunReport) {
    let processes: usize = get(flags, "processes", 0);
    let sockets: usize = get(flags, "sockets", 0);
    let command = || match WorkerCommand::current_exe(vec!["worker".to_string()]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot locate own executable for worker spawn: {e}");
            exit(1);
        }
    };
    let (mut runner, workers): (Coordinator<RunReport>, String) = match flags.get("listen") {
        Some(_) if sockets > 0 => {
            eprintln!("--listen and --sockets are mutually exclusive");
            exit(2);
        }
        Some(addr) => {
            eprintln!("listening on {addr}; start workers with `coverage worker --connect {addr}`");
            let runner = Coordinator::listen(cfg, addr.clone());
            (runner, "TCP socket workers".to_string())
        }
        None if sockets > 0 => {
            let runner = Coordinator::loopback(cfg, command(), sockets);
            (runner, format!("{sockets} loopback socket workers"))
        }
        None => {
            let runner = Coordinator::pipes(cfg, command(), processes);
            (runner, format!("{processes} worker processes"))
        }
    };
    if let Some(plan) = fault_plan {
        runner = runner.with_fault_plan(plan);
    }
    if job_timeout_ms > 0 {
        runner = runner.with_job_timeout(std::time::Duration::from_millis(job_timeout_ms));
    }
    let chunk_items: usize = get(flags, "chunk-items", 0);
    if chunk_items > 0 {
        runner = runner.with_chunk_items(chunk_items);
    }
    let late_worker_ms: u64 = get(flags, "late-worker-ms", 0);
    if late_worker_ms > 0 {
        runner = runner.with_late_worker_after(std::time::Duration::from_millis(late_worker_ms));
    }
    match runner.run(stream) {
        Ok(res) => (workers, res),
        Err(e) => {
            eprintln!("distributed run failed: {e}");
            exit(1);
        }
    }
}

/// The coordinator's registry, fault and transport rows of the `dist`
/// table.
fn worker_rows(t: &mut Table, s: &SocketRunStats) {
    t.row(vec![
        "workers joined".into(),
        format!("{} ({} late)", s.workers_joined, s.late_joiners),
    ]);
    t.row(vec!["workers lost".into(), s.workers_lost.to_string()]);
    t.row(vec![
        "suspect transitions".into(),
        format!(
            "{} ({} recovered)",
            s.suspect_transitions, s.suspect_recoveries
        ),
    ]);
    t.row(vec![
        "shards requeued".into(),
        s.shards_requeued.to_string(),
    ]);
    t.row(vec![
        "shards built inline".into(),
        s.shards_built_inline.to_string(),
    ]);
    t.row(vec!["deadline reaps".into(), s.deadline_reaps.to_string()]);
    t.row(vec!["retries".into(), s.retries.to_string()]);
    t.row(vec!["proto faults".into(), s.proto_faults.to_string()]);
    t.row(vec![
        "net faults injected".into(),
        format!(
            "{} drop / {} stall / {} dup",
            s.conn_drops_injected, s.stalls_injected, s.chunk_dups_injected
        ),
    ]);
    t.row(vec![
        "chunks streamed".into(),
        fmt_count(s.chunks_streamed as u64),
    ]);
    t.row(vec![
        "overlapped shards".into(),
        s.overlap_shards.to_string(),
    ]);
    t.row(vec![
        "heartbeat rtt us".into(),
        format!(
            "min {} / mean {} / max {} ({} probes)",
            s.heartbeat.min_ns() / 1_000,
            s.heartbeat.mean_ns() / 1_000,
            s.heartbeat.max_ns() / 1_000,
            s.heartbeat.probes
        ),
    ]);
    for w in &s.workers {
        t.row(vec![
            format!("worker {}", w.id),
            format!(
                "{} {} shards={}{}",
                w.addr,
                w.state,
                w.shards_completed,
                if w.late_joiner { " (late)" } else { "" }
            ),
        ]);
    }
    t.row(vec!["wire bytes".into(), fmt_count(s.wire_bytes)]);
}

/// `coverage serve`: run the epoch-snapshot serving daemon over this
/// process's stdin/stdout. All output is framed protocol bytes; the
/// drain summary goes to stderr.
fn cmd_serve(flags: &HashMap<String, String>) {
    let n: usize = require(flags, "n");
    let seed: u64 = get(flags, "seed", 42);
    let eps: f64 = get(flags, "eps", 0.25);
    let budget: usize = get(flags, "budget", 5_000);
    let publish_every: u64 = get(flags, "publish-every", 65_536);
    let queue: usize = get(flags, "queue", 16);
    let config = if flags.contains_key("dynamic") {
        let k: usize = get(flags, "k", 4);
        let params = DynamicSketchParams::new(SketchParams::with_budget(n, k, eps, budget));
        ServeConfig::dynamic(params, seed)
    } else {
        let guesses: usize = get(flags, "guesses", 8);
        ServeConfig::bank_ladder(n, guesses, eps, budget, seed)
    };
    let mut config = config
        .with_publish_every(publish_every)
        .with_queue_batches(queue)
        .with_journal(flags.contains_key("journal"));
    if flags.contains_key("journal-recover") {
        config = config.with_auto_recover(true);
    }
    // Hidden test hook: crash the ingest thread after N applied updates
    // so the recovery path can be exercised end to end from the CLI.
    if let Some(after) = flags.get("ingest-panic-after") {
        let after: u64 = after.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --ingest-panic-after: {after}");
            exit(2);
        });
        config = config.with_ingest_panic_after(after);
    }
    exit(coverage_suite::serve::run_stdio(config));
}

fn cmd_gen(flags: &HashMap<String, String>) {
    let (inst, _) = workload(flags, 1);
    let seed: u64 = get(flags, "seed", 42);
    let format = flags.get("format").map(String::as_str).unwrap_or("tsv");
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = std::io::BufWriter::new(stdout.lock());
    if let Some(frac) = flags.get("deletions") {
        // Signed stream output: `op \t set \t element` per update.
        let frac: f64 = frac.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --deletions: {frac}");
            exit(2);
        });
        if !(0.0..=1.0).contains(&frac) {
            eprintln!("--deletions must lie in [0,1], got {frac}");
            exit(2);
        }
        if format != "tsv" {
            eprintln!("--deletions only supports --format tsv (signed update stream)");
            exit(2);
        }
        let w = coverage_suite::data::churn_workload(&inst, frac, seed ^ 0xD11);
        let ok = w.stream.updates().iter().all(|u| {
            let op = match u.kind {
                coverage_suite::stream::UpdateKind::Insert => '+',
                coverage_suite::stream::UpdateKind::Delete => '-',
            };
            writeln!(lock, "{op}\t{}\t{}", u.edge.set.0, u.edge.element.0).is_ok()
        });
        if !ok {
            exit(1);
        }
        return;
    }
    let ok = match format {
        "tsv" => {
            let stream = stream_of(&inst, seed);
            stream
                .edges()
                .iter()
                .all(|e| writeln!(lock, "{}\t{}", e.set.0, e.element.0).is_ok())
        }
        "sets" => lock
            .write_all(coverage_suite::data::to_text(&inst).as_bytes())
            .is_ok(),
        "json" => {
            let meta = InstanceMeta {
                name: "generated".into(),
                source: format!("{flags:?}"),
            };
            lock.write_all(coverage_suite::data::to_json(&inst, &meta).as_bytes())
                .is_ok()
        }
        other => {
            eprintln!("unknown format `{other}` (tsv|sets|json)");
            exit(2);
        }
    };
    if !ok {
        exit(1);
    }
}

fn cmd_solve(flags: &HashMap<String, String>) {
    let k: usize = require(flags, "k");
    let (inst, opt) = workload(flags, k);
    print_header(&inst);
    let seed: u64 = get(flags, "seed", 42);
    let mut t = Table::new(
        "offline solver comparison",
        &["solver", "coverage", "vs greedy", "sets"],
    );
    let greedy = lazy_greedy_k_cover(&inst, k);
    let gcov = greedy.coverage().max(1);
    let mut row = |name: &str, fam: &[SetId]| {
        let c = inst.coverage(fam);
        t.row(vec![
            name.into(),
            fmt_count(c as u64),
            fmt_f(c as f64 / gcov as f64, 4),
            fam.len().to_string(),
        ]);
    };
    row("lazy greedy", &greedy.family());
    row(
        "local search (swap)",
        &local_search_k_cover(&inst, k).family,
    );
    row(
        "stochastic greedy",
        &stochastic_greedy_k_cover(&inst, k, 0.1, seed).family(),
    );
    row(
        "parallel greedy x4",
        &parallel_greedy_k_cover(&inst, k, 4).family(),
    );
    if let Some(opt) = opt {
        t.row(vec![
            "planted OPT".into(),
            fmt_count(opt as u64),
            fmt_f(opt as f64 / gcov as f64, 4),
            "-".into(),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_lemmas(flags: &HashMap<String, String>) {
    use coverage_suite::sketch::{
        check_lemma_2_2, check_lemma_2_3, check_lemma_2_4, check_theorem_2_7,
    };
    let n: usize = get(flags, "n", 30);
    let m: u64 = get(flags, "m", 3_000);
    let seed: u64 = get(flags, "seed", 42);
    let inst = uniform_instance(n, m, (m / 25).max(8) as usize, seed);
    let k = 4;
    let eps = 0.25;
    let p = 0.5;
    let mut t = Table::new(
        format!("Section 2 lemma checks (n={n}, m={m}, k={k}, eps={eps}, p={p})"),
        &["claim", "measured", "bound", "holds"],
    );
    let c = check_lemma_2_2(&inst, k, eps, p, 5, 4, seed);
    t.row(vec![
        "Lemma 2.2 (estimator)".into(),
        fmt_f(c.worst_abs_err, 2),
        fmt_f(c.allowance, 2),
        (c.violations == 0).to_string(),
    ]);
    let c = check_lemma_2_3(&inst, k, eps, p, seed);
    t.row(vec![
        "Lemma 2.3 (Hp -> G)".into(),
        fmt_f(c.ratio_on_target, 3),
        fmt_f(c.guaranteed, 3),
        c.holds().to_string(),
    ]);
    let cap = SketchParams::paper_degree_cap(n, k, eps);
    let c = check_lemma_2_4(&inst, k, eps, p, cap, seed);
    t.row(vec![
        "Lemma 2.4 (H'p -> Hp)".into(),
        fmt_f(c.ratio_on_target, 3),
        fmt_f(c.guaranteed, 3),
        c.holds().to_string(),
    ]);
    let params = SketchParams::with_budget(n, k, eps, 4 * n * k);
    let c = check_theorem_2_7(&inst, params, seed);
    t.row(vec![
        "Theorem 2.7 (H<=n -> G)".into(),
        fmt_f(c.ratio_on_target, 3),
        fmt_f(c.guaranteed, 3),
        c.holds().to_string(),
    ]);
    println!("{}", t.render());
}
