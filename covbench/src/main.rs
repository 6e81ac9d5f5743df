//! `covbench`: end-to-end and per-layer benchmark of the coverage suite.
//!
//! ```text
//! covbench --workload uniform|skewed --seed N --seconds S --trace 0|1
//!          --coverage-bin PATH [--trace-out FILE]
//! ```
//!
//! A workload is a family of planted inputs: decoy sets draw their
//! elements uniformly or with Zipf popularity. Every run takes its inputs
//! through three phases: `stream` (Algorithms 3 and 5 in one thread),
//! `dist` (one sharded job on threads, pipe workers and TCP workers) and
//! `serve` (the daemon under open-loop updates and queries). Each phase
//! generates its inputs from `--seed` and sets up; then the run measures
//! for `--seconds` in cycles of one step of each phase, so every phase
//! samples the whole run rather than a third of it, checks the outputs,
//! and prints one JSON line last on stdout: end-to-end metrics with
//! `--trace 0`. With `--trace 1` the phases run one after the other,
//! sharing `--seconds`, with spans around calls into each layer, and the
//! line holds per-layer metrics; spans go to `--trace-out` when given.
//! The exit code is 1 when any check fails. `run.py` builds the binaries
//! and supplies `--coverage-bin`.

mod dist;
mod gen;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use dist::Dist;
use gen::Draw;
use report::Report;
use serve::Serve;
use stream::Stream;
use trace::Tracer;

pub struct Args {
    pub draw: Draw,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub coverage_bin: PathBuf,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: covbench --workload uniform|skewed --seed N --seconds S \
                     --trace 0|1 --coverage-bin PATH [--trace-out FILE]";

/// Measured cycles per run, at least.
const MIN_CYCLES: u32 = 3;
/// Share of `--seconds` each phase measures for in a traced run.
const STREAM_SHARE: f64 = 0.4;
const DIST_SHARE: f64 = 0.3;
const SERVE_SHARE: f64 = 0.3;

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut draw, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut coverage_bin, mut trace_out) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                draw = Some(match value.as_str() {
                    "uniform" => Draw::Uniform,
                    "skewed" => Draw::Skewed,
                    _ => return Err(bad("must be uniform or skewed")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--coverage-bin" => coverage_bin = Some(PathBuf::from(&value)),
            "--trace-out" => trace_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        draw: draw.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        coverage_bin: coverage_bin.ok_or("--coverage-bin is required")?,
        trace_out,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("covbench: {e}\n{USAGE}");
        exit(2);
    });
    if !args.coverage_bin.is_file() {
        eprintln!(
            "covbench: no coverage binary at {}",
            args.coverage_bin.display()
        );
        exit(2);
    }
    let mut tracer = args.traced.then(Tracer::new);
    let mut report = Report::new();
    let mut stream = Stream::setup(&args, &mut report);
    let dist = Dist::setup(&args, &mut report);
    let serve = Serve::setup(&args, &mut report);
    if let (Some(mut dist), Some(mut serve)) = (dist, serve) {
        match tracer.as_mut() {
            None => {
                let start = Instant::now();
                let mut cycles: u32 = 0;
                loop {
                    // Stop at the cycle boundary nearest `--seconds`.
                    let elapsed = start.elapsed();
                    if cycles >= MIN_CYCLES && elapsed + elapsed / (2 * cycles) >= args.seconds {
                        break;
                    }
                    stream.step();
                    dist.step();
                    serve.step();
                    cycles += 1;
                }
                stream.finish(&mut report);
                dist.finish(&mut report);
                serve.finish(&mut report);
                report.add_run_metrics();
            }
            Some(t) => {
                let share = |f: f64| args.seconds.mul_f64(f);
                stream.trace(share(STREAM_SHARE), t, &mut report);
                dist.trace(share(DIST_SHARE), t, &mut report);
                serve.trace(share(SERVE_SHARE), t, &mut report);
            }
        }
    }
    if let (Some(t), Some(path)) = (&tracer, &args.trace_out) {
        if let Err(e) = t.write_jsonl(path) {
            eprintln!("covbench: cannot write spans to {}: {e}", path.display());
        }
    }
    eprint!("{}", report.summary());
    println!("{}", report.to_json());
    exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload skewed --seed 7 --seconds 12 --trace 1 --coverage-bin x").unwrap();
        assert_eq!(
            (a.draw, a.seed, a.seconds, a.traced),
            (Draw::Skewed, 7, Duration::from_secs(12), true)
        );
        let a =
            args("--workload uniform --seed 1 --seconds 40 --trace 0 --coverage-bin x").unwrap();
        assert_eq!((a.draw, a.traced), (Draw::Uniform, false));
    }

    #[test]
    fn phase_shares_fill_the_run() {
        assert!((STREAM_SHARE + DIST_SHARE + SERVE_SHARE - 1.0).abs() < 1e-12);
    }

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        assert!(names.len() > 2 + 14, "workloads and metrics are all named");
        let mut seen = std::collections::HashSet::new();
        for name in names {
            assert!(report::valid_name(name), "invalid name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
    }

    #[test]
    fn rejects_missing_or_malformed_flags() {
        assert!(args("--workload skewed --seed 7 --seconds 12 --trace 1").is_err());
        assert!(
            args("--workload skewed --seed x --seconds 12 --trace 1 --coverage-bin x").is_err()
        );
        assert!(args("--workload skewed --seed 1 --seconds 0 --trace 1 --coverage-bin x").is_err());
        assert!(args("--workload skewed --seed 1 --seconds 5 --trace 2 --coverage-bin x").is_err());
        assert!(args("--workload skewed --seed 1 --seconds 5 --trace").is_err());
        assert!(args("--workload stream --seed 1 --seconds 5 --trace 0 --coverage-bin x").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
