//! What every executor shares: [`DistConfig`], the typed [`RunError`],
//! the [`RetryPolicy`] and deadline wheel of the worker coordinator, and
//! [`WorkerCommand`], how the coordinator ([`crate::net::Coordinator`])
//! starts worker processes.
//!
//! Every executor runs the one pipeline of [`crate::pipeline`] under one
//! **determinism contract**: for a fixed [`DistConfig`] (machines, seed,
//! sizing), the selected cover is a pure function of the input edge
//! (multi)set. [`DistConfig::shard_seed`] and
//! [`DistConfig::sketch_params`]/[`DistConfig::dynamic_sketch_params`]
//! centralize the two knobs every executor must agree on for that to
//! hold.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use coverage_sketch::{DynamicSketchParams, SketchSizing};

/// A failure that ends a run with a typed error instead of a panic.
///
/// The taxonomy is deliberately small: everything a worker can do wrong
/// (crash, hang, corrupt a frame, speak the wrong version) is *recovered*
/// inside the dispatch loop, not surfaced here. Only two things abort a
/// run: the environment refusing to start any worker at all, and a panic
/// inside an in-process executor thread.
#[derive(Debug)]
pub enum RunError {
    /// Not a single worker subprocess could be spawned.
    Spawn(std::io::Error),
    /// An in-process executor thread panicked; the message is the panic
    /// payload when it was a string.
    Panic(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Spawn(e) => write!(f, "no worker could be spawned: {e}"),
            RunError::Panic(msg) => write!(f, "executor thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Spawn(e)
    }
}

/// Render a panic payload (from `catch_unwind` / a failed scope) as a
/// message for [`RunError::Panic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Retry discipline for shard jobs that fail (worker crash, hang reaped
/// by deadline, corrupt reply): bounded per-shard attempts with
/// exponential backoff, plus a run-wide retry budget so a pathological
/// environment degrades to inline rebuilds instead of retrying forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Dispatch attempts per shard before it is built inline (`≥ 1`).
    pub max_attempts: usize,
    /// Total re-dispatches across the whole run before every further
    /// failure goes straight to inline rebuild.
    pub budget: usize,
    /// Backoff before the second attempt; doubles per attempt after.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            budget: 64,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait after `attempt` failed attempts (1-based):
    /// `base · 2^(attempt−1)`, capped.
    pub fn backoff_after(&self, attempt: usize) -> Duration {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// Per-worker job deadlines of the worker coordinator
/// ([`crate::net::Coordinator`]). A "wheel" in spirit only: with at most
/// a handful of workers a linear scan beats any bucketed structure, so
/// the slots are a plain vector indexed by worker. The registry grows as
/// workers join, hence [`arm`](Self::arm) grows the slot vector on
/// demand.
pub(crate) struct DeadlineWheel {
    slots: Vec<Option<Instant>>,
}

impl DeadlineWheel {
    pub(crate) fn new(workers: usize) -> Self {
        DeadlineWheel {
            slots: vec![None; workers],
        }
    }

    pub(crate) fn arm(&mut self, worker: usize, at: Instant) {
        if worker >= self.slots.len() {
            self.slots.resize(worker + 1, None);
        }
        self.slots[worker] = Some(at);
    }

    pub(crate) fn disarm(&mut self, worker: usize) {
        if worker < self.slots.len() {
            self.slots[worker] = None;
        }
    }

    /// The soonest armed deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.slots.iter().flatten().min().copied()
    }

    /// Workers whose deadline is at or before `now`.
    pub(crate) fn expired(&self, now: Instant) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(wi, t)| match t {
                Some(at) if *at <= now => Some(wi),
                _ => None,
            })
            .collect()
    }
}

/// Configuration of a distributed k-cover run.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Number of simulated machines `w ≥ 1`.
    pub machines: usize,
    /// Number of sets to select.
    pub k: usize,
    /// Accuracy parameter ε (Algorithm 3 semantics: sketch ε is ε/12).
    pub epsilon: f64,
    /// Sketch sizing policy (per machine; the merged sketch keeps the
    /// same budget).
    pub sizing: SketchSizing,
    /// Global hash seed — every machine must share it or merging is
    /// meaningless.
    pub seed: u64,
}

impl DistConfig {
    /// Practical defaults.
    pub fn new(machines: usize, k: usize, epsilon: f64, seed: u64) -> Self {
        assert!(machines >= 1, "need at least one machine");
        DistConfig {
            machines,
            k,
            epsilon,
            sizing: SketchSizing::Practical { c: 4.0 },
            seed,
        }
    }

    /// Override the sizing policy.
    pub fn with_sizing(mut self, sizing: SketchSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// The seed edges are sharded with. Every executor must derive it
    /// identically or their machines see different shards and the
    /// determinism contract breaks.
    pub fn shard_seed(&self) -> u64 {
        self.seed ^ 0x5A
    }

    /// The per-machine sketch parameters for a stream of `n` sets
    /// (Algorithm 3 semantics: the sketch runs at ε/12). Centralized for
    /// the same reason as [`shard_seed`](Self::shard_seed): every
    /// executor must size sketches identically or their merged results —
    /// and therefore the selected families — diverge.
    pub fn sketch_params(&self, n: usize) -> coverage_sketch::SketchParams {
        let eps_sketch = (self.epsilon / 12.0).clamp(1e-6, 1.0);
        self.sizing.params(n, self.k.max(1), eps_sketch)
    }

    /// The per-machine **dynamic** sketch parameters: the same shared
    /// sizing as [`sketch_params`](Self::sketch_params) wrapped in the
    /// default level/bank geometry. Centralized for the same reason —
    /// every dynamic executor must agree or merged cells are garbage.
    pub fn dynamic_sketch_params(&self, n: usize) -> DynamicSketchParams {
        DynamicSketchParams::new(self.sketch_params(n))
    }
}

/// How to start one worker subprocess: a program plus the arguments
/// that put it into worker mode (serving framed jobs on stdin/stdout,
/// or over TCP with `--connect ADDR` appended).
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command for an explicit program and arguments.
    pub fn new(program: impl Into<PathBuf>, args: impl IntoIterator<Item = String>) -> Self {
        WorkerCommand {
            program: program.into(),
            args: args.into_iter().collect(),
        }
    }

    /// Re-invoke the *current executable* with the given arguments — how
    /// the CLI (`coverage worker`) and the bench harness spawn workers.
    pub fn current_exe(args: impl IntoIterator<Item = String>) -> std::io::Result<Self> {
        Ok(Self::new(std::env::current_exe()?, args))
    }

    /// Spawn the worker with piped stdin/stdout — a pipe worker's link
    /// ([`crate::ProcessRunner`]).
    pub(crate) fn spawn(&self) -> std::io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    }

    /// Spawn the worker with `--connect ADDR` appended and **no**
    /// parent-owned protocol pipes — how [`crate::SocketRunner`]
    /// launches loopback workers: the framed protocol rides the TCP
    /// connection the child dials back.
    pub(crate) fn spawn_connected(&self, addr: &str) -> std::io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .arg("--connect")
            .arg(addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff_after(1), Duration::from_millis(10));
        assert_eq!(retry.backoff_after(2), Duration::from_millis(20));
        assert_eq!(retry.backoff_after(3), Duration::from_millis(40));
        assert_eq!(retry.backoff_after(20), Duration::from_millis(500));
    }

    #[test]
    fn deadline_wheel_tracks_the_soonest_deadline() {
        let mut wheel = DeadlineWheel::new(3);
        let now = Instant::now();
        assert_eq!(wheel.next_deadline(), None);
        assert!(wheel.expired(now).is_empty());
        wheel.arm(0, now + Duration::from_secs(5));
        wheel.arm(2, now + Duration::from_secs(1));
        assert_eq!(wheel.next_deadline(), Some(now + Duration::from_secs(1)));
        assert_eq!(wheel.expired(now + Duration::from_secs(2)), vec![2]);
        wheel.disarm(2);
        assert_eq!(wheel.next_deadline(), Some(now + Duration::from_secs(5)));
        assert_eq!(
            wheel.expired(now + Duration::from_secs(10)),
            vec![0],
            "disarmed slots never expire"
        );
    }

    #[test]
    fn run_error_is_typed_and_displayable() {
        let spawn = RunError::from(std::io::Error::other("nope"));
        assert!(matches!(spawn, RunError::Spawn(_)));
        assert!(spawn.to_string().contains("nope"));
        let panic = RunError::Panic(panic_message(Box::new("boom".to_string())));
        assert!(panic.to_string().contains("boom"));
        assert_eq!(panic_message(Box::new(17u32)), "non-string panic payload");
    }

    #[test]
    fn threaded_simulation_survives_a_machine_panic() {
        // The crossbeam shim converts a panicking scope into Err, which
        // the parallel runner's map turns into a serial rebuild — never
        // an abort. Simulate by driving the shim directly the way the
        // executor does.
        let result = crossbeam::scope(|scope| {
            scope.spawn(|_| panic!("machine down"));
        });
        assert!(result.is_err(), "the shim must capture scoped panics");
    }
}
