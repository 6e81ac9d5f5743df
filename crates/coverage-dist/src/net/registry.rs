//! The coordinator's **worker registry**: one entry per worker link (a
//! pipe worker or a TCP connection), tracking identity (id + peer),
//! liveness state, work in flight, shards completed, and heartbeat
//! round-trip latency.
//!
//! Liveness cannot mean "EOF": a partitioned, half-open or stalled link
//! delivers no signal at all. The registry therefore grades each worker
//! by the age of its oldest unanswered heartbeat probe: under
//! `suspect_after` the worker is [`WorkerState::Live`], between
//! `suspect_after` and `dead_after` it is [`WorkerState::Suspect`] (no
//! new shards, existing job keeps its deadline), and past `dead_after`
//! it is declared [`WorkerState::Dead`] — its link is severed and its
//! in-flight shard requeued. An echo at any point before death snaps the worker
//! back to [`WorkerState::Live`] (a *recovery*, counted separately). A
//! false positive is always safe: shard jobs are self-contained and
//! `merge_from` is associative/commutative, so requeueing a shard that a
//! slow-but-healthy worker was still building cannot change the result.

use std::time::{Duration, Instant};

/// Liveness state of one registered worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Connected, handshake probe sent, no echo yet — not trusted with
    /// shards until it proves it speaks the current protocol version.
    Joining,
    /// Echoing heartbeats inside the suspect threshold; eligible for
    /// shard dispatch.
    Live,
    /// Its oldest unanswered probe is older than `suspect_after`:
    /// possibly stalled, partitioned, or just slow. No new shards; an
    /// echo recovers it to [`WorkerState::Live`].
    Suspect,
    /// Declared dead (missed probes past `dead_after`, connection error,
    /// or EOF). Terminal: a worker process that comes back connects as a
    /// **new** registry entry.
    Dead,
}

impl std::fmt::Display for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerState::Joining => write!(f, "joining"),
            WorkerState::Live => write!(f, "live"),
            WorkerState::Suspect => write!(f, "suspect"),
            WorkerState::Dead => write!(f, "dead"),
        }
    }
}

/// Min/mean/max round-trip latency of answered heartbeat probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeartbeatStats {
    /// Number of probe round-trips recorded.
    pub probes: u64,
    min_ns: u64,
    max_ns: u64,
    sum_ns: u64,
}

impl HeartbeatStats {
    /// Record one answered probe's round-trip time.
    pub fn record(&mut self, rtt: Duration) {
        let ns = rtt.as_nanos().min(u128::from(u64::MAX)) as u64;
        if self.probes == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.probes += 1;
    }

    /// Fold another worker's stats into this aggregate.
    pub fn merge(&mut self, other: &HeartbeatStats) {
        if other.probes == 0 {
            return;
        }
        if self.probes == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.probes += other.probes;
    }

    /// Fastest recorded round-trip, in nanoseconds (0 when no probe was
    /// ever answered).
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Slowest recorded round-trip, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean round-trip, in nanoseconds (0 when no probe was answered).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.probes).unwrap_or(0)
    }
}

/// A read-only snapshot of one registry entry, surfaced on
/// [`SocketRunStats`](crate::net::SocketRunStats) so tests and operators
/// can see exactly which worker did what.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Registry id (connection order).
    pub id: usize,
    /// Peer: the accepted socket's address, or `pid N` for a pipe
    /// worker.
    pub addr: String,
    /// Final liveness state.
    pub state: WorkerState,
    /// Shards this worker completed (replies accepted).
    pub shards_completed: usize,
    /// Whether it connected after shard dispatch had begun (admitted
    /// mid-run — a late joiner or a rejoining worker process).
    pub late_joiner: bool,
    /// Heartbeat round-trip latency stats for this worker.
    pub rtt: HeartbeatStats,
}

/// The verdict of a liveness check against the probe-age thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// No transition.
    Unchanged,
    /// Crossed `suspect_after` (live/joining → suspect).
    TurnedSuspect,
    /// Crossed `dead_after` (→ dead); the caller must sever the
    /// connection and requeue the worker's in-flight shard.
    TurnedDead,
}

struct Entry {
    addr: String,
    state: WorkerState,
    late_joiner: bool,
    shards_completed: usize,
    jobs_in_flight: usize,
    rtt: HeartbeatStats,
    /// Oldest unanswered probe: `(nonce, sent_at)`.
    pending: Option<(u64, Instant)>,
}

/// The registry itself: entries are append-only (a rejoining worker is a
/// new entry; [`WorkerState::Dead`] is terminal), indexed by connection
/// id.
#[derive(Default)]
pub struct WorkerRegistry {
    entries: Vec<Entry>,
    suspect_transitions: usize,
    suspect_recoveries: usize,
}

impl WorkerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WorkerRegistry::default()
    }

    /// Number of entries ever admitted (including dead ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no worker was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admit a new link in [`WorkerState::Joining`]; returns its id.
    pub fn admit(&mut self, addr: String, late_joiner: bool) -> usize {
        let id = self.entries.len();
        self.entries.push(Entry {
            addr,
            state: WorkerState::Joining,
            late_joiner,
            shards_completed: 0,
            jobs_in_flight: 0,
            rtt: HeartbeatStats::default(),
            pending: None,
        });
        id
    }

    /// Current state of worker `id`.
    pub fn state(&self, id: usize) -> WorkerState {
        self.entries[id].state
    }

    /// Whether `id` may be handed a new shard right now.
    pub fn dispatchable(&self, id: usize) -> bool {
        self.entries[id].state == WorkerState::Live
    }

    /// Whether `id` still counts as a cluster member (anything but
    /// dead).
    pub fn usable(&self, id: usize) -> bool {
        self.entries[id].state != WorkerState::Dead
    }

    /// Number of non-dead workers.
    pub fn usable_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state != WorkerState::Dead)
            .count()
    }

    /// Whether `id` has an unanswered probe outstanding.
    pub fn probe_pending(&self, id: usize) -> bool {
        self.entries[id].pending.is_some()
    }

    /// Record that a probe with `nonce` was written to `id` at `at`.
    /// Only the **oldest** unanswered probe is tracked — liveness is
    /// graded on it, and no new probe is sent while one is pending.
    pub fn note_probe(&mut self, id: usize, nonce: u64, at: Instant) {
        let e = &mut self.entries[id];
        if e.pending.is_none() {
            e.pending = Some((nonce, at));
        }
    }

    /// Record a heartbeat echo from `id` at `at`. A matching nonce
    /// clears the pending probe, records its round-trip, and snaps the
    /// worker back to [`WorkerState::Live`] (counting a recovery if it
    /// was suspect). Returns the round-trip when the nonce matched.
    pub fn note_echo(&mut self, id: usize, nonce: u64, at: Instant) -> Option<Duration> {
        let e = &mut self.entries[id];
        if e.state == WorkerState::Dead {
            return None;
        }
        let (expect, sent) = e.pending?;
        if expect != nonce {
            return None;
        }
        e.pending = None;
        let rtt = at.saturating_duration_since(sent);
        e.rtt.record(rtt);
        if e.state == WorkerState::Suspect {
            self.suspect_recoveries += 1;
        }
        e.state = WorkerState::Live;
        Some(rtt)
    }

    /// Grade `id`'s liveness at `now` against the probe-age thresholds,
    /// applying (and reporting) any state transition. Callers act on
    /// [`Liveness::TurnedDead`] by severing the connection and requeuing
    /// the in-flight shard.
    pub fn check_liveness(
        &mut self,
        id: usize,
        now: Instant,
        suspect_after: Duration,
        dead_after: Duration,
    ) -> Liveness {
        let e = &mut self.entries[id];
        if e.state == WorkerState::Dead {
            return Liveness::Unchanged;
        }
        let Some((_, sent)) = e.pending else {
            return Liveness::Unchanged;
        };
        let age = now.saturating_duration_since(sent);
        if age >= dead_after {
            e.state = WorkerState::Dead;
            Liveness::TurnedDead
        } else if age >= suspect_after && e.state != WorkerState::Suspect {
            e.state = WorkerState::Suspect;
            self.suspect_transitions += 1;
            Liveness::TurnedSuspect
        } else {
            Liveness::Unchanged
        }
    }

    /// Declare `id` dead outright (connection error, EOF, reaped
    /// deadline). Idempotent.
    pub fn mark_dead(&mut self, id: usize) {
        let e = &mut self.entries[id];
        e.state = WorkerState::Dead;
        e.jobs_in_flight = 0;
        e.pending = None;
    }

    /// Record that a shard job was handed to `id`.
    pub fn job_started(&mut self, id: usize) {
        self.entries[id].jobs_in_flight += 1;
    }

    /// Record that `id` delivered an accepted reply for its shard.
    pub fn job_finished(&mut self, id: usize) {
        let e = &mut self.entries[id];
        e.jobs_in_flight = e.jobs_in_flight.saturating_sub(1);
        e.shards_completed += 1;
    }

    /// Shards completed by worker `id`.
    pub fn shards_completed(&self, id: usize) -> usize {
        self.entries[id].shards_completed
    }

    /// Times any worker crossed live→suspect.
    pub fn suspect_transitions(&self) -> usize {
        self.suspect_transitions
    }

    /// Times a suspect worker recovered to live on a late echo.
    pub fn suspect_recoveries(&self) -> usize {
        self.suspect_recoveries
    }

    /// Heartbeat RTT stats aggregated over every worker.
    pub fn aggregate_rtt(&self) -> HeartbeatStats {
        let mut agg = HeartbeatStats::default();
        for e in &self.entries {
            agg.merge(&e.rtt);
        }
        agg
    }

    /// Read-only summaries of every entry, in admission order.
    pub fn summaries(&self) -> Vec<WorkerSummary> {
        self.entries
            .iter()
            .enumerate()
            .map(|(id, e)| WorkerSummary {
                id,
                addr: e.addr.clone(),
                state: e.state,
                shards_completed: e.shards_completed,
                late_joiner: e.late_joiner,
                rtt: e.rtt,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUSPECT: Duration = Duration::from_millis(100);
    const DEAD: Duration = Duration::from_millis(400);

    #[test]
    fn missed_probes_walk_live_to_suspect_to_dead() {
        let mut reg = WorkerRegistry::new();
        let t0 = Instant::now();
        let w = reg.admit("127.0.0.1:9".into(), false);
        assert_eq!(reg.state(w), WorkerState::Joining);
        reg.note_probe(w, 1, t0);
        assert!(reg.note_echo(w, 1, t0 + Duration::from_millis(2)).is_some());
        assert_eq!(reg.state(w), WorkerState::Live);
        assert!(reg.dispatchable(w));
        // A probe nobody answers.
        reg.note_probe(w, 2, t0);
        assert_eq!(
            reg.check_liveness(w, t0 + Duration::from_millis(50), SUSPECT, DEAD),
            Liveness::Unchanged
        );
        assert_eq!(
            reg.check_liveness(w, t0 + Duration::from_millis(150), SUSPECT, DEAD),
            Liveness::TurnedSuspect
        );
        assert_eq!(reg.state(w), WorkerState::Suspect);
        assert!(!reg.dispatchable(w), "suspect workers get no new shards");
        assert!(reg.usable(w), "suspect is not dead");
        assert_eq!(
            reg.check_liveness(w, t0 + Duration::from_millis(200), SUSPECT, DEAD),
            Liveness::Unchanged,
            "suspect fires once per probe"
        );
        assert_eq!(
            reg.check_liveness(w, t0 + Duration::from_millis(500), SUSPECT, DEAD),
            Liveness::TurnedDead
        );
        assert_eq!(reg.state(w), WorkerState::Dead);
        assert_eq!(reg.usable_count(), 0);
        assert_eq!(reg.suspect_transitions(), 1);
    }

    #[test]
    fn a_late_echo_recovers_a_suspect_worker() {
        let mut reg = WorkerRegistry::new();
        let t0 = Instant::now();
        let w = reg.admit("a".into(), true);
        reg.note_probe(w, 7, t0);
        reg.check_liveness(w, t0 + Duration::from_millis(150), SUSPECT, DEAD);
        assert_eq!(reg.state(w), WorkerState::Suspect);
        let rtt = reg
            .note_echo(w, 7, t0 + Duration::from_millis(180))
            .unwrap();
        assert_eq!(rtt, Duration::from_millis(180));
        assert_eq!(reg.state(w), WorkerState::Live);
        assert_eq!(reg.suspect_recoveries(), 1);
        assert!(reg.summaries()[0].late_joiner);
    }

    #[test]
    fn dead_is_terminal_and_mismatched_nonces_are_ignored() {
        let mut reg = WorkerRegistry::new();
        let t0 = Instant::now();
        let w = reg.admit("a".into(), false);
        reg.note_probe(w, 1, t0);
        assert!(reg.note_echo(w, 99, t0).is_none(), "wrong nonce ignored");
        reg.mark_dead(w);
        assert!(reg.note_echo(w, 1, t0).is_none(), "dead workers stay dead");
        assert_eq!(
            reg.check_liveness(w, t0 + DEAD + DEAD, SUSPECT, DEAD),
            Liveness::Unchanged
        );
        assert_eq!(reg.state(w), WorkerState::Dead);
    }

    #[test]
    fn rtt_stats_track_min_mean_max_and_merge() {
        let mut a = HeartbeatStats::default();
        assert_eq!((a.min_ns(), a.mean_ns(), a.max_ns()), (0, 0, 0));
        a.record(Duration::from_nanos(100));
        a.record(Duration::from_nanos(300));
        assert_eq!((a.min_ns(), a.mean_ns(), a.max_ns()), (100, 200, 300));
        let mut b = HeartbeatStats::default();
        b.record(Duration::from_nanos(50));
        b.merge(&a);
        assert_eq!(b.probes, 3);
        assert_eq!((b.min_ns(), b.max_ns()), (50, 300));
        assert_eq!(b.mean_ns(), 150);
        let mut empty = HeartbeatStats::default();
        empty.merge(&b);
        assert_eq!(empty, b, "merging into empty copies");
    }

    #[test]
    fn job_accounting_rolls_up_into_summaries() {
        let mut reg = WorkerRegistry::new();
        let t0 = Instant::now();
        let w = reg.admit("w".into(), false);
        reg.note_probe(w, 1, t0);
        reg.note_echo(w, 1, t0 + Duration::from_millis(1));
        reg.job_started(w);
        reg.job_finished(w);
        reg.job_started(w);
        reg.job_finished(w);
        let s = &reg.summaries()[0];
        assert_eq!(s.shards_completed, 2);
        assert_eq!(s.state, WorkerState::Live);
        assert_eq!(reg.aggregate_rtt().probes, 1);
        assert_eq!(reg.shards_completed(w), 2);
    }
}
