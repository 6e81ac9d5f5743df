//! Deterministic fault injection for the distributed runtime.
//!
//! The paper's sketches are mergeable and every shard job is
//! self-contained (params + seed + shard), so *any* fault is recoverable
//! by rebuilding or re-dispatching the affected shard — retry is cheap
//! by construction. This module supplies the other half of that story: a
//! **seeded, reproducible schedule of faults** ([`FaultPlan`]) that the
//! executors can inject on purpose, so the recovery paths are exercised
//! deterministically instead of waiting for real infrastructure to
//! misbehave.
//!
//! A plan maps shard indices to [`Fault`]s. The worker coordinator
//! ([`Coordinator`](crate::Coordinator), on pipe and TCP links alike)
//! consumes each shard's fault on that shard's **first** dispatch
//! (exactly once per run). A worker fault rides to the worker inside
//! the job frame, and the worker executes it — crash before replying,
//! hang forever, delay the reply, or corrupt the reply frame. A network
//! fault is executed by the coordinator's link writer — sever the link,
//! stall it, or duplicate a chunk. Every one of these is observed
//! through a different detector (EOF, deadline reaper, missed
//! heartbeats, checksum, chunk index) and recovered through the same
//! requeue path, which is what the chaos suite (`tests/chaos.rs`) locks
//! down.

use std::fmt;

/// One injectable fault. The first four are **worker faults**, executed
/// by the worker that receives them inside its job frame; the last three
/// are **network faults**, executed by the coordinator's fault-aware
/// link writer on either transport (see [`Fault::is_network`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Exit without replying (the parent sees EOF — a crashed worker).
    Crash,
    /// Stall forever without replying (detected only by the parent's
    /// per-job deadline reaper, never by EOF).
    Hang,
    /// Sleep this many milliseconds, then reply normally (a slow
    /// worker; must *not* trigger recovery when under the deadline).
    Delay(u64),
    /// Reply with a bit-flipped frame (detected by the frame checksum as
    /// a typed wire error; the worker is dropped and the shard
    /// re-dispatched).
    CorruptReply,
    /// Network fault: sever the link mid-chunk-stream — shut the
    /// connection down, or kill a pipe worker (the coordinator sees the
    /// link die and requeues the whole shard). Spelled `drop@N`.
    DropConn,
    /// Network fault: stop writing for this many milliseconds without
    /// closing the link — the half-open link that only missed
    /// heartbeats can detect, exercising the live→suspect(→dead) path.
    /// Spelled `stall<MS>@N`.
    Stall(u64),
    /// Network fault: deliver one chunk frame twice; the worker's chunk
    /// index must reject the duplicate or the shard's sketch is wrong.
    /// Spelled `dup@N`.
    DupChunk,
}

impl Fault {
    /// Whether this is a network fault, executed by the coordinator's
    /// link writer rather than shipped to the worker.
    pub fn is_network(&self) -> bool {
        matches!(self, Fault::DropConn | Fault::Stall(_) | Fault::DupChunk)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash => write!(f, "crash"),
            Fault::Hang => write!(f, "hang"),
            Fault::Delay(ms) => write!(f, "delay{ms}"),
            Fault::CorruptReply => write!(f, "corrupt"),
            Fault::DropConn => write!(f, "drop"),
            Fault::Stall(ms) => write!(f, "stall{ms}"),
            Fault::DupChunk => write!(f, "dup"),
        }
    }
}

/// A typed parse failure from [`FaultPlan::parse`] — every way a CLI
/// spec can be malformed gets its own variant, so callers (and the
/// property tests) can assert on *which* rule was violated instead of
/// string-matching an error message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultParseError {
    /// The spec is not of the form `SEED:SPEC`.
    MissingColon(String),
    /// The seed before the colon is not a `u64`.
    BadSeed(String),
    /// A `rand<PCT>` percentage is not an integer in `0..=100`.
    BadRandomPct(String),
    /// A fault item is missing its `@SHARD` suffix.
    MissingShard(String),
    /// A fault item's shard index is not a number.
    BadShard(String),
    /// A `delay<MS>` or `stall<MS>` argument is not a number.
    BadMillis(String),
    /// The fault kind is not one of the known spellings.
    UnknownKind(String),
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultParseError::MissingColon(s) => {
                write!(f, "fault plan `{s}` is not of the form SEED:SPEC")
            }
            FaultParseError::BadSeed(s) => write!(f, "fault plan seed `{s}` is not a u64"),
            FaultParseError::BadRandomPct(s) => {
                write!(f, "random fault percentage `{s}` is not 0-100")
            }
            FaultParseError::MissingShard(s) => {
                write!(f, "fault `{s}` is missing its `@SHARD` suffix")
            }
            FaultParseError::BadShard(s) => write!(f, "fault shard index `{s}` is not a number"),
            FaultParseError::BadMillis(s) => {
                write!(
                    f,
                    "fault `{s}` needs a millisecond count (delay<MS>/stall<MS>)"
                )
            }
            FaultParseError::UnknownKind(s) => write!(f, "unknown fault kind `{s}`"),
        }
    }
}

impl std::error::Error for FaultParseError {}

/// The tiny deterministic PRNG behind every random fault schedule
/// (SplitMix64). Public so transports and tests can derive reproducible
/// per-event decisions from the same stream a plan uses.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next value reduced below `n` (`n ≥ 1`; modulo bias is
    /// irrelevant at fault-schedule granularity).
    pub fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Largest delay a plan will inject, in milliseconds — keeps random
/// schedules inside the chaos suite's bounded-wall-clock contract.
pub const MAX_DELAY_MS: u64 = 10_000;

/// A seeded, deterministic schedule of injectable faults, keyed by shard
/// index. Explicit entries ([`with_fault`](Self::with_fault)) override
/// the random layer ([`with_random_pct`](Self::with_random_pct)); the
/// materialized schedule is a pure function of `(seed, entries, pct,
/// n_shards)`, so a failing chaos seed replays exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    entries: Vec<(usize, Fault)>,
    random_pct: u8,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying `seed` for its random layer.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
            random_pct: 0,
        }
    }

    /// Add an explicit fault for `shard` (consumed on that shard's first
    /// dispatch). Delays and stalls are clamped to [`MAX_DELAY_MS`]. The
    /// last entry for a shard wins.
    pub fn with_fault(mut self, shard: usize, fault: Fault) -> Self {
        let fault = match fault {
            Fault::Delay(ms) => Fault::Delay(ms.min(MAX_DELAY_MS)),
            Fault::Stall(ms) => Fault::Stall(ms.min(MAX_DELAY_MS)),
            f => f,
        };
        self.entries.push((shard, fault));
        self
    }

    /// Give every shard a `pct`-percent chance (deterministic in the
    /// seed) of drawing a random fault: crash, hang, a short delay, or a
    /// corrupt reply, uniformly.
    pub fn with_random_pct(mut self, pct: u8) -> Self {
        self.random_pct = pct.min(100);
        self
    }

    /// The seed of the random layer.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.random_pct == 0
    }

    /// Materialize the per-shard schedule for a run of `n_shards`: the
    /// random layer first, then explicit entries on top (entries for
    /// out-of-range shards are ignored). Deterministic.
    pub fn schedule(&self, n_shards: usize) -> Vec<Option<Fault>> {
        let mut plan: Vec<Option<Fault>> = vec![None; n_shards];
        if self.random_pct > 0 {
            let mut rng = SplitMix64::new(self.seed);
            for slot in plan.iter_mut() {
                // Two draws per shard whether or not the first hits, so
                // a shard's outcome depends only on its index and the
                // seed — not on earlier shards' rolls.
                let roll = rng.next_below(100);
                let pick = rng.next_u64();
                if roll < self.random_pct as u64 {
                    *slot = Some(match pick % 4 {
                        0 => Fault::Crash,
                        1 => Fault::Hang,
                        2 => Fault::Delay(1 + (pick >> 2) % 40),
                        _ => Fault::CorruptReply,
                    });
                }
            }
        }
        for &(shard, fault) in &self.entries {
            if shard < n_shards {
                plan[shard] = Some(fault);
            }
        }
        plan
    }

    /// Parse the CLI spelling `SEED:SPEC`, where `SPEC` is a comma list
    /// of `crash@N`, `hang@N`, `delay<MS>@N`, `corrupt@N`, the network
    /// kinds `drop@N`, `stall<MS>@N`, `dup@N`, and `rand<PCT>` (e.g.
    /// `7:crash@0,drop@1,stall500@2,rand10`). An empty spec after the
    /// colon is a valid no-fault plan; every malformed spec is a typed
    /// [`FaultParseError`].
    pub fn parse(s: &str) -> Result<FaultPlan, FaultParseError> {
        let (seed_part, spec) = s
            .split_once(':')
            .ok_or_else(|| FaultParseError::MissingColon(s.to_string()))?;
        let seed: u64 = seed_part
            .trim()
            .parse()
            .map_err(|_| FaultParseError::BadSeed(seed_part.to_string()))?;
        let mut plan = FaultPlan::new(seed);
        for item in spec.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            if let Some(pct) = item.strip_prefix("rand") {
                let pct: u8 = pct
                    .parse()
                    .map_err(|_| FaultParseError::BadRandomPct(item.to_string()))?;
                if pct > 100 {
                    return Err(FaultParseError::BadRandomPct(item.to_string()));
                }
                plan = plan.with_random_pct(pct);
                continue;
            }
            let (what, shard) = item
                .split_once('@')
                .ok_or_else(|| FaultParseError::MissingShard(item.to_string()))?;
            let shard: usize = shard
                .parse()
                .map_err(|_| FaultParseError::BadShard(shard.to_string()))?;
            let fault = match what {
                "crash" => Fault::Crash,
                "hang" => Fault::Hang,
                "corrupt" => Fault::CorruptReply,
                "drop" => Fault::DropConn,
                "dup" => Fault::DupChunk,
                other => {
                    let (kind, ms) = if let Some(ms) = other.strip_prefix("delay") {
                        (Fault::Delay as fn(u64) -> Fault, ms)
                    } else if let Some(ms) = other.strip_prefix("stall") {
                        (Fault::Stall as fn(u64) -> Fault, ms)
                    } else {
                        return Err(FaultParseError::UnknownKind(other.to_string()));
                    };
                    kind(
                        ms.parse::<u64>()
                            .map_err(|_| FaultParseError::BadMillis(other.to_string()))?,
                    )
                }
            };
            plan = plan.with_fault(shard, fault);
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.seed)?;
        let mut first = true;
        for (shard, fault) in &self.entries {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{fault}@{shard}")?;
            first = false;
        }
        if self.random_pct > 0 {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "rand{}", self.random_pct)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let plan = FaultPlan::new(42).with_random_pct(35);
        assert_eq!(plan.schedule(16), plan.schedule(16));
        // A different seed gives a different schedule (with 16 shards at
        // 35% the chance of a collision across all slots is negligible).
        assert_ne!(
            plan.schedule(16),
            FaultPlan::new(43).with_random_pct(35).schedule(16)
        );
    }

    #[test]
    fn shard_outcome_does_not_depend_on_shard_count() {
        let plan = FaultPlan::new(7).with_random_pct(50);
        let small = plan.schedule(4);
        let large = plan.schedule(12);
        assert_eq!(&large[..4], &small[..]);
    }

    #[test]
    fn explicit_entries_override_the_random_layer() {
        let plan = FaultPlan::new(3)
            .with_random_pct(100)
            .with_fault(2, Fault::Delay(5));
        let sched = plan.schedule(4);
        assert_eq!(sched[2], Some(Fault::Delay(5)));
        for slot in &sched {
            assert!(slot.is_some(), "100% random layer must fault every shard");
        }
    }

    #[test]
    fn out_of_range_entries_are_ignored() {
        let plan = FaultPlan::new(0).with_fault(10, Fault::Crash);
        assert!(plan.schedule(4).iter().all(|s| s.is_none()));
    }

    #[test]
    fn parse_roundtrips_the_display_spelling() {
        let plan = FaultPlan::new(9)
            .with_fault(0, Fault::Crash)
            .with_fault(3, Fault::Delay(40))
            .with_fault(1, Fault::Hang)
            .with_fault(2, Fault::CorruptReply)
            .with_random_pct(10);
        let spec = plan.to_string();
        assert_eq!(spec, "9:crash@0,delay40@3,hang@1,corrupt@2,rand10");
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
    }

    #[test]
    fn network_fault_spellings_roundtrip() {
        let plan = FaultPlan::new(4)
            .with_fault(0, Fault::DropConn)
            .with_fault(1, Fault::Stall(500))
            .with_fault(2, Fault::DupChunk);
        let spec = plan.to_string();
        assert_eq!(spec, "4:drop@0,stall500@1,dup@2");
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        for f in [Fault::DropConn, Fault::Stall(1), Fault::DupChunk] {
            assert!(f.is_network(), "{f} is a network fault");
        }
        for f in [
            Fault::Crash,
            Fault::Hang,
            Fault::Delay(1),
            Fault::CorruptReply,
        ] {
            assert!(!f.is_network(), "{f} is a worker fault");
        }
    }

    #[test]
    fn rand_boundary_percentages_parse_and_roundtrip() {
        // rand0 is a valid no-op random layer; its Display omits the
        // clause, and re-parsing the display reproduces the plan.
        let zero = FaultPlan::parse("3:rand0").unwrap();
        assert!(zero.is_empty());
        assert_eq!(FaultPlan::parse(&zero.to_string()).unwrap(), zero);
        // rand100 faults every shard.
        let full = FaultPlan::parse("3:rand100").unwrap();
        assert!(full.schedule(16).iter().all(|s| s.is_some()));
        assert_eq!(FaultPlan::parse(&full.to_string()).unwrap(), full);
        // Above the boundary is a typed error, not a silent clamp.
        assert_eq!(
            FaultPlan::parse("3:rand101"),
            Err(FaultParseError::BadRandomPct("rand101".to_string()))
        );
    }

    #[test]
    fn parse_rejects_malformed_specs_with_typed_errors() {
        use FaultParseError as E;
        for (bad, want) in [
            ("nocolon", E::MissingColon("nocolon".to_string())),
            ("x:crash@0", E::BadSeed("x".to_string())),
            ("1:crash", E::MissingShard("crash".to_string())),
            ("1:crash@x", E::BadShard("x".to_string())),
            ("1:frobnicate@0", E::UnknownKind("frobnicate".to_string())),
            ("1:delayxx@0", E::BadMillis("delayxx".to_string())),
            ("1:stall@0", E::BadMillis("stall".to_string())),
            ("1:randmany", E::BadRandomPct("randmany".to_string())),
        ] {
            assert_eq!(FaultPlan::parse(bad), Err(want), "{bad}");
        }
        let empty = FaultPlan::parse("5:").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.seed(), 5);
    }

    #[test]
    fn delays_and_stalls_are_clamped() {
        let plan = FaultPlan::new(0).with_fault(0, Fault::Delay(u64::MAX));
        assert_eq!(plan.schedule(1)[0], Some(Fault::Delay(MAX_DELAY_MS)));
        let plan = FaultPlan::new(0).with_fault(0, Fault::Stall(u64::MAX));
        assert_eq!(plan.schedule(1)[0], Some(Fault::Stall(MAX_DELAY_MS)));
    }

    #[test]
    fn splitmix_streams_differ_by_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        let mut r = SplitMix64::new(1);
        let again: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(a, again);
    }
}
