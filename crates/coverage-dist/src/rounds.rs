//! Round-structured reduction: merge trees, transports, and
//! communication accounting.
//!
//! The companion paper (`[10]`) cares about *rounds* and *communication*,
//! the costs MapReduce charges for. A flat fold is one reducer reading
//! `w` sketches — fine in a simulation, but a real cluster bounds
//! reducer fan-in. This module simulates the standard **merge tree**: machines ship [`SketchSnapshot`]s to group leaders,
//! each leader merges its `fan_in` children, and the survivors repeat —
//! `⌈log_f w⌉` rounds, each shipping at most `Õ(n)` words per machine.
//!
//! Because merging is associative and the sketch is composable (the
//! merged sketch equals the single-machine sketch regardless of grouping
//! — tested here), the tree's *shape* cannot change the answer, only the
//! cost profile. [`RoundsReport`] records both so the `exp_distributed`
//! experiment can print the rounds-vs-communication trade-off.
//!
//! The reduction is generic along two axes:
//!
//! * the [`Composable`] trait, so the same tree (and the same
//!   determinism contract) serves both sketch families — the
//!   insertion-only [`ThresholdSketch`] (associative and commutative up
//!   to the canonical min-set-id truncation) and the dynamic
//!   [`DynamicSketch`] (exactly linear, hence bit-identical under any
//!   reduction shape);
//! * the [`Transport`] trait, so *how* a child reaches its leader — a
//!   pointer move or the compact binary frames of
//!   `coverage_sketch::wire` — is a pluggable seam. Every transport
//!   must round-trip the full logical state, so any [`ShipFormat`]
//!   yields the identical merged sketch.
//!
//! Every executor reduces in memory ([`ShipFormat::InMemory`]): worker
//! processes ship their snapshots as binary frames over their links,
//! and the coordinator merges the decoded sketches directly.
//! [`ShipFormat::Binary`] and [`FaultyTransport`] keep the wire
//! round-trip inside a reduce tree for wire-fidelity tests.

use std::cell::Cell;

use coverage_sketch::{DynamicSketch, DynamicSnapshot, SketchSnapshot, ThresholdSketch, WireError};

use crate::fault::SplitMix64;

/// A mergeable, shippable sketch — what a reduce tree needs to know.
///
/// `merge_from` must be associative (and is commutative for both
/// implementations here), so the tree's shape cannot change the merged
/// result; the binary ship/unship pair must round-trip the full logical
/// state so [`ShipFormat::Binary`] exercises wire fidelity.
pub trait Composable: Sized {
    /// Merge `other` into `self` (associative).
    fn merge_from(&mut self, other: &Self);

    /// Words one wire shipment of this sketch costs (the model-level
    /// [`RoundCost`] accounting unit, independent of encoding).
    fn ship_words(&self) -> u64;

    /// Serialize the full logical state as a binary wire frame
    /// (`coverage_sketch::wire`, versioned + checksummed).
    fn ship_binary(&self) -> Vec<u8>;

    /// Restore a binary shipment, reporting a corrupt frame as the
    /// decoder's typed [`WireError`] — the recoverable path a transport
    /// that detects-and-retransmits ([`FaultyTransport`]) or the
    /// subprocess protocol builds on.
    fn try_unship_binary(bytes: &[u8]) -> Result<Self, WireError>;

    /// Restore a binary shipment. Panics on a corrupt frame — inside a
    /// plain reduce tree a bad frame is a logic error;
    /// [`try_unship_binary`](Self::try_unship_binary) is the recoverable
    /// path.
    fn unship_binary(bytes: &[u8]) -> Self {
        Self::try_unship_binary(bytes).expect("binary frame must decode")
    }
}

impl Composable for ThresholdSketch {
    fn merge_from(&mut self, other: &Self) {
        ThresholdSketch::merge_from(self, other);
    }

    /// 2 words per edge (set id + element slot) plus 4 per element
    /// (key, hash, length, truncation flag).
    fn ship_words(&self) -> u64 {
        2 * self.edges_stored() as u64 + 4 * self.elements_stored() as u64
    }

    fn ship_binary(&self) -> Vec<u8> {
        SketchSnapshot::of(self).encode_binary()
    }

    fn try_unship_binary(bytes: &[u8]) -> Result<Self, WireError> {
        SketchSnapshot::decode_binary(bytes).map(|snap| snap.restore())
    }
}

impl Composable for DynamicSketch {
    fn merge_from(&mut self, other: &Self) {
        DynamicSketch::merge_from(self, other);
    }

    fn ship_words(&self) -> u64 {
        DynamicSketch::ship_words(self)
    }

    fn ship_binary(&self) -> Vec<u8> {
        DynamicSnapshot::of(self).encode_binary()
    }

    fn try_unship_binary(bytes: &[u8]) -> Result<Self, WireError> {
        DynamicSnapshot::decode_binary(bytes).map(|snap| snap.restore())
    }
}

/// One shipped sketch: the (round-tripped) sketch plus what the trip
/// cost on the wire.
pub struct Shipment<S> {
    /// The sketch after the transport's round-trip.
    pub sketch: S,
    /// Actual encoded payload bytes this shipment put on the wire
    /// (0 for in-memory transports — nothing was encoded).
    pub bytes: u64,
}

/// How a sketch travels from a child to its group leader.
///
/// A transport must be *faithful*: the delivered sketch's logical state
/// equals the input's, so the reduce tree's result is transport-
/// independent (property-tested in `tests/wire_equivalence.rs`).
pub trait Transport {
    /// Ship one sketch, returning the delivered sketch and its wire cost.
    fn ship<S: Composable>(&self, sketch: S) -> Shipment<S>;
}

/// Pointer-move "transport": a shared-memory reducer. Ships nothing, so
/// [`Shipment::bytes`] is 0 by definition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Loopback;

impl Transport for Loopback {
    fn ship<S: Composable>(&self, sketch: S) -> Shipment<S> {
        Shipment { sketch, bytes: 0 }
    }
}

/// Binary-frame transport: snapshot → versioned checksummed frame →
/// decode → restore (the deployable encoding).
#[derive(Clone, Copy, Debug, Default)]
pub struct BinaryTransport;

impl Transport for BinaryTransport {
    fn ship<S: Composable>(&self, sketch: S) -> Shipment<S> {
        let frame = sketch.ship_binary();
        Shipment {
            bytes: frame.len() as u64,
            sketch: S::unship_binary(&frame),
        }
    }
}

/// Lossy binary transport with deterministic, seeded frame corruption —
/// the fault-injection counterpart of [`BinaryTransport`].
///
/// Each shipment encodes a binary frame and, with probability
/// `corrupt_pct`%, flips one bit of the copy that goes "on the wire".
/// The receiver decodes with [`Composable::try_unship_binary`]; a typed
/// [`WireError`] (checksum/layout mismatch) counts as a *detected*
/// corruption and triggers a retransmit of the pristine frame, so the
/// delivered sketch is always faithful and the reduce-tree result is
/// bit-identical to [`Loopback`]'s. [`Shipment::bytes`] accounts every
/// transmitted frame, including the ones corruption wasted.
#[derive(Debug)]
pub struct FaultyTransport {
    rng: Cell<SplitMix64>,
    corrupt_pct: u8,
    detected: Cell<u64>,
    retransmits: Cell<u64>,
}

impl FaultyTransport {
    /// A transport that corrupts roughly `corrupt_pct`% of frames
    /// (clamped to 100), scheduled deterministically from `seed`.
    pub fn new(seed: u64, corrupt_pct: u8) -> Self {
        FaultyTransport {
            rng: Cell::new(SplitMix64::new(seed)),
            corrupt_pct: corrupt_pct.min(100),
            detected: Cell::new(0),
            retransmits: Cell::new(0),
        }
    }

    /// Corruptions detected (typed decode error) so far.
    pub fn detected(&self) -> u64 {
        self.detected.get()
    }

    /// Pristine retransmits performed so far (equals [`detected`](Self::detected)
    /// unless a flipped bit slipped past the checksum, which the frame
    /// format is designed to make vanishingly unlikely).
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }

    fn next_u64(&self) -> u64 {
        let mut rng = self.rng.get();
        let x = rng.next_u64();
        self.rng.set(rng);
        x
    }
}

impl Transport for FaultyTransport {
    fn ship<S: Composable>(&self, sketch: S) -> Shipment<S> {
        let frame = sketch.ship_binary();
        let mut bytes = frame.len() as u64;
        let corrupt = !frame.is_empty()
            && self.corrupt_pct > 0
            && (self.next_u64() % 100) < u64::from(self.corrupt_pct);
        if corrupt {
            let mut wire = frame.clone();
            let r = self.next_u64();
            let idx = (r as usize) % wire.len();
            wire[idx] ^= 1 << ((r >> 32) % 8);
            match S::try_unship_binary(&wire) {
                Ok(sketch) => {
                    // The flip happened to survive decoding (e.g. it
                    // landed in checksummed-but-restored padding); trust
                    // the checksum's verdict and deliver it.
                    return Shipment { sketch, bytes };
                }
                Err(_) => {
                    self.detected.set(self.detected.get() + 1);
                    self.retransmits.set(self.retransmits.get() + 1);
                    bytes += frame.len() as u64;
                }
            }
        }
        Shipment {
            bytes,
            sketch: S::unship_binary(&frame),
        }
    }
}

/// Cost accounting of one reduction round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundCost {
    /// Sketches alive at the start of the round.
    pub sketches_in: usize,
    /// Sketches alive after the round (one per group).
    pub sketches_out: usize,
    /// Total words shipped in this round (snapshot edges ×2 + per-element
    /// headers ×4; leaders receive, non-leaders send). A model-level
    /// count, identical across every [`ShipFormat`].
    pub words_shipped: u64,
    /// Total *encoded payload* bytes shipped in this round — the actual
    /// wire cost of the chosen format: binary frame length for
    /// [`ShipFormat::Binary`], and 0 for [`ShipFormat::InMemory`]
    /// (nothing is encoded; "shipping" is a pointer move).
    pub bytes_shipped: u64,
}

/// Full report of a tree reduction.
#[derive(Clone, Debug)]
pub struct RoundsReport {
    /// Per-round costs, in order.
    pub rounds: Vec<RoundCost>,
}

impl RoundsReport {
    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total communication across rounds, in model words.
    pub fn total_words(&self) -> u64 {
        self.rounds.iter().map(|r| r.words_shipped).sum()
    }

    /// Largest single-round shipment, in model words.
    pub fn peak_round_words(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.words_shipped)
            .max()
            .unwrap_or(0)
    }

    /// Total encoded payload bytes across rounds (0 when everything
    /// moved in memory).
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_shipped).sum()
    }

    /// Largest single-round encoded shipment, in bytes.
    pub fn peak_round_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.bytes_shipped)
            .max()
            .unwrap_or(0)
    }
}

/// How non-leader sketches travel to their group leader during a tree
/// reduction. Merging is shape- and format-independent, so the choice
/// affects only the fidelity-vs-speed of the *simulation* and the
/// [`RoundCost::bytes_shipped`] accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShipFormat {
    /// Compact binary round-trip per ship: snapshot → versioned,
    /// checksummed frame → decode → restore → merge. The encoding worker
    /// processes ship their snapshots in.
    Binary,
    /// Direct in-memory merge (a shared-memory reducer, where "shipping"
    /// is a pointer move). Same merges, same word accounting, zero
    /// `bytes_shipped` — what every executor's reduce uses.
    InMemory,
}

/// Reduce `sketches` with a merge tree of the given fan-in (`≥ 2`),
/// shipping every non-leader to its group leader in `format`. Generic
/// over [`Composable`]: the same tree reduces insertion-only and
/// dynamic sketches.
pub fn tree_reduce_with<S: Composable>(
    sketches: Vec<S>,
    fan_in: usize,
    format: ShipFormat,
) -> (S, RoundsReport) {
    match format {
        ShipFormat::Binary => tree_reduce_via(sketches, fan_in, &BinaryTransport),
        ShipFormat::InMemory => tree_reduce_via(sketches, fan_in, &Loopback),
    }
}

/// [`tree_reduce_with`] over an explicit [`Transport`] — the fully
/// general seam ([`tree_reduce_with`] is this with a format-chosen
/// transport).
pub fn tree_reduce_via<S: Composable, T: Transport>(
    mut sketches: Vec<S>,
    fan_in: usize,
    transport: &T,
) -> (S, RoundsReport) {
    assert!(fan_in >= 2, "fan-in must be at least 2");
    assert!(!sketches.is_empty(), "need at least one sketch");
    let mut rounds = Vec::new();
    while sketches.len() > 1 {
        let in_count = sketches.len();
        let mut shipped = 0u64;
        let mut bytes = 0u64;
        let mut next: Vec<S> = Vec::with_capacity(in_count.div_ceil(fan_in));
        let mut iter = sketches.into_iter();
        // Groups take ownership: leaders move to the next round instead
        // of being cloned (a clone would copy the whole entry map).
        while let Some(mut leader) = iter.next() {
            for child in iter.by_ref().take(fan_in - 1) {
                shipped += child.ship_words();
                let delivered = transport.ship(child);
                bytes += delivered.bytes;
                leader.merge_from(&delivered.sketch);
            }
            next.push(leader);
        }
        rounds.push(RoundCost {
            sketches_in: in_count,
            sketches_out: next.len(),
            words_shipped: shipped,
            bytes_shipped: bytes,
        });
        sketches = next;
    }
    (
        sketches.pop().expect("one sketch remains"),
        RoundsReport { rounds },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::Edge;
    use coverage_sketch::SketchParams;
    use coverage_stream::{EdgeStream, VecStream};

    fn build_shards(w: usize, budget: usize) -> (Vec<ThresholdSketch>, ThresholdSketch) {
        let params = SketchParams::with_budget(6, 3, 0.4, budget);
        let seed = 77;
        let mut edges = Vec::new();
        for s in 0..6u32 {
            for e in 0..800u64 {
                if !(e * 7 + s as u64).is_multiple_of(3) {
                    edges.push(Edge::new(s, e));
                }
            }
        }
        let full = VecStream::new(6, edges);
        let mut single = ThresholdSketch::new(params, seed);
        let mut shards: Vec<ThresholdSketch> =
            (0..w).map(|_| ThresholdSketch::new(params, seed)).collect();
        let mut i = 0usize;
        full.for_each(&mut |e| {
            single.update(e);
            shards[i % w].update(e);
            i += 1;
        });
        (shards, single)
    }

    fn keys(s: &ThresholdSketch) -> Vec<u64> {
        let mut v: Vec<u64> = s.retained().map(|(k, _, _)| k).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn tree_equals_single_machine_for_any_fan_in() {
        let (shards, single) = build_shards(9, 150);
        for fan_in in [2usize, 3, 9] {
            let (merged, report) = tree_reduce_with(shards.clone(), fan_in, ShipFormat::InMemory);
            assert_eq!(
                keys(&merged),
                keys(&single),
                "fan_in={fan_in}: tree reduce must be shape-independent"
            );
            let expected_rounds = match fan_in {
                2 => 4, // 9 → 5 → 3 → 2 → 1
                3 => 2, // 9 → 3 → 1
                _ => 1, // 9 → 1
            };
            assert_eq!(report.num_rounds(), expected_rounds, "fan_in={fan_in}");
        }
    }

    #[test]
    fn ship_formats_agree() {
        let (shards, _) = build_shards(7, 120);
        let (via_binary, bin_rounds) = tree_reduce_with(shards.clone(), 3, ShipFormat::Binary);
        let (in_memory, mem_rounds) = tree_reduce_with(shards, 3, ShipFormat::InMemory);
        assert_eq!(keys(&via_binary), keys(&in_memory));
        assert_eq!(bin_rounds.num_rounds(), mem_rounds.num_rounds());
        assert_eq!(bin_rounds.total_words(), mem_rounds.total_words());
    }

    #[test]
    fn bytes_accounting_tracks_the_format() {
        let (shards, _) = build_shards(6, 120);
        let (_, bin_rounds) = tree_reduce_with(shards.clone(), 2, ShipFormat::Binary);
        let (_, mem_rounds) = tree_reduce_with(shards, 2, ShipFormat::InMemory);
        // In-memory ships no encoded payload at all — 0 by definition.
        assert_eq!(mem_rounds.total_bytes(), 0);
        // The wire format reports its actual encoded size.
        assert!(bin_rounds.total_bytes() > 0);
        // Model-word accounting is format-independent.
        assert_eq!(bin_rounds.total_words(), mem_rounds.total_words());
        for r in &mem_rounds.rounds {
            assert_eq!(r.bytes_shipped, 0);
        }
    }

    #[test]
    fn explicit_transport_seam_matches_formats() {
        let (shards, _) = build_shards(5, 100);
        let (a, ar) = tree_reduce_via(shards.clone(), 2, &BinaryTransport);
        let (b, br) = tree_reduce_with(shards, 2, ShipFormat::Binary);
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(ar.total_bytes(), br.total_bytes());
    }

    #[test]
    fn corrupted_frames_are_detected_and_retransmitted() {
        let (shards, single) = build_shards(6, 120);
        // 100% corruption: every shipped frame gets one bit flipped.
        let faulty = FaultyTransport::new(0xBAD5EED, 100);
        let (merged, report) = tree_reduce_via(shards.clone(), 2, &faulty);
        // The checksum catches the flip, the pristine frame is
        // retransmitted, and the reduce result is bit-identical to an
        // in-memory reduction.
        assert_eq!(keys(&merged), keys(&single));
        assert!(faulty.detected() > 0, "no corruption was ever detected");
        assert_eq!(faulty.detected(), faulty.retransmits());
        // Wasted retransmits show up in the byte accounting.
        let (_, clean_report) = tree_reduce_via(shards, 2, &BinaryTransport);
        assert!(report.total_bytes() > clean_report.total_bytes());
    }

    #[test]
    fn faulty_transport_schedule_is_seed_deterministic() {
        let (shards, _) = build_shards(5, 100);
        let a = FaultyTransport::new(42, 35);
        let b = FaultyTransport::new(42, 35);
        let (ka, ra) = tree_reduce_via(shards.clone(), 2, &a);
        let (kb, rb) = tree_reduce_via(shards, 2, &b);
        assert_eq!(keys(&ka), keys(&kb));
        assert_eq!(a.detected(), b.detected());
        assert_eq!(ra.total_bytes(), rb.total_bytes());
    }

    #[test]
    fn round_counts_telescope() {
        let (shards, _) = build_shards(8, 100);
        let (_, report) = tree_reduce_with(shards, 2, ShipFormat::InMemory);
        for w in report.rounds.windows(2) {
            assert_eq!(w[0].sketches_out, w[1].sketches_in);
        }
        assert_eq!(report.rounds.first().unwrap().sketches_in, 8);
        assert_eq!(report.rounds.last().unwrap().sketches_out, 1);
    }

    #[test]
    fn communication_bounded_by_sketch_budget() {
        let (shards, _) = build_shards(6, 120);
        let params_max = shards[0].params().max_edges() as u64;
        let w = shards.len() as u64;
        let (_, report) = tree_reduce_with(shards, 2, ShipFormat::InMemory);
        // Every shipment is one sketch ≤ budget edges → ≤ 6·budget words.
        assert!(
            report.peak_round_words() <= w * 6 * params_max,
            "round shipped more than all sketches combined"
        );
        assert!(report.total_words() > 0);
    }

    #[test]
    fn single_sketch_needs_no_rounds() {
        let (shards, single) = build_shards(1, 80);
        let (merged, report) = tree_reduce_with(shards, 2, ShipFormat::InMemory);
        assert_eq!(report.num_rounds(), 0);
        assert_eq!(report.total_words(), 0);
        assert_eq!(report.total_bytes(), 0);
        assert_eq!(keys(&merged), keys(&single));
    }

    #[test]
    #[should_panic(expected = "fan-in must be at least 2")]
    fn fan_in_one_rejected() {
        let (shards, _) = build_shards(2, 50);
        tree_reduce_with(shards, 1, ShipFormat::InMemory);
    }

    #[test]
    fn higher_fan_in_fewer_rounds_same_total() {
        let (shards, _) = build_shards(16, 100);
        let (_, narrow) = tree_reduce_with(shards.clone(), 2, ShipFormat::InMemory);
        let (_, wide) = tree_reduce_with(shards, 4, ShipFormat::InMemory);
        assert!(narrow.num_rounds() > wide.num_rounds());
        // Total communication is within small factors: every reduction
        // ships w−1 sketches overall regardless of tree shape (sizes vary
        // as merges compact entries).
        let ratio = narrow.total_words() as f64 / wide.total_words().max(1) as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }
}
