//! A bank of sketches fed from one pass.
//!
//! Algorithm 5 guesses the cover size `k'` geometrically
//! (`k' ← (1+ε/3)·k'`) and runs Algorithm 4 "in parallel" for every guess
//! — meaning every guess's sketch must be built during the *same* single
//! pass. [`SketchBank`] holds one [`ThresholdSketch`] per guess (each with
//! its own degree cap and budget, all sharing the global element hash) and
//! forwards each arriving edge to all of them.
//!
//! ## Shared-hash ingestion
//!
//! Because every sketch in the bank uses the *one* global `h` of
//! Algorithm 1, hashing per sketch is pure waste. The batched path
//! ([`update_batch`](SketchBank::update_batch)) therefore:
//!
//! 1. hashes each edge **once**, straight off the edge batch (via
//!    [`UnitHash::hash_batch`](coverage_hash::UnitHash::hash_batch) —
//!    no intermediate key buffer);
//! 2. **pre-filters** against the bank-wide *maximum* acceptance bound —
//!    an edge hashing above every guess's bound cannot enter any sketch,
//!    so the whole bank charges it as one counter bump per sketch
//!    instead of `len()` full update calls (on budget-saturated streams
//!    this removes the vast majority of per-sketch work);
//! 3. feeds every guess all of the block's survivors before the next
//!    guess is touched (sketch-major), so each guess's store is pulled
//!    into cache once per block.
//!
//! The work unit is a block of `BANK_BLOCK` (64k) edges. A guess's store
//! on a large budget outgrows a core's L2, so every switch between
//! guesses refills the cache; a 64k-edge block pays that refill once
//! per guess per 64k edges, where a 4,096-edge chunk paid it sixteen
//! times, and larger blocks gain almost nothing more.
//!
//! Per-sketch counters remain exactly what the per-edge path would have
//! produced (tested below): pre-filtered edges are provably
//! `rejected_by_bound` for every guess, and everything else re-checks
//! the guess's own bound inside the sketch.

use coverage_core::Edge;
use coverage_hash::UnitHash;
use coverage_stream::{EdgeStream, SpaceReport};

use crate::params::SketchParams;
use crate::threshold::{HashedEdge, ThresholdSketch, INGEST_CHUNK};

/// Edges per bank ingest block: one hash pass and one bank-wide bound
/// pre-filter per block, then every guess consumes the block's
/// survivors in turn. A measured knee, not a tuning knob: on a
/// 34-guess bank over 290k edges (2-vCPU Xeon VM, 2 MiB L2 per core)
/// ingest took 1.06 s at 4,096-edge blocks, 0.69 s at 16k, 0.63 s at
/// 64k and 0.62 s at 1M, against 0.51 s for the 34 sketches built one
/// after another. Bounds scratch memory at about 2 MB.
pub(crate) const BANK_BLOCK: usize = 1 << 16;

/// Several `H≤n` sketches built simultaneously in one pass.
#[derive(Clone, Debug)]
pub struct SketchBank {
    sketches: Vec<ThresholdSketch>,
    /// The shared element hash (identical in every sketch).
    hash: UnitHash,
    /// Reused scratch: the block's hashes (one mixer pass per block).
    scratch_hashes: Vec<u64>,
    /// Reused scratch: pre-filtered `(key, hash, set)` survivors.
    scratch: Vec<HashedEdge>,
}

impl SketchBank {
    /// One sketch per parameter set, all sharing `seed` (and therefore the
    /// same element hash — the paper's single global `h`).
    pub fn new(params: impl IntoIterator<Item = SketchParams>, seed: u64) -> Self {
        SketchBank {
            sketches: params
                .into_iter()
                .map(|p| ThresholdSketch::new(p, seed))
                .collect(),
            hash: UnitHash::new(seed),
            scratch_hashes: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of sketches in the bank.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// True if the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Forward one edge to every sketch, hashing its element once for
    /// the whole bank.
    pub fn update(&mut self, edge: Edge) {
        let key = edge.element.0;
        let h = self.hash.hash(key);
        for s in &mut self.sketches {
            debug_assert_eq!(s.unit_hash(), self.hash);
            s.update_hashed(key, h, edge.set.0);
        }
    }

    /// The frozen pre-PR per-edge step: one shared hash, then every
    /// sketch runs the unfused scalar probe sequence
    /// (`ThresholdSketch::update_hashed_scalar`). This is the engine the
    /// seed shipped — no batching, no bank-wide pre-filter, no fused
    /// descriptor loads — retained verbatim as the baseline the
    /// `BENCH_8` ingest gate measures the batched vectorized path
    /// against.
    pub fn update_scalar(&mut self, edge: Edge) {
        let key = edge.element.0;
        let h = self.hash.hash(key);
        for s in &mut self.sketches {
            debug_assert_eq!(s.unit_hash(), self.hash);
            s.update_hashed_scalar(key, h, edge.set.0);
        }
    }

    /// Forward a contiguous batch of edges to every sketch through the
    /// shared-hash path (module docs): per 64k-edge block, one hash
    /// pass, one bank-wide bound pre-filter, then sketch-major
    /// consumption of the block's pre-hashed survivors. Semantically
    /// identical to per-edge [`update`](Self::update) — same retained
    /// content, same counters, same space report.
    pub fn update_batch(&mut self, edges: &[Edge]) {
        if self.sketches.is_empty() {
            return;
        }
        let hash = self.hash;
        for block in edges.chunks(BANK_BLOCK) {
            // One mixer pass for the whole bank, straight off the block.
            self.scratch_hashes.clear();
            hash.hash_batch(block.iter().map(|e| e.element.0), &mut self.scratch_hashes);
            // Bank-wide pre-filter: bounds only ever decrease, so the
            // block-start maximum over all guesses is a sound rejection
            // test for the entire block, however far a guess's bound
            // falls while it consumes the block.
            let max_bound = self
                .sketches
                .iter()
                .map(|s| s.acceptance_bound())
                .max()
                .expect("bank is non-empty");
            self.scratch.clear();
            let mut rejected = 0u64;
            for (&e, &h) in block.iter().zip(&self.scratch_hashes) {
                if h > max_bound {
                    rejected += 1;
                } else {
                    self.scratch.push(HashedEdge {
                        key: e.element.0,
                        hash: h,
                        set: e.set.0,
                    });
                }
            }
            for s in &mut self.sketches {
                s.note_rejected_by_bound(rejected);
                s.update_hashed_batch(&self.scratch);
            }
        }
    }

    /// The retained pre-vectorization form of
    /// [`update_batch`](Self::update_batch): the identical shared-hash +
    /// bank-wide pre-filter structure, but over the scalar mixer loop
    /// ([`UnitHash::hash_batch_scalar`](coverage_hash::UnitHash::hash_batch_scalar))
    /// and the ungrouped per-sketch probe loop. Bit-identical by the
    /// property suite; kept public as the executable baseline the
    /// `BENCH_8` ingest gate measures the vectorized path against.
    pub fn update_batch_scalar(&mut self, edges: &[Edge]) {
        if self.sketches.is_empty() {
            return;
        }
        let hash = self.hash;
        for chunk in edges.chunks(INGEST_CHUNK) {
            self.scratch_hashes.clear();
            hash.hash_batch_scalar(chunk.iter().map(|e| e.element.0), &mut self.scratch_hashes);
            let max_bound = self
                .sketches
                .iter()
                .map(|s| s.acceptance_bound())
                .max()
                .expect("bank is non-empty");
            self.scratch.clear();
            let mut rejected = 0u64;
            for (&e, &h) in chunk.iter().zip(&self.scratch_hashes) {
                if h > max_bound {
                    rejected += 1;
                } else {
                    self.scratch.push(HashedEdge {
                        key: e.element.0,
                        hash: h,
                        set: e.set.0,
                    });
                }
            }
            for s in &mut self.sketches {
                s.note_rejected_by_bound(rejected);
                s.update_hashed_batch_scalar(&self.scratch);
            }
        }
    }

    /// Feed an entire stream in batches of `batch` edges (one pass).
    pub fn consume_batched(&mut self, stream: &dyn EdgeStream, batch: usize) {
        stream.for_each_batch(batch, &mut |chunk| self.update_batch(chunk));
    }

    /// [`consume_batched`](Self::consume_batched) over the retained
    /// scalar hot path — isolates the hash-unroll + probe-grouping
    /// effect with the batching structure held fixed.
    pub fn consume_batched_scalar(&mut self, stream: &dyn EdgeStream, batch: usize) {
        stream.for_each_batch(batch, &mut |chunk| self.update_batch_scalar(chunk));
    }

    /// Feed an entire stream through the frozen per-edge scalar engine
    /// ([`update_scalar`](Self::update_scalar)) — the pre-PR ingest path
    /// and the baseline the `BENCH_8` ingest gate measures from.
    pub fn consume_scalar(&mut self, stream: &dyn EdgeStream) {
        stream.for_each(&mut |e| self.update_scalar(e));
    }

    /// Merge another bank of the same shape (same parameter list, same
    /// seed) into `self`, sketch by sketch. With the inputs partitioned
    /// across machines this composes exactly like
    /// [`ThresholdSketch::merge_from`] does for a single sketch: every
    /// guess's merged sketch equals the single-machine build.
    pub fn merge_from(&mut self, other: &SketchBank) {
        assert_eq!(
            self.sketches.len(),
            other.sketches.len(),
            "banks must have the same number of guesses to merge"
        );
        for (mine, theirs) in self.sketches.iter_mut().zip(&other.sketches) {
            mine.merge_from(theirs);
        }
    }

    /// Build a bank from one pass over `stream`, in 64k-edge batches.
    pub fn from_stream(
        params: impl IntoIterator<Item = SketchParams>,
        seed: u64,
        stream: &dyn EdgeStream,
    ) -> Self {
        let mut bank = Self::new(params, seed);
        bank.consume_batched(stream, BANK_BLOCK);
        bank
    }

    /// Borrow the sketches.
    pub fn sketches(&self) -> &[ThresholdSketch] {
        &self.sketches
    }

    /// Consume the bank into its sketches.
    pub fn into_sketches(self) -> Vec<ThresholdSketch> {
        self.sketches
    }

    /// Combined space (the sketches coexist during the pass).
    pub fn space_report(&self) -> SpaceReport {
        self.sketches
            .iter()
            .map(|s| s.space_report())
            .fold(SpaceReport::default(), |acc, r| {
                let mut c = acc.coexist(r);
                c.passes = 1;
                c
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_hash::SplitMix64;
    use coverage_stream::VecStream;

    fn stream() -> VecStream {
        let mut edges = Vec::new();
        for s in 0..8u32 {
            for e in 0..100u64 {
                if !(e + s as u64).is_multiple_of(3) {
                    edges.push(Edge::new(s, e));
                }
            }
        }
        VecStream::new(8, edges)
    }

    #[test]
    fn bank_matches_individual_sketches() {
        let seed = 77;
        let p1 = SketchParams::with_budget(8, 1, 0.5, 50);
        let p2 = SketchParams::with_budget(8, 4, 0.5, 120);
        let bank = SketchBank::from_stream([p1, p2], seed, &stream());
        let mut solo1 = ThresholdSketch::new(p1, seed);
        stream().for_each(&mut |e| solo1.update(e));
        let mut solo2 = ThresholdSketch::new(p2, seed);
        stream().for_each(&mut |e| solo2.update(e));
        assert_eq!(bank.sketches()[0].edges_stored(), solo1.edges_stored());
        assert_eq!(bank.sketches()[1].edges_stored(), solo2.edges_stored());
        assert_eq!(
            bank.sketches()[0].acceptance_bound(),
            solo1.acceptance_bound()
        );
        assert_eq!(bank.sketches()[0].counters(), solo1.counters());
        assert_eq!(bank.sketches()[1].counters(), solo2.counters());
    }

    #[test]
    fn space_is_sum_of_parts() {
        let p1 = SketchParams::with_budget(8, 1, 0.5, 50);
        let p2 = SketchParams::with_budget(8, 4, 0.5, 120);
        let bank = SketchBank::from_stream([p1, p2], 3, &stream());
        let total = bank.space_report();
        let sum: u64 = bank
            .sketches()
            .iter()
            .map(|s| s.space_report().peak_edges)
            .sum();
        assert_eq!(total.peak_edges, sum);
        assert_eq!(total.passes, 1);
    }

    /// The shared-hash + pre-filter batch path must be observationally
    /// identical to the per-edge path: same bounds, same stored edges,
    /// same retained content, and — the delicate part — the exact same
    /// per-sketch counters (pre-filtered edges are charged as
    /// `rejected_by_bound` to every guess).
    #[test]
    fn batched_bank_matches_per_edge_bank() {
        let seed = 31;
        let p1 = SketchParams::with_budget(8, 1, 0.5, 50);
        let p2 = SketchParams::with_budget(8, 4, 0.5, 120);
        let mut per_edge = SketchBank::new([p1, p2], seed);
        stream().for_each(&mut |e| per_edge.update(e));
        for batch in [1usize, 37, 10_000] {
            let mut batched = SketchBank::new([p1, p2], seed);
            batched.consume_batched(&stream(), batch);
            for (a, b) in per_edge.sketches().iter().zip(batched.sketches()) {
                assert_eq!(a.acceptance_bound(), b.acceptance_bound(), "batch={batch}");
                assert_eq!(a.edges_stored(), b.edges_stored(), "batch={batch}");
                assert_eq!(a.counters(), b.counters(), "batch={batch}");
                assert_eq!(
                    a.canonical_content(),
                    b.canonical_content(),
                    "batch={batch}"
                );
            }
        }
    }

    /// Two full [`BANK_BLOCK`]s and a partial one over 100k elements,
    /// so every guess keeps evicting, and its bound keeps falling,
    /// inside every block. A quarter of the arrivals hit 64 hot
    /// elements (a capped guess truncates them) and every fifth arrival
    /// repeats a recent edge (dedup fires).
    fn multi_block_stream() -> VecStream {
        let len = 2 * BANK_BLOCK + 4_097;
        let mut rng = SplitMix64::new(0xB10C);
        let mut edges: Vec<Edge> = Vec::with_capacity(len);
        while edges.len() < len {
            let i = edges.len();
            let edge = if i % 5 == 4 {
                edges[i - 3]
            } else {
                let element = if rng.next_below(4) == 0 {
                    rng.next_below(64)
                } else {
                    64 + rng.next_below(100_000)
                };
                Edge::new(rng.next_below(32) as u32, element)
            };
            edges.push(edge);
        }
        VecStream::new(32, edges)
    }

    /// Sketch-major ingest across block boundaries: every guess of a
    /// bank built by `from_stream`, or by `consume_batched` at batch
    /// sizes from one edge to the whole stream (three blocks in one
    /// call), equals a solo sketch fed edge by edge — content,
    /// counters, bound and space report.
    #[test]
    fn multi_block_bank_matches_per_edge_sketches() {
        let seed = 0xB1;
        let guesses = [
            SketchParams::with_budget(32, 2, 0.5, 600),
            SketchParams::with_budget(32, 4, 0.5, 1_500).with_degree_cap(3),
            SketchParams::with_budget(32, 8, 0.5, 3_000),
        ];
        let stream = multi_block_stream();
        let solos: Vec<ThresholdSketch> = guesses
            .iter()
            .map(|&p| {
                let mut solo = ThresholdSketch::new(p, seed);
                let mut evictions_at_block_start = Vec::new();
                let mut i = 0usize;
                stream.for_each(&mut |e| {
                    if i.is_multiple_of(BANK_BLOCK) {
                        evictions_at_block_start.push(solo.counters().evictions);
                    }
                    solo.update(e);
                    i += 1;
                });
                evictions_at_block_start.push(solo.counters().evictions);
                assert_eq!(evictions_at_block_start.len(), 4);
                assert!(
                    evictions_at_block_start.windows(2).all(|w| w[0] < w[1]),
                    "the bound must fall inside every block: {evictions_at_block_start:?}"
                );
                solo
            })
            .collect();
        let capped = solos[1].counters();
        assert!(capped.rejected_by_cap > 0, "the degree cap must bind");
        assert!(capped.duplicates > 0, "dedup must fire");

        let mut banks = vec![(
            "from_stream".to_string(),
            SketchBank::from_stream(guesses, seed, &stream),
        )];
        for batch in [1, 4_096, BANK_BLOCK + 1, stream.edges().len()] {
            let mut bank = SketchBank::new(guesses, seed);
            bank.consume_batched(&stream, batch);
            banks.push((format!("batch={batch}"), bank));
        }
        for (how, bank) in &banks {
            for (g, (b, s)) in bank.sketches().iter().zip(&solos).enumerate() {
                assert_eq!(
                    b.canonical_content(),
                    s.canonical_content(),
                    "{how} guess {g}"
                );
                assert_eq!(b.counters(), s.counters(), "{how} guess {g}");
                assert_eq!(
                    b.acceptance_bound(),
                    s.acceptance_bound(),
                    "{how} guess {g}"
                );
                assert_eq!(b.space_report(), s.space_report(), "{how} guess {g}");
            }
        }
    }

    /// The vectorized batch path (unrolled hash + grouped prefetched
    /// probes) and its retained scalar baseline must be observationally
    /// identical across batch sizes, including sizes straddling the
    /// unroll and probe-group widths.
    #[test]
    fn vectorized_bank_matches_scalar_bank() {
        let seed = 83;
        let p1 = SketchParams::with_budget(8, 1, 0.5, 50);
        let p2 = SketchParams::with_budget(8, 4, 0.5, 120);
        for batch in [1usize, 7, 8, 9, 37, 10_000] {
            let mut vectorized = SketchBank::new([p1, p2], seed);
            vectorized.consume_batched(&stream(), batch);
            let mut scalar = SketchBank::new([p1, p2], seed);
            scalar.consume_batched_scalar(&stream(), batch);
            for (a, b) in vectorized.sketches().iter().zip(scalar.sketches()) {
                assert_eq!(a.acceptance_bound(), b.acceptance_bound(), "batch={batch}");
                assert_eq!(a.counters(), b.counters(), "batch={batch}");
                assert_eq!(
                    a.canonical_content(),
                    b.canonical_content(),
                    "batch={batch}"
                );
            }
        }
    }

    /// The pre-filter must actually engage on saturated banks: once every
    /// guess's bound has dropped, most arrivals die at the bank level
    /// while per-sketch counters still record them.
    #[test]
    fn prefilter_accounts_all_arrivals() {
        let seed = 9;
        let p1 = SketchParams::with_budget(4, 2, 0.5, 20);
        let p2 = SketchParams::with_budget(4, 2, 0.5, 40);
        let mut edges = Vec::new();
        for s in 0..4u32 {
            for e in 0..2_000u64 {
                edges.push(Edge::new(s, e));
            }
        }
        let total = edges.len() as u64;
        let mut bank = SketchBank::new([p1, p2], seed);
        bank.update_batch(&edges);
        for s in bank.sketches() {
            let c = s.counters();
            assert_eq!(c.arrivals, total, "every sketch sees every arrival");
            assert!(c.rejected_by_bound > total / 2, "bound must saturate");
        }
    }

    #[test]
    fn merged_partition_banks_equal_single_bank() {
        let seed = 55;
        let p1 = SketchParams::with_budget(8, 1, 0.5, 60);
        let p2 = SketchParams::with_budget(8, 4, 0.5, 150);
        let single = SketchBank::from_stream([p1, p2], seed, &stream());
        let mut parts: Vec<SketchBank> = (0..3).map(|_| SketchBank::new([p1, p2], seed)).collect();
        let mut i = 0usize;
        stream().for_each(&mut |e| {
            parts[i % 3].update(e);
            i += 1;
        });
        let mut merged = parts.remove(0);
        for part in &parts {
            merged.merge_from(part);
        }
        for (a, b) in single.sketches().iter().zip(merged.sketches()) {
            let mut ka: Vec<u64> = a.retained().map(|(k, _, _)| k).collect();
            let mut kb: Vec<u64> = b.retained().map(|(k, _, _)| k).collect();
            ka.sort_unstable();
            kb.sort_unstable();
            assert_eq!(ka, kb, "merged bank must retain the same elements");
        }
    }

    #[test]
    #[should_panic(expected = "same number of guesses")]
    fn merge_rejects_shape_mismatch() {
        let p1 = SketchParams::with_budget(8, 1, 0.5, 50);
        let mut a = SketchBank::new([p1], 1);
        let b = SketchBank::new([p1, p1], 1);
        a.merge_from(&b);
    }

    #[test]
    fn empty_bank_is_fine() {
        let mut bank = SketchBank::from_stream(std::iter::empty(), 1, &stream());
        bank.update_batch(&[Edge::new(0u32, 1u64)]);
        assert!(bank.is_empty());
        assert_eq!(bank.space_report(), SpaceReport::default());
    }
}
