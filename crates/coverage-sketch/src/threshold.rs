//! The streaming `H≤n` sketch (Algorithm 2) via adaptive max-hash eviction.
//!
//! Definition 2.1 wants `H'_{p*}` for the smallest `p*` at which the
//! capped-degree subgraph reaches the edge budget. Algorithm 2 realizes it
//! by pre-sampling a prefix of elements in hash order and dropping the
//! largest-hash element whenever the budget overflows. We implement the
//! equivalent *adaptive threshold* process, which needs no a-priori
//! knowledge of the element universe:
//!
//! * every element is hashed once to a 64-bit value;
//! * an element is **admitted** while its hash is at most the current
//!   acceptance bound (initially `u64::MAX`, i.e. `p = 1`);
//! * per admitted element at most `degree_cap` incident edges are kept
//!   (Lemma 2.4's cap — surplus edges are dropped, "chosen arbitrarily" in
//!   the paper, first-arrival-wins here);
//! * whenever stored edges exceed `budget + slack`, the element with the
//!   **largest hash** is evicted and the acceptance bound drops just below
//!   its hash, so the element (or any higher-hash one) can never re-enter.
//!
//! The retained state is therefore always "the lowest-hash prefix of
//! elements, degree-capped, fitting the budget" — exactly `H'_{p*}` with
//! `p* = (bound+1)/2^64`. That invariant (checked by property tests) is
//! what makes the sketch's content independent of arrival order, up to
//! which `degree_cap` edges of a truncated element survive.
//!
//! ## The flat ingestion engine
//!
//! Storage is the flat struct-of-arrays store of `store.rs`: an
//! open-addressing table addressed **directly by the element hash** (the
//! one `h(u)` of Algorithm 1 — no second hash function is ever computed)
//! over dense columns, with per-element set lists carved out of one
//! pooled `u32` arena. A retained edge costs an append into the arena;
//! an admitted element costs one table place plus one heap push; nothing
//! on the per-update path allocates. Set lists are kept in **append
//! order** and canonicalized (sorted) once at report/merge time —
//! duplicate detection on arrival is a forward scan of a short
//! contiguous block rather than the reference engine's
//! `binary_search` + `Vec::insert` memmove.
//!
//! The retired map-backed implementation survives verbatim as
//! [`crate::reference::ReferenceSketch`] — the executable specification
//! this engine is property-tested bit-identical against (same retained
//! `(element, hash, sets, truncated)` content, same counters, same
//! acceptance bound, under every arrival order and merge shape).
//!
//! Batched ingestion enters through [`ThresholdSketch::update_batch`]
//! (hash pass first, then a monomorphic probe loop) or, when several
//! sketches share the seed, through
//! [`SketchBank::update_batch`](crate::SketchBank::update_batch), which
//! hashes each edge **once for the whole bank** and pre-filters against
//! the bank-wide maximum acceptance bound before any sketch sees it.

use std::collections::BinaryHeap;

use coverage_core::{CoverageInstance, CsrInstance, Edge, ElementId, InstanceBuilder, SetId};
use coverage_hash::UnitHash;
use coverage_stream::{EdgeStream, SpaceReport, SpaceTracker};

use crate::params::SketchParams;
use crate::store::{AppendOutcome, FlatStore};

/// An edge whose element hash is already computed — the unit of work of
/// the shared-hash ingestion paths. Produced once per arriving edge by
/// [`ThresholdSketch::update_batch`] /
/// [`SketchBank::update_batch`](crate::SketchBank::update_batch) and
/// consumed by every sketch sharing the hash seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HashedEdge {
    /// Original element key.
    pub key: u64,
    /// `h(key)` under the sketch's element hash.
    pub hash: u64,
    /// Incident set id.
    pub set: u32,
}

/// Edges pre-hashed per scratch refill. Bounds scratch memory on huge
/// batches while keeping the hash loop long enough to pipeline.
pub(crate) const INGEST_CHUNK: usize = 4096;

/// Streaming-side counters (diagnostics; surfaced by experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SketchCounters {
    /// Edge arrivals processed.
    pub arrivals: u64,
    /// Arrivals rejected because the element's hash exceeded the bound.
    pub rejected_by_bound: u64,
    /// Arrivals rejected by the per-element degree cap.
    pub rejected_by_cap: u64,
    /// Duplicate edges ignored (only counted when dedup is on).
    pub duplicates: u64,
    /// Elements evicted by budget overflow.
    pub evictions: u64,
}

/// The streaming `H≤n(k, ε, δ'')` sketch.
#[derive(Clone, Debug)]
pub struct ThresholdSketch {
    hash: UnitHash,
    params: SketchParams,
    store: FlatStore,
    /// Max-heap of `(hash, element_key)` for eviction. Every admitted
    /// element is pushed exactly once; eviction pops are always valid
    /// because an evicted element can never be re-admitted (bound is
    /// monotone decreasing).
    heap: BinaryHeap<(u64, u64)>,
    /// Acceptance bound: an element is admitted iff `hash ≤ bound`.
    bound: u64,
    edges_stored: usize,
    tracker: SpaceTracker,
    counters: SketchCounters,
    /// Reused pre-hash scratch for [`update_batch`](Self::update_batch).
    scratch: Vec<HashedEdge>,
    /// Reused hash-output scratch for the shared-hash pass.
    scratch_hashes: Vec<u64>,
}

impl ThresholdSketch {
    /// A fresh sketch; `seed` determines the element hash function. All
    /// sketches that must agree on the sampled sub-universe (e.g. a bank
    /// built in the same pass) share a seed.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let store = FlatStore::new();
        let mut tracker = SpaceTracker::new();
        tracker.set_aux_capacity(store.capacity_words());
        ThresholdSketch {
            hash: UnitHash::new(seed),
            params,
            store,
            heap: BinaryHeap::new(),
            bound: u64::MAX,
            edges_stored: 0,
            tracker,
            counters: SketchCounters::default(),
            scratch: Vec::new(),
            scratch_hashes: Vec::new(),
        }
    }

    /// The parameters this sketch was built with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// The sketch's element hash function (bank plumbing: the shared
    /// hash pass must use exactly this function).
    pub(crate) fn unit_hash(&self) -> UnitHash {
        self.hash
    }

    /// Process one arriving edge. `Õ(1)` amortized: one hash, one table
    /// probe, and amortized O(1) heap work (each element enters and leaves
    /// the heap at most once).
    pub fn update(&mut self, edge: Edge) {
        let key = edge.element.0;
        let h = self.hash.hash(key);
        self.update_hashed(key, h, edge.set.0);
    }

    /// The post-hash half of [`update`](Self::update): process an edge
    /// whose element hash `h` was already computed (by this sketch's own
    /// batch path or by a bank's shared hash pass). `h` **must** equal
    /// `self.hash.hash(key)`.
    #[inline]
    pub(crate) fn update_hashed(&mut self, key: u64, h: u64, set: u32) {
        self.counters.arrivals += 1;
        if h > self.bound {
            self.counters.rejected_by_bound += 1;
            return;
        }
        match self.store.find_or_empty(h, key) {
            Ok(idx) => {
                // Fused survivor path: cap check, duplicate scan, and
                // append share one list-descriptor load (`try_append`
                // is pinned step-equivalent to the unfused sequence in
                // the store's model tests).
                match self
                    .store
                    .try_append(idx, set, self.params.degree_cap, self.params.dedup)
                {
                    AppendOutcome::CapRejected => {
                        self.counters.rejected_by_cap += 1;
                        return;
                    }
                    AppendOutcome::Duplicate => {
                        self.counters.duplicates += 1;
                        return;
                    }
                    AppendOutcome::Appended => {}
                }
            }
            Err(slot) => {
                // Fused miss path: the probe walk above already found
                // the chain's empty terminus, so the insert reuses it
                // instead of re-walking from the home slot.
                let idx = self.store.insert_at(slot, key, h);
                self.store.push_set(idx, set);
                self.heap.push((h, key));
                // Live element bookkeeping outside the store's arena:
                // the (hash, key) heap entry.
                self.tracker.add_aux(2);
            }
        }
        self.edges_stored += 1;
        self.tracker.add_edges(1);
        self.tracker.set_aux_capacity(self.store.capacity_words());
        while self.edges_stored > self.params.max_edges() {
            self.evict_max();
        }
    }

    /// Bulk-account `n` arrivals rejected by the acceptance bound
    /// without touching per-edge state — the bank's pre-filter proves
    /// they cannot enter this sketch (their hash exceeds even the
    /// bank-wide maximum bound) and charges the counters in O(1).
    #[inline]
    pub(crate) fn note_rejected_by_bound(&mut self, n: u64) {
        self.counters.arrivals += n;
        self.counters.rejected_by_bound += n;
    }

    /// Probe-group width of the batched hot loop: how many edges ahead
    /// [`update_hashed_batch`](Self::update_hashed_batch) prefetches
    /// store slots before processing a window.
    pub(crate) const PROBE_GROUP: usize = 8;

    /// Feed a slice of pre-hashed edges through the hot loop, in
    /// [`PROBE_GROUP`](Self::PROBE_GROUP)-edge windows: a prefetch pass
    /// touches each edge's home slot (and occupant key) first, then the
    /// process pass runs the ordinary per-edge step. The prefetch pass
    /// is pure reads of current state — later edges in a window may
    /// prefetch slots an earlier edge's insert then relocates, which
    /// only costs the hint, never correctness — so this is bit-identical
    /// to [`update_hashed_batch_scalar`](Self::update_hashed_batch_scalar)
    /// (property-tested in `tests/sketch_properties.rs`).
    #[inline]
    pub(crate) fn update_hashed_batch(&mut self, batch: &[HashedEdge]) {
        for window in batch.chunks(Self::PROBE_GROUP) {
            for e in window {
                self.store.prefetch(e.hash);
            }
            for &e in window {
                self.update_hashed(e.key, e.hash, e.set);
            }
        }
    }

    /// The retained straight-line form of
    /// [`update_hashed_batch`](Self::update_hashed_batch): one
    /// [`update_hashed_scalar`](Self::update_hashed_scalar) per edge, no
    /// grouping, no prefetch. Executable specification for the grouped
    /// path and the baseline the `BENCH_8` ingest gate measures from.
    #[inline]
    pub(crate) fn update_hashed_batch_scalar(&mut self, batch: &[HashedEdge]) {
        for &e in batch {
            self.update_hashed_scalar(e.key, e.hash, e.set);
        }
    }

    /// The frozen pre-vectorization per-edge step, kept verbatim as the
    /// executable specification of [`update_hashed`](Self::update_hashed):
    /// separate cap check, duplicate scan, and append walks instead of
    /// the fused [`FlatStore::try_append`] descriptor load. Bit-identical
    /// to the optimized step (property-tested in
    /// `tests/sketch_properties.rs`); every `*_scalar` ingest path runs
    /// through it so the `BENCH_8` baseline measures the pre-PR engine,
    /// not a re-optimized one.
    pub(crate) fn update_hashed_scalar(&mut self, key: u64, h: u64, set: u32) {
        self.counters.arrivals += 1;
        if h > self.bound {
            self.counters.rejected_by_bound += 1;
            return;
        }
        match self.store.find(h, key) {
            Some(idx) => {
                if self.store.list(idx).len() >= self.params.degree_cap {
                    self.store.mark_truncated(idx);
                    self.counters.rejected_by_cap += 1;
                    return;
                }
                if self.params.dedup && self.store.list(idx).contains(&set) {
                    self.counters.duplicates += 1;
                    return;
                }
                self.store.push_set(idx, set);
            }
            None => {
                let idx = self.store.insert(key, h);
                self.store.push_set(idx, set);
                self.heap.push((h, key));
                self.tracker.add_aux(2);
            }
        }
        self.edges_stored += 1;
        self.tracker.add_edges(1);
        self.tracker.set_aux_capacity(self.store.capacity_words());
        while self.edges_stored > self.params.max_edges() {
            self.evict_max();
        }
    }

    /// Evict the largest-hash element and lower the acceptance bound.
    fn evict_max(&mut self) {
        let Some((h, key)) = self.heap.pop() else {
            return;
        };
        let idx = self
            .store
            .find(h, key)
            .expect("heap entries always have live store entries");
        debug_assert_eq!(self.store.hash_of(idx), h);
        let removed = self.store.list(idx).len();
        self.store.remove(idx);
        self.edges_stored -= removed;
        self.tracker.remove_edges(removed as u64);
        self.tracker.remove_aux(2);
        self.counters.evictions += 1;
        // Reject this hash value (and anything above) from now on. The
        // subtraction is exact unless another element shares the 64-bit
        // hash, which has probability ≈ m²/2^64.
        self.bound = h.saturating_sub(1);
    }

    /// Process a contiguous batch of arriving edges. Semantically
    /// identical to calling [`update`](Self::update) per edge; the batch
    /// path hashes a whole chunk first (the unrolled
    /// [`UnitHash::hash_batch`] mixer loop), bulk-rejects everything
    /// above the acceptance bound, and only then runs the grouped
    /// prefetch-ahead probe loop over the survivors. Survivor order is
    /// arrival order — cap and duplicate accounting are order-dependent,
    /// so the filter compacts without reordering.
    pub fn update_batch(&mut self, edges: &[Edge]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut hashes = std::mem::take(&mut self.scratch_hashes);
        for chunk in edges.chunks(INGEST_CHUNK) {
            hashes.clear();
            self.hash
                .hash_batch(chunk.iter().map(|e| e.element.0), &mut hashes);
            scratch.clear();
            let bound = self.bound;
            let mut rejected = 0u64;
            for (&e, &h) in chunk.iter().zip(&hashes) {
                if h > bound {
                    rejected += 1;
                } else {
                    scratch.push(HashedEdge {
                        key: e.element.0,
                        hash: h,
                        set: e.set.0,
                    });
                }
            }
            // Identical accounting to the per-edge path: the bound only
            // ever decreases, so anything above the chunk-start bound is
            // rejected no matter when it is examined.
            self.note_rejected_by_bound(rejected);
            self.update_hashed_batch(&scratch);
        }
        self.scratch = scratch;
        self.scratch_hashes = hashes;
    }

    /// The retained pre-vectorization form of
    /// [`update_batch`](Self::update_batch): scalar hashing
    /// ([`UnitHash::hash_batch_scalar`]) and the ungrouped probe loop
    /// (`update_hashed_batch_scalar`).
    /// Bit-identical by construction and by the property suite; kept
    /// public as the executable baseline the `BENCH_8` ingest gate
    /// measures the vectorized path against.
    pub fn update_batch_scalar(&mut self, edges: &[Edge]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut hashes = std::mem::take(&mut self.scratch_hashes);
        for chunk in edges.chunks(INGEST_CHUNK) {
            hashes.clear();
            self.hash
                .hash_batch_scalar(chunk.iter().map(|e| e.element.0), &mut hashes);
            scratch.clear();
            let bound = self.bound;
            let mut rejected = 0u64;
            for (&e, &h) in chunk.iter().zip(&hashes) {
                if h > bound {
                    rejected += 1;
                } else {
                    scratch.push(HashedEdge {
                        key: e.element.0,
                        hash: h,
                        set: e.set.0,
                    });
                }
            }
            self.note_rejected_by_bound(rejected);
            self.update_hashed_batch_scalar(&scratch);
        }
        self.scratch = scratch;
        self.scratch_hashes = hashes;
    }

    /// Feed an entire stream (one pass) in batches of `batch` edges —
    /// the amortized-dispatch fast path used by the parallel runner.
    pub fn consume_batched(&mut self, stream: &dyn EdgeStream, batch: usize) {
        stream.for_each_batch(batch, &mut |chunk| self.update_batch(chunk));
    }

    /// [`consume_batched`](Self::consume_batched) over the retained
    /// scalar hot path — the `BENCH_8` baseline.
    pub fn consume_batched_scalar(&mut self, stream: &dyn EdgeStream, batch: usize) {
        stream.for_each_batch(batch, &mut |chunk| self.update_batch_scalar(chunk));
    }

    /// Build the sketch from one pass over `stream`, in 4,096-edge
    /// batches.
    pub fn from_stream(params: SketchParams, seed: u64, stream: &dyn EdgeStream) -> Self {
        let mut s = Self::new(params, seed);
        s.consume_batched(stream, INGEST_CHUNK);
        s
    }

    /// Number of stored edges.
    pub fn edges_stored(&self) -> usize {
        self.edges_stored
    }

    /// Number of retained elements.
    pub fn elements_stored(&self) -> usize {
        self.store.len()
    }

    /// The effective sampling probability `p*`: the probability that a
    /// uniformly hashed element is currently admissible.
    pub fn sampling_p(&self) -> f64 {
        if self.bound == u64::MAX {
            1.0
        } else {
            (self.bound as f64 + 1.0) / 2f64.powi(64)
        }
    }

    /// True if the budget was never hit (the sketch holds the entire
    /// degree-capped input, `p* = 1`).
    pub fn is_exact_sample(&self) -> bool {
        self.bound == u64::MAX
    }

    /// Streaming-side diagnostics.
    pub fn counters(&self) -> SketchCounters {
        self.counters
    }

    /// Space report (1 pass). Besides live edges and heap entries, the
    /// aux peak carries the flat store's full **capacity** footprint
    /// (table + columns + arena), so evicting elements out of a grown
    /// arena never lets the report understate resident memory.
    pub fn space_report(&self) -> SpaceReport {
        self.tracker.report(1)
    }

    /// Estimate `C(family)` on the *original* input via the
    /// inverse-probability estimator of Lemma 2.2:
    /// `Ĉ(S) = |Γ(H, S)| / p*`.
    pub fn estimate_coverage(&self, family: &[SetId]) -> f64 {
        let mut members = vec![false; self.params.num_sets.max(1)];
        for s in family {
            if s.index() < members.len() {
                members[s.index()] = true;
            }
        }
        let mut covered = 0usize;
        for (_, _, sets, _) in self.store.iter() {
            if sets.iter().any(|&s| members[s as usize]) {
                covered += 1;
            }
        }
        covered as f64 / self.sampling_p()
    }

    /// Materialize the sketch content as a [`CoverageInstance`] over the
    /// retained elements (the graph the offline algorithms run on —
    /// "solve the problem without any other direct access to the input").
    ///
    /// This *rebuilds* an owned instance — every retained element goes
    /// back through a `HashMap` remap. Query paths should prefer
    /// [`csr_view`](Self::csr_view), which exports the flat store
    /// directly; this method remains for callers that need the owned
    /// representation (residual restriction, snapshots, tests).
    pub fn instance(&self) -> CoverageInstance {
        let mut b = InstanceBuilder::new(self.params.num_sets);
        for (key, _, sets, _) in self.store.iter() {
            for &s in sets {
                b.add_edge(Edge::new(s, key));
            }
        }
        b.build()
    }

    /// Export the sketch content as a packed [`CsrInstance`] — the
    /// zero-rebuild solve path. The flat store's entry order *is* the
    /// dense element space, so this is one counting-sort pass over the
    /// set-list arena: no re-hashing, no `HashMap`, no per-set `Vec`.
    /// The view is graph-identical to [`instance`](Self::instance) (same
    /// sets, same element memberships, up to dense relabeling), so
    /// greedy traces on either are step-for-step equal.
    pub fn csr_view(&self) -> CsrInstance {
        let elements: Vec<ElementId> = self.store.iter().map(|(k, _, _, _)| ElementId(k)).collect();
        if self.params.dedup {
            // Dedup sketches store duplicate-free set lists: export the
            // arena as-is.
            CsrInstance::from_edge_fn(self.params.num_sets, elements, |emit| {
                for (i, (_, _, sets, _)) in self.store.iter().enumerate() {
                    for &s in sets {
                        emit(s, i as u32);
                    }
                }
            })
        } else {
            // Without dedup the lists are raw arrival order (possibly
            // with duplicates): canonicalize per element first, exactly
            // as `instance`'s builder would.
            let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(self.edges_stored);
            let mut scratch: Vec<u32> = Vec::new();
            for (i, (_, _, sets, _)) in self.store.iter().enumerate() {
                scratch.clear();
                scratch.extend_from_slice(sets);
                scratch.sort_unstable();
                scratch.dedup();
                pairs.extend(scratch.iter().map(|&s| (s, i as u32)));
            }
            CsrInstance::from_edge_fn(self.params.num_sets, elements, |emit| {
                for &(s, d) in &pairs {
                    emit(s, d);
                }
            })
        }
    }

    /// Canonicalize one stored list: sorted when dedup is on (the
    /// retained-content contract presents set lists in id order), raw
    /// append order otherwise (matching the reference engine, which
    /// also stores arrival order when dedup is off).
    fn canonical_sets(&self, sets: &[u32]) -> Vec<u32> {
        let mut v = sets.to_vec();
        if self.params.dedup {
            v.sort_unstable();
        }
        v
    }

    /// Iterate over retained `(element_key, hash, set_ids)` triples
    /// (property tests and the Figure 1 renderer). Set lists are
    /// canonicalized copies — the store keeps them in append order.
    pub fn retained(&self) -> impl Iterator<Item = (u64, u64, Vec<u32>)> + '_ {
        self.store
            .iter()
            .map(|(k, h, sets, _)| (k, h, self.canonical_sets(sets)))
    }

    /// Like [`retained`](Self::retained) but including the truncation flag
    /// — the full logical per-element state (snapshot support).
    pub fn retained_full(&self) -> impl Iterator<Item = (u64, u64, Vec<u32>, bool)> + '_ {
        self.store
            .iter()
            .map(|(k, h, sets, t)| (k, h, self.canonical_sets(sets), t))
    }

    /// The full retained content in canonical form: sorted by element
    /// key, set lists canonicalized. This is the engine-equivalence
    /// currency — the property tests and the `bench_smoke` CI gate
    /// compare it against
    /// [`ReferenceSketch::canonical_content`](crate::reference::ReferenceSketch::canonical_content).
    pub fn canonical_content(&self) -> Vec<(u64, u64, Vec<u32>, bool)> {
        let mut v: Vec<_> = self.retained_full().collect();
        v.sort_unstable_by_key(|&(k, _, _, _)| k);
        v
    }

    /// The hash function's raw post-mix seed (snapshot support; pair with
    /// [`coverage_hash::UnitHash::from_raw_seed`]).
    pub fn raw_hash_seed(&self) -> u64 {
        self.hash.seed()
    }

    /// Rebuild a sketch from snapshot parts. The space tracker restarts
    /// from the restored size (peak history is not carried across a
    /// snapshot). Used by `serial::SketchSnapshot::restore`.
    pub(crate) fn from_snapshot_parts(
        raw_seed: u64,
        params: SketchParams,
        bound: u64,
        entries: impl Iterator<Item = (u64, u64, Vec<u32>, bool)>,
        counters: SketchCounters,
    ) -> Self {
        let mut store = FlatStore::new();
        let mut heap = BinaryHeap::new();
        let mut edges_stored = 0usize;
        let mut tracker = SpaceTracker::new();
        for (key, hash, sets, truncated) in entries {
            edges_stored += sets.len();
            tracker.add_edges(sets.len() as u64);
            tracker.add_aux(2);
            heap.push((hash, key));
            let idx = store.insert(key, hash);
            store.replace_list(idx, &sets);
            if truncated {
                store.mark_truncated(idx);
            }
        }
        tracker.set_aux_capacity(store.capacity_words());
        ThresholdSketch {
            hash: UnitHash::from_raw_seed(raw_seed),
            params,
            store,
            heap,
            bound,
            edges_stored,
            tracker,
            counters,
            scratch: Vec::new(),
            scratch_hashes: Vec::new(),
        }
    }

    /// The current acceptance bound (tests).
    pub fn acceptance_bound(&self) -> u64 {
        self.bound
    }

    /// Merge another sketch of the **same parameters, seed and budget**
    /// into `self` — the composability property behind the distributed
    /// algorithms of the paper's companion work (`[10]`).
    ///
    /// Why this is sound: a sketch's retained elements are exactly the
    /// lowest-hash prefix (of the elements it saw) whose capped edges fit
    /// the budget. If the input edges are partitioned across machines,
    /// the *global* prefix bound is at most every local bound, so every
    /// globally-retained element was retained (with some of its edges) on
    /// every machine that saw it. Dropping entries above the minimum
    /// bound, uniting per-element set lists (re-capped), and re-evicting
    /// to the budget therefore reproduces a valid `H≤n` of the union —
    /// with *identical* retained elements to a single-machine build.
    ///
    /// When the degree cap binds during the union, the surviving edges
    /// are the **smallest set ids** of the united list (Lemma 2.4 allows
    /// any cap-sized subset). That canonical choice makes the merge
    /// associative *and* commutative, so a reduction's result is
    /// independent of its tree shape — the determinism contract the
    /// parallel runner in `coverage-dist` is property-tested against.
    /// (Stored lists are append-order; the union sorts both sides first,
    /// so merged entries come out sorted — a legal append order.)
    pub fn merge_from(&mut self, other: &ThresholdSketch) {
        assert_eq!(
            self.hash, other.hash,
            "sketches must share a hash seed to merge"
        );
        assert_eq!(
            self.params, other.params,
            "sketches must share parameters to merge"
        );
        assert!(
            self.params.dedup,
            "merging requires dedup sketches (per-element set lists are sets)"
        );
        let bound = self.bound.min(other.bound);
        // Drop own entries that the other side's bound rules out.
        if bound < self.bound {
            let doomed: Vec<(u64, u64)> = self
                .store
                .iter()
                .filter(|&(_, h, _, _)| h > bound)
                .map(|(k, h, _, _)| (k, h))
                .collect();
            for (k, h) in doomed {
                let idx = self.store.find(h, k).expect("entry just listed");
                let len = self.store.list(idx).len();
                self.store.remove(idx);
                self.edges_stored -= len;
                self.tracker.remove_edges(len as u64);
                self.tracker.remove_aux(2);
            }
        }
        self.bound = bound;
        // Pull the other side's admissible entries.
        for (key, h, osets, otrunc) in other.store.iter() {
            if h > bound {
                continue;
            }
            let mut theirs = osets.to_vec();
            theirs.sort_unstable();
            match self.store.find(h, key) {
                Some(idx) => {
                    let mut mine = self.store.list(idx).to_vec();
                    mine.sort_unstable();
                    let before = mine.len();
                    let (merged, overflow) =
                        sorted_union_capped(&mine, &theirs, self.params.degree_cap);
                    // The capped union never shrinks: both inputs are ≤ cap
                    // long, and min-id truncation keeps at least max(|a|,|b|).
                    let added = merged.len() - before;
                    self.store.replace_list(idx, &merged);
                    if otrunc || overflow {
                        self.store.mark_truncated(idx);
                    }
                    self.edges_stored += added;
                    self.tracker.add_edges(added as u64);
                }
                None => {
                    let idx = self.store.insert(key, h);
                    self.store.replace_list(idx, &theirs);
                    if otrunc {
                        self.store.mark_truncated(idx);
                    }
                    self.heap.push((h, key));
                    self.edges_stored += theirs.len();
                    self.tracker.add_edges(theirs.len() as u64);
                    self.tracker.add_aux(2);
                }
            }
        }
        // The heap may hold stale entries for keys dropped above; rebuild
        // it from the live store (merges are rare, so O(size) is fine).
        self.heap = self.store.iter().map(|(k, h, _, _)| (h, k)).collect();
        self.tracker.set_aux_capacity(self.store.capacity_words());
        while self.edges_stored > self.params.max_edges() {
            self.evict_max();
        }
        let o = other.counters;
        self.counters.arrivals += o.arrivals;
        self.counters.rejected_by_bound += o.rejected_by_bound;
        self.counters.rejected_by_cap += o.rejected_by_cap;
        self.counters.duplicates += o.duplicates;
        self.counters.evictions += o.evictions;
    }
}

/// Union of two sorted, deduplicated id lists, truncated to the `cap`
/// smallest ids. Returns the union and whether anything was cut. Keeping
/// the min-id prefix makes `union ∘ truncate` associative, which is what
/// lets sketch merges ignore reduction shape: `min_cap(min_cap(A ∪ B) ∪ C)
/// = min_cap(A ∪ B ∪ C)`.
pub(crate) fn sorted_union_capped(a: &[u32], b: &[u32], cap: usize) -> (Vec<u32>, bool) {
    let mut merged = Vec::with_capacity((a.len() + b.len()).min(cap));
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => return (merged, false),
        };
        if merged.len() == cap {
            return (merged, true);
        }
        merged.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_stream::VecStream;

    fn params(n: usize, budget: usize) -> SketchParams {
        SketchParams::with_budget(n, 2, 0.5, budget)
    }

    fn star_stream(n_sets: u32, m: u64) -> VecStream {
        // Every set contains every element: n·m edges.
        let mut edges = Vec::new();
        for s in 0..n_sets {
            for e in 0..m {
                edges.push(Edge::new(s, e));
            }
        }
        VecStream::new(n_sets as usize, edges)
    }

    #[test]
    fn exact_when_budget_not_hit() {
        let s = ThresholdSketch::from_stream(
            params(3, 10_000),
            42,
            &VecStream::new(
                3,
                vec![
                    Edge::new(0u32, 1u64),
                    Edge::new(1u32, 2u64),
                    Edge::new(2u32, 3u64),
                ],
            ),
        );
        assert!(s.is_exact_sample());
        assert_eq!(s.sampling_p(), 1.0);
        assert_eq!(s.edges_stored(), 3);
        assert_eq!(s.estimate_coverage(&[SetId(0), SetId(1)]), 2.0);
    }

    #[test]
    fn respects_edge_budget() {
        let p = params(4, 40);
        let s = ThresholdSketch::from_stream(p, 7, &star_stream(4, 1000));
        assert!(s.edges_stored() <= p.max_edges());
        assert!(!s.is_exact_sample());
        assert!(s.counters().evictions > 0);
        assert!(s.sampling_p() < 1.0);
    }

    #[test]
    fn degree_cap_truncates_heavy_elements() {
        // cap for n=100, k=2, eps=0.5: 100·ln2/(0.5·2) = 69.3 → 70.
        let p = SketchParams::with_budget(100, 2, 0.5, 100_000);
        assert_eq!(p.degree_cap, 70);
        let s = ThresholdSketch::from_stream(p, 3, &star_stream(100, 5));
        for (_, _, sets) in s.retained() {
            assert!(sets.len() <= 70);
        }
        assert!(s.counters().rejected_by_cap > 0);
    }

    #[test]
    fn batched_consume_equals_per_edge_consume() {
        let p = params(4, 60);
        let stream = star_stream(4, 300);
        let mut per_edge = ThresholdSketch::new(p, 23);
        stream.for_each(&mut |e| per_edge.update(e));
        for batch in [1usize, 3, 64, 10_000] {
            let mut batched = ThresholdSketch::new(p, 23);
            batched.consume_batched(&stream, batch);
            assert_eq!(batched.acceptance_bound(), per_edge.acceptance_bound());
            assert_eq!(batched.edges_stored(), per_edge.edges_stored());
            assert_eq!(
                batched.canonical_content(),
                per_edge.canonical_content(),
                "batch={batch} must not change the sketch"
            );
            assert_eq!(batched.counters(), per_edge.counters());
        }
    }

    #[test]
    fn dedup_ignores_duplicate_edges() {
        let mut s = ThresholdSketch::new(params(2, 100), 5);
        for _ in 0..10 {
            s.update(Edge::new(0u32, 9u64));
        }
        assert_eq!(s.edges_stored(), 1);
        assert_eq!(s.counters().duplicates, 9);
    }

    #[test]
    fn without_dedup_preserves_arrival_order() {
        // With dedup off the reference engine stores raw arrival order;
        // the flat arena must report the identical (unsorted) list.
        let mut s = ThresholdSketch::new(params(8, 100).without_dedup(), 5);
        for set in [5u32, 1, 7, 1, 3] {
            s.update(Edge::new(set, 9u64));
        }
        let (_, _, sets) = s.retained().next().expect("one element");
        assert_eq!(sets, vec![5, 1, 7, 1, 3]);
        assert_eq!(s.edges_stored(), 5);
    }

    #[test]
    fn retained_elements_are_lowest_hash_prefix() {
        // The key invariant: after any stream, the retained element set is
        // exactly {u : h(u) ≤ bound}, i.e. the lowest-hash elements.
        let p = params(2, 30);
        let seed = 11;
        let s = ThresholdSketch::from_stream(p, seed, &star_stream(2, 500));
        let h = UnitHash::new(seed);
        let bound = s.acceptance_bound();
        let retained: std::collections::HashSet<u64> = s.retained().map(|(k, _, _)| k).collect();
        for e in 0..500u64 {
            let admitted = h.hash(e) <= bound;
            assert_eq!(
                retained.contains(&e),
                admitted,
                "element {e}: hash {:x} vs bound {:x}",
                h.hash(e),
                bound
            );
        }
    }

    #[test]
    fn order_invariance_of_retained_elements() {
        use coverage_stream::ArrivalOrder;
        let p = params(3, 50);
        let seed = 13;
        let base = star_stream(3, 300);
        let mut contents: Vec<Vec<u64>> = Vec::new();
        for order in [
            ArrivalOrder::AsIs,
            ArrivalOrder::Random(1),
            ArrivalOrder::ByHashDesc(seed),
            ArrivalOrder::ElementGrouped(2),
        ] {
            let mut v = base.clone();
            order.apply(v.edges_mut());
            let s = ThresholdSketch::from_stream(p, seed, &v);
            let mut keys: Vec<u64> = s.retained().map(|(k, _, _)| k).collect();
            keys.sort_unstable();
            contents.push(keys);
        }
        for w in contents.windows(2) {
            assert_eq!(w[0], w[1], "retained element set depends on order");
        }
    }

    #[test]
    fn estimate_is_unbiased_on_random_instance() {
        // Mean of estimates across seeds should be near the truth.
        let n_sets = 5u32;
        let m = 2000u64;
        let stream = star_stream(n_sets, m);
        let family: Vec<SetId> = vec![SetId(0)];
        let truth = m as f64;
        let mut sum = 0.0;
        let runs = 30;
        for seed in 0..runs {
            let s = ThresholdSketch::from_stream(params(5, 300), seed, &stream);
            sum += s.estimate_coverage(&family);
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.1,
            "mean estimate {mean} vs truth {truth}"
        );
    }

    #[test]
    fn instance_roundtrip_preserves_sketch_graph() {
        let s = ThresholdSketch::from_stream(params(4, 60), 21, &star_stream(4, 100));
        let inst = s.instance();
        assert_eq!(inst.num_edges(), s.edges_stored());
        assert_eq!(inst.num_elements(), s.elements_stored());
        assert_eq!(inst.num_sets(), 4);
    }

    #[test]
    fn csr_view_matches_instance_graph() {
        use coverage_core::CoverageView;
        let s = ThresholdSketch::from_stream(params(4, 60), 21, &star_stream(4, 100));
        let inst = s.instance();
        let view = s.csr_view();
        assert_eq!(view.num_edges(), inst.num_edges());
        assert_eq!(view.num_elements(), inst.num_elements());
        assert_eq!(view.num_sets(), 4);
        // Same element-id membership per set, up to dense relabeling.
        for set in inst.set_ids() {
            let mut a: Vec<u64> = inst.set_elements(set).map(|e| e.0).collect();
            let mut b: Vec<u64> = view
                .dense_set(set)
                .iter()
                .map(|&d| view.element_id(d).0)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "set {set:?}");
        }
        // Identical greedy traces on either representation.
        for k in [1usize, 2, 4] {
            let ti = coverage_core::offline::lazy_greedy_k_cover(&inst, k);
            let tv = coverage_core::offline::bucket_greedy_k_cover(&view, k);
            assert_eq!(ti.steps, tv.steps, "k={k}");
        }
    }

    #[test]
    fn csr_view_canonicalizes_without_dedup() {
        use coverage_core::CoverageView;
        let mut s = ThresholdSketch::new(params(8, 100).without_dedup(), 5);
        for set in [5u32, 1, 7, 1, 3] {
            s.update(Edge::new(set, 9u64));
        }
        let view = s.csr_view();
        // Duplicates collapse and each of {1,3,5,7} holds the element.
        assert_eq!(view.num_edges(), 4);
        for set in [1u32, 3, 5, 7] {
            assert_eq!(view.dense_set(SetId(set)), &[0]);
        }
        assert_eq!(view.dense_set(SetId(0)), &[] as &[u32]);
    }

    #[test]
    fn space_report_peaks() {
        let p = params(4, 40);
        let s = ThresholdSketch::from_stream(p, 9, &star_stream(4, 500));
        let r = s.space_report();
        assert!(r.peak_edges >= s.edges_stored() as u64);
        // Peak can exceed final due to evictions but never the hard cap +
        // one over-step.
        assert!(r.peak_edges <= (p.max_edges() + p.degree_cap) as u64);
        assert_eq!(r.passes, 1);
        assert!(r.peak_aux_words > 0);
    }

    #[test]
    fn space_report_counts_arena_capacity() {
        // Eviction-heavy stream: many elements pass through the arena.
        // The aux peak must cover the store's full capacity footprint —
        // live entries alone would understate resident memory.
        let p = params(4, 40);
        let mut s = ThresholdSketch::new(p, 9);
        let stream = star_stream(4, 2_000);
        stream.for_each(&mut |e| s.update(e));
        let r = s.space_report();
        assert!(
            r.peak_aux_words >= s.store.capacity_words(),
            "aux peak {} below store capacity {}",
            r.peak_aux_words,
            s.store.capacity_words()
        );
    }

    #[test]
    fn merge_of_partition_equals_single_build() {
        // Split a stream's edges across three sketches, merge, and compare
        // with one sketch that saw everything: retained elements must be
        // identical, and (cap not binding: n=3 sets, cap=3) so must the
        // edge sets. With a binding cap only the element sets coincide —
        // the cap keeps an *arbitrary* edge subset (Lemma 2.4).
        let p = SketchParams::with_budget(3, 2, 0.5, 80);
        let seed = 99;
        let full = star_stream(3, 400);
        assert!(p.degree_cap >= 3, "cap must not bind in this test");
        let mut single = ThresholdSketch::new(p, seed);
        let mut parts: Vec<ThresholdSketch> =
            (0..3).map(|_| ThresholdSketch::new(p, seed)).collect();
        let mut i = 0usize;
        full.for_each(&mut |e| {
            single.update(e);
            parts[i % 3].update(e);
            i += 1;
        });
        let mut merged = parts.remove(0);
        for part in &parts {
            merged.merge_from(part);
        }
        assert_eq!(
            single.canonical_content(),
            merged.canonical_content(),
            "merged partition must equal the single build"
        );
        // Bounds may differ (they depend on eviction history) but both
        // must separate the retained prefix from everything else.
        let max_kept = single.retained().map(|(_, h, _)| h).max().unwrap();
        assert!(single.acceptance_bound() >= max_kept);
        assert!(merged.acceptance_bound() >= max_kept);
    }

    #[test]
    fn merge_is_shape_independent_under_binding_cap() {
        // 12 sets, cap well below 12, so the union truncates. Any merge
        // order (left fold, right fold, balanced tree) must produce the
        // identical sketch — the canonical min-id truncation at work.
        let p = SketchParams::with_budget(12, 1, 0.9, 60);
        assert!(p.degree_cap < 12, "cap must bind in this test");
        let seed = 5;
        let parts: Vec<ThresholdSketch> = (0..4)
            .map(|part| {
                let mut s = ThresholdSketch::new(p, seed);
                for set in 0..12u32 {
                    for e in 0..120u64 {
                        if (set as u64 + e) % 4 == part {
                            s.update(Edge::new(set, e));
                        }
                    }
                }
                s
            })
            .collect();
        // Left fold: ((0·1)·2)·3
        let mut left = parts[0].clone();
        for part in &parts[1..] {
            left.merge_from(part);
        }
        // Right fold: 0·(1·(2·3))
        let mut right = parts[3].clone();
        right.merge_from(&parts[2]);
        right.merge_from(&parts[1]);
        right.merge_from(&parts[0]);
        // Balanced: (0·1)·(2·3)
        let mut ab = parts[0].clone();
        ab.merge_from(&parts[1]);
        let mut cd = parts[2].clone();
        cd.merge_from(&parts[3]);
        ab.merge_from(&cd);
        assert_eq!(left.canonical_content(), right.canonical_content());
        assert_eq!(left.canonical_content(), ab.canonical_content());
    }

    #[test]
    #[should_panic(expected = "share parameters")]
    fn merge_rejects_mismatched_params() {
        let a = ThresholdSketch::new(params(2, 10), 1);
        let b = ThresholdSketch::new(params(2, 20), 1);
        let mut a = a;
        a.merge_from(&b);
    }

    #[test]
    fn bound_monotonically_decreases() {
        let mut s = ThresholdSketch::new(params(2, 20), 17);
        let mut last = s.acceptance_bound();
        for e in 0..500u64 {
            s.update(Edge::new(0u32, e));
            s.update(Edge::new(1u32, e));
            assert!(s.acceptance_bound() <= last);
            last = s.acceptance_bound();
        }
    }
}
