//! # coverage-sketch
//!
//! The `H≤n` coverage sketch — the central contribution of
//!
//! > Bateni, Esfandiari, Mirrokni.
//! > **Almost Optimal Streaming Algorithms for Coverage Problems.**
//! > SPAA 2017 (arXiv:1610.08096).
//!
//! Section 2 of the paper builds the sketch in three conceptual steps:
//!
//! 1. **`Hp`** — hash every element to `[0,1]` and drop those hashing
//!    above `p`. For `p ≥ 6kδ·ln n / (ε²·Opt_k)`, any α-approximate
//!    k-cover solution on `Hp` is (α−2ε)-approximate on `G` (Lemma 2.3).
//! 2. **`H'p`** — additionally cap every element's degree at
//!    `n·ln(1/ε)/(εk)`, dropping surplus edges arbitrarily. Any
//!    α-approximate solution on `H'p` is α(1−ε)-approximate on `Hp`
//!    (Lemma 2.4), and now the sketch has `Õ(n)` edges (Lemmas 2.5–2.6).
//! 3. **`H≤n`** — since the right `p` depends on the unknown `Opt_k`,
//!    take `p*` = the smallest `p` at which `H'p` reaches an edge budget
//!    of `24nδ·ln(1/ε)·ln n / ((1−ε)ε³)`. Theorem 2.7: any α-approximate
//!    solution on `H≤n` is (α−12ε)-approximate on `G` w.h.p.
//!
//! This crate implements all three:
//!
//! * [`params`] — every formula above, in one documented place, with both
//!   the verbatim theoretical constants and the practically-sized budgets
//!   the experiments use;
//! * [`fixed`] — `Hp` / `H'p` construction at a fixed `p` (lemma-level
//!   tests and the Figure 1 reproduction);
//! * [`threshold`] — the streaming [`ThresholdSketch`] (`H≤n`,
//!   Algorithm 2), implemented by adaptive max-hash eviction: retain the
//!   lowest-hash elements whose capped edges fit the budget. Storage is
//!   the flat arena engine of `store` (open addressing directly on the
//!   element hash, pooled set-list arena, nothing allocated per update);
//! * [`reference`](mod@reference) — the retired map-backed engine, kept verbatim as the
//!   executable specification the flat engine is property-tested
//!   bit-identical against (and benchmarked ≥1.5× faster than, in CI);
//! * [`estimate`] — inverse-probability coverage estimation
//!   (`C(S) ≈ |Γ(H,S)|/p*`, Lemma 2.2) with its confidence envelope;
//! * [`multi`] — a [`SketchBank`] feeding many sketches from one pass
//!   (Algorithm 5 runs `log_{1+ε/3} n` guesses in parallel);
//! * [`dynamic`] — the **dynamic-stream** extension: an
//!   ℓ₀-sampler-backed [`DynamicSketch`] over signed (insert/delete)
//!   updates, linear in the net edge multiset so deletions exactly
//!   cancel insertions and merges stay associative and commutative;
//! * [`frame`] — the one checksummed frame envelope under every binary
//!   protocol of the suite, and [`wire`] — the `CVSK` snapshot schema on
//!   it.
//!
//! ## Determinism contract
//!
//! Both sketch families are **composable**: sketches built on any
//! partition of the input merge into the sketch of the whole input, and
//! the merge result is independent of grouping, order, and batch size.
//! For [`ThresholdSketch`] this holds at the level of retained elements
//! (with the canonical min-set-id truncation making it exact even under
//! a binding degree cap); for [`DynamicSketch`] it holds bit-for-bit
//! (linear cells). `coverage-dist`'s parallel executors are built on —
//! and property-tested against — exactly this contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod dynamic;
pub mod estimate;
pub mod fixed;
pub mod frame;
pub mod lemmas;
pub mod multi;
pub mod params;
pub mod reference;
pub mod serial;
mod store;
pub mod threshold;
pub mod wire;

pub use ablation::{AblatedSketch, EvictionPolicy};
pub use dynamic::{
    DynamicCounters, DynamicSample, DynamicSketch, DynamicSketchParams, DynamicSnapshot,
};
pub use estimate::{chernoff_envelope, estimate_from_sample};
pub use fixed::{build_hp, build_hp_prime};
pub use frame::WireError;
pub use lemmas::{
    check_lemma_2_2, check_lemma_2_3, check_lemma_2_4, check_lemma_2_6, check_theorem_2_7,
    Lemma22Check, Lemma26Check, TransferCheck,
};
pub use multi::SketchBank;
pub use params::{SketchParams, SketchSizing};
pub use reference::ReferenceSketch;
pub use serial::{SketchSnapshot, SnapshotEntry};
pub use threshold::{SketchCounters, ThresholdSketch};
pub use wire::PayloadKind;
