//! Algorithms 4–5: single-pass `(1+ε)·ln(1/λ)`-approximate set cover with
//! λ outliers.
//!
//! **Algorithm 4** (the submodule) receives a guessed cover size `k'` and
//! a graph promised to have a cover of that size. It builds the sketch
//! `H≤n(k'·ln(1/λ'), ε, δ'')`, runs greedy for `⌈k'·ln(1/λ')⌉` rounds on
//! it, and *verifies on the sketch* that the solution covers a
//! `1 − λ' − ε·ln(1/λ')` fraction of the sketch's elements; otherwise it
//! reports `false` — which, by Lemma 3.2, certifies that the true minimum
//! cover exceeds `k'`.
//!
//! **Algorithm 5** guesses `k'` geometrically (`k' ← (1+ε/3)·k'`, up to
//! `n`) and runs Algorithm 4 for every guess *in parallel over one pass*:
//! a [`SketchBank`] feeds all guesses' sketches simultaneously, and the
//! post-pass verifications pick the smallest successful guess. With
//! `λ' = λ·e^{−ε/2}` and `ε' = λ(1−e^{−ε/2})` this yields a
//! `(1+ε)·ln(1/λ)`-approximation covering `1−λ` of the elements
//! (Theorem 3.3), in `Õ(n/λ³) ⊆ Õ_λ(n)` space.

use coverage_core::offline::bucket_greedy_budgeted_cover;
use coverage_core::{CoverageView, SetId};
use coverage_sketch::{SketchBank, SketchParams, SketchSizing, ThresholdSketch};
use coverage_stream::{EdgeStream, SpaceReport};

/// Configuration of a streaming set-cover-with-outliers run.
#[derive(Clone, Copy, Debug)]
pub struct OutlierConfig {
    /// Outlier fraction λ: the solution may leave up to `λ·m` elements
    /// uncovered. The paper assumes `λ ∈ (0, 1/e]`.
    pub lambda: f64,
    /// Accuracy parameter ε of Theorem 3.3.
    pub epsilon: f64,
    /// Sketch sizing policy (per guess).
    pub sizing: SketchSizing,
    /// Hash seed shared by the whole bank.
    pub seed: u64,
    /// Evaluate guesses on worker threads after the pass.
    pub parallel: bool,
}

impl OutlierConfig {
    /// Practical defaults.
    pub fn new(lambda: f64, epsilon: f64, seed: u64) -> Self {
        assert!(lambda > 0.0 && lambda < 1.0, "λ must lie in (0,1)");
        assert!(epsilon > 0.0 && epsilon <= 1.0, "ε must lie in (0,1]");
        OutlierConfig {
            lambda,
            epsilon,
            sizing: SketchSizing::Practical { c: 2.0 },
            seed,
            parallel: false,
        }
    }

    /// Override the sizing policy.
    pub fn with_sizing(mut self, sizing: SketchSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Evaluate guesses in parallel (crossbeam scoped threads).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// `λ' = λ·e^{−ε/2}` (Algorithm 5 line 1).
    pub fn lambda_prime(&self) -> f64 {
        self.lambda * (-self.epsilon / 2.0).exp()
    }

    /// `ε' = λ·(1 − e^{−ε/2})` (Algorithm 5 line 1).
    pub fn epsilon_prime(&self) -> f64 {
        self.lambda * (1.0 - (-self.epsilon / 2.0).exp())
    }

    /// Sketch accuracy of Algorithm 4: `ε = ε'/(13·ln(1/λ'))`, clamped
    /// away from zero so practical degree caps and budgets stay finite
    /// (the verbatim value can reach 10⁻⁵, which only matters for the
    /// theoretical constants, not for the construction).
    pub fn sketch_epsilon(&self) -> f64 {
        let lp = self.lambda_prime();
        (self.epsilon_prime() / (13.0 * (1.0 / lp).ln())).clamp(1e-2, 1.0)
    }

    /// The geometric guess ladder `k'_i = (1+ε/3)^i`, capped at `n`.
    /// Guesses whose *rounded* greedy budget coincides are deduplicated
    /// (they would build byte-identical sketches).
    pub fn guesses(&self, n: usize) -> Vec<Guess> {
        let lp = self.lambda_prime();
        let rounds_factor = (1.0 / lp).ln();
        let base = 1.0 + self.epsilon / 3.0;
        let mut out: Vec<Guess> = Vec::new();
        let mut k_prime = 1.0f64;
        loop {
            k_prime *= base;
            let capped = k_prime.min(n as f64);
            let budget_sets = (capped * rounds_factor).ceil() as usize;
            if out.last().map(|g: &Guess| g.budget_sets) != Some(budget_sets) {
                out.push(Guess {
                    k_prime: capped,
                    budget_sets: budget_sets.max(1),
                });
            }
            if capped >= n as f64 {
                break;
            }
        }
        out
    }
}

/// One guessed cover size and its derived greedy budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Guess {
    /// The guessed minimum cover size `k'`.
    pub k_prime: f64,
    /// `⌈k'·ln(1/λ')⌉` — sets the greedy may use, and the sketch's `k`.
    pub budget_sets: usize,
}

/// Result of a streaming set-cover-with-outliers run.
#[derive(Clone, Debug)]
pub struct OutlierResult {
    /// The selected family.
    pub family: Vec<SetId>,
    /// Whether some guess passed Algorithm 4's verification. When false,
    /// `family` is the best-effort output of the largest guess.
    pub verified: bool,
    /// The successful guess (`k'`, greedy budget).
    pub guess: Guess,
    /// Fraction of *sketch* elements covered by the family (the quantity
    /// Algorithm 4 checks).
    pub sketch_fraction: f64,
    /// Total space across the whole bank.
    pub space: SpaceReport,
    /// Number of guesses (sketches) built.
    pub num_guesses: usize,
}

/// Run Algorithm 5 over one pass of `stream`.
pub fn set_cover_outliers(stream: &dyn EdgeStream, config: &OutlierConfig) -> OutlierResult {
    let n = stream.num_sets();
    let eps_sketch = config.sketch_epsilon();
    let guesses = config.guesses(n);
    let params: Vec<SketchParams> = guesses
        .iter()
        .map(|g| config.sizing.params(n, g.budget_sets, eps_sketch))
        .collect();
    let bank = SketchBank::from_stream(params, config.seed, stream);
    let space = bank.space_report();
    let sketches = bank.into_sketches();

    // Algorithm 4's acceptance threshold: cover ≥ 1 − λ' − ε·ln(1/λ') of
    // the sketch's elements.
    let lp = config.lambda_prime();
    let slack = eps_sketch * (1.0 / lp).ln();
    let required_fraction = (1.0 - lp - slack).clamp(0.0, 1.0);

    let eval = |i: usize| evaluate_guess(&sketches[i], guesses[i].budget_sets, required_fraction);
    // Smallest successful guess wins (ascending k'). The serial path
    // solves guesses in that order and stops at the first one Algorithm 4
    // verifies; the parallel path solves every guess, then scans.
    let (i, verdict) = if config.parallel && sketches.len() > 1 {
        first_verified(evaluate_parallel(sketches.len(), eval).into_iter())
    } else {
        first_verified((0..sketches.len()).map(eval))
    };
    OutlierResult {
        family: verdict.family,
        verified: verdict.satisfied,
        guess: guesses[i],
        sketch_fraction: verdict.fraction,
        space,
        num_guesses: guesses.len(),
    }
}

struct Verdict {
    family: Vec<SetId>,
    fraction: f64,
    satisfied: bool,
}

/// The first satisfied verdict with its index, pulling no verdict past
/// it. When none is satisfied — the instance is not (1−λ)-coverable at
/// any size ≤ n, or the budgets were too small — the last (largest
/// guess's) verdict, unsatisfied.
fn first_verified(verdicts: impl Iterator<Item = Verdict>) -> (usize, Verdict) {
    let mut last = None;
    for (i, v) in verdicts.enumerate() {
        if v.satisfied {
            return (i, v);
        }
        last = Some((i, v));
    }
    last.expect("the guess ladder is never empty")
}

/// Run Algorithm 4's greedy + verification on one guess's sketch.
fn evaluate_guess(sketch: &ThresholdSketch, budget_sets: usize, required_fraction: f64) -> Verdict {
    // Zero-rebuild query: the guess's sketch is exported as a packed
    // CSR view and solved with the decremental bucket-queue greedy.
    let view = sketch.csr_view();
    let m_sketch = view.num_elements();
    let required = (required_fraction * m_sketch as f64).ceil() as usize;
    let res = bucket_greedy_budgeted_cover(&view, required, budget_sets);
    let family = res.family();
    let fraction = if m_sketch == 0 {
        1.0
    } else {
        res.trace.coverage() as f64 / m_sketch as f64
    };
    Verdict {
        family,
        fraction,
        satisfied: res.satisfied,
    }
}

/// Evaluate all `count` guesses on worker threads, returning their
/// verdicts in guess order.
fn evaluate_parallel(count: usize, eval: impl Fn(usize) -> Verdict + Sync) -> Vec<Verdict> {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(count);
    let results: Vec<std::sync::Mutex<Option<Verdict>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= count {
                    break;
                }
                *results[i].lock().expect("verdict lock poisoned") = Some(eval(i));
            });
        }
    })
    .expect("guess evaluation worker panicked");
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("verdict lock poisoned")
                .expect("all guesses evaluated")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_data::planted_set_cover;
    use coverage_stream::{ArrivalOrder, VecStream};

    fn run(
        lambda: f64,
        eps: f64,
        parallel: bool,
    ) -> (OutlierResult, coverage_core::CoverageInstance, usize) {
        let p = planted_set_cover(30, 3_000, 5, 60, 7);
        let mut stream = VecStream::from_instance(&p.instance);
        ArrivalOrder::Random(3).apply(stream.edges_mut());
        let cfg = OutlierConfig::new(lambda, eps, 17)
            .with_sizing(SketchSizing::Budget(4_000))
            .with_parallel(parallel);
        let res = set_cover_outliers(&stream, &cfg);
        (res, p.instance, p.optimal_value)
    }

    #[test]
    fn covers_required_fraction_on_original() {
        let (res, inst, _) = run(0.1, 0.5, false);
        assert!(res.verified, "a guess must verify");
        let frac = inst.coverage_fraction(&res.family);
        assert!(
            frac >= 1.0 - 0.1 - 0.05,
            "covered fraction {frac} below 1−λ−slack"
        );
    }

    #[test]
    fn solution_size_respects_ln_one_over_lambda() {
        let (res, _, k_star) = run(0.1, 0.5, false);
        let bound = (1.0 + 0.5)
            * (k_star as f64)
            * (1.0 / 0.1f64).ln()
            * (1.0 + 0.5 / 3.0) // one geometric overshoot step
            + 2.0;
        assert!(
            (res.family.len() as f64) <= bound,
            "family {} exceeds bound {bound}",
            res.family.len()
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let (a, _, _) = run(0.15, 0.4, false);
        let (b, _, _) = run(0.15, 0.4, true);
        assert_eq!(a.family, b.family);
        assert_eq!(a.verified, b.verified);
        assert_eq!(a.guess.budget_sets, b.guess.budget_sets);
    }

    fn verdict(satisfied: bool) -> Verdict {
        Verdict {
            family: Vec::new(),
            fraction: 0.0,
            satisfied,
        }
    }

    #[test]
    fn first_verified_stops_at_the_smallest_success() {
        let mut pulled = 0;
        let (i, v) = first_verified([false, false, true, true].into_iter().map(|s| {
            pulled += 1;
            verdict(s)
        }));
        assert_eq!((i, v.satisfied, pulled), (2, true, 3));
        let (i, v) = first_verified([false, false, false].into_iter().map(verdict));
        assert_eq!(
            (i, v.satisfied),
            (2, false),
            "none verified: the largest guess"
        );
    }

    #[test]
    fn guess_ladder_is_geometric_and_capped() {
        let cfg = OutlierConfig::new(0.1, 0.3, 1);
        let guesses = cfg.guesses(100);
        assert!(!guesses.is_empty());
        // Monotone increasing budgets, capped at n-derived budget.
        for w in guesses.windows(2) {
            assert!(w[0].budget_sets < w[1].budget_sets);
        }
        let last = guesses.last().unwrap();
        assert!((last.k_prime - 100.0).abs() < 1e-9);
    }

    #[test]
    fn derived_parameters_match_paper() {
        let cfg = OutlierConfig::new(0.2, 0.6, 1);
        let e = (-0.3f64).exp();
        assert!((cfg.lambda_prime() - 0.2 * e).abs() < 1e-12);
        assert!((cfg.epsilon_prime() - 0.2 * (1.0 - e)).abs() < 1e-12);
        assert!(cfg.sketch_epsilon() > 0.0);
    }

    #[test]
    fn space_counts_whole_bank() {
        let (res, _, _) = run(0.1, 0.5, false);
        assert!(res.num_guesses > 1);
        assert!(res.space.peak_edges > 0);
        assert_eq!(res.space.passes, 1);
    }

    #[test]
    #[should_panic(expected = "λ must lie in (0,1)")]
    fn rejects_bad_lambda() {
        OutlierConfig::new(0.0, 0.5, 1);
    }
}
