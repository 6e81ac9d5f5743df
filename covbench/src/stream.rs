//! The `stream` phase: the paper's headline path, one process and one
//! thread.
//!
//! A planted edge list arrives in uniform random order and is read in one
//! pass by Algorithm 3 (`k_cover_streaming`) and Algorithm 5
//! (`set_cover_outliers`). The k-cover stream is fifty times longer than
//! the sketch budget, so a pass is dominated by hashing and threshold
//! rejection; CSR export and the bucket solve are a sliver of it. A
//! measured step is one Algorithm 5 pass and three Algorithm 3 passes.

use std::time::{Duration, Instant};

use coverage_suite::algs::{
    k_cover_streaming, set_cover_outliers, KCoverConfig, KCoverResult, OutlierConfig,
};
use coverage_suite::core::offline::{bucket_greedy_budgeted_cover, bucket_greedy_k_cover};
use coverage_suite::core::{CoverageView, SetId};
use coverage_suite::hash::UnitHash;
use coverage_suite::sketch::{SketchBank, SketchParams, SketchSizing, ThresholdSketch};
use coverage_suite::stream::EdgeStream;

use crate::gen::{Draw, Planted, Shape};
use crate::report::Report;
use crate::stats::{faster_half_mean, median, spread};
use crate::trace::{span_cost_s, Tracer, ROOT};
use crate::Args;

const KSTAR: usize = 8;

/// Algorithm 3 input: 10M edges over 1M elements; 992 decoys.
const KCOVER: Shape = Shape {
    golden: KSTAR,
    decoys: 992,
    elements: 1_000_000,
    decoy_size: 9_072,
    draw: Draw::Uniform,
};
const KCOVER_BUDGET: usize = 200_000;
const KCOVER_EPS: f64 = 0.3;

/// Algorithm 5 input: about 290k edges, sized so that one pass over the
/// 34-guess bank takes about two seconds.
const SETCOVER: Shape = Shape {
    golden: KSTAR,
    decoys: 192,
    elements: 60_000,
    decoy_size: 1_200,
    draw: Draw::Uniform,
};
const SETCOVER_BUDGET: usize = 20_000;
const LAMBDA: f64 = 0.1;
const SETCOVER_EPS: f64 = 0.5;

/// Set-ups per run; `setup_s` counts their median.
const SETUPS: usize = 3;
/// A measured step makes one Algorithm 5 pass and `KCOVER_PER_SETCOVER`
/// Algorithm 3 passes.
const KCOVER_PER_SETCOVER: usize = 3;
/// Traced rounds per run, at least.
const MIN_TRACED_ROUNDS: u64 = 3;

fn kcover_config(seed: u64) -> KCoverConfig {
    KCoverConfig::new(KSTAR, KCOVER_EPS, seed).with_sizing(SketchSizing::Budget(KCOVER_BUDGET))
}

fn setcover_config(seed: u64) -> OutlierConfig {
    OutlierConfig::new(LAMBDA, SETCOVER_EPS, seed)
        .with_sizing(SketchSizing::Budget(SETCOVER_BUDGET))
}

/// The phase once set up: its inputs, the warm Algorithm 3 answer every
/// pass must repeat, and what the measured passes found so far.
pub struct Stream {
    kc: Planted,
    sc: Planted,
    kcfg: KCoverConfig,
    scfg: OutlierConfig,
    warm: KCoverResult,
    k_secs: Vec<f64>,
    s_secs: Vec<f64>,
    k_fail: u64,
    s_fail: u64,
    /// The first Algorithm 5 answer: family, peak words, size over OPT.
    s_first: Option<(Vec<SetId>, f64, f64)>,
}

impl Stream {
    /// Set up SETUPS times: generate both inputs into the previous copy's
    /// buffers, then time the first (warm) Algorithm 3 pass, so that
    /// one-time work the program moves into its first pass shows here.
    /// Every copy of the inputs and every warm answer must match.
    pub fn setup(args: &Args, report: &mut Report) -> Stream {
        let kcover = KCOVER.with_draw(args.draw);
        let setcover = SETCOVER.with_draw(args.draw);
        let kcfg = kcover_config(args.seed);
        let scfg = setcover_config(args.seed);
        let mut setup_s = Vec::new();
        let mut prints = Vec::new();
        let mut inputs: Option<(Planted, Planted)> = None;
        let mut warm: Vec<KCoverResult> = Vec::new();
        for _ in 0..SETUPS {
            let (kc_buf, sc_buf) = match inputs.take() {
                Some((mut kc, mut sc)) => (
                    std::mem::take(kc.stream.edges_mut()),
                    std::mem::take(sc.stream.edges_mut()),
                ),
                None => (Vec::new(), Vec::new()),
            };
            let kc = kcover.generate_into(args.seed, kc_buf);
            let sc = setcover.generate_into(args.seed ^ 0x5E7C_0FE2, sc_buf);
            let t = Instant::now();
            warm.push(k_cover_streaming(&kc.stream, &kcfg));
            setup_s.push(t.elapsed().as_secs_f64());
            prints.push((kc.fingerprint(), sc.fingerprint()));
            inputs = Some((kc, sc));
        }
        let (kc, sc) = inputs.expect("at least one set-up");
        report.check(
            "repeated set-ups generate identical inputs",
            prints.windows(2).all(|w| w[0] == w[1]),
        );
        let warm_ok = warm
            .iter()
            .all(|w| w.family == warm[0].family && kc.meets_kcover_bound(&w.family, KCOVER_EPS));
        report.check(
            "warm Algorithm 3 passes meet (1-1/e-eps)*OPT with one family",
            warm_ok,
        );
        report.phase("stream.setup", SETUPS as u64, u64::from(!warm_ok));
        let warm = warm.swap_remove(0);
        report.setup(median(&setup_s));
        report.coverage(kc.coverage(&warm.family) as f64 / kc.kcover_opt() as f64);
        Stream {
            kc,
            sc,
            kcfg,
            scfg,
            warm,
            k_secs: Vec::new(),
            s_secs: Vec::new(),
            k_fail: 0,
            s_fail: 0,
            s_first: None,
        }
    }

    /// One measured step: an Algorithm 5 pass, then `KCOVER_PER_SETCOVER`
    /// Algorithm 3 passes, each checked against its bound and the first
    /// answer.
    pub fn step(&mut self) {
        let t = Instant::now();
        let res = set_cover_outliers(&self.sc.stream, &self.scfg);
        self.s_secs.push(t.elapsed().as_secs_f64());
        let first = self.s_first.get_or_insert_with(|| {
            (
                res.family.clone(),
                res.space.total_words() as f64,
                res.family.len() as f64 / self.sc.setcover_opt() as f64,
            )
        });
        let same = first.0 == res.family;
        self.s_fail += u64::from(!same || !setcover_ok(&self.sc, res.verified, &res.family));
        for _ in 0..KCOVER_PER_SETCOVER {
            let t = Instant::now();
            let res = k_cover_streaming(&self.kc.stream, &self.kcfg);
            self.k_secs.push(t.elapsed().as_secs_f64());
            self.k_fail += u64::from(
                res.family != self.warm.family
                    || !self.kc.meets_kcover_bound(&res.family, KCOVER_EPS),
            );
        }
    }

    /// Check the measured passes and report the phase's end-to-end
    /// metrics.
    pub fn finish(self, report: &mut Report) {
        let (kc, sc) = (&self.kc, &self.sc);
        eprintln!(
            "covbench: Algorithm 3 pass seconds {}",
            spread(&self.k_secs)
        );
        eprintln!(
            "covbench: Algorithm 5 pass seconds {}",
            spread(&self.s_secs)
        );
        report.check(
            "every Algorithm 3 pass meets (1-1/e-eps)*OPT with one family",
            self.k_fail == 0,
        );
        report.check(
            "every Algorithm 5 pass is verified, covers 1-lambda, one family",
            self.s_fail == 0,
        );
        report.phase(
            "stream.kcover_passes",
            self.k_secs.len() as u64,
            self.k_fail,
        );
        report.phase(
            "stream.setcover_passes",
            self.s_secs.len() as u64,
            self.s_fail,
        );
        let Some((_, s_words, s_size)) = self.s_first else {
            report.check("the phase made a measured step", false);
            return;
        };
        report.metric(
            "kcover.edges_per_s",
            kc.edges().len() as f64 / faster_half_mean(&self.k_secs),
            "edges/s",
        );
        report.metric(
            "setcover.edges_per_s",
            sc.edges().len() as f64 / faster_half_mean(&self.s_secs),
            "edges/s",
        );
        report.metric(
            "kcover.peak_words",
            self.warm.space.total_words() as f64,
            "words",
        );
        report.metric("setcover.peak_words", s_words, "words");
        report.metric("setcover.size_ratio", s_size, "ratio");
    }

    /// Measure for `seconds` with every layer traced, and report the
    /// phase's per-layer metrics.
    pub fn trace(self, seconds: Duration, t: &mut Tracer, report: &mut Report) {
        measure_traced(
            seconds, &self.kc, &self.sc, &self.kcfg, &self.scfg, t, report,
        );
    }
}

/// Check one Algorithm 5 answer: verified and covering `1 − λ`.
fn setcover_ok(sc: &Planted, verified: bool, family: &[SetId]) -> bool {
    verified && sc.coverage(family) as f64 >= (1.0 - LAMBDA) * sc.kcover_opt() as f64
}

/// Algorithm 3 replayed through the public calls it is made of, one span
/// per layer: exactly `k_cover_streaming`'s work, decomposed.
fn kcover_replay(
    t: &mut Tracer,
    kc: &Planted,
    cfg: &KCoverConfig,
) -> (Vec<SetId>, ThresholdSketch) {
    t.span("kcover.pass", ROOT, |t, root| {
        let params = cfg.sketch_params(kc.stream.num_sets());
        let sketch = t.span("kcover.threshold", root, |_, _| {
            ThresholdSketch::from_stream(params, cfg.seed, &kc.stream)
        });
        let view = t.span("kcover.csr", root, |_, _| sketch.csr_view());
        let family = t
            .span("kcover.bucket", root, |_, _| {
                bucket_greedy_k_cover(&view, cfg.k)
            })
            .family();
        t.span("kcover.estimate", root, |_, _| {
            sketch.estimate_coverage(&family)
        });
        (family, sketch)
    })
}

/// Algorithm 5 replayed through its public calls: bank ingest, then a CSR
/// export and a budgeted bucket solve per guess; the first satisfied guess
/// wins, as in `set_cover_outliers`.
fn setcover_replay(t: &mut Tracer, sc: &Planted, cfg: &OutlierConfig) -> Vec<SetId> {
    t.span("setcover.pass", ROOT, |t, root| {
        let n = sc.stream.num_sets();
        let eps = cfg.sketch_epsilon();
        let guesses = cfg.guesses(n);
        let params: Vec<SketchParams> = guesses
            .iter()
            .map(|g| cfg.sizing.params(n, g.budget_sets, eps))
            .collect();
        let bank = t.span("setcover.bank", root, |_, _| {
            SketchBank::from_stream(params, cfg.seed, &sc.stream)
        });
        let lp = cfg.lambda_prime();
        let required_share = (1.0 - lp - eps * (1.0 / lp).ln()).clamp(0.0, 1.0);
        let mut chosen = None;
        for (sketch, guess) in bank.sketches().iter().zip(&guesses) {
            let view = t.span("setcover.csr", root, |_, _| sketch.csr_view());
            let required = (required_share * view.num_elements() as f64).ceil() as usize;
            let res = t.span("setcover.bucket", root, |_, _| {
                bucket_greedy_budgeted_cover(&view, required, guess.budget_sets)
            });
            if res.satisfied && chosen.is_none() {
                chosen = Some(res.family());
            }
        }
        chosen.unwrap_or_default()
    })
}

fn measure_traced(
    seconds: Duration,
    kc: &Planted,
    sc: &Planted,
    kcfg: &KCoverConfig,
    scfg: &OutlierConfig,
    t: &mut Tracer,
    report: &mut Report,
) {
    // Replays must reproduce the real entry points' answers.
    let real_k = k_cover_streaming(&kc.stream, kcfg);
    let real_s = set_cover_outliers(&sc.stream, scfg);
    let hash = UnitHash::new(kcfg.seed);
    let mut hashes = Vec::with_capacity(kc.edges().len());
    let mut ns_per_key = Vec::new();
    for _ in 0..3 {
        hashes.clear();
        let start = Instant::now();
        hash.hash_batch(kc.edges().iter().map(|e| e.element.0), &mut hashes);
        ns_per_key.push(start.elapsed().as_secs_f64() * 1e9 / kc.edges().len() as f64);
    }
    std::hint::black_box(&hashes);
    drop(hashes);

    let spans_before = t.len();
    let (mut untraced, mut mismatches, mut rounds) = (Vec::new(), 0u64, 0u64);
    let mut last = None;
    let start = Instant::now();
    while rounds < MIN_TRACED_ROUNDS || start.elapsed() < seconds {
        let t0 = Instant::now();
        std::hint::black_box(k_cover_streaming(&kc.stream, kcfg));
        untraced.push(t0.elapsed().as_secs_f64());
        let (family, sketch) = kcover_replay(t, kc, kcfg);
        mismatches += u64::from(family != real_k.family);
        mismatches += u64::from(setcover_replay(t, sc, scfg) != real_s.family);
        last = Some(sketch);
        rounds += 1;
    }
    report.check(
        "replayed layers reproduce both algorithms' answers",
        mismatches == 0,
    );
    report.check(
        "the real Algorithm 3 answer meets its bound",
        kc.meets_kcover_bound(&real_k.family, KCOVER_EPS),
    );
    report.check(
        "the real Algorithm 5 answer is verified and covers 1-lambda",
        setcover_ok(sc, real_s.verified, &real_s.family),
    );
    report.phase("stream.traced_rounds", rounds, mismatches);

    let sketch = last.expect("at least one round");
    let c = sketch.counters();
    let arrivals = c.arrivals.max(1) as f64;
    let med = |name: &str| median(&t.durations(name));
    let layers =
        med("kcover.threshold") + med("kcover.csr") + med("kcover.bucket") + med("kcover.estimate");
    let wall = median(&untraced);
    let traced_span_s = (t.len() - spans_before) as f64 * span_cost_s();
    let traced_wall: f64 = t
        .durations("kcover.pass")
        .iter()
        .chain(&t.durations("setcover.pass"))
        .sum();
    report.metric("stream.hash.ns_per_key", median(&ns_per_key), "ns");
    report.metric("stream.threshold.ingest_s", med("kcover.threshold"), "s");
    report.metric(
        "stream.threshold.stored_share",
        sketch.edges_stored() as f64 / arrivals,
        "ratio",
    );
    report.metric(
        "stream.threshold.bound_reject_share",
        c.rejected_by_bound as f64 / arrivals,
        "ratio",
    );
    report.metric(
        "stream.threshold.cap_reject_share",
        c.rejected_by_cap as f64 / arrivals,
        "ratio",
    );
    report.metric("stream.threshold.evictions", c.evictions as f64, "count");
    report.metric("stream.bank.ingest_s", med("setcover.bank"), "s");
    report.metric("stream.csr.export_ms", med("kcover.csr") * 1e3, "ms");
    report.metric("stream.bucket.solve_ms", med("kcover.bucket") * 1e3, "ms");
    report.metric(
        "stream.csr.setcover_export_ms",
        med("setcover.csr") * 1e3,
        "ms",
    );
    report.metric(
        "stream.bucket.setcover_solve_ms",
        med("setcover.bucket") * 1e3,
        "ms",
    );
    report.metric(
        "stream.trace.unattributed_share",
        (wall - layers) / wall,
        "ratio",
    );
    report.metric(
        "stream.trace.overhead_share",
        traced_span_s / traced_wall,
        "ratio",
    );
}
