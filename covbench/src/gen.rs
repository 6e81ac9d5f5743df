//! Seeded input generation.
//!
//! Inputs are raw edge lists built here, not through the program's own
//! generators or shufflers, so the program receives only generated data,
//! a change to the program can never change the inputs, and set-up time
//! measures the program rather than an instance builder.

use coverage_suite::core::{Edge, SetId};
use coverage_suite::stream::VecStream;

/// SplitMix64: a small, well-mixed generator for reproducible inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; `bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// In `0..bound` with Zipf(1)-like popularity: `x = (bound + 1)^u` for
    /// uniform `u` is log-uniform on `[1, bound + 1)`, so value `r` comes
    /// up with probability `ln((r + 2) / (r + 1)) / ln(bound + 1)`, about
    /// `1 / ((r + 1.5) ln bound)`.
    pub fn zipf(&mut self, bound: u64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let x = ((bound as f64 + 1.0).ln() * u).exp();
        (x as u64).saturating_sub(1).min(bound - 1)
    }
}

/// How decoy sets draw their elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Draw {
    /// Uniformly: every element has about the same small degree, so the
    /// sketch's per-element degree cap never binds.
    Uniform,
    /// With Zipf(1) popularity ([`Rng::zipf`]): the most popular elements
    /// sit in most decoys, so the degree cap binds on them and every
    /// admitted popular element carries a set list as long as the cap.
    Skewed,
}

/// Shape of a planted instance with known optima.
///
/// `golden` sets (ids `0..golden`) partition the element universe
/// `0..elements`: element `e` belongs to golden set `e % golden`, so
/// element `b < golden` is private to golden set `b`. Each of the
/// `decoys` sets (ids `golden..`) holds `decoy_size` distinct elements
/// drawn by `draw` from the non-private elements. Hence the golden sets cover
/// everything (k-cover OPT at `k = golden` is `elements`), and every
/// set cover needs all of them for their private elements (set-cover
/// OPT is `golden`).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub golden: usize,
    pub decoys: usize,
    pub elements: u64,
    pub decoy_size: usize,
    pub draw: Draw,
}

impl Shape {
    /// This shape with its decoys drawn by `draw`.
    pub fn with_draw(self, draw: Draw) -> Shape {
        Shape { draw, ..self }
    }

    pub fn num_sets(&self) -> usize {
        self.golden + self.decoys
    }

    pub fn num_edges(&self) -> usize {
        self.elements as usize + self.decoys * self.decoy_size
    }

    /// The instance's edges in uniform random arrival order.
    pub fn generate(&self, seed: u64) -> Planted {
        self.generate_into(seed, Vec::new())
    }

    /// [`generate`](Self::generate) into a recycled buffer, so repeated
    /// set-ups time the generation rather than fresh page faults.
    pub fn generate_into(&self, seed: u64, mut edges: Vec<Edge>) -> Planted {
        let golden = self.golden as u64;
        let others = self.elements.saturating_sub(golden);
        assert!(self.golden >= 1 && self.decoy_size as u64 <= others);
        let mut rng = Rng::new(seed);
        edges.clear();
        edges.reserve(self.num_edges());
        edges.extend((0..self.elements).map(|e| Edge::new((e % golden) as u32, e)));
        // `drawn_by[r] == d + 1` once decoy `d` holds element `golden + r`.
        let mut drawn_by = vec![0u32; others as usize];
        for d in 0..self.decoys {
            let set = (self.golden + d) as u32;
            let mark = d as u32 + 1;
            let mut held = 0;
            while held < self.decoy_size {
                let r = match self.draw {
                    Draw::Uniform => rng.below(others),
                    Draw::Skewed => rng.zipf(others),
                };
                if drawn_by[r as usize] != mark {
                    drawn_by[r as usize] = mark;
                    edges.push(Edge::new(set, golden + r));
                    held += 1;
                }
            }
        }
        for i in (1..edges.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            edges.swap(i, j);
        }
        Planted {
            shape: *self,
            stream: VecStream::new(self.num_sets(), edges),
        }
    }
}

/// A generated planted instance, ready to stream.
pub struct Planted {
    pub shape: Shape,
    pub stream: VecStream,
}

impl Planted {
    pub fn edges(&self) -> &[Edge] {
        self.stream.edges()
    }

    /// k-cover optimum at `k = golden`.
    pub fn kcover_opt(&self) -> u64 {
        self.shape.elements
    }

    /// Set-cover optimum.
    pub fn setcover_opt(&self) -> usize {
        self.shape.golden
    }

    /// Whether `family` meets Algorithm 3's guarantee, covering at least
    /// `(1 - 1/e - eps) * OPT` elements at `k = golden`.
    pub fn meets_kcover_bound(&self, family: &[SetId], eps: f64) -> bool {
        let bound = (1.0 - (-1f64).exp() - eps) * self.kcover_opt() as f64;
        family.len() <= self.shape.golden && self.coverage(family) as f64 >= bound
    }

    /// Elements of the full instance covered by `family`.
    pub fn coverage(&self, family: &[SetId]) -> u64 {
        let mut chosen = vec![false; self.shape.num_sets()];
        for s in family {
            if let Some(c) = chosen.get_mut(s.0 as usize) {
                *c = true;
            }
        }
        let mut covered = vec![0u64; (self.shape.elements as usize).div_ceil(64)];
        let mut count = 0;
        for e in self.edges() {
            if chosen[e.set.0 as usize] {
                let i = e.element.0 as usize;
                let bit = 1u64 << (i % 64);
                if covered[i / 64] & bit == 0 {
                    covered[i / 64] |= bit;
                    count += 1;
                }
            }
        }
        count
    }

    /// Order-sensitive digest of the edge list, to check that repeated
    /// set-ups produce identical inputs.
    pub fn fingerprint(&self) -> u64 {
        self.edges().iter().fold(0xCBF2_9CE4_8422_2325, |acc, e| {
            let x = acc ^ (u64::from(e.set.0) << 40) ^ e.element.0;
            x.wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        golden: 3,
        decoys: 5,
        elements: 24,
        decoy_size: 6,
        draw: Draw::Uniform,
    };
    const SMALL_SKEWED: Shape = Shape {
        draw: Draw::Skewed,
        ..SMALL
    };

    /// Exhaustive best coverage over all families of size `k`.
    fn best_k_cover(p: &Planted, k: usize) -> u64 {
        let n = p.shape.num_sets();
        (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize == k)
            .map(|mask| {
                let fam: Vec<SetId> = (0..n as u32)
                    .filter(|s| mask & (1 << s) != 0)
                    .map(SetId)
                    .collect();
                p.coverage(&fam)
            })
            .max()
            .unwrap()
    }

    /// Exhaustive smallest family covering every element.
    fn min_set_cover(p: &Planted) -> usize {
        let n = p.shape.num_sets();
        (0u32..1 << n)
            .filter(|&mask| {
                let fam: Vec<SetId> = (0..n as u32)
                    .filter(|s| mask & (1 << s) != 0)
                    .map(SetId)
                    .collect();
                p.coverage(&fam) == p.shape.elements
            })
            .map(|mask| mask.count_ones() as usize)
            .min()
            .unwrap()
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let a = SMALL.generate(7);
        let b = SMALL.generate(7);
        let c = SMALL.generate(8);
        let recycled = SMALL.generate_into(7, c.edges().to_vec());
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.edges(), recycled.edges());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.edges().len(), SMALL.num_edges());
    }

    #[test]
    fn skewed_draws_are_deterministic_too() {
        let a = SMALL_SKEWED.generate(7);
        assert_eq!(a.edges(), SMALL_SKEWED.generate(7).edges());
        assert_ne!(a.fingerprint(), SMALL_SKEWED.generate(8).fingerprint());
        assert_ne!(a.fingerprint(), SMALL.generate(7).fingerprint());
        assert_eq!(a.edges().len(), SMALL_SKEWED.num_edges());
    }

    #[test]
    fn planted_optima_match_exhaustive_search() {
        for shape in [SMALL, SMALL_SKEWED] {
            for seed in 0..4 {
                let p = shape.generate(seed);
                assert_eq!(best_k_cover(&p, shape.golden), p.kcover_opt());
                assert_eq!(min_set_cover(&p), p.setcover_opt());
            }
        }
    }

    #[test]
    fn decoys_hold_distinct_elements() {
        for shape in [SMALL, SMALL_SKEWED] {
            let p = shape.generate(11);
            let mut edges: Vec<(u32, u64)> =
                p.edges().iter().map(|e| (e.set.0, e.element.0)).collect();
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(edges.len(), shape.num_edges(), "{:?}", shape.draw);
        }
    }

    #[test]
    fn skewed_degrees_are_heavy_tailed_and_uniform_ones_are_not() {
        let shape = |draw| Shape {
            golden: 4,
            decoys: 300,
            elements: 20_000,
            decoy_size: 400,
            draw,
        };
        // Highest element degree over the mean degree (7 in both).
        let peak = |draw| {
            let p = shape(draw).generate(3);
            let mut degree = vec![0u32; 20_000];
            for e in p.edges() {
                degree[e.element.0 as usize] += 1;
            }
            let max = *degree.iter().max().unwrap() as f64;
            max * 20_000.0 / p.edges().len() as f64
        };
        let (uniform, skewed) = (peak(Draw::Uniform), peak(Draw::Skewed));
        assert!(uniform < 4.0, "uniform peak {uniform}");
        assert!(skewed > 20.0, "skewed peak {skewed}");
    }

    #[test]
    fn zipf_favours_small_values_and_reaches_the_largest() {
        let mut rng = Rng::new(5);
        let mut counts = [0u32; 8];
        for _ in 0..90_000 {
            counts[rng.zipf(8) as usize] += 1;
        }
        // P(r) = ln((r + 2) / (r + 1)) / ln 9: 0.315 for 0, 0.061 for 7.
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!((counts[0] as f64 / 90_000.0 - 0.315).abs() < 0.01);
        assert!((counts[7] as f64 / 90_000.0 - 0.061).abs() < 0.01);
    }

    #[test]
    fn kcover_bound_accepts_the_golden_sets_only_when_close_enough() {
        let p = SMALL.generate(5);
        let golden: Vec<SetId> = (0..SMALL.golden as u32).map(SetId).collect();
        assert!(p.meets_kcover_bound(&golden, 0.3));
        // One golden set covers a third of the elements: below 1-1/e-0.1.
        assert!(!p.meets_kcover_bound(&golden[..1], 0.1));
        // More than `golden` sets is never a valid answer.
        let too_many: Vec<SetId> = (0..SMALL.golden as u32 + 1).map(SetId).collect();
        assert!(!p.meets_kcover_bound(&too_many, 0.3));
    }

    #[test]
    fn private_elements_stay_private() {
        for shape in [SMALL, SMALL_SKEWED] {
            for e in shape.generate(3).edges() {
                if e.element.0 < shape.golden as u64 {
                    assert_eq!(u64::from(e.set.0), e.element.0);
                }
            }
        }
    }
}
