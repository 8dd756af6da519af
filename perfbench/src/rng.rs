//! Seeded randomness for workload inputs.
//!
//! SplitMix64 is small, fast and bit-identical on every platform, so a
//! seed names exactly one input stream no matter which build runs it.

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// An independent generator for sub-stream `stream` of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed);
        let mix = base.next_u64() ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
        Rng::new(mix)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so logarithms stay finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let r = (-2.0 * self.unit().ln()).sqrt();
        r * (std::f64::consts::TAU * self.unit()).cos()
    }

    /// Exponential with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Share of values drawn from the Pareto tail.
const TAIL_SHARE: f64 = 0.03;
/// Lognormal body: median `exp(BODY_MU)` ≈ 1.2 ms in microseconds.
const BODY_MU: f64 = 7.1;
const BODY_SIGMA: f64 = 0.45;
/// Pareto tail: scale (µs) and shape; shape < 2 gives infinite variance.
const TAIL_SCALE: f64 = 4_000.0;
const TAIL_ALPHA: f64 = 1.4;

/// One latency-like value in microseconds: a lognormal body with a Pareto
/// tail, the shape REQ's high-rank accuracy is built for.
pub fn latency_value(rng: &mut Rng) -> f64 {
    if rng.unit() < TAIL_SHARE {
        TAIL_SCALE * rng.unit().powf(-1.0 / TAIL_ALPHA)
    } else {
        (BODY_MU + BODY_SIGMA * rng.normal()).exp()
    }
}

/// `n` latency-like values from sub-stream `stream` of `seed`. Draws are
/// independent, so the stream arrives in shuffled order.
pub fn latency_values(seed: u64, stream: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::stream(seed, stream);
    (0..n).map(|_| latency_value(&mut rng)).collect()
}

/// Zipf(`s`) sampler over `0..n` (index 0 is the most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        assert_eq!(latency_values(7, 1, 100), latency_values(7, 1, 100));
        assert_ne!(latency_values(7, 1, 100), latency_values(7, 2, 100));
        assert_ne!(latency_values(7, 1, 100), latency_values(8, 1, 100));
    }

    #[test]
    fn values_are_positive_and_heavy_tailed() {
        let mut v = latency_values(1, 0, 200_000);
        assert!(v.iter().all(|x| x.is_finite() && *x > 0.0));
        v.sort_by(f64::total_cmp);
        let p50 = v[v.len() / 2];
        let p999 = v[v.len() * 999 / 1000];
        assert!(p999 > 10.0 * p50, "p50 {p50} p999 {p999}");
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let z = Zipf::new(64, 1.1);
        let mut rng = Rng::new(3);
        let mut counts = [0u32; 64];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[63]);
    }
}
