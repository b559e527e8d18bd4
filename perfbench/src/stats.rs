//! Order statistics over latency samples, and the seeded generator every
//! input is drawn from.

/// Fewest samples a run may report percentiles from: p95 needs ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 200;

/// The value at quantile `q` of an ascending slice (nearest rank on the
/// `len - 1` scale, the same pick `servebench` uses).
pub fn pick(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sorts samples ascending; latencies are never NaN.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    samples
}

/// Median and 95th percentile of a run's operation latencies. Refuses
/// fewer than [`MIN_SAMPLES`], where p95 would rest on under ten samples.
pub fn p50_p95(samples: &[f64]) -> Result<(f64, f64), String> {
    if samples.len() < MIN_SAMPLES {
        return Err(format!(
            "{} samples, need at least {MIN_SAMPLES} for a p95 with ten samples beyond it",
            samples.len()
        ));
    }
    let s = sorted(samples.to_vec());
    Ok((pick(&s, 0.50), pick(&s, 0.95)))
}

/// Median of a few repetitions of one probe.
pub fn median(samples: &[f64]) -> f64 {
    pick(&sorted(samples.to_vec()), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the exclusive method), so `--spread` agrees with the driver.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    out
}

/// SplitMix64's finalizer: a well-mixed word of `z`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the one source of randomness of the harness. Everything
/// a run feeds the program is a function of `--seed` through this.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so that drawing
    /// more of one input never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_nearest_rank() {
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(pick(&s, 0.5), 50.0);
        assert_eq!(pick(&s, 0.95), 95.0);
        assert_eq!(pick(&[7.0], 0.95), 7.0);
        // Seven equally weighted clusters: the median is the 4th.
        let clusters: Vec<f64> = (0..7).flat_map(|c| vec![c as f64; 30]).collect();
        assert_eq!(pick(&clusters, 0.5), 3.0);
        assert_eq!(pick(&clusters, 0.95), 6.0);
    }

    #[test]
    fn percentiles_refuse_small_samples() {
        let few: Vec<f64> = (0..MIN_SAMPLES - 1).map(|i| i as f64).collect();
        assert!(p50_p95(&few).is_err());
        let enough: Vec<f64> = (0..MIN_SAMPLES).rev().map(|i| i as f64).collect();
        assert_eq!(p50_p95(&enough).unwrap(), (100.0, 189.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut v: Vec<u32> = (0..7).collect();
        r.shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..7).collect::<Vec<_>>());
    }
}
