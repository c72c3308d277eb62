//! Seeded randomness for op-list generation. A local SplitMix64 keeps the
//! generated inputs byte-for-byte identical for a seed, whatever the
//! version of any random-number crate.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf(s = 1) over `n` keys. Rank r is drawn with probability
/// proportional to 1/r, and ranks map to keys through a permutation drawn
/// from the generator passed to [`Zipf::new`].
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut keys);
        Zipf { cdf, keys }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_repeats_and_stays_in_range() {
        let mut rng = Rng::new(7);
        let zipf = Zipf::new(1000, &mut rng);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        assert!(max > 1000, "the head key repeats often: {max}");
        assert!(distinct > 256, "the tail is wide: {distinct} distinct keys");
    }
}
