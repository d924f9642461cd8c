//! The benchmark's own seeded generator (SplitMix64): every input a run
//! feeds the chain — site seed, popularity permutation, request order,
//! arrival gaps, netem seed — derives from `--seed` through this, so the
//! streams do not move when a vendored crate's generator does.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`"arrivals"`, `"walk"`, …),
    /// so adding a draw to one input never shifts another.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x6a09_e667_f3bc_c908;
        for &b in purpose.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            Rng::fork(7, "walk").next_u64(),
            Rng::fork(7, "arrivals").next_u64()
        );
        assert_ne!(
            Rng::fork(7, "walk").next_u64(),
            Rng::fork(8, "walk").next_u64()
        );
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(7) < 7));
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
