//! Deterministic randomness.
//!
//! Every stochastic element of the model (packet loss, workload page
//! writes, user think times, scheduler responses) draws from a [`DetRng`]
//! seeded once per scenario, so experiments are exactly reproducible and
//! differences between runs are attributable to parameters, not noise
//! sources.
//!
//! The generator is a self-contained xoshiro256++ core seeded through
//! SplitMix64, so the simulation has no dependency on platform entropy or
//! external crates and streams are bit-identical across machines.

/// A seeded random-number generator with the distributions the model needs.
///
/// # Examples
///
/// ```
/// use vsim::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.range_u64(0, 100), b.range_u64(0, 100));
/// ```
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used only to expand the seed into the xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// The next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; used to give each subsystem
    /// its own stream so adding draws in one subsystem does not perturb
    /// another.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed(self.next_u64())
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.bounded(hi - lo)
    }

    /// Lemire-style unbiased bounded draw in `[0, n)`; `n` must be > 0.
    fn bounded(&mut self, n: u64) -> u64 {
        // Rejection sampling on the top of the range keeps the draw
        // uniform without 128-bit multiplies on every call.
        let zone = n.wrapping_neg() % n; // count of biased low values
        loop {
            let x = self.next_u64();
            if x >= zone {
                return x % n;
            }
        }
    }

    /// A uniform integer in `[0, n)`, for indexing.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    // `bounded(n)` is below `n`, which came from a usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index into empty collection");
        self.bounded(n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// An exponentially distributed float with mean `mean`.
    ///
    /// Used for memoryless inter-arrival times (user actions, request
    /// arrivals).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // u is strictly positive so ln(u) is finite.
        let u = ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        -mean * u.ln()
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.unit()
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    // `bounded(i + 1)` is at most `i`, a slice index.
    #[allow(clippy::cast_possible_truncation)]
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl std::fmt::Debug for DetRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DetRng")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let va: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = DetRng::seed(3);
        let mut child = parent.fork();
        // Draw from the child; the parent's subsequent stream must be
        // unaffected by how much the child draws.
        let mut parent2 = DetRng::seed(3);
        let _child2 = parent2.fork();
        for _ in 0..50 {
            child.unit();
        }
        assert_eq!(parent.range_u64(0, 1 << 40), parent2.range_u64(0, 1 << 40));
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency_is_about_p() {
        let mut r = DetRng::seed(11);
        let hits = (0..20_000).filter(|_| r.chance(0.25)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn exp_mean_is_about_mean() {
        let mut r = DetRng::seed(13);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exp_f64(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = DetRng::seed(23);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "unit out of range: {u}");
        }
    }

    #[test]
    fn range_u64_covers_bounds() {
        let mut r = DetRng::seed(29);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[usize::try_from(r.range_u64(0, 4)).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "small range not covered: {seen:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn index_and_pick_stay_in_bounds() {
        let mut r = DetRng::seed(19);
        let v = [10, 20, 30];
        for _ in 0..100 {
            assert!(r.index(3) < 3);
            assert!(v.contains(r.pick(&v)));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn index_zero_panics() {
        DetRng::seed(0).index(0);
    }
}
