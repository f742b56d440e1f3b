//! The benchmark's own seeded generator. Every generated input (payloads,
//! key streams, victim schedules, simulator seeds) comes from a [`SplitMix64`]
//! derived from `--seed`; the runtime under test only ever sees the inputs.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator for one named stream of one run: the same `(seed,
    /// stream)` pair always yields the same sequence, and streams of one
    /// seed do not overlap in practice.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64 {
            state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_f64() * bound as f64) as usize % bound
    }

    /// A Zipf-shaped rank in `[0, key_space)` with exponent ≈ 1, by
    /// inverse-CDF sampling of the log-uniform approximation: dense on the
    /// head, long on the tail.
    pub fn zipf(&mut self, key_space: usize) -> usize {
        let rank = ((key_space as f64 + 1.0).powf(self.next_f64()) - 1.0) as usize;
        rank.min(key_space - 1)
    }

    /// `len` lower-case ASCII letters.
    pub fn letters(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_repeat_exactly() {
        let draw = |seed, stream| {
            let mut rng = SplitMix64::new(seed, stream);
            (0..1000).map(|_| rng.zipf(200_000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn zipf_is_in_range_and_head_heavy() {
        let mut rng = SplitMix64::new(42, 0);
        let key_space = 10_000;
        let mut head = 0;
        for _ in 0..4000 {
            let rank = rng.zipf(key_space);
            assert!(rank < key_space);
            if rank < key_space / 100 {
                head += 1;
            }
        }
        // Zipf(1): the top 1 % of ranks draws about half the mass.
        assert!((1600..2400).contains(&head), "top-1% drew {head}/4000");
    }

    #[test]
    fn uniform_helpers_stay_in_range() {
        let mut rng = SplitMix64::new(1, 0);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(rng.below(7) < 7);
        }
        let word = rng.letters(20);
        assert_eq!(word.len(), 20);
        assert!(word.bytes().all(|b| b.is_ascii_lowercase()));
    }
}
