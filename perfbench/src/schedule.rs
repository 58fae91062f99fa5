//! Seeded inputs: a small deterministic RNG and open-loop arrival
//! schedules. The same seed always yields the same schedule, so two runs
//! (or two commits) offer the program identical load, and every seed
//! offers the same number of requests.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// One scheduled request: when it is due, which stream (tenant) sends it,
/// and which pooled input it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the run starts.
    pub due_s: f64,
    /// Index of the sending stream.
    pub stream: usize,
    /// Index into the input pool.
    pub input: usize,
}

/// Merged arrivals of several streams, each at `rate_per_s`, over
/// `duration_s`, sorted by due time. Every stream sends exactly
/// `round(rate * duration)` requests — the count a seed cannot change —
/// with exponential (Poisson-like) gaps rescaled to span the duration.
/// Inputs are drawn uniformly from a pool of `pool` items.
pub fn open_loop(seed: u64, rates: &[f64], duration_s: f64, pool: usize) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (stream, &rate) in rates.iter().enumerate() {
        let mut rng = Rng::new(
            seed.wrapping_mul(0x100_0000_01B3)
                .wrapping_add(stream as u64),
        );
        let n = (rate * duration_s).round() as usize;
        // n + 1 gaps: the last one closes the window, so arrivals end
        // strictly before `duration_s`. 1 - unit() is in (0, 1].
        let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
        let scale = duration_s / gaps.iter().sum::<f64>();
        let mut t = 0.0;
        for gap in &gaps[..n] {
            t += gap * scale;
            out.push(Arrival {
                due_s: t,
                stream,
                input: rng.below(pool),
            });
        }
    }
    out.sort_by(|a, b| a.due_s.total_cmp(&b.due_s).then(a.stream.cmp(&b.stream)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = open_loop(7, &[300.0], 2.0, 64);
        let b = open_loop(7, &[300.0], 2.0, 64);
        assert_eq!(a, b);
        let c = open_loop(8, &[300.0], 2.0, 64);
        assert_ne!(a, c);
    }

    #[test]
    fn merged_streams_are_sorted_and_keep_their_own_draws() {
        let merged = open_loop(3, &[100.0, 700.0, 400.0], 1.0, 16);
        assert!(merged.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // Adding a stream does not perturb the others' arrivals.
        let solo: Vec<Arrival> = open_loop(3, &[100.0], 1.0, 16);
        let from_merged: Vec<Arrival> = merged.iter().copied().filter(|a| a.stream == 0).collect();
        assert_eq!(solo, from_merged);
    }

    #[test]
    fn every_seed_sends_the_same_count_within_the_window() {
        for seed in 0..20 {
            let s = open_loop(seed, &[500.0, 130.0], 2.0, 8);
            assert_eq!(s.iter().filter(|a| a.stream == 0).count(), 1000);
            assert_eq!(s.iter().filter(|a| a.stream == 1).count(), 260);
            assert!(s
                .iter()
                .all(|a| a.input < 8 && a.due_s > 0.0 && a.due_s < 2.0));
        }
    }

    #[test]
    fn gaps_are_bursty_not_uniform() {
        // Exponential gaps: the largest gap is several times the mean.
        let s = open_loop(5, &[100.0], 10.0, 4);
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1].due_s - w[0].due_s).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        assert!(max > 4.0 * mean, "max gap {max} vs mean {mean}");
    }
}
