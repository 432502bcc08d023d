//! Zipf-distributed term sampling.
//!
//! Real keyword dictionaries are heavily skewed: a handful of terms appear
//! in millions of objects while most of the dictionary is rare. The
//! Flickr-like and Twitter-like generators sample terms from a Zipf
//! distribution over a rank-ordered vocabulary so that (a) the map-side
//! keyword pruning rate and (b) the score distribution seen by the
//! early-termination algorithms resemble those of the paper's real data.
//! The synthetic UN/CL datasets of the paper use uniform term selection,
//! which is `Zipf` with exponent 0.
//!
//! Sampling is inverse-CDF over a precomputed table (O(log n) per draw),
//! which is simple, exact, and fast enough for dataset generation.

use rand::Rng;

/// A sampler for ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative (unnormalised) weights; `cdf[i]` = sum of weights 0..=i.
    cdf: Vec<f64>,
    /// `cdf`'s last entry: the sum of all weights.
    total: f64,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with the given exponent.
    ///
    /// `exponent = 0.0` is the uniform distribution; `~1.0` matches natural
    /// language term frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the exponent is negative/NaN.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        Self { cdf, total: acc }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the domain has a single rank.
    pub fn is_empty(&self) -> bool {
        false // constructor rejects n == 0
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x = rng.gen::<f64>() * self.total;
        // partition_point returns the first index whose cumulative weight
        // exceeds x, i.e. the sampled rank.
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }

    /// Draws `k` *distinct* ranks (rejection sampling; `k` must not exceed
    /// the domain size). Used to build keyword sets without duplicates.
    pub fn sample_distinct<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        assert!(
            k <= self.len(),
            "cannot draw {k} distinct from {}",
            self.len()
        );
        // For small k relative to n, rejection is near-optimal; fall back to
        // a partial shuffle when k is a large fraction of the domain.
        if k * 4 >= self.len() * 3 {
            let mut all: Vec<usize> = (0..self.len()).collect();
            for i in 0..k {
                let j = rng.gen_range(i..all.len());
                all.swap(i, j);
            }
            all.truncate(k);
            return all;
        }
        let mut out = Vec::with_capacity(k);
        let mut seen = std::collections::HashSet::with_capacity(k * 2);
        while out.len() < k {
            let r = self.sample(rng);
            if seen.insert(r) {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_exponent_zero_covers_domain() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Every rank hit, roughly uniformly (10% each ± 3%).
        for &c in &counts {
            assert!((700..=1300).contains(&c), "count {c} not near uniform");
        }
    }

    #[test]
    fn skewed_exponent_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under Zipf(1.0, n=1000) the top-10 ranks carry ~39% of the mass.
        assert!(head > N / 3, "head mass {head} too small for zipf(1)");
    }

    #[test]
    fn single_rank_domain() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let z = Zipf::new(50, 0.8);
        let mut rng = StdRng::seed_from_u64(4);
        for k in [0, 1, 5, 25, 50] {
            let v = z.sample_distinct(&mut rng, k);
            assert_eq!(v.len(), k);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), k);
            assert!(v.iter().all(|&r| r < 50));
        }
    }

    #[test]
    #[should_panic]
    fn sample_distinct_rejects_oversized_k() {
        let z = Zipf::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = z.sample_distinct(&mut rng, 4);
    }

    #[test]
    #[should_panic]
    fn zero_domain_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(100, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
