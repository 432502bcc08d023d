//! The open-loop arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Arrival offsets of a Poisson process of `rate_per_s` over
/// `duration_s` seconds, **conditioned on its count**: exactly
/// `round(rate · duration)` arrivals, placed as sorted independent
/// uniforms — which is the distribution of a Poisson process's arrival
/// times once its count is known. Fixing the count keeps the offered
/// load identical for every seed, so run-to-run spread measures the
/// system and not the size of the sample.
///
/// A pure function of its arguments: the same seed gives the same
/// schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<Duration> {
    let count = (rate_per_s * duration_s).round().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * duration_s).collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}
