//! The open-loop schedule is a pure function of the seed.

use spq_benchmark::schedule::poisson_schedule;
use std::time::Duration;

#[test]
fn same_seed_same_schedule() {
    assert_eq!(
        poisson_schedule(9, 60.0, 15.0),
        poisson_schedule(9, 60.0, 15.0)
    );
    assert_ne!(
        poisson_schedule(9, 60.0, 15.0),
        poisson_schedule(10, 60.0, 15.0)
    );
}

#[test]
fn count_is_fixed_and_offsets_are_sorted_inside_the_window() {
    let s = poisson_schedule(2017, 60.0, 15.0);
    assert_eq!(s.len(), 900);
    assert!(s.windows(2).all(|w| w[0] <= w[1]));
    assert!(s.iter().all(|d| *d < Duration::from_secs(15)));
    assert_eq!(poisson_schedule(1, 0.1, 1.0).len(), 1); // never empty
}

#[test]
fn gaps_look_exponential() {
    // For a Poisson process the gap's standard deviation equals its
    // mean; a metronome would have none.
    let s = poisson_schedule(5, 100.0, 100.0);
    let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    let cv = var.sqrt() / mean;
    assert!((0.9..1.1).contains(&cv), "coefficient of variation {cv}");
    assert!((0.0095..0.0105).contains(&mean), "mean gap {mean}");
}
