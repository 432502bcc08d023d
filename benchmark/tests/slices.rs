//! The slice arithmetic behind the end-to-end metrics, against
//! hand-computed fixtures: `latency_p95_ms` must be an interpolated
//! percentile of each slice, not the slice's maximum.

use spq_benchmark::workloads::{quiet_quarter, slice_statistics, Sample, Window};

/// A window of `seconds` slices with `per_second` answers each. Every
/// slice holds the latencies `1..=per_second` ms; every fifth slice has
/// one 1,000 ms straggler instead of its slowest answer.
fn window(seconds: usize, per_second: usize) -> Window {
    let mut samples = Vec::new();
    for second in 0..seconds {
        for i in 0..per_second {
            let straggler = second % 5 == 0 && i + 1 == per_second;
            samples.push(Sample {
                query: 0,
                done_s: second as f64 + (i as f64 + 0.5) / per_second as f64,
                latency_ms: if straggler { 1000.0 } else { (i + 1) as f64 },
                engine_ms: 0.0,
                outcome: Ok(Vec::new()),
            });
        }
    }
    Window {
        samples,
        // 10 ms of CPU per answer.
        marks: (0..=seconds)
            .map(|s| (s as f64, (s * per_second * 10) as f64))
            .collect(),
        peak_rss_mb: 1.0,
    }
}

#[test]
fn p50_and_p95_are_taken_per_slice() {
    let window = window(10, 40);
    let slices = slice_statistics(&window, &vec![true; window.samples.len()]);

    assert_eq!(slices.p50_ms.len(), 10);
    assert_eq!(slices.samples, [40; 10]);
    // Interpolated median of 1..=40 (the straggler replaces the 40).
    assert!(slices.p50_ms.iter().all(|p50| *p50 == 20.5), "{slices:?}");
    assert!(slices.qps.iter().all(|qps| *qps == 40.0));
    assert!(slices.cpu_ms_per_query.iter().all(|cpu| *cpu == 10.0));

    // Rank (40 − 1) × 0.95 = 37.05 sits between the 38th and 39th
    // smallest, 38 and 39 ms, in every slice: the straggler is the 40th
    // and stays beyond the percentile.
    assert_eq!(slices.p95_ms.len(), 10);
    assert!(
        slices.p95_ms.iter().all(|p95| (*p95 - 38.05).abs() < 1e-9),
        "{slices:?}"
    );
}

#[test]
fn wrong_answers_and_trailing_partial_slices_are_left_out() {
    let mut window = window(6, 40);
    // Nothing past the last mark counts, and neither does a wrong answer.
    window.marks.pop();
    let mut correct = vec![true; window.samples.len()];
    correct[0] = false;
    let slices = slice_statistics(&window, &correct);
    assert_eq!(slices.p50_ms.len(), 5);
    assert_eq!(slices.p95_ms.len(), 5);
    assert_eq!(slices.samples, [39, 40, 40, 40, 40]);
}

#[test]
fn the_quiet_quarter_is_the_median_of_the_lowest_quarter() {
    // Twenty slices of 10, 11, … requests: the lowest five values are
    // 1..=5, their median is 3, and they sit in the last five slices.
    let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    let counts: Vec<usize> = (10..30).collect();
    assert_eq!(
        quiet_quarter(&twenty, &counts),
        (3.0, 25 + 26 + 27 + 28 + 29)
    );
    // Four: the lowest one, and the requests inside it.
    let four = [31.0, 19.0, 250.0, 22.0];
    assert_eq!(quiet_quarter(&four, &[150, 151, 152, 153]), (19.0, 151));
    // Fewer than four: still one slice, never none.
    assert_eq!(quiet_quarter(&[7.0, 5.0], &[1, 2]), (5.0, 2));
    assert_eq!(quiet_quarter(&[7.0], &[3]), (7.0, 3));
    // Eight: the lowest two, interpolated.
    let eight = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
    assert_eq!(quiet_quarter(&eight, &[1; 8]), (1.5, 2));
}
