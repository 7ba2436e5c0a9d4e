//! Percentiles, medians and the windowing of the timed phase.

use std::time::Duration;

/// One successful request: when its reply completed (since the timed phase
/// began) and how long it took, send to last reply byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done: Duration,
    pub latency: Duration,
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!((0.0..=1.0).contains(&p));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Replies a window needs before it may close: p99 then has at least ten
/// samples beyond it.
pub const WINDOW_MIN_SAMPLES: usize = 1000;

#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub seconds: f64,
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub qps: f64,
}

/// Cuts the timed phase into consecutive windows. A window closes once
/// `floor` has passed since it opened **and** it holds
/// [`WINDOW_MIN_SAMPLES`] replies; what is left when the phase ends joins
/// the last window (or is the only window, however small). `samples` must
/// be ordered by `done`; `phase` is the length of the whole timed phase.
pub fn windows(samples: &[Sample], phase: Duration, floor: Duration) -> Vec<Window> {
    let mut cuts = Vec::new(); // (first sample index, start time)
    let (mut first, mut start) = (0, Duration::ZERO);
    for (i, s) in samples.iter().enumerate() {
        if s.done - start >= floor && i + 1 - first >= WINDOW_MIN_SAMPLES {
            cuts.push((first, i + 1, start, s.done));
            (first, start) = (i + 1, s.done);
        }
    }
    match cuts.last_mut() {
        Some(last) => (last.1, last.3) = (samples.len(), phase),
        None => cuts.push((0, samples.len(), Duration::ZERO, phase)),
    }
    cuts.into_iter()
        .map(|(lo, hi, from, to)| {
            let mut ms: Vec<f64> = samples[lo..hi]
                .iter()
                .map(|s| s.latency.as_secs_f64() * 1e3)
                .collect();
            ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let seconds = (to - from).as_secs_f64();
            Window {
                seconds,
                samples: ms.len(),
                p50_ms: if ms.is_empty() {
                    0.0
                } else {
                    percentile(&ms, 0.5)
                },
                p99_ms: if ms.is_empty() {
                    0.0
                } else {
                    percentile(&ms, 0.99)
                },
                qps: ms.len() as f64 / seconds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 1000 samples: p99 is the 990th, ten lie beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    /// `n` samples spread evenly over `[from, to)` seconds, all `ms` long.
    fn burst(from: f64, to: f64, n: usize, ms: f64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                done: Duration::from_secs_f64(from + (to - from) * (i + 1) as f64 / n as f64),
                latency: Duration::from_secs_f64(ms / 1e3),
            })
            .collect()
    }

    #[test]
    fn fast_traffic_closes_a_window_per_floor() {
        // 3000 replies/s for 9 s, floor 3 s: three windows of 9000.
        let samples = burst(0.0, 9.0, 27_000, 2.0);
        let w = windows(&samples, Duration::from_secs(9), Duration::from_secs(3));
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.samples == 9000), "{w:?}");
        assert!(w.iter().all(|w| (w.qps - 3000.0).abs() < 1.0), "{w:?}");
        assert!(w.iter().all(|w| w.p50_ms == 2.0 && w.p99_ms == 2.0));
    }

    #[test]
    fn slow_traffic_waits_for_a_thousand_replies() {
        // 110 replies/s for 10 s: the floor passes at 3 s but the window
        // only closes at 1000 replies; the remaining 100 join it.
        let samples = burst(0.0, 10.0, 1100, 18.0);
        let w = windows(&samples, Duration::from_secs(10), Duration::from_secs(3));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].samples, 1100);
        assert!((w[0].seconds - 10.0).abs() < 1e-9);
        assert!((w[0].qps - 110.0).abs() < 1e-6);
    }

    #[test]
    fn a_slow_window_does_not_move_the_median_over_windows() {
        // Middle window is 10x slower; the median over windows ignores it.
        let mut samples = burst(0.0, 2.0, 2000, 1.0);
        samples.extend(burst(2.0, 4.0, 1000, 10.0));
        samples.extend(burst(4.0, 6.0, 2000, 1.0));
        let w = windows(&samples, Duration::from_secs(6), Duration::from_secs(2));
        assert_eq!(w.len(), 3, "{w:?}");
        let p99: Vec<f64> = w.iter().map(|w| w.p99_ms).collect();
        assert_eq!(p99, vec![1.0, 10.0, 1.0]);
        assert_eq!(median(&p99), 1.0);
        let qps: Vec<f64> = w.iter().map(|w| w.qps).collect();
        assert_eq!(median(&qps), 1000.0);
    }

    #[test]
    fn too_few_samples_still_make_one_window() {
        let samples = burst(0.0, 1.0, 5, 3.0);
        let w = windows(&samples, Duration::from_secs(2), Duration::from_secs(1));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].samples, 5);
        assert_eq!(w[0].qps, 2.5);
        let none = windows(&[], Duration::from_secs(2), Duration::from_secs(1));
        assert_eq!(none[0].samples, 0);
    }
}
