//! Self-tests of the benchmark's measurement helpers.

use perfbench::{
    best_window_rate, max_rate_search, percentile, poisson_schedule, probe_passes, Tally,
};

#[test]
fn percentile_reports_rank_and_sample_count() {
    let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
    let p50 = percentile(&v, 0.5);
    assert_eq!((p50.value, p50.samples, p50.beyond), (100.0, 200, 100));
    let p90 = percentile(&v, 0.9);
    assert_eq!((p90.value, p90.beyond), (180.0, 20));
    assert!(p90.supported());
    // 200 samples leave only two beyond p99: not a reportable tail.
    let p99 = percentile(&v, 0.99);
    assert_eq!((p99.value, p99.beyond), (198.0, 2));
    assert!(!p99.supported());
    assert_eq!(percentile(&[7.0], 0.99).value, 7.0);
    assert_eq!(percentile(&v, 0.0).value, 1.0);
    assert_eq!(percentile(&v, 1.0).value, 200.0);
}

#[test]
fn failed_requests_sort_past_every_latency() {
    // 1000 requests of 1 ms: at most 1 % infinitely late keeps p99 finite.
    let mut lat = vec![1.0; 990];
    lat.extend([f64::INFINITY; 10]);
    assert_eq!(percentile(&lat, 0.99).value, 1.0);
    lat[0] = f64::INFINITY;
    assert!(percentile(&lat, 0.99).value.is_infinite());
}

#[test]
fn poisson_schedule_repeats_per_seed() {
    let a = poisson_schedule(42, 4000.0, 2.0);
    assert_eq!(a, poisson_schedule(42, 4000.0, 2.0));
    assert_ne!(a, poisson_schedule(43, 4000.0, 2.0));
    assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals increase");
    assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    // 8000 expected arrivals: the count is within 5 % (> 4 sigma).
    let n = a.len() as f64;
    assert!((n - 8000.0).abs() < 400.0, "{n} arrivals");
    // Exponential gaps: the coefficient of variation is about 1.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
}

/// p99 latency of a synthetic queue: `base / (1 − rate/capacity)`,
/// unbounded at or past capacity.
fn synthetic_p99(rate: f64) -> f64 {
    let (base, capacity) = (1.0, 25_000.0);
    if rate >= capacity {
        f64::INFINITY
    } else {
        base / (1.0 - rate / capacity)
    }
}

#[test]
fn max_rate_search_finds_the_limit_within_one_step() {
    let limit = 5.0;
    // Exact answer: 1/(1 − r/25000) = 5  ⇒  r = 20000.
    let truth = 20_000.0;
    let mut probes = 0;
    let (rate, lo_ok) = max_rate_search(4000.0, 400_000.0, 1.02, 8, |r| {
        probes += 1;
        synthetic_p99(r) <= limit
    });
    assert!(lo_ok);
    assert!(
        rate <= truth && truth < rate * 1.02,
        "found {rate}, want within 2 % below {truth}"
    );
    assert!(probes <= 14, "{probes} probes");
}

#[test]
fn max_rate_search_edges() {
    // The lowest rate already fails.
    assert_eq!(
        max_rate_search(4000.0, 8000.0, 1.02, 8, |_| false),
        (4000.0, false)
    );
    // Nothing fails: the top of the grid.
    let (rate, ok) = max_rate_search(1000.0, 2000.0, 1.1, 1, |_| true);
    assert!(ok);
    assert!(rate <= 2000.0 && rate * 1.1 > 2000.0, "{rate}");
}

#[test]
fn failed_frac_accounting() {
    let mut t = Tally::default();
    assert_eq!(t.failed_frac(), 0.0);
    for i in 0..200 {
        t.record(i % 50 != 0);
    }
    assert_eq!((t.attempted, t.failed), (200, 4));
    assert_eq!(t.failed_frac(), 0.02);
    assert_eq!(t.ok_frac(), 0.98);
    let mut all = Tally::default();
    all.merge(t);
    all.merge(Tally {
        attempted: 800,
        failed: 1,
    });
    assert_eq!((all.attempted, all.failed), (1000, 5));
    // A probe passes only with the tail inside the limit, at most 1 %
    // failed and nothing left unanswered.
    assert!(probe_passes(4.0, 5.0, &all, 0.01, 0));
    assert!(!probe_passes(6.0, 5.0, &all, 0.01, 0));
    assert!(!probe_passes(4.0, 5.0, &t, 0.01, 0));
    assert!(!probe_passes(4.0, 5.0, &all, 0.01, 1));
}

#[test]
fn best_window_rate_finds_the_quiet_stretch() {
    // 10 ms ops, with a stretch of 5 ms ops in the middle.
    let mut ops = vec![10.0; 40];
    ops[15..25].fill(5.0);
    assert_eq!(best_window_rate(&ops, 10), 200.0);
    assert_eq!(best_window_rate(&ops, 20), 20.0 * 1e3 / 150.0);
    assert_eq!(best_window_rate(&ops, 40), 40.0 * 1e3 / 350.0);
}
