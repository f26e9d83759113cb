//! Measurement helpers of the gcnn benchmark: seeded randomness,
//! percentiles with their sample counts, open-loop arrival schedules,
//! the maximum-rate search and failure accounting.
//!
//! Everything here is pure and clock-free so that `tests/selftest.rs`
//! can check it on synthetic inputs; the `perfbench` binary owns the
//! clocks, the threads and the calls into the measured crates.

#![forbid(unsafe_code)]

/// SplitMix64: a small seeded generator for the benchmark's own
/// choices (labels, arrival gaps, request images).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_open01() * n as f64) as usize % n.max(1)
    }
}

/// One percentile of a sample, with the counts that say how far it can
/// be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten samples lie beyond the rank, the rule for
    /// reporting a tail percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `q ∈ [0, 1]` of an unsorted sample.
/// Infinite values sort last, so failed operations recorded as
/// `f64::INFINITY` count as missing every latency limit.
///
/// # Panics
/// If `samples` is empty, contains a NaN, or `q` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    assert!((0.0..=1.0).contains(&q), "percentile: q out of range");
    assert!(!samples.is_empty(), "percentile: empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN sample"));
    let n = sorted.len();
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Median of an unsorted sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Highest rate, in ops per second, sustained over any `window`
/// consecutive ops of a closed loop whose op times are `op_ms`: the
/// run's least-disturbed stretch. On a host shared with other tenants
/// the slow stretches come from them; the fastest one estimates the
/// program's own speed.
///
/// # Panics
/// If `window` is 0 or longer than the sample.
pub fn best_window_rate(op_ms: &[f64], window: usize) -> f64 {
    assert!(
        window > 0 && window <= op_ms.len(),
        "best_window_rate: bad window"
    );
    let mut sum: f64 = op_ms[..window].iter().sum();
    let mut best = sum;
    for i in window..op_ms.len() {
        sum += op_ms[i] - op_ms[i - window];
        best = best.min(sum);
    }
    window as f64 * 1e3 / best
}

/// Poisson arrival times, in seconds from the start of a phase, for
/// `rate` requests per second over `duration_s` seconds. The same seed
/// gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<f64> {
    assert!(rate > 0.0 && duration_s > 0.0, "poisson_schedule: bad args");
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration_s * 1.1) as usize + 16);
    loop {
        t += -rng.next_open01().ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// Highest rate on the geometric grid `lo · step^j` (`j ≥ 0`, rate
/// `≤ hi`) for which `passes` holds, assuming a pass is monotone in
/// the rate: gallop upward (exponent steps of `first_span`, doubling
/// after each pass), then bisect between the last pass and the first
/// failure. `lo` itself is probed, and `lo` is returned even when it
/// fails, with the verdict. Returns `(rate, lo_passed)`.
///
/// The grid ratio `step` is the search's resolution; keep it finer
/// than the bound the result is compared with.
pub fn max_rate_search(
    lo: f64,
    hi: f64,
    step: f64,
    first_span: u32,
    mut passes: impl FnMut(f64) -> bool,
) -> (f64, bool) {
    assert!(
        lo > 0.0 && hi >= lo && step > 1.0 && first_span > 0,
        "max_rate_search: bad grid"
    );
    let rate = |j: u32| lo * step.powi(j as i32);
    let top = ((hi / lo).ln() / step.ln()).floor() as u32;
    if !passes(lo) {
        return (lo, false);
    }
    // Gallop: find a failing exponent (or run off the top of the grid).
    let mut good = 0u32;
    let mut span = first_span;
    let bad = loop {
        let j = (good + span).min(top);
        if j == good {
            return (rate(good), true);
        }
        if passes(rate(j)) {
            good = j;
            span = span.saturating_mul(2);
        } else {
            break j;
        }
    };
    // Bisect (good passes, bad fails).
    let mut bad = bad;
    while bad - good > 1 {
        let mid = good + (bad - good) / 2;
        if passes(rate(mid)) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    (rate(good), true)
}

/// Verdict of one probe in the maximum-rate search: the tail latency
/// (failed requests counted as infinitely late) meets the limit, at
/// most `max_failed_frac` of the requests failed, and every request
/// was answered, so no backlog was left growing.
pub fn probe_passes(
    tail_ms: f64,
    limit_ms: f64,
    tally: &Tally,
    max_failed_frac: f64,
    unanswered: u64,
) -> bool {
    tail_ms <= limit_ms && tally.failed_frac() <= max_failed_frac && unanswered == 0
}

/// Attempted and failed operations of a run. A failure is a shed or
/// errored request, or any output that fails its correctness check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − failed_frac`: the share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }
}
