//! The benchmark's own arithmetic: percentiles, slice readings and
//! counter deltas. Kept free of I/O so
//! `tests/stats.rs` can pin every formula.

use std::time::Duration;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `p` is clamped to `[0, 100]`; an empty
/// slice yields `None`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Most slices a run's samples are cut into.
pub const MAX_SLICES: usize = 100;

/// How many slices `n` samples make for reading their `p`-th
/// percentile: at most [`MAX_SLICES`], each with at least ten samples
/// beyond the percentile and at least 100 in all (1000 for a p99, 100
/// for a p50).
pub fn slices_for(n: usize, p: f64) -> usize {
    let beyond = (1.0 - p.clamp(0.0, 99.9) / 100.0).max(0.001);
    let per = ((10.0 / beyond).ceil() as usize).max(100);
    (n / per).clamp(1, MAX_SLICES)
}

/// Each of `slices` consecutive equal slices' nearest-rank `p`-th
/// percentile. Empty when there are fewer samples than slices.
pub fn slice_percentiles(samples: &[f64], p: f64, slices: usize) -> Vec<f64> {
    let k = slices.max(1);
    if samples.len() < k {
        return Vec::new();
    }
    (0..k)
        .map(|i| {
            let slice = &samples[i * samples.len() / k..(i + 1) * samples.len() / k];
            percentile(slice, p).expect("slices are non-empty")
        })
        .collect()
}

/// Completions per second in each of `windows` equal windows of
/// `[0, end)`. `done` holds completion times in seconds from the phase
/// start, in any order; times outside the phase are ignored. Empty for
/// an empty phase.
pub fn window_rates(done: &[f64], end: f64, windows: usize) -> Vec<f64> {
    let k = windows.max(1);
    if end <= 0.0 || !end.is_finite() {
        return Vec::new();
    }
    let width = end / k as f64;
    let mut counts = vec![0u64; k];
    for &t in done {
        if (0.0..end).contains(&t) {
            counts[((t / width) as usize).min(k - 1)] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// The reading of a run's least-disturbed quarter, for a metric where
/// lower is better: the lower quartile of its readings. Contention from
/// other tenants of the host only ever adds time, and on a shared 2-vCPU
/// host it comes in stretches of 5-25 s that cover whole slices; the
/// lower quartile reads the code's speed rather than the neighbours'
/// load, while one lucky reading cannot set it.
pub fn quiet_low(readings: &[f64]) -> Option<f64> {
    percentile(readings, 25.0)
}

/// Time quarters a run's slice readings are split into.
const QUARTERS: usize = 4;

/// [`quiet_low`] taken in each time quarter of `readings` (given in time
/// order) and averaged. Costs that grow with the requests served, such
/// as caches that never evict, make late slices slower; a quiet reading
/// over the whole run would pick the early ones and hide that growth,
/// while each quarter's quiet reading keeps it in the figure.
pub fn balanced_low(readings: &[f64]) -> Option<f64> {
    balanced(readings, 25.0)
}

/// [`balanced_low`] for a metric where higher is better: the mean of
/// each time quarter's upper quartile.
pub fn balanced_high(readings: &[f64]) -> Option<f64> {
    balanced(readings, 75.0)
}

fn balanced(readings: &[f64], p: f64) -> Option<f64> {
    let n = readings.len();
    let k = QUARTERS.min(n);
    let parts: Vec<f64> = (0..k)
        .filter_map(|i| percentile(&readings[i * n / k..(i + 1) * n / k], p))
        .collect();
    mean(&parts)
}

/// Nearest-rank median; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Difference of two readings of a monotonic counter. A counter that
/// went backwards was reset in between, which would make the delta
/// depend on process history; that is reported as `None`.
pub fn delta(before: u64, after: u64) -> Option<u64> {
    after.checked_sub(before)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
