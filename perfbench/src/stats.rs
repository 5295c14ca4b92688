//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Nearest-rank `p`-quantile (`0 < p < 1`), reported only when at least
/// `min_beyond` samples lie strictly above its rank: a tail percentile read
/// off a handful of samples is one sample, not a percentile.
pub fn tail_percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    assert!(
        p > 0.0 && p < 1.0,
        "percentile must lie strictly inside (0, 1)"
    );
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Smallest sample; `None` when empty.
pub fn min(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
