//! Sample statistics for the ledger's metrics.
//!
//! Latency percentiles use the nearest-rank definition and are only
//! reported when at least [`MIN_TAIL_SAMPLES`] samples lie beyond them: a
//! p99 over 200 samples is two observations, not a percentile.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    // 1-based nearest rank: the smallest rank covering a q share.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a handful of repetitions (no tail requirement: this is the
/// middle of a few whole-run timings, not a latency distribution).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// `part / whole`, or `None` when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the function has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn p90_and_median_follow_the_same_rule() {
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn repetition_median_has_no_tail_rule() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(1.0, 4.0), Some(0.25));
    }
}
