//! Order statistics over timing samples, and the process's peak RSS.

/// Fewest samples for which a 99th percentile is reported: below this,
/// fewer than ten samples lie beyond it and the figure is one outlier.
pub const P99_MIN_SAMPLES: usize = 1000;

/// The `p`-th percentile (nearest rank, `0 < p <= 100`) of an ascending
/// slice; `None` when it is empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Is a 99th percentile over this many samples worth reporting? A run
/// computes it per repetition and reports the median over repetitions, so
/// the count that matters is the run's, not one repetition's.
pub fn supports_p99(samples: usize) -> bool {
    samples >= P99_MIN_SAMPLES
}

/// Median of an unordered slice (mean of the middle pair for even
/// lengths); 0 when it is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the spread the A/A check is held to.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 99.0), Some(198.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&v[..1], 50.0), Some(1.0));
        assert_eq!(percentile::<f64>(&[], 50.0), None);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert!(!supports_p99(999));
        assert!(supports_p99(1000));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
