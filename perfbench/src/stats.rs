//! Order statistics over measured samples.

/// A percentile read off a sample, with the counts that say how much
/// data stands behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: u64,
    /// Samples in the whole set.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q·n)` (1-based), so `q = 1` is the maximum. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Completions per second over each of `windows` consecutive runs of
/// equally many completions, given each completion's offset from the
/// phase start. A stall slows only the windows it falls in, so the
/// median over windows follows the program rather than a burst of host
/// steal time.
pub fn window_rates(done_ns: &[u64], windows: usize) -> Vec<f64> {
    let mut t = done_ns.to_vec();
    t.sort_unstable();
    let per = t.len() / windows.max(1);
    if per == 0 {
        return Vec::new();
    }
    let mut prev = 0;
    (1..=windows)
        .map(|w| {
            let end = t[w * per - 1];
            let rate = per as f64 / ((end - prev).max(1) as f64 / 1e9);
            prev = end;
            rate
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_counts() {
        let v: Vec<u64> = (1..=100).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50, 100, 50));
        let p90 = percentile(&v, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90, 10));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99, 1));
        let max = percentile(&v, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (100, 0));
        // Rank rounds up: 0.9 · 7 = 6.3 → rank 7.
        let small = percentile(&[10, 20, 30, 40, 50, 60, 70], 0.9).unwrap();
        assert_eq!((small.value, small.n, small.beyond), (70, 7, 0));
        assert_eq!(percentile(&[5], 0.0).unwrap().value, 5);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_rates_split_completions_evenly() {
        // Two windows of two completions: the first spans 0..0.5 s, the
        // second 0.5..2.5 s; the fifth completion is left over.
        let s = 1_000_000_000;
        let done = [2 * s + s / 2, s / 4, s / 2, 3 * s / 2, 3 * s];
        assert_eq!(window_rates(&done, 2), vec![4.0, 1.0]);
        assert!(window_rates(&done, 8).is_empty());
    }
}
