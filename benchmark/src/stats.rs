//! Exact-sample statistics. Every latency the benchmark reports is a raw
//! `Instant` reading kept in a `Vec<f64>`; percentiles are read off the
//! sorted samples, never off a bucketed histogram (`hopi_obs::Histogram`
//! is ≤ 25% off by design, which is wider than the bounds in
//! `BENCHMARK.json`).

/// Sorts samples ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product that is a whole number in exact arithmetic
/// (90% of 100) from being rounded up past it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle samples for an even count), so `--repeat` prints what the
/// driver will compute.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them. One sample has no
/// spread: both quartiles are that sample.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of no samples");
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The digest printed beside every sampled metric.
#[derive(Clone, Copy, Debug)]
pub struct Digest {
    pub n: usize,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it
    /// (`None` under 20 samples), as `(percent, value)`.
    pub tail: Option<(f64, f64)>,
}

/// Digests raw samples. `None` when there are none.
pub fn digest(values: &[f64]) -> Option<Digest> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values.to_vec());
    let (q1, q3) = quartiles(&s);
    let n = s.len();
    let tail = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
        .map(|p| (p, percentile(&s, p)));
    Some(Digest {
        n,
        p50: median(&s),
        q1,
        q3,
        tail,
    })
}

/// Median of raw samples; 0 when there are none (a per-layer metric whose
/// layer the workload does not exercise).
pub fn p50(values: &[f64]) -> f64 {
    digest(values).map_or(0.0, |d| d.p50)
}

/// Nearest-rank percentile of raw samples; 0 when there are none.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values.to_vec()), p)
    }
}

/// Arithmetic mean; 0 when there are none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// The definition, written the slow way: the smallest sample such that
    /// at least p% of all samples are ≤ it.
    fn percentile_oracle(values: &[f64], p: f64) -> f64 {
        let mut candidates: Vec<f64> = values.to_vec();
        candidates.sort_by(f64::total_cmp);
        for &c in &candidates {
            // In whole numbers: p is given in tenths of a percent.
            let at_or_below = values.iter().filter(|&&v| v <= c).count();
            if at_or_below * 1000 >= (p * 10.0).round() as usize * values.len() {
                return c;
            }
        }
        *candidates.last().unwrap()
    }

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 11, 100, 257, 1000] {
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0..1000u32) as f64).collect();
            let s = sorted(values.clone());
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&s, p),
                    percentile_oracle(&values, p),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let five = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(quartiles(&five), (1.5, 12.0));
        assert_eq!(median(&five), 4.0);
        // statistics.quantiles([3, 5], n=4) == [2.5, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn digest_picks_the_highest_supported_tail() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly ten beyond it, p99.9 only one.
        assert_eq!(digest(&v).unwrap().tail.unwrap().0, 99.0);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(digest(&v).unwrap().tail.unwrap().0, 90.0);
        assert!(digest(&v[..19]).unwrap().tail.is_none());
        assert!(digest(&[]).is_none());
        assert_eq!(p50(&[]), 0.0);
    }
}
