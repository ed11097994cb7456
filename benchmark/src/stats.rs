//! Order statistics for the benchmark's reports.
//!
//! Every rate is summarised over equal slices (quartiles, median, min, max
//! and n); every latency as a median and a p99 that still has at least ten
//! samples beyond it.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns — of at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    assert!(n >= 2, "quartiles of fewer than two samples");
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Order statistics of a set of slice measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub lower_quartile: f64,
    pub upper_quartile: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (lower_quartile, upper_quartile) = if values.len() >= 2 {
            let (q1, _, q3) = quartiles(values);
            (q1, q3)
        } else {
            (values[0], values[0])
        };
        Summary {
            median: median(values),
            lower_quartile,
            upper_quartile,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` (0..1) of **sorted** `samples`, by the
/// nearest-rank rule, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond that rank — a tail read off fewer points is noise, not a
/// percentile.
pub fn percentile_sorted(samples: &[u64], q: f64) -> Option<u64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(samples[rank - 1])
}

/// p50 and p99 of one slice's latencies, in the samples' unit; no p99 when
/// the slice is too small to leave ten samples beyond it (fewer than 1,000
/// samples — only at a `--seconds` far below the reference). Sorts in
/// place.
///
/// # Panics
///
/// Panics on an empty slice: every slice does some work.
pub fn p50_p99(samples: &mut [u64]) -> (u64, Option<u64>) {
    samples.sort_unstable();
    let p50 = percentile_sorted(samples, 0.5).expect("p50 of a non-empty slice");
    (p50, percentile_sorted(samples, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let mut s: Vec<u64> = (1..=999).collect();
        // 999 samples: rank 990, 9 beyond — refused.
        assert_eq!(percentile_sorted(&s, 0.99), None);
        s.push(1000);
        // 1,000 samples: rank 990, exactly 10 beyond — allowed.
        assert_eq!(percentile_sorted(&s, 0.99), Some(990));
        // The median never needs the rule.
        assert_eq!(percentile_sorted(&[7], 0.5), Some(7));
    }

    #[test]
    fn p50_p99_gives_no_p99_for_short_slices() {
        let mut s: Vec<u64> = (0..500).rev().collect();
        assert_eq!(p50_p99(&mut s), (249, None));
        let mut s: Vec<u64> = (0..2_000).rev().collect();
        assert_eq!(p50_p99(&mut s), (999, Some(1_979)));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        let s = Summary::of(&v);
        assert_eq!((s.lower_quartile, s.upper_quartile, s.n), (2.75, 8.25, 10));
    }
}
