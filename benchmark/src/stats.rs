//! Order statistics the metrics and the `compare` verdicts are built from.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so a spread
/// printed here equals the one the driver computes. Fewer than two samples
/// have no spread: all three are the sample itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return [v[0]; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// A tail statistic with the rule that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// `pNN of N` or `largest per-op median of N`, for the printed table.
    pub rule: String,
}

/// Fewest samples the percentile rule is applied to; below it the tail is
/// the largest sample.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The highest whole percentile (nearest rank) that still has at least ten
/// samples beyond it: p99 of 1500, p91 of 120, p75 of 40. `None` below
/// [`MIN_TAIL_SAMPLES`] samples, where ten samples beyond would leave a
/// percentile under the third quartile.
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p = 100 * (n - 10) / n;
    let rank = (p * n).div_ceil(100);
    Some(Tail {
        value: v[rank - 1],
        rule: format!("p{p} of {n}"),
    })
}

/// The tail over a workload's ops, one time per op: the percentile rule when
/// there are enough ops, else the largest op.
pub fn op_tail(per_op: &[f64]) -> Tail {
    tail_percentile(per_op).unwrap_or_else(|| Tail {
        value: per_op.iter().copied().fold(f64::MIN, f64::max),
        rule: format!("largest of {} ops", per_op.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        for (n, p) in [(1500, 99), (450, 97), (120, 91), (75, 86), (40, 75)] {
            let tail = tail_percentile(&ramp(n)).expect("enough samples");
            assert_eq!(tail.rule, format!("p{p} of {n}"));
            let beyond = n - tail.value as usize;
            assert!(beyond >= 10, "p{p} of {n} leaves {beyond} beyond");
            // One percentile higher would leave fewer than ten.
            assert!(n - ((p + 1) * n).div_ceil(100) < 10, "p{p} of {n}");
        }
        assert_eq!(tail_percentile(&ramp(39)), None);
    }

    #[test]
    fn few_ops_fall_back_to_the_largest() {
        let tail = op_tail(&[1.0, 9.0, 2.0, 4.0]);
        assert_eq!(tail.value, 9.0);
        assert_eq!(tail.rule, "largest of 4 ops");
        // With enough ops the percentile rule takes over.
        assert_eq!(op_tail(&ramp(75)).rule, "p86 of 75");
    }
}
