//! The ledger's arithmetic: medians, quartiles, the tail-percentile rule
//! and bound comparison. Everything here is pure and unit-tested, because
//! every number the benchmark reports passes through it.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The name used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so a spread computed here equals the one the driver computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it among `samples` — the only tail a sample of that size
/// can support. `None` below twenty samples.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples * (100 - p as usize) >= 10 * 100)
}

/// By what share of `base` the value `new` is worse, in the metric's own
/// direction; negative when `new` is better.
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// The verdict of one metric × workload comparison between two sets of
/// runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both spreads fit the bound and the second median is not worse than
    /// the first by more than the bound.
    Agree,
    /// A spread is wider than the bound: the metric cannot resolve a
    /// change of that size.
    Unresolved,
    /// The second median is worse than the first by more than the bound
    /// although nothing changed.
    Disagree,
}

impl Verdict {
    /// The word printed in the `--check-repeat` table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Disagree => "DISAGREE",
        }
    }
}

/// Compares two sets of runs against `bound`. `check_spread` is off for
/// `setup_s`, whose spread the driver does not hold to the bound.
pub fn compare(
    better: Better,
    bound: f64,
    first: &[f64],
    second: &[f64],
    check_spread: bool,
) -> Verdict {
    let wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
    if check_spread && (wide(first) || wide(second)) {
        return Verdict::Unresolved;
    }
    if worse_by(better, median(first), median(second)) > bound {
        return Verdict::Disagree;
    }
    Verdict::Agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 75.0), 40.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(39), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_wide_spreads_and_real_regressions() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let tight_b = [102.0, 103.0, 101.0, 102.5, 101.5];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let wide = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            compare(Better::Lower, 0.1, &tight_a, &tight_b, true),
            Verdict::Agree
        );
        assert_eq!(
            compare(Better::Lower, 0.1, &tight_a, &slow, true),
            Verdict::Disagree
        );
        // Getting faster is never a disagreement for a lower-is-better metric...
        assert_eq!(
            compare(Better::Lower, 0.1, &slow, &tight_a, true),
            Verdict::Agree
        );
        // ...but it is one for a higher-is-better metric.
        assert_eq!(
            compare(Better::Higher, 0.1, &slow, &tight_a, true),
            Verdict::Disagree
        );
        assert_eq!(
            compare(Better::Lower, 0.1, &tight_a, &wide, true),
            Verdict::Unresolved
        );
        // setup_s: spread is reported but not held to the bound.
        assert_eq!(
            compare(Better::Lower, 0.25, &tight_a, &wide, false),
            Verdict::Agree
        );
    }
}
