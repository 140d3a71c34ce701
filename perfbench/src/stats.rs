//! Order statistics used by the benchmark's reports.
//!
//! Timings are summarized by their median and by the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, reported
//! together with the sample count. Run-to-run spread is the distance
//! between the first and third quartile as a share of the median, with the
//! quartiles computed exactly as Python's
//! `statistics.quantiles(values, n=4)` computes them.

/// The percentile ladder the tail rule picks from, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` (total order, NaN last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// hundredths of a percent so that e.g. p99.9 of 10,000 is exactly 9,990.
fn rank(p: f64, n: usize) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (in percent) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(p, v.len()) - 1]
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples beyond its rank, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// Percentile `p` of `values` when the tail rule admits it; otherwise the
/// highest admitted ladder percentile below `p` (the median when nothing
/// is admitted). Returns the percentile actually used with the value.
pub fn admitted_percentile(values: &[f64], p: f64) -> (f64, f64) {
    let used = match tail_percentile(values.len()) {
        Some(tail) if tail < p => tail,
        Some(_) => p,
        None => 50.0,
    };
    (used, percentile(values, used))
}

/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method): the three quartile cut points. A single value repeats; an
/// empty input yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median is
/// 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 7]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn admitted_percentile_falls_back_to_the_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(admitted_percentile(&v, 90.0), (90.0, 90.0));
        // 100 samples admit p90 but not p99: the rule reports p90.
        assert_eq!(admitted_percentile(&v, 99.0), (90.0, 90.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(admitted_percentile(&many, 99.0), (99.0, 990.0));
        assert_eq!(admitted_percentile(&[5.0], 99.0), (50.0, 5.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
