//! Order statistics over raw samples.
//!
//! Every percentile here sorts the raw samples. None goes through
//! `pas_stats::Histogram`, whose interpolated quantile can exceed the
//! observed maximum.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones an outside check computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as i64;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `(q3 - q1) / median`: the run-to-run spread a bound is checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The nearest-rank `q`-quantile of raw samples: the smallest sample with
/// at least `q·n` samples at or below it.
///
/// Refuses (returns `Err`) unless at least [`MIN_BEYOND`] samples lie
/// beyond it, so a reported tail always rests on observed tail samples.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    if !(0.0..1.0).contains(&q) {
        return Err(format!("percentile {q} is outside [0, 1)"));
    }
    let v = sorted(values);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {} samples beyond it; {n} samples leave {}",
            q * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&v).expect("ten values");
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th; ten lie beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        // With 99 samples only nine lie beyond the 90th: refused.
        assert!(percentile(&v[..99], 0.9).is_err());
        // p99 needs 1000 samples.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Ok(990.0));
        assert!(percentile(&w[..999], 0.99).is_err());
        // The median of 19 samples leaves nine beyond it: refused.
        assert!(percentile(&v[..19], 0.5).is_err());
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
    }

    #[test]
    fn percentile_never_exceeds_the_observed_maximum() {
        let mut v: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        v.push(0.9236);
        let max = v.iter().copied().fold(f64::MIN, f64::max);
        for q in [0.5, 0.9, 0.95, 0.98] {
            let p = percentile(&v, q).expect("enough samples");
            assert!(p <= max);
            assert!(v.contains(&p), "a percentile is an observed sample");
        }
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut v: Vec<f64> = (1..=30).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 0.5), Ok(16.0));
        assert_eq!(median(&[1.0, f64::INFINITY, 2.0]), Some(2.0));
    }
}
