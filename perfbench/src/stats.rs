//! Order statistics the benchmark reports.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile, so a p95 is never one unlucky sample.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the middle two for even counts). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `p`-quantile (`0 < p < 1`): the smallest sample with at
/// least `p · n` samples at or below it. `None` unless at least
/// [`TAIL_SAMPLES`] samples lie strictly beyond that rank — with 200
/// samples p95 is rank 190, leaving exactly 10 beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`, 1.0 when all equal.
pub fn jain(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|x| x * x).sum();
    Some(sum * sum / (values.len() as f64 * sq).max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_of_200_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p95 = tail_percentile(&v, 0.95).unwrap();
        assert_eq!(p95, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), TAIL_SAMPLES);
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&v, 0.51), None);
    }

    #[test]
    fn jain_is_one_when_even() {
        assert!((jain(&[2.0, 2.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]).unwrap() - 0.5).abs() < 1e-12);
    }
}
