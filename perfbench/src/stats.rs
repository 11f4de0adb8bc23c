//! Order statistics over samples.

/// The nearest-rank `q` quantile (`q` in `[0, 1]`) of `v`, which is
/// sorted in place; infinite samples (failed requests) sort last. NaN
/// for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_with_failures_last() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        assert_eq!(quantile(&mut v, 0.99), f64::INFINITY);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
    }
}
