//! Percentiles and quartiles. (How the per-segment figures of a run
//! become the run's figures is in `run.rs`.)

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule on
/// a sorted copy; 0 for an empty input.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), q)]
}

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `(q1, median, q3)` by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses — the driver judges spread
/// with exactly that, so the self-check does too.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: sort, then index by nearest rank.
    fn reference(values: &[f64], q: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    #[test]
    fn percentile_matches_sorted_vector_reference() {
        let mut r = crate::rng::Rng::new(3);
        for n in [1usize, 2, 3, 10, 11, 100, 1001] {
            let vals: Vec<f64> = (0..n).map(|_| r.unit() * 1000.0).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                assert_eq!(percentile(&vals, q), reference(&vals, q), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }
}
