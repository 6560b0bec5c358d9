//! Order statistics for batch samples.

/// Median of `samples`; `None` when empty. NaNs sort last.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A reported tail percentile: which one, its value, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its value by nearest rank.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The percentiles a tail is chosen from, highest first, in tenths of a
/// percent so ranks are exact integer arithmetic.
const LADDER: [usize; 5] = [990, 950, 900, 750, 500];

/// The highest percentile of [`LADDER`] (p99 at most) that has at least
/// ten samples beyond it, with its nearest-rank value. A percentile with
/// fewer samples past it is one or two observations wide and says nothing
/// stable. `None` when even the median lacks ten samples above it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    LADDER.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: sorted[rank - 1],
            samples: n,
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).expect("enough samples");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));

        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty).expect("enough samples");
        assert_eq!((t.percentile, t.value), (50.0, 10.0));

        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn tail_never_goes_past_p99() {
        let many: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.percentile), Some(99.0));
    }
}
