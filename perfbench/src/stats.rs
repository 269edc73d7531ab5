//! Order statistics for the benchmark's reports.

/// Percentiles tried by [`tail`], highest first, in tenths of a percent
/// so that ranks are exact.
const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (the mean of the two middle values for an even count),
/// or `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The mean over groups of each group's median, for samples tagged with
/// a group (the CPU they ran on): a run that spent more of its samples on
/// one CPU then reads the same as one that split them evenly.
pub fn balanced_median(tagged: &[(usize, f64)]) -> Option<f64> {
    let mut groups: Vec<usize> = tagged.iter().map(|t| t.0).collect();
    groups.sort_unstable();
    groups.dedup();
    let medians: Vec<f64> = groups
        .iter()
        .filter_map(|&g| {
            let xs: Vec<f64> = tagged.iter().filter(|t| t.0 == g).map(|t| t.1).collect();
            median(&xs)
        })
        .collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// The highest percentile of the ladder 99.9, 99, 95, 90, 75, 50 that
/// has at least ten samples ranked above it, with its nearest-rank
/// value: `(percentile, value)`. `None` when even the median has fewer
/// than ten samples above it (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    LADDER.into_iter().find_map(|p| {
        // Nearest rank, 1-based: the smallest rank covering p of the sample.
        let rank = (p * n).div_ceil(1000).max(1);
        (rank <= n && n - rank >= 10).then(|| (p as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn balanced_median_weighs_groups_equally() {
        assert_eq!(balanced_median(&[]), None);
        assert_eq!(balanced_median(&[(0, 1.0), (0, 3.0), (0, 2.0)]), Some(2.0));
        // Three samples on CPU 0, one on CPU 1: each CPU counts once.
        let tagged = [(0, 1.0), (0, 1.0), (0, 1.2), (1, 2.0)];
        assert_eq!(balanced_median(&tagged), Some(1.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "19 samples leave 9 above the median");
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        // 100 samples: p90 has exactly 10 above it, p95 only 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 1000 samples: p99 has exactly 10 above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // 10 000 samples: p99.9 has exactly 10 above it.
        let xs: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
    }
}
