//! Exact percentiles over every kept sample.

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: such a tail is too thin
/// to report.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = (p * samples.len() as f64).ceil() as usize;
    if samples.len() - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank.max(1) - 1])
}

/// Median of any non-empty sample set (no tail requirement): used for
/// repeated whole-run quantities such as set-up time.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Percentile `p` of a run measured in rounds: consecutive rounds are
/// pooled into windows, each the fewest rounds that hold enough samples
/// for [`percentile`] (a short last window joins the one before it), and
/// the result is the median of the windows' percentiles, with the window
/// count. A host that is slow for a few seconds then moves a minority of
/// windows instead of the whole pooled distribution. `None` when even all
/// rounds together are too few.
pub fn windowed(rounds: &[Vec<f64>], p: f64) -> Option<(f64, usize)> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for round in rounds {
        open.extend_from_slice(round);
        if percentile(&open, p).is_some() {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.append(&mut open),
        None => windows.push(open),
    }
    let values: Option<Vec<f64>> = windows.iter().map(|w| percentile(w, p)).collect();
    let values = values?;
    Some((median(&values), values.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_thin_tails_and_bad_ranks() {
        assert_eq!(percentile(&[], 0.5), None);
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None, "9 samples beyond p50");
        assert_eq!(percentile(&nineteen, 0.0), None);
        assert_eq!(percentile(&nineteen, 1.0), None);
        assert_eq!(percentile(&nineteen, f64::NAN), None);
    }

    #[test]
    fn nearest_rank_on_unsorted_input() {
        let mut twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        twenty.reverse();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&[3.0; 40], 0.5), Some(3.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn windowed_pools_thin_rounds_and_takes_the_median() {
        let round = |base: f64| -> Vec<f64> { (0..30).map(|i| base + f64::from(i)).collect() };
        // Three full rounds, one slow: the median window ignores it.
        let (v, n) = windowed(&[round(100.0), round(900.0), round(100.0)], 0.5).unwrap();
        assert_eq!((v, n), (114.0, 3));
        // Rounds of 7 pool into windows of 21; the short tail joins the last.
        let thin: Vec<Vec<f64>> = (0..7).map(|_| (1..=7).map(f64::from).collect()).collect();
        let (v, n) = windowed(&thin, 0.5).unwrap();
        assert_eq!((v, n), (4.0, 2));
        // Too few samples in all rounds together, or none at all.
        assert_eq!(windowed(&[vec![1.0; 5], vec![2.0; 5]], 0.5), None);
        assert_eq!(windowed(&[], 0.5), None);
    }
}
