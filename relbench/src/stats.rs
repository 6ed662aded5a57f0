//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together with
//! the sample count — a p99 over 200 samples rests on two observations and
//! says nothing, so the tail level follows the data instead.

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile levels tried for the tail, highest first.
const TAIL_LEVELS: [f64; 6] = [99.99, 99.9, 99.0, 90.0, 75.0, 50.0];

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Highest level in [`TAIL_LEVELS`] with at least [`TAIL_MIN_BEYOND`]
    /// samples beyond it, and the value there; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank index (0-based) of percentile `level` in `n` sorted samples.
fn rank(level: f64, n: usize) -> usize {
    let k = (level / 100.0 * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Summarizes `samples` (any order). `None` when there are no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_LEVELS
        .iter()
        .find(|&&level| n - (rank(level, n) + 1) >= TAIL_MIN_BEYOND)
        .map(|&level| (level, sorted[rank(level, n)]));
    Some(Summary {
        count: n,
        p50: sorted[rank(50.0, n)],
        tail,
    })
}

/// Mean of `samples`, or 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// [`ratio`] of two counters.
pub fn count_ratio(num: u64, den: u64) -> f64 {
    ratio(num as f64, den as f64)
}

/// Median of `samples`, or 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank_and_order_free() {
        let s = summarize(&ramp(101)).unwrap();
        assert_eq!(s.count, 101);
        assert_eq!(s.p50, 51.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_is_highest_level_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 and leaves exactly 10 beyond;
        // p99.9 would leave 1.
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // 999 samples: p99 leaves only 9 beyond, so the tail drops to p90.
        let s = summarize(&ramp(999)).unwrap();
        assert_eq!(s.tail, Some((90.0, 900.0)));
        // 100 000 samples reach p99.99: rank 99 990 leaves exactly 10.
        let s = summarize(&ramp(100_000)).unwrap();
        assert_eq!(s.tail, Some((99.99, 99_990.0)));
    }

    #[test]
    fn small_sets_state_their_count_and_have_no_tail() {
        let s = summarize(&ramp(19)).unwrap();
        assert_eq!(s.count, 19);
        assert_eq!(s.tail, None);
        let s = summarize(&ramp(20)).unwrap();
        assert_eq!(s.tail, Some((50.0, 10.0)));
    }
}
