//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median over its repetitions. Latency
//! distributions also report the highest percentile of the ladder
//! [`LADDER`] that still has at least [`MIN_BEYOND`] samples beyond it, so
//! a tail figure is never read off a handful of samples.

/// Percentiles a latency distribution may report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of unsorted samples; `NaN`
/// for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of percentile `p` among `n` samples, `⌈p·n/100⌉`. The
/// small slack keeps `99.9 % of 10,000` at rank 9,990 despite the float
/// product rounding up past the integer.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Blocks [`block_median`] splits a run's samples into.
pub const BLOCKS: usize = 4;

/// Median of the means of [`BLOCKS`] consecutive, equal-sized blocks of
/// the samples (with fewer than two samples per block, the plain median). Each
/// repetition of a workload draws fresh inputs, and some inputs take one
/// more sweep than others, and a shared machine has slow and fast
/// stretches; averaging inside a block keeps such a two-mode mix from
/// flipping the run's median between the modes.
pub fn block_median(samples: &[f64]) -> f64 {
    if samples.len() < 2 * BLOCKS {
        return median(samples);
    }
    let size = samples.len() / BLOCKS;
    let means: Vec<f64> = samples
        .chunks_exact(size)
        .take(BLOCKS)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

/// Number of samples that lie beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, with its value; `None` when even the median has fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(samples.len(), p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(samples, p)))
}

/// A latency distribution as the report prints it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let (tail_pct, tail) = tail(samples).unwrap_or((f64::NAN, f64::NAN));
        Self {
            samples: samples.len(),
            p50: median(samples),
            tail_pct,
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn block_median_averages_inside_blocks() {
        // Fewer than two samples per block: the plain median.
        assert_eq!(block_median(&[5.0, 1.0, 3.0]), 3.0);
        let few: Vec<f64> = (0..7).map(f64::from).collect();
        assert_eq!(block_median(&few), 3.0);
        // 8 samples alternating 8 and 9: every block of two averages 8.5,
        // where the plain median would pick one of the modes.
        let xs: Vec<f64> = (0..8).map(|i| if i % 2 == 0 { 8.0 } else { 9.0 }).collect();
        assert_eq!(block_median(&xs), 8.5);
        assert_eq!(median(&xs), 8.0);
        // 9 samples: blocks of two, the 9th is left out.
        let mut ys = xs.clone();
        ys.push(1000.0);
        assert_eq!(block_median(&ys), 8.5);
        // 12 samples: blocks of three, means 2, 5, 8, 11; the median of
        // four is the lower middle one.
        let zs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(block_median(&zs), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: only 9 lie beyond the median, so no tail at all.
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: 10 beyond p50, 2 beyond p90.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        // 100 samples: 10 beyond p90, 1 beyond p99.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 999 samples: 9 beyond p99 (rank 990), so p90 is the answer.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 900.0)));
        // 1000 samples: exactly 10 beyond p99.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // 10,000 samples: 10 beyond p99.9.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
    }
}
