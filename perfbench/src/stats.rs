//! Sample statistics and operation counting.

use std::time::Duration;

/// Fewest samples for which a tail percentile is reported; below this
/// the tail falls back to the median, which is no tail.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The tail of a latency sample: the run is cut, in op order, into
/// [`TAIL_BLOCKS`] blocks of consecutive samples; each block's tail is
/// its highest percentile that still has [`TAIL_BEYOND`] samples above
/// it, or its median when it has fewer than [`TAIL_MIN_SAMPLES`]; the
/// tail is the median of the block tails. A run too short for every
/// block to hold [`TAIL_MIN_SAMPLES`] is one block.
///
/// The median over blocks keeps a stretch of the run that the host
/// slowed out of the tail, as long as it spoils only one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The median of the block tails.
    pub value: f64,
    /// The median of the blocks' percentiles, in `[50, 100)`.
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// Blocks of consecutive samples the tail is taken over.
pub const TAIL_BLOCKS: usize = 4;

/// Applies the tail rule to `values`, in op order; `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let blocks = if n >= TAIL_BLOCKS * TAIL_MIN_SAMPLES {
        TAIL_BLOCKS
    } else {
        1
    };
    let (tails, percentiles): (Vec<f64>, Vec<f64>) = (0..blocks)
        .map(|b| block_tail(&values[b * n / blocks..(b + 1) * n / blocks]))
        .unzip();
    Some(Tail {
        value: median(&tails)?,
        percentile: median(&percentiles)?,
        samples: n,
    })
}

/// One block's tail value and percentile.
fn block_tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < TAIL_MIN_SAMPLES {
        return (median(values).unwrap_or(f64::NAN), 50.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Rank n-1-TAIL_BEYOND leaves exactly TAIL_BEYOND ranks above it.
    let rank = n - 1 - TAIL_BEYOND;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted and failed in a measured phase, plus the
/// latencies of the ones that succeeded.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
}

impl Ops {
    /// Records an operation that succeeded after `latency`.
    pub fn succeeded(&mut self, latency: Duration) {
        self.attempted += 1;
        self.latencies_ms.push(ms(latency));
    }

    /// Records an operation that succeeded but whose latency is not a
    /// sample (a stream push that fired nothing).
    pub fn succeeded_untimed(&mut self) {
        self.attempted += 1;
    }

    /// Records an operation that failed; its latency is no sample.
    pub fn failed(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed_count(&self) -> u64 {
        self.failed
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn latencies_ms(&self) -> &[f64] {
        &self.latencies_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n reversed.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_median_under_forty_samples() {
        let t = tail(&series(39)).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 20.0);
        assert_eq!(t.samples, 39);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // Under TAIL_BLOCKS * TAIL_MIN_SAMPLES the run is one block.
        for n in [40usize, 41, 100, 159] {
            let values = series(n);
            let t = tail(&values).unwrap();
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            assert_eq!(t.samples, n);
        }
        let t = tail(&series(40)).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
    }

    #[test]
    fn tail_is_median_of_block_tails() {
        // Four blocks of 1..=250: each block's tail is 240, at p96.
        let block: Vec<f64> = (1..=250).map(f64::from).collect();
        let run: Vec<f64> = block.repeat(TAIL_BLOCKS);
        let t = tail(&run).unwrap();
        assert_eq!(t.value, 240.0);
        assert_eq!(t.percentile, 96.0);
        assert_eq!(t.samples, 1000);
        // A stretch slowed tenfold moves one block's tail, not the median.
        let mut slowed = run.clone();
        for v in &mut slowed[250..500] {
            *v *= 10.0;
        }
        assert_eq!(tail(&slowed).unwrap().value, 240.0);
        // Block tails 240, 240, 2400, 2400: the median is their midpoint.
        for v in &mut slowed[500..750] {
            *v *= 10.0;
        }
        assert_eq!(tail(&slowed).unwrap().value, 1320.0);
    }

    #[test]
    fn ops_count_attempted_failed_and_samples() {
        let mut ops = Ops::default();
        ops.succeeded(Duration::from_millis(2));
        ops.failed();
        ops.succeeded_untimed();
        ops.succeeded(Duration::from_micros(1500));
        ops.failed();
        assert_eq!(ops.attempted(), 5);
        assert_eq!(ops.failed_count(), 2);
        assert_eq!(ops.completed(), 3);
        assert_eq!(ops.latencies_ms(), &[2.0, 1.5]);
    }
}
