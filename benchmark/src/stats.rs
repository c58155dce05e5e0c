//! Estimators: percentiles, and the best-window estimator that is this
//! benchmark's answer to one-sided host noise.
//!
//! A noisy neighbour (here: a vCPU that runs at two speeds) makes a stretch
//! of time slower and nothing makes one faster. Every timing is therefore
//! cut into [`WINDOW_NS`] windows, and the reported figure is the median of
//! the [`BEST_WINDOWS`] best windows of the run.

/// Length of one measurement window.
pub const WINDOW_NS: u64 = 50_000_000;

/// How many of the best windows the reported value is the median of.
pub const BEST_WINDOWS: usize = 5;

/// Which direction is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The `q`-quantile (0..=1) of `values` by nearest rank. Sorts in place.
/// `None` for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(|a, b| a.total_cmp(b));
    let rank = ((values.len() as f64 - 1.0) * q).round() as usize;
    Some(values[rank.min(values.len() - 1)])
}

/// Median by nearest rank of a copy of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&mut values.to_vec(), 0.5)
}

/// `values` sorted best first.
fn best_first(values: &[f64], better: Better) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| match better {
        Better::Lower => a.total_cmp(b),
        Better::Higher => b.total_cmp(a),
    });
    sorted
}

/// The best-window estimate: the median of the [`BEST_WINDOWS`] best
/// per-window values (all of them when the run has fewer).
pub fn best_windows(values: &[f64], better: Better) -> Option<f64> {
    let mut best = best_first(values, better);
    best.truncate(BEST_WINDOWS);
    median(&best)
}

/// Share of windows worse than 1.25 × the best window — how much of the run
/// the neighbour (or a stall of the program's own) covered.
pub fn slow_window_share(values: &[f64], better: Better) -> Option<f64> {
    let best = *best_first(values, better).first()?;
    let slow = values
        .iter()
        .filter(|&&v| match better {
            Better::Lower => v > best * 1.25,
            Better::Higher => v < best / 1.25,
        })
        .count();
    Some(slow as f64 / values.len() as f64)
}

/// Samples bucketed into fixed windows of one phase.
#[derive(Debug, Clone)]
pub struct Windows {
    start_ns: u64,
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// Windows covering `[start_ns, end_ns)`; a trailing partial window is
    /// dropped so every window sees the same length of time.
    pub fn new(start_ns: u64, end_ns: u64) -> Self {
        let n = (end_ns.saturating_sub(start_ns) / WINDOW_NS) as usize;
        Self {
            start_ns,
            buckets: vec![Vec::new(); n],
        }
    }

    /// Files `value` under the window containing `at_ns`; samples outside
    /// every full window are ignored.
    pub fn add(&mut self, at_ns: u64, value: f64) {
        let Some(offset) = at_ns.checked_sub(self.start_ns) else {
            return;
        };
        if let Some(bucket) = self.buckets.get_mut((offset / WINDOW_NS) as usize) {
            bucket.push(value);
        }
    }

    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Per-window medians; `None` for an empty window.
    pub fn medians(&self) -> Vec<Option<f64>> {
        self.buckets.iter().map(|b| median(b)).collect()
    }

    /// Per-window rates (samples per second).
    pub fn rates(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|b| b.len() as f64 * 1e9 / WINDOW_NS as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5), Some(3.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut v, 1.0), Some(5.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    /// One-sided noise: a neighbour slows 10 % or 90 % of the windows by
    /// 1.3–2×. The whole-run median follows the neighbour; the best-window
    /// estimate stays at the true value either way.
    #[test]
    fn best_windows_ignore_one_sided_noise() {
        let truth = 100.0;
        let mut rng = SmallRng::seed_from_u64(7);
        for slow_share in [0.1, 0.9] {
            let windows: Vec<f64> = (0..160)
                .map(|_| {
                    let jitter = 1.0 + rng.gen_range(0..20) as f64 / 1000.0;
                    if (rng.gen_range(0..1000) as f64) < slow_share * 1000.0 {
                        truth * jitter * (1.3 + rng.gen_range(0..700) as f64 / 1000.0)
                    } else {
                        truth * jitter
                    }
                })
                .collect();
            let best = best_windows(&windows, Better::Lower).unwrap();
            assert!((best - truth).abs() / truth < 0.02, "best {best}");
            if slow_share > 0.5 {
                let all = median(&windows).unwrap();
                assert!(all > truth * 1.25, "whole-run median {all} hides nothing");
            }
            let share = slow_window_share(&windows, Better::Lower).unwrap();
            assert!((share - slow_share).abs() < 0.1, "slow share {share}");
        }
    }

    #[test]
    fn best_windows_for_rates_take_the_highest() {
        let rates = [10.0, 50.0, 49.0, 51.0, 20.0, 48.0, 52.0, 5.0];
        assert_eq!(best_windows(&rates, Better::Higher), Some(50.0));
        assert_eq!(best_windows(&rates[..2], Better::Higher), Some(50.0));
        assert_eq!(best_windows(&[], Better::Higher), None);
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let mut w = Windows::new(1_000, 1_000 + 2 * WINDOW_NS + 7);
        assert_eq!(w.len(), 2);
        w.add(999, 1.0);
        w.add(1_000, 2.0);
        w.add(1_000 + WINDOW_NS, 3.0);
        w.add(1_000 + 2 * WINDOW_NS, 4.0);
        assert_eq!(w.medians(), vec![Some(2.0), Some(3.0)]);
        assert_eq!(w.rates(), vec![20.0, 20.0]);
    }
}
