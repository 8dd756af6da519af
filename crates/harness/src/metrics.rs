//! Rank-error measurement against exact oracles.

use sketch_traits::QuantileSketch;
use streams::SortOracle;

/// Which denominator defines "relative" error (matches
/// `req_core::RankAccuracy` orientations, plus plain additive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMode {
    /// `|R̂ − R| / R` — the paper's guarantee (low-rank orientation).
    RelativeLow,
    /// `|R̂ − R| / (n − R + 1)` — the high-rank orientation.
    RelativeHigh,
    /// `|R̂ − R| / n` — additive-error summaries.
    Additive,
}

/// Error of one probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeError {
    /// Probed universe item.
    pub item: u64,
    /// Exact rank.
    pub true_rank: u64,
    /// Sketch estimate.
    pub est_rank: u64,
    /// Error under the chosen [`ErrorMode`].
    pub err: f64,
}

/// Summary of the error distribution over a probe set.
#[derive(Debug, Clone, Copy)]
pub struct RankErrorSummary {
    /// Maximum error over the probes.
    pub max: f64,
    /// Mean error.
    pub mean: f64,
    /// Root-mean-square error.
    pub rmse: f64,
}

impl ErrorMode {
    /// Compute the error of one estimate under this mode.
    pub fn error(&self, est: u64, truth: u64, n: u64) -> f64 {
        let diff = est.abs_diff(truth) as f64;
        match self {
            ErrorMode::RelativeLow => diff / (truth.max(1) as f64),
            ErrorMode::RelativeHigh => diff / ((n - truth + 1).max(1) as f64),
            ErrorMode::Additive => diff / (n.max(1) as f64),
        }
    }
}

/// Probe a sketch at the items holding the given *true ranks* and report the
/// per-probe errors.
pub fn probe_ranks<S: QuantileSketch<u64>>(
    sketch: &S,
    oracle: &SortOracle,
    ranks: &[u64],
    mode: ErrorMode,
) -> Vec<ProbeError> {
    let n = oracle.n();
    // Resolve the probe items first, then ask the sketch for every rank in
    // one multi-query call — sketches with a sorted-view path answer the
    // whole probe set off a single view build.
    let resolved: Vec<(u64, u64)> = ranks
        .iter()
        .filter_map(|&r| {
            let item = oracle.item_at_rank(r)?;
            // The item at rank r may have true rank > r under duplicates;
            // always compare against the item's actual rank.
            Some((item, oracle.rank(item)))
        })
        .collect();
    let items: Vec<u64> = resolved.iter().map(|&(item, _)| item).collect();
    let estimates = sketch.ranks(&items);
    resolved
        .into_iter()
        .zip(estimates)
        .map(|((item, true_rank), est_rank)| ProbeError {
            item,
            true_rank,
            est_rank,
            err: mode.error(est_rank, true_rank, n),
        })
        .collect()
}

/// Summarize a slice of probe errors.
pub fn summarize(probes: &[ProbeError]) -> RankErrorSummary {
    if probes.is_empty() {
        return RankErrorSummary {
            max: 0.0,
            mean: 0.0,
            rmse: 0.0,
        };
    }
    let max = probes.iter().map(|p| p.err).fold(0.0, f64::max);
    let mean = probes.iter().map(|p| p.err).sum::<f64>() / probes.len() as f64;
    let rmse = (probes.iter().map(|p| p.err * p.err).sum::<f64>() / probes.len() as f64).sqrt();
    RankErrorSummary { max, mean, rmse }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact "sketch" for metric plumbing tests.
    struct Exact(Vec<u64>);
    impl QuantileSketch<u64> for Exact {
        fn update(&mut self, x: u64) {
            self.0.push(x);
        }
        fn len(&self) -> u64 {
            self.0.len() as u64
        }
        fn rank(&self, y: &u64) -> u64 {
            self.0.iter().filter(|x| *x <= y).count() as u64
        }
        fn quantile(&self, _q: f64) -> Option<u64> {
            None
        }
    }

    /// Sketch that always answers 10% high.
    struct Biased(Exact);
    impl QuantileSketch<u64> for Biased {
        fn update(&mut self, x: u64) {
            self.0.update(x);
        }
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn rank(&self, y: &u64) -> u64 {
            (self.0.rank(y) as f64 * 1.1).round() as u64
        }
        fn quantile(&self, _q: f64) -> Option<u64> {
            None
        }
    }

    #[test]
    fn exact_sketch_has_zero_error() {
        let items: Vec<u64> = (0..1000).collect();
        let sketch = Exact(items.clone());
        let oracle = SortOracle::new(&items);
        let probes = probe_ranks(
            &sketch,
            &oracle,
            &[1, 10, 100, 1000],
            ErrorMode::RelativeLow,
        );
        assert_eq!(probes.len(), 4);
        assert!(probes.iter().all(|p| p.err == 0.0));
        let s = summarize(&probes);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn biased_sketch_measures_ten_percent() {
        let items: Vec<u64> = (1..=10_000).collect();
        let sketch = Biased(Exact(items.clone()));
        let oracle = SortOracle::new(&items);
        let probes = probe_ranks(
            &sketch,
            &oracle,
            &[100, 1000, 10_000],
            ErrorMode::RelativeLow,
        );
        for p in &probes {
            assert!((p.err - 0.1).abs() < 0.01, "err {}", p.err);
        }
    }

    #[test]
    fn error_modes_use_right_denominator() {
        // est 110, truth 100, n 1000
        assert!((ErrorMode::RelativeLow.error(110, 100, 1000) - 0.1).abs() < 1e-12);
        assert!((ErrorMode::Additive.error(110, 100, 1000) - 0.01).abs() < 1e-12);
        // high mode: tail = 1000 - 100 + 1 = 901
        assert!((ErrorMode::RelativeHigh.error(110, 100, 1000) - 10.0 / 901.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_resolve_to_actual_rank() {
        let items = vec![5u64; 100];
        let sketch = Exact(items.clone());
        let oracle = SortOracle::new(&items);
        let probes = probe_ranks(&sketch, &oracle, &[1, 50], ErrorMode::RelativeLow);
        // item at rank 1 is 5, whose actual rank is 100 — zero error still.
        assert_eq!(probes[0].true_rank, 100);
        assert_eq!(probes[0].err, 0.0);
    }

    #[test]
    fn summarize_empty() {
        let s = summarize(&[]);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.rmse, 0.0);
    }
}
