//! Small statistics helpers: medians, percentiles and the exact rank
//! oracle the accuracy gate compares the service against.

/// Median of `xs` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Interquartile mean of `xs`: the mean of what is left after dropping
/// the lowest and the highest quarter; NaN if empty. On this benchmark's
/// hosts rounds fall into a fast and a slow mode that alternate every
/// few seconds. A median jumps between the two modes as their mix shifts
/// from run to run; this mean follows the mix smoothly and still drops
/// the outliers.
pub fn central_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No samples yet?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Percentile `q` in microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        percentile(&v, q) as f64 / 1e3
    }
}

/// Percentile `q` (in µs) of each group of samples, taken as the
/// [`central_mean`] over groups. Consecutive groups are merged until each
/// holds enough samples for ten to lie beyond `q`, so every per-group
/// percentile is supported by its sample. The central mean over groups
/// keeps one burst of host noise from moving the figure. `None` without
/// samples.
pub fn grouped_percentile_us(groups: &[Latencies], q: f64) -> Option<f64> {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let mut merged: Vec<Latencies> = Vec::new();
    let mut current = Latencies::default();
    for g in groups {
        current.extend(g);
        if current.len() >= need {
            merged.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        match merged.last_mut() {
            Some(last) => last.extend(&current),
            None => merged.push(current),
        }
    }
    let per_group: Vec<f64> = merged.iter().map(|g| g.percentile_us(q)).collect();
    (!per_group.is_empty()).then(|| central_mean(&per_group))
}

/// Exact ranks of a stream, for the accuracy gate.
#[derive(Debug, Clone)]
pub struct Oracle {
    sorted: Vec<f64>,
}

/// Normalised ranks the accuracy gate probes: tail-heavy, because the
/// tail is where a high-rank-accurate sketch makes its promise.
pub const PROBE_QUANTILES: [f64; 7] = [0.5, 0.9, 0.99, 0.995, 0.999, 0.9995, 0.9999];

impl Oracle {
    /// Oracle over `values` (any order).
    pub fn new(values: &[f64]) -> Oracle {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Oracle { sorted }
    }

    /// Stream length.
    pub fn n(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Inclusive rank `R(y) = |{x ≤ y}|`.
    pub fn rank(&self, y: f64) -> u64 {
        self.sorted.partition_point(|&x| x <= y) as u64
    }

    /// The stream values at the [`PROBE_QUANTILES`].
    pub fn probes(&self) -> Vec<f64> {
        PROBE_QUANTILES
            .iter()
            .map(|&q| {
                let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
                self.sorted[idx.min(self.sorted.len() - 1)]
            })
            .collect()
    }

    /// Rank error of an estimate at `y`, relative to the distance from the
    /// accurate (high) end: `|R̂(y) − R(y)| / (n − R(y) + 1)`, the quantity
    /// the high-rank guarantee bounds by ε.
    pub fn relative_error(&self, y: f64, estimate: u64) -> f64 {
        let exact = self.rank(y);
        exact.abs_diff(estimate) as f64 / (self.n() - exact + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(central_mean(&[100.0, 2.0, 4.0, 0.0]), 3.0);
        assert_eq!(central_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert!(central_mean(&[]).is_nan());
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn grouped_percentiles_merge_small_groups() {
        let group = |lo: u64, n: u64| {
            let mut l = Latencies::default();
            (lo..lo + n).for_each(|x| l.push(x * 1_000));
            l
        };
        // Four groups of 1,000: each supports its own p99; the lowest and
        // the highest quarter are dropped.
        let big = [
            group(0, 1_000),
            group(1_000, 1_000),
            group(2_000, 1_000),
            group(5_000, 1_000),
        ];
        assert_eq!(grouped_percentile_us(&big, 0.99), Some(2_489.0));
        // Groups of 10 merge into groups of at least 20 for the median.
        let small: Vec<Latencies> = (0..4).map(|i| group(i * 10, 10)).collect();
        assert_eq!(grouped_percentile_us(&small, 0.5), Some(19.0));
        assert_eq!(grouped_percentile_us(&[], 0.5), None);
    }

    #[test]
    fn oracle_ranks_and_errors() {
        let o = Oracle::new(&[5.0, 1.0, 3.0, 3.0, 9.0]);
        assert_eq!(o.rank(3.0), 3);
        assert_eq!(o.rank(0.0), 0);
        assert_eq!(o.rank(9.0), 5);
        assert_eq!(o.relative_error(9.0, 5), 0.0);
        assert_eq!(o.relative_error(3.0, 4), 1.0 / 3.0);
    }
}
