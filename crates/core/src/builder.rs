//! Fluent construction of [`ReqSketch`]es.

use rand::RngCore;

use crate::compactor::RankAccuracy;
use crate::error::ReqError;
use crate::ordf64::OrdF64;
use crate::params::ParamPolicy;
use crate::schedule::CompactionSchedule;
use crate::sketch::ReqSketch;

/// Builder for [`ReqSketch`].
///
/// Defaults match DataSketches' practical configuration: `k = 12`,
/// high-rank accuracy (latency-tail monitoring), a random seed.
///
/// ```
/// use req_core::{ReqSketchBuilder, RankAccuracy};
/// use sketch_traits::QuantileSketch;
///
/// // Practical sketch, explicit k:
/// let mut s = ReqSketchBuilder::new().k(24).seed(1).build::<u64>().unwrap();
/// s.update(42);
///
/// // Theory-parameterized, fully mergeable (Theorem 36):
/// let t = ReqSketchBuilder::new()
///     .epsilon_delta(0.05, 0.01)
///     .rank_accuracy(RankAccuracy::LowRank)
///     .build::<u64>()
///     .unwrap();
/// assert!(t.k() >= 4);
///
/// // Adaptive compactors for seamless merge trees (arXiv:2511.17396):
/// use req_core::CompactionSchedule;
/// let a = ReqSketchBuilder::new()
///     .k(24)
///     .schedule(CompactionSchedule::Adaptive)
///     .seed(9)
///     .build::<u64>()
///     .unwrap();
/// assert_eq!(a.compaction_schedule(), CompactionSchedule::Adaptive);
/// ```
#[derive(Debug, Clone)]
pub struct ReqSketchBuilder {
    policy: Result<ParamPolicy, ReqError>,
    accuracy: RankAccuracy,
    seed: Option<u64>,
    schedule: CompactionSchedule,
}

impl Default for ReqSketchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ReqSketchBuilder {
    /// Fresh builder with the defaults described above.
    pub fn new() -> Self {
        ReqSketchBuilder {
            policy: ParamPolicy::fixed_k(12),
            accuracy: RankAccuracy::HighRank,
            seed: None,
            schedule: CompactionSchedule::Standard,
        }
    }

    /// Use a directly chosen section size `k` (even, ≥ 4). Larger `k` is
    /// more accurate and larger; the measured relative error scales ∝ 1/k
    /// (experiment E-cal in EXPERIMENTS.md).
    pub fn k(mut self, k: u32) -> Self {
        self.policy = ParamPolicy::fixed_k(k);
        self
    }

    /// Use the paper's fully-mergeable parameterization (Theorem 36) for a
    /// target relative error `eps` and failure probability `delta`.
    pub fn epsilon_delta(mut self, eps: f64, delta: f64) -> Self {
        self.policy = ParamPolicy::mergeable(eps, delta);
        self
    }

    /// Use any explicit [`ParamPolicy`].
    pub fn policy(mut self, policy: ParamPolicy) -> Self {
        self.policy = Ok(policy);
        self
    }

    /// Select which end of the rank axis carries the multiplicative
    /// guarantee. Default: [`RankAccuracy::HighRank`].
    pub fn rank_accuracy(mut self, accuracy: RankAccuracy) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Convenience for [`RankAccuracy::HighRank`] (`true`) / `LowRank`.
    pub fn high_rank_accuracy(mut self, hra: bool) -> Self {
        self.accuracy = if hra {
            RankAccuracy::HighRank
        } else {
            RankAccuracy::LowRank
        };
        self
    }

    /// Fix the RNG seed for reproducible compaction coin flips. Without
    /// this, a fresh random seed is drawn per sketch.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Select how per-level geometry evolves. The default
    /// [`CompactionSchedule::Standard`] follows the paper's estimate-driven
    /// schedule (square `N`, special-compact); with
    /// [`CompactionSchedule::Adaptive`] each level re-plans its own section
    /// count from its absorbed weight on fill and on merge, making merge
    /// trees of any shape land on the same space–accuracy point as a single
    /// stream (arXiv:2511.17396). Fixed for the sketch's lifetime: sketches
    /// on different schedules do not merge.
    pub fn schedule(mut self, schedule: CompactionSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Build a sketch over any totally ordered, clonable item type.
    pub fn build<T: Ord + Clone>(self) -> Result<ReqSketch<T>, ReqError> {
        let policy = self.policy?;
        let seed = self.seed.unwrap_or_else(|| rand::thread_rng().next_u64());
        Ok(ReqSketch::with_policy_scheduled(
            policy,
            self.accuracy,
            seed,
            self.schedule,
        ))
    }

    /// Build a sketch over `f64` values (via [`OrdF64`](struct@OrdF64)).
    pub fn build_f64(self) -> Result<ReqSketch<OrdF64>, ReqError> {
        self.build::<OrdF64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_traits::{QuantileSketch, SpaceUsage};

    #[test]
    fn defaults_are_datasketches_like() {
        let s = ReqSketchBuilder::new().seed(1).build::<u64>().unwrap();
        assert_eq!(s.k(), 12);
        assert_eq!(s.rank_accuracy(), RankAccuracy::HighRank);
    }

    #[test]
    fn invalid_k_surfaces_at_build() {
        let err = ReqSketchBuilder::new().k(7).build::<u64>().unwrap_err();
        assert!(matches!(err, ReqError::InvalidParameter(_)));
        let err = ReqSketchBuilder::new().k(2).build::<u64>().unwrap_err();
        assert!(matches!(err, ReqError::InvalidParameter(_)));
    }

    #[test]
    fn invalid_eps_delta_surfaces_at_build() {
        assert!(ReqSketchBuilder::new()
            .epsilon_delta(0.0, 0.1)
            .build::<u64>()
            .is_err());
        assert!(ReqSketchBuilder::new()
            .epsilon_delta(0.1, 0.9)
            .build::<u64>()
            .is_err());
    }

    #[test]
    fn epsilon_delta_policy_is_mergeable() {
        let s = ReqSketchBuilder::new()
            .epsilon_delta(0.1, 0.05)
            .seed(1)
            .build::<u64>()
            .unwrap();
        assert!(matches!(s.policy(), ParamPolicy::Mergeable { .. }));
    }

    #[test]
    fn seeded_builders_are_reproducible() {
        let make = || {
            let mut s = ReqSketchBuilder::new()
                .k(8)
                .seed(99)
                .build::<u64>()
                .unwrap();
            for i in 0..50_000u64 {
                s.update(i.wrapping_mul(6364136223846793005) >> 32);
            }
            s
        };
        let a = make();
        let b = make();
        assert_eq!(a.rank(&1_000_000_000), b.rank(&1_000_000_000));
        assert_eq!(a.retained(), b.retained());
    }

    #[test]
    fn unseeded_builders_get_distinct_seeds() {
        let a = ReqSketchBuilder::new().build::<u64>().unwrap();
        let b = ReqSketchBuilder::new().build::<u64>().unwrap();
        // Overwhelmingly likely distinct; equality would signal a broken
        // entropy source rather than bad luck.
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn high_rank_accuracy_flag() {
        let s = ReqSketchBuilder::new()
            .high_rank_accuracy(false)
            .seed(1)
            .build::<u64>()
            .unwrap();
        assert_eq!(s.rank_accuracy(), RankAccuracy::LowRank);
        let s = ReqSketchBuilder::new()
            .high_rank_accuracy(true)
            .seed(1)
            .build::<u64>()
            .unwrap();
        assert_eq!(s.rank_accuracy(), RankAccuracy::HighRank);
    }
}
