//! Optional `serde` support (`--features serde`).
//!
//! A sketch serializes to a plain data representation (policy, geometry,
//! counters, per-level buffers). As with the [`crate::binary`] format, the
//! RNG's in-flight state is replaced by the original seed on deserialization;
//! any coin sequence satisfies the paper's guarantees, so this only changes
//! *which* valid random execution continues after a round-trip. The query-view
//! cache is derived state and is soundly dropped the same way: deserialized
//! sketches rebuild it lazily on first query.
//!
//! All impls are written by hand against the serde trait subset (the
//! offline stand-in ships no `#[derive]`); they follow exactly the shape
//! `#[derive(Serialize, Deserialize)]` would generate for the repr structs.

use serde::de::{DeserializeOwned, Error as DeError};
use serde::ser::{SerializeStruct, SerializeStructVariant};
use serde::value::FieldMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::compactor::{RankAccuracy, RelativeCompactor};
use crate::ordf64::OrdF64;
use crate::params::ParamPolicy;
use crate::schedule::{CompactionSchedule, CompactionState};
use crate::sketch::ReqSketch;

impl Serialize for OrdF64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // `#[serde(transparent)]`: an OrdF64 is exactly its f64.
        self.get().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for OrdF64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(OrdF64)
    }
}

impl Serialize for crate::ordf32::OrdF32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // `#[serde(transparent)]`: an OrdF32 is exactly its f32 (widened —
        // the offline serde stand-in's value tree has one float width).
        f64::from(self.0).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for crate::ordf32::OrdF32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|v| crate::ordf32::OrdF32(v as f32))
    }
}

impl Serialize for ParamPolicy {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match *self {
            ParamPolicy::Mergeable { eps, delta, scale } => {
                let mut sv =
                    serializer.serialize_struct_variant("ParamPolicy", 0, "Mergeable", 3)?;
                sv.serialize_field("eps", &eps)?;
                sv.serialize_field("delta", &delta)?;
                sv.serialize_field("scale", &scale)?;
                sv.end()
            }
            ParamPolicy::Streaming { eps, delta, n } => {
                let mut sv =
                    serializer.serialize_struct_variant("ParamPolicy", 1, "Streaming", 3)?;
                sv.serialize_field("eps", &eps)?;
                sv.serialize_field("delta", &delta)?;
                sv.serialize_field("n", &n)?;
                sv.end()
            }
            ParamPolicy::SmallDelta { eps, delta, n } => {
                let mut sv =
                    serializer.serialize_struct_variant("ParamPolicy", 2, "SmallDelta", 3)?;
                sv.serialize_field("eps", &eps)?;
                sv.serialize_field("delta", &delta)?;
                sv.serialize_field("n", &n)?;
                sv.end()
            }
            ParamPolicy::Deterministic { eps, n } => {
                let mut sv =
                    serializer.serialize_struct_variant("ParamPolicy", 3, "Deterministic", 2)?;
                sv.serialize_field("eps", &eps)?;
                sv.serialize_field("n", &n)?;
                sv.end()
            }
            ParamPolicy::FixedK { k } => {
                let mut sv = serializer.serialize_struct_variant("ParamPolicy", 4, "FixedK", 1)?;
                sv.serialize_field("k", &k)?;
                sv.end()
            }
        }
    }
}

impl<'de> Deserialize<'de> for ParamPolicy {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (variant, mut fields) =
            FieldMap::from_variant(deserializer.deserialize_value()?).map_err(D::Error::custom)?;
        match variant {
            "Mergeable" => Ok(ParamPolicy::Mergeable {
                eps: fields.take("eps")?,
                delta: fields.take("delta")?,
                scale: fields.take("scale")?,
            }),
            "Streaming" => Ok(ParamPolicy::Streaming {
                eps: fields.take("eps")?,
                delta: fields.take("delta")?,
                n: fields.take("n")?,
            }),
            "SmallDelta" => Ok(ParamPolicy::SmallDelta {
                eps: fields.take("eps")?,
                delta: fields.take("delta")?,
                n: fields.take("n")?,
            }),
            "Deterministic" => Ok(ParamPolicy::Deterministic {
                eps: fields.take("eps")?,
                n: fields.take("n")?,
            }),
            "FixedK" => Ok(ParamPolicy::FixedK {
                k: fields.take("k")?,
            }),
            other => Err(D::Error::custom(format!(
                "unknown ParamPolicy variant `{other}`"
            ))),
        }
    }
}

/// Serialized form of one compactor level.
struct LevelRepr<T> {
    state: u64,
    num_compactions: u64,
    num_special_compactions: u64,
    /// Sorted-run prefix of `items`. Absent in pre-sorted-run value trees;
    /// defaults to 0 (all-tail), which re-establishes the invariant on the
    /// first ordering operation after load.
    run_len: u64,
    /// This level's own section count. Absent in pre-adaptive value trees;
    /// defaults to 0, meaning "use the sketch-level geometry".
    num_sections: u32,
    /// Lifetime absorbed item count (adaptive-schedule state). Absent in
    /// pre-adaptive value trees; defaults to 0 (standard sketches never
    /// consult it).
    absorbed: u64,
    items: Vec<T>,
}

impl<T: Serialize> Serialize for LevelRepr<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("LevelRepr", 7)?;
        s.serialize_field("state", &self.state)?;
        s.serialize_field("num_compactions", &self.num_compactions)?;
        s.serialize_field("num_special_compactions", &self.num_special_compactions)?;
        s.serialize_field("run_len", &self.run_len)?;
        s.serialize_field("num_sections", &self.num_sections)?;
        s.serialize_field("absorbed", &self.absorbed)?;
        s.serialize_field("items", &self.items)?;
        s.end()
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for LevelRepr<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut fields =
            FieldMap::from_value(deserializer.deserialize_value()?).map_err(D::Error::custom)?;
        let run_len = if fields.contains("run_len") {
            fields.take("run_len")?
        } else {
            0
        };
        let num_sections = if fields.contains("num_sections") {
            fields.take("num_sections")?
        } else {
            0
        };
        let absorbed = if fields.contains("absorbed") {
            fields.take("absorbed")?
        } else {
            0
        };
        Ok(LevelRepr {
            state: fields.take("state")?,
            num_compactions: fields.take("num_compactions")?,
            num_special_compactions: fields.take("num_special_compactions")?,
            run_len,
            num_sections,
            absorbed,
            items: fields.take("items")?,
        })
    }
}

impl<T: Ord + Clone + Serialize> Serialize for ReqSketch<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let levels: Vec<LevelRepr<T>> = self
            .levels
            .iter()
            .map(|l| LevelRepr {
                state: l.state().raw(),
                num_compactions: l.num_compactions(),
                num_special_compactions: l.num_special_compactions(),
                run_len: l.run_len(self.arena()) as u64,
                num_sections: l.num_sections(),
                absorbed: l.absorbed(),
                items: l.items(self.arena()).to_vec(),
            })
            .collect();
        let mut s = serializer.serialize_struct("ReqSketch", 11)?;
        s.serialize_field("policy", &self.policy())?;
        s.serialize_field(
            "high_rank_accuracy",
            &(self.rank_accuracy() == RankAccuracy::HighRank),
        )?;
        s.serialize_field(
            "adaptive_schedule",
            &(self.compaction_schedule() == CompactionSchedule::Adaptive),
        )?;
        s.serialize_field("n", &self.n)?;
        s.serialize_field("max_n", &self.max_n())?;
        s.serialize_field("k", &self.k())?;
        s.serialize_field("num_sections", &self.num_sections())?;
        s.serialize_field("min_item", &self.min_item().cloned())?;
        s.serialize_field("max_item", &self.max_item().cloned())?;
        s.serialize_field("seed", &self.seed())?;
        s.serialize_field("levels", &levels)?;
        s.end()
    }
}

impl<'de, T: Ord + Clone + DeserializeOwned> Deserialize<'de> for ReqSketch<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut fields =
            FieldMap::from_value(deserializer.deserialize_value()?).map_err(D::Error::custom)?;
        let policy: ParamPolicy = fields.take("policy")?;
        let high_rank_accuracy: bool = fields.take("high_rank_accuracy")?;
        // Pre-adaptive value trees carry no schedule field: standard.
        let adaptive_schedule: bool = if fields.contains("adaptive_schedule") {
            fields.take("adaptive_schedule")?
        } else {
            false
        };
        let n: u64 = fields.take("n")?;
        let max_n: u64 = fields.take("max_n")?;
        let k: u32 = fields.take("k")?;
        let num_sections: u32 = fields.take("num_sections")?;
        let min_item: Option<T> = fields.take("min_item")?;
        let max_item: Option<T> = fields.take("max_item")?;
        let seed: u64 = fields.take("seed")?;
        let levels: Vec<LevelRepr<T>> = fields.take("levels")?;

        if k < 4 || !k.is_multiple_of(2) || num_sections == 0 {
            return Err(D::Error::custom(format!(
                "invalid sketch geometry k={k} sections={num_sections}"
            )));
        }
        let accuracy = if high_rank_accuracy {
            RankAccuracy::HighRank
        } else {
            RankAccuracy::LowRank
        };
        let mut arena = crate::arena::LevelArena::new();
        let levels = levels
            .into_iter()
            .map(|l| {
                let run_len = usize::try_from(l.run_len)
                    .map_err(|_| D::Error::custom("run_len overflows usize"))?;
                if run_len > l.items.len() {
                    return Err(D::Error::custom(format!(
                        "run_len {run_len} exceeds level len {}",
                        l.items.len()
                    )));
                }
                // 0 = "no per-level geometry recorded": header geometry.
                let level_sections = if l.num_sections == 0 {
                    num_sections
                } else {
                    l.num_sections
                };
                let level = RelativeCompactor::from_parts(
                    &mut arena,
                    k,
                    level_sections,
                    l.items,
                    run_len,
                    CompactionState::from_raw(l.state),
                    l.num_compactions,
                    l.num_special_compactions,
                    l.absorbed,
                );
                if !level.run_is_sorted(&arena, accuracy) {
                    return Err(D::Error::custom("declared sorted run is not sorted"));
                }
                Ok(level)
            })
            .collect::<Result<Vec<_>, D::Error>>()?;
        Ok(ReqSketch::from_parts(
            policy,
            accuracy,
            arena,
            levels,
            n,
            max_n,
            k,
            num_sections,
            min_item,
            max_item,
            seed,
            if adaptive_schedule {
                CompactionSchedule::Adaptive
            } else {
                CompactionSchedule::Standard
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{from_value, to_value};
    use sketch_traits::QuantileSketch;

    fn sample() -> ReqSketch<u64> {
        let mut s = ReqSketch::<u64>::with_policy(
            ParamPolicy::fixed_k(12).unwrap(),
            RankAccuracy::HighRank,
            3,
        );
        for i in 0..20_000u64 {
            s.update(i.wrapping_mul(2654435761) % 100_003);
        }
        s
    }

    #[test]
    fn sketch_roundtrips_through_value_tree() {
        let s = sample();
        let v = to_value(&s).unwrap();
        let t: ReqSketch<u64> = from_value(v).unwrap();
        assert_eq!(t.len(), s.len());
        assert_eq!(t.k(), s.k());
        assert_eq!(t.rank_accuracy(), s.rank_accuracy());
        assert_eq!(t.min_item(), s.min_item());
        assert_eq!(t.max_item(), s.max_item());
        for y in (0..100_003u64).step_by(9_973) {
            assert_eq!(t.rank(&y), s.rank(&y), "rank mismatch at {y}");
        }
    }

    #[test]
    fn every_policy_roundtrips() {
        let policies = [
            ParamPolicy::mergeable(0.05, 0.05).unwrap(),
            ParamPolicy::streaming(0.1, 0.01, 1 << 20).unwrap(),
            ParamPolicy::small_delta(0.1, 1e-9, 1 << 20).unwrap(),
            ParamPolicy::deterministic(0.1, 1 << 20).unwrap(),
            ParamPolicy::fixed_k(24).unwrap(),
        ];
        for p in policies {
            let roundtripped: ParamPolicy = from_value(to_value(&p).unwrap()).unwrap();
            assert_eq!(roundtripped, p);
        }
    }

    #[test]
    fn ordf64_is_transparent() {
        let v = to_value(&OrdF64(2.5)).unwrap();
        assert_eq!(v, serde::Value::F64(2.5));
        let x: OrdF64 = from_value(v).unwrap();
        assert_eq!(x, OrdF64(2.5));
    }

    #[test]
    fn value_trees_without_run_len_still_load() {
        // Pre-sorted-run serializations carried no `run_len`, and
        // pre-adaptive ones no `adaptive_schedule`/`num_sections`/`absorbed`;
        // such value trees must load as all-tail, standard-schedule,
        // header-geometry levels and answer identically.
        let s = sample();
        let mut v = to_value(&s).unwrap();
        fn strip_new_fields(v: &mut serde::Value) {
            match v {
                serde::Value::Struct { name, fields } => {
                    if *name == "LevelRepr" {
                        // Per-level additions (PR 3 + PR 4). The sketch-level
                        // `num_sections` is original and must survive.
                        fields.retain(|(k, _)| {
                            !matches!(*k, "run_len" | "num_sections" | "absorbed")
                        });
                    } else {
                        fields.retain(|(k, _)| *k != "adaptive_schedule");
                    }
                    for (_, f) in fields {
                        strip_new_fields(f);
                    }
                }
                serde::Value::Seq(items) => {
                    for item in items {
                        strip_new_fields(item);
                    }
                }
                _ => {}
            }
        }
        strip_new_fields(&mut v);
        let t: ReqSketch<u64> = from_value(v).unwrap();
        assert_eq!(t.len(), s.len());
        assert_eq!(t.compaction_schedule(), CompactionSchedule::Standard);
        for y in (0..100_003u64).step_by(9_973) {
            assert_eq!(t.rank(&y), s.rank(&y), "rank mismatch at {y}");
        }
    }

    #[test]
    fn adaptive_sketch_roundtrips_through_value_tree() {
        let mut s = ReqSketch::<u64>::builder()
            .k(8)
            .schedule(CompactionSchedule::Adaptive)
            .high_rank_accuracy(false)
            .seed(5)
            .build()
            .unwrap();
        for i in 0..40_000u64 {
            s.update(i.wrapping_mul(2654435761) % 100_003);
        }
        let t: ReqSketch<u64> = from_value(to_value(&s).unwrap()).unwrap();
        assert_eq!(t.compaction_schedule(), CompactionSchedule::Adaptive);
        let (a, b) = (s.stats(), t.stats());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.num_sections, y.num_sections, "level {}", x.level);
            assert_eq!(x.absorbed, y.absorbed, "level {}", x.level);
        }
        for y in (0..100_003u64).step_by(9_973) {
            assert_eq!(t.rank(&y), s.rank(&y), "rank mismatch at {y}");
        }
    }

    #[test]
    fn lying_run_len_in_value_tree_is_rejected() {
        let s = sample();
        let v = to_value(&s).unwrap();
        fn sabotage(v: &mut serde::Value) {
            match v {
                serde::Value::Struct { fields, .. } => {
                    for (k, f) in fields {
                        if *k == "run_len" {
                            *f = serde::Value::U64(u64::MAX);
                        } else {
                            sabotage(f);
                        }
                    }
                }
                serde::Value::Seq(items) => {
                    for item in items {
                        sabotage(item);
                    }
                }
                _ => {}
            }
        }
        let mut bad = v;
        sabotage(&mut bad);
        assert!(from_value::<ReqSketch<u64>>(bad).is_err());
    }

    #[test]
    fn corrupt_geometry_is_rejected() {
        let s = sample();
        let v = to_value(&s).unwrap();
        // Sabotage the `k` field.
        let serde::Value::Struct { name, mut fields } = v else {
            panic!("sketch must serialize as a struct");
        };
        for (key, value) in &mut fields {
            if *key == "k" {
                *value = serde::Value::U64(3); // odd and < 4: invalid
            }
        }
        let bad = serde::Value::Struct { name, fields };
        assert!(from_value::<ReqSketch<u64>>(bad).is_err());
    }
}
