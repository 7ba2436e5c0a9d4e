//! Fusion ranking: blending an attribute-match ranking with a
//! similarity (EMD/sketch) ranking into one deterministic total order.
//!
//! Two merge rules are offered, both standard in metasearch/IR:
//!
//! * **Reciprocal rank fusion** (RRF): each list contributes
//!   `1 / (K + rank)` per hit, ranks starting at 1. Robust to
//!   incomparable score scales because only positions matter.
//! * **Weighted score merge**: normalizes each list's scores into
//!   `[0, 1]` (similarity via `1 / (1 + distance)`, attribute scores by
//!   the list maximum) and blends them as
//!   `attr_weight * attr + (1 - attr_weight) * sim`.
//!
//! Both sort the fused hits by `(score descending, object id
//! ascending)` — a total order (scores compared via `f64::total_cmp`),
//! so equal-score ties always break toward the smaller id and repeated
//! runs are byte-identical.

use std::collections::HashMap;

use ferret_core::engine::similarity_from_distance;
use ferret_core::error::CoreError;
use ferret_core::object::ObjectId;

/// How a hybrid query blends the attribute-match ranking with the
/// similarity (EMD) ranking.
///
/// The engine never fuses — it has no attribute index. The service owns
/// both rankings and takes the mode from the `query` command. Both modes
/// order results by `(score descending, object id ascending)`, a
/// deterministic total order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FusionMode {
    /// No fusion: plain similarity ranking (possibly attribute-restricted).
    #[default]
    None,
    /// Reciprocal rank fusion: `score = Σ_lists 1 / (k + rank)` with ranks
    /// starting at 1. Rank-based, so it needs no score normalization.
    Rrf {
        /// The rank-smoothing constant (60 is the conventional default).
        k: u32,
    },
    /// Weighted score merge: `score = attr_weight · attr_score_normalized +
    /// (1 − attr_weight) · similarity`, with the attribute score normalized
    /// by the largest attribute score in the result set.
    Weighted {
        /// Weight of the attribute ranking in `[0, 1]`.
        attr_weight: f64,
    },
}

impl FusionMode {
    /// Conventional RRF rank-smoothing constant (used by [`FromStr`](std::str::FromStr)).
    pub const DEFAULT_RRF_K: u32 = 60;
    /// Balanced attribute weight (used by [`FromStr`](std::str::FromStr)).
    pub const DEFAULT_ATTR_WEIGHT: f64 = 0.5;
}

impl std::fmt::Display for FusionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FusionMode::None => "none",
            FusionMode::Rrf { .. } => "rrf",
            FusionMode::Weighted { .. } => "weighted",
        })
    }
}

impl std::str::FromStr for FusionMode {
    type Err = CoreError;

    /// Parses the `Display` labels back into modes with their documented
    /// default parameters (`k = 60`, `attr_weight = 0.5`); callers refine
    /// the parameters afterwards (e.g. the protocol's `rrfk=`/`fw=` keys).
    fn from_str(s: &str) -> Result<Self, CoreError> {
        match s {
            "none" => Ok(FusionMode::None),
            "rrf" => Ok(FusionMode::Rrf {
                k: FusionMode::DEFAULT_RRF_K,
            }),
            "weighted" => Ok(FusionMode::Weighted {
                attr_weight: FusionMode::DEFAULT_ATTR_WEIGHT,
            }),
            other => Err(CoreError::InvalidQuery(format!(
                "unknown fusion mode {other:?} (expected none, rrf, or weighted)"
            ))),
        }
    }
}

/// One fused hit: the blended score plus, when the object appeared in
/// the similarity list, its raw distance.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedHit {
    /// The object.
    pub id: ObjectId,
    /// The fused score (higher is better).
    pub score: f64,
    /// Raw similarity distance, if the object was similarity-ranked.
    /// `None` means the hit came from the attribute list alone.
    pub distance: Option<f64>,
}

/// Ranks a scored attribute result map: `(score descending, id
/// ascending)`, so equal-score attribute matches are ordered by id.
pub fn rank_attr_scores(scores: &HashMap<ObjectId, f64>) -> Vec<(ObjectId, f64)> {
    let mut ranked: Vec<(ObjectId, f64)> = scores.iter().map(|(&id, &s)| (id, s)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

fn sort_fused(hits: &mut [FusedHit]) {
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
}

/// Reciprocal rank fusion of a similarity ranking (id, distance; best
/// first) and an attribute ranking (id, attr score; best first).
///
/// `k` is the RRF damping constant (classically 60): larger values
/// flatten the contribution difference between adjacent ranks.
pub fn rrf_fuse(sim: &[(ObjectId, f64)], attr: &[(ObjectId, f64)], k: u32) -> Vec<FusedHit> {
    let mut scores: HashMap<ObjectId, FusedHit> = HashMap::new();
    for (rank0, &(id, distance)) in sim.iter().enumerate() {
        let contrib = 1.0 / (f64::from(k) + (rank0 + 1) as f64);
        scores.insert(
            id,
            FusedHit {
                id,
                score: contrib,
                distance: Some(distance),
            },
        );
    }
    for (rank0, &(id, _)) in attr.iter().enumerate() {
        let contrib = 1.0 / (f64::from(k) + (rank0 + 1) as f64);
        scores
            .entry(id)
            .and_modify(|h| h.score += contrib)
            .or_insert(FusedHit {
                id,
                score: contrib,
                distance: None,
            });
    }
    let mut hits: Vec<FusedHit> = scores.into_values().collect();
    sort_fused(&mut hits);
    hits
}

/// Weighted score merge: similarity scores are `1 / (1 + distance)`,
/// attribute scores are normalized by the attribute list's maximum, and
/// the blend is `attr_weight * attr + (1 - attr_weight) * sim`.
///
/// `attr_weight` must already be validated into `[0, 1]` by the caller.
pub fn weighted_fuse(
    sim: &[(ObjectId, f64)],
    attr: &[(ObjectId, f64)],
    attr_weight: f64,
) -> Vec<FusedHit> {
    let sim_weight = 1.0 - attr_weight;
    let attr_max = attr
        .iter()
        .map(|&(_, s)| s)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut scores: HashMap<ObjectId, FusedHit> = HashMap::new();
    for &(id, distance) in sim {
        scores.insert(
            id,
            FusedHit {
                id,
                score: sim_weight * similarity_from_distance(distance),
                distance: Some(distance),
            },
        );
    }
    for &(id, s) in attr {
        let contrib = attr_weight * (s / attr_max);
        scores
            .entry(id)
            .and_modify(|h| h.score += contrib)
            .or_insert(FusedHit {
                id,
                score: contrib,
                distance: None,
            });
    }
    let mut hits: Vec<FusedHit> = scores.into_values().collect();
    sort_fused(&mut hits);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn fusion_mode_parse_roundtrip() {
        for mode in [
            FusionMode::None,
            FusionMode::Rrf {
                k: FusionMode::DEFAULT_RRF_K,
            },
            FusionMode::Weighted {
                attr_weight: FusionMode::DEFAULT_ATTR_WEIGHT,
            },
        ] {
            assert_eq!(mode.to_string().parse::<FusionMode>().unwrap(), mode);
        }
        // Parsing always yields the documented default parameters.
        assert_eq!(
            "rrf".parse::<FusionMode>().unwrap(),
            FusionMode::Rrf { k: 60 }
        );
        for bad in ["", "RRF", "blend", "none "] {
            assert!(
                bad.parse::<FusionMode>().is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn rrf_prefers_objects_in_both_lists() {
        let sim = vec![(id(1), 0.1), (id(2), 0.2), (id(3), 0.3)];
        let attr = vec![(id(2), 1.0), (id(9), 1.0)];
        let fused = rrf_fuse(&sim, &attr, 60);
        // Object 2 is in both lists, so it outranks the similarity
        // winner despite a worse distance.
        assert_eq!(fused[0].id, id(2));
        assert_eq!(fused[0].distance, Some(0.2));
        // Attribute-only hits carry no distance.
        let nine = fused.iter().find(|h| h.id == id(9)).unwrap();
        assert_eq!(nine.distance, None);
    }

    #[test]
    fn rrf_equal_scores_break_toward_smaller_id() {
        // Two objects each appear only once, at the same rank of their
        // respective list: identical scores, so id order decides.
        let sim = vec![(id(7), 0.5)];
        let attr = vec![(id(3), 1.0)];
        let fused = rrf_fuse(&sim, &attr, 60);
        assert_eq!(fused[0].id, id(3));
        assert_eq!(fused[1].id, id(7));
        assert_eq!(fused[0].score, fused[1].score);
    }

    #[test]
    fn weighted_zero_attr_weight_is_pure_similarity_order() {
        let sim = vec![(id(1), 0.1), (id(2), 0.2)];
        let attr = vec![(id(2), 5.0)];
        let fused = weighted_fuse(&sim, &attr, 0.0);
        assert_eq!(fused[0].id, id(1));
        assert!((fused[0].score - similarity_from_distance(0.1)).abs() < 1e-12);
        // The attribute-only entry contributes zero but is still listed.
        assert_eq!(fused.len(), 2);
    }

    #[test]
    fn weighted_full_attr_weight_ignores_distance() {
        let sim = vec![(id(1), 0.1)];
        let attr = vec![(id(2), 2.0), (id(1), 1.0)];
        let fused = weighted_fuse(&sim, &attr, 1.0);
        assert_eq!(fused[0].id, id(2));
        assert!((fused[0].score - 1.0).abs() < 1e-12);
        assert!((fused[1].score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_empty_attr_list_does_not_divide_by_zero() {
        let sim = vec![(id(1), 0.0)];
        let fused = weighted_fuse(&sim, &[], 0.5);
        assert_eq!(fused.len(), 1);
        assert!(fused[0].score.is_finite());
    }

    #[test]
    fn attr_rank_orders_by_score_then_id() {
        let scores = HashMap::from([(id(5), 1.0), (id(2), 2.0), (id(3), 1.0)]);
        let ranked = rank_attr_scores(&scores);
        assert_eq!(ranked, vec![(id(2), 2.0), (id(3), 1.0), (id(5), 1.0)],);
    }
}
