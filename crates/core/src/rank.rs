//! The ranking unit: accurate ordering of the candidate set.
//!
//! Ranking implements the second query step (paper §4.1.1): the
//! (comparatively expensive) object distance function is evaluated between
//! the query and every candidate, and the closest `k` objects are returned.

use crate::distance::ObjectDistance;
use crate::error::Result;
use crate::object::{DataObject, ObjectId};

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The matched object.
    pub id: ObjectId,
    /// Its object distance to the query (smaller is more similar).
    pub distance: f64,
}

/// Ranks candidates by object distance: at most `k` results by
/// ascending distance, ties broken by object id.
pub(crate) fn rank_candidates<'a, I, D>(
    query: &DataObject,
    candidates: I,
    distance: &D,
    k: usize,
) -> Result<Vec<SearchResult>>
where
    I: IntoIterator<Item = (ObjectId, &'a DataObject)>,
    D: ObjectDistance + ?Sized,
{
    let mut results = Vec::new();
    for (id, obj) in candidates {
        let d = distance.distance(query, obj)?;
        results.push(SearchResult { id, distance: d });
    }
    sort_and_truncate(&mut results, k);
    Ok(results)
}

/// Ranks precomputed `(id, distance)` scores.
///
/// Used when distances are computed from sketches rather than through an
/// [`ObjectDistance`] implementation.
pub fn rank_scores(mut results: Vec<SearchResult>, k: usize) -> Vec<SearchResult> {
    sort_and_truncate(&mut results, k);
    results
}

fn sort_and_truncate(results: &mut Vec<SearchResult>, k: usize) {
    results.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    results.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::emd::Emd;
    use crate::distance::lp::L1;
    use crate::vector::FeatureVector;

    fn obj1(x: f32) -> DataObject {
        DataObject::single(FeatureVector::new(vec![x]).unwrap())
    }

    #[test]
    fn ranks_by_distance_ascending() {
        let query = obj1(0.0);
        let a = obj1(5.0);
        let b = obj1(1.0);
        let c = obj1(3.0);
        let cands = vec![(ObjectId(1), &a), (ObjectId(2), &b), (ObjectId(3), &c)];
        let res = rank_candidates(&query, cands, &Emd::new(L1), 10).unwrap();
        let ids: Vec<u64> = res.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert!((res[0].distance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncates_to_k() {
        let query = obj1(0.0);
        let objs: Vec<DataObject> = (0..10).map(|i| obj1(i as f32)).collect();
        let cands = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u64), o));
        let res = rank_candidates(&query, cands, &Emd::new(L1), 3).unwrap();
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, ObjectId(0));
    }

    #[test]
    fn ties_broken_by_id() {
        let query = obj1(0.0);
        let a = obj1(2.0);
        let b = obj1(2.0);
        let cands = vec![(ObjectId(9), &a), (ObjectId(1), &b)];
        let res = rank_candidates(&query, cands, &Emd::new(L1), 10).unwrap();
        assert_eq!(res[0].id, ObjectId(1));
        assert_eq!(res[1].id, ObjectId(9));
    }

    #[test]
    fn rank_scores_sorts_and_truncates() {
        let res = rank_scores(
            vec![
                SearchResult {
                    id: ObjectId(1),
                    distance: 0.9,
                },
                SearchResult {
                    id: ObjectId(2),
                    distance: 0.1,
                },
                SearchResult {
                    id: ObjectId(3),
                    distance: 0.5,
                },
            ],
            2,
        );
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, ObjectId(2));
        assert_eq!(res[1].id, ObjectId(3));
    }

    #[test]
    fn empty_candidates_give_empty_results() {
        let query = obj1(0.0);
        let res = rank_candidates(&query, Vec::new(), &Emd::new(L1), 5).unwrap();
        assert!(res.is_empty());
    }
}
