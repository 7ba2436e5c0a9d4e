//! The filtering unit: fast candidate-set generation from sketches.
//!
//! Filtering implements the first of the two query steps (paper §4.1.1):
//! given a query object `Q`, select its `r` highest-weight segments; stream
//! through all segment sketches in the dataset and, for each selected query
//! segment `Q_i`, find the `k` nearest dataset segments by Hamming distance,
//! keeping only those within a distance threshold that *decreases* with
//! `w(Q_i)` (heavier query segments demand closer matches). Every object
//! owning at least one such close segment enters the candidate set.

use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::error::{CoreError, Result};
use crate::object::ObjectId;
use crate::sketch::{SketchArena, SketchedObject};

/// Parameters of the filtering step.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterParams {
    /// `r`: how many of the highest-weight query segments to use.
    pub query_segments: usize,
    /// `k`: how many nearest dataset segments to keep per query segment.
    pub candidates_per_segment: usize,
    /// Base Hamming threshold in bits; `None` disables the threshold and
    /// keeps the pure k-NN behaviour.
    pub base_threshold: Option<u32>,
    /// How strongly the threshold shrinks with query segment weight, in
    /// `[0, 1]`: the effective threshold is
    /// `base_threshold · (1 − weight_attenuation · w(Q_i))`.
    pub weight_attenuation: f64,
}

impl Default for FilterParams {
    fn default() -> Self {
        Self {
            query_segments: 2,
            candidates_per_segment: 40,
            base_threshold: None,
            weight_attenuation: 0.5,
        }
    }
}

impl FilterParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if self.query_segments == 0 {
            return Err(CoreError::InvalidQuery(
                "filter needs at least one query segment".into(),
            ));
        }
        if self.candidates_per_segment == 0 {
            return Err(CoreError::InvalidQuery(
                "filter needs at least one candidate per segment".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.weight_attenuation) {
            return Err(CoreError::InvalidQuery(format!(
                "weight attenuation {} outside [0, 1]",
                self.weight_attenuation
            )));
        }
        Ok(())
    }

    /// The effective Hamming threshold for a query segment of weight `w`
    /// (a decreasing function of the weight, per the paper).
    pub fn threshold_for_weight(&self, w: f32) -> Option<u32> {
        self.base_threshold.map(|base| {
            let factor = 1.0 - self.weight_attenuation * f64::from(w.clamp(0.0, 1.0));
            (f64::from(base) * factor).floor().max(0.0) as u32
        })
    }
}

/// Statistics from one filtering pass.
///
/// For a scan, `segments_scanned` and `objects_scanned` count the *live*
/// segments and objects compared against the query. The arena kernel
/// ([`filter_candidates_arena`]) compares before it consults the predicate
/// pushdown set, so for a restricted query they count every live segment
/// and object, not only the allowed ones; [`filter_candidates`] counts
/// what it was fed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Dataset segments whose sketches were compared against the query.
    pub segments_scanned: usize,
    /// Objects streamed.
    pub objects_scanned: usize,
    /// Size of the resulting candidate set.
    pub candidates: usize,
}

/// Max-heap entry so the [`BinaryHeap`] keeps the `k` *smallest* distances.
#[derive(PartialEq, Eq)]
struct HeapEntry {
    hamming: u32,
    object: ObjectId,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hamming
            .cmp(&other.hamming)
            .then(self.object.cmp(&other.object))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Admits `entry` into a bounded k-NN max-heap.
///
/// Admission compares full `(hamming, object id)` entries, a *total*
/// order, so the kept set is the `k` smallest entries of everything
/// offered — independent of the order entries arrive in. This is what
/// makes the arena kernel's part-by-part walk equal the reference scan.
fn admit(heap: &mut BinaryHeap<HeapEntry>, capacity: usize, entry: HeapEntry) {
    if heap.len() < capacity {
        heap.push(entry);
    } else if let Some(top) = heap.peek() {
        if entry < *top {
            heap.pop();
            heap.push(entry);
        }
    }
}

/// Tightest admission bound for one query slot: the weight threshold caps
/// entry outright, and a full heap only admits distances at or below its
/// current worst (an equal distance can still win on object id). It only
/// changes after an admission, so scans hoist it out of their loops.
#[inline]
fn admission_limit(heap: &BinaryHeap<HeapEntry>, capacity: usize, threshold: u32) -> u32 {
    match heap.peek() {
        Some(top) if heap.len() >= capacity => threshold.min(top.hamming),
        _ => threshold,
    }
}

/// The arena kernel's inner loop for one query slot: offers every segment
/// whose distance is within the running limit to the heap, consulting the
/// dead and pushdown sets only for those — a few segments per query out of
/// the whole part.
#[inline(always)]
fn walk_arena(
    heap: &mut BinaryHeap<HeapEntry>,
    capacity: usize,
    threshold: u32,
    distances: impl Iterator<Item = u32>,
    owners: &[ObjectId],
    dead: Option<&HashSet<ObjectId>>,
    restrict: Option<&HashSet<ObjectId>>,
) {
    let mut limit = admission_limit(heap, capacity, threshold);
    for (hamming, &object) in distances.zip(owners) {
        if hamming > limit
            || dead.is_some_and(|set| set.contains(&object))
            || restrict.is_some_and(|set| !set.contains(&object))
        {
            continue;
        }
        admit(heap, capacity, HeapEntry { hamming, object });
        limit = admission_limit(heap, capacity, threshold);
    }
}

/// An incremental filtering pass.
///
/// Feed every `(id, sketched_object)` of the dataset through
/// [`FilterScan::observe`] (in any storage order) and call
/// [`FilterScan::finish`] for the candidate set. The convenience wrapper
/// [`filter_candidates`] drives it from an iterator; the per-object scan is
/// the reference the arena kernel is tested against.
pub struct FilterScan {
    /// Sketches of the selected (highest-weight) query segments.
    query_sketches: Vec<crate::sketch::BitVec>,
    thresholds: Vec<Option<u32>>,
    candidates_per_segment: usize,
    heaps: Vec<BinaryHeap<HeapEntry>>,
    stats: FilterStats,
}

impl FilterScan {
    /// Starts a scan for `query` with the given parameters.
    pub fn new(query: &SketchedObject, params: &FilterParams) -> Result<Self> {
        params.validate()?;
        if query.num_segments() == 0 {
            return Err(CoreError::EmptyObject);
        }
        // Select the r highest-weight query segments.
        let selected: Vec<usize> = query
            .segments_by_weight()
            .into_iter()
            .take(params.query_segments)
            .collect();
        let thresholds: Vec<Option<u32>> = selected
            .iter()
            .map(|&qi| params.threshold_for_weight(query.weights[qi]))
            .collect();
        let heaps = selected
            .iter()
            .map(|_| BinaryHeap::with_capacity(params.candidates_per_segment + 1))
            .collect();
        Ok(Self {
            query_sketches: selected
                .into_iter()
                .map(|qi| query.sketches[qi].clone())
                .collect(),
            thresholds,
            candidates_per_segment: params.candidates_per_segment,
            heaps,
            stats: FilterStats::default(),
        })
    }

    /// Feeds one dataset object through the scan.
    pub fn observe(&mut self, id: ObjectId, so: &SketchedObject) -> Result<()> {
        self.stats.objects_scanned += 1;
        self.stats.segments_scanned += so.sketches.len();
        let cap = self.candidates_per_segment;
        for (slot, qs) in self.query_sketches.iter().enumerate() {
            let heap = &mut self.heaps[slot];
            let threshold = self.thresholds[slot].unwrap_or(u32::MAX);
            let mut limit = admission_limit(heap, cap, threshold);
            for sketch in &so.sketches {
                let Some(h) = qs.hamming_within(sketch, limit)? else {
                    continue;
                };
                admit(
                    heap,
                    cap,
                    HeapEntry {
                        hamming: h,
                        object: id,
                    },
                );
                limit = admission_limit(heap, cap, threshold);
            }
        }
        Ok(())
    }

    /// Walks one arena part for every selected query sketch — the arena
    /// kernel — and counts the part's live objects and segments, which it
    /// knows without walking the dead set.
    fn scan_arena(
        &mut self,
        part: &ArenaPart<'_>,
        restrict: Option<&HashSet<ObjectId>>,
    ) -> Result<()> {
        self.stats.objects_scanned += part.live_objects();
        self.stats.segments_scanned += part.live_segments();
        let arena = part.arena;
        if arena.is_empty() {
            return Ok(());
        }
        let width = arena.words_per_sketch();
        let words = arena.words();
        let owners = arena.owners();
        let cap = self.candidates_per_segment;
        for (slot, qs) in self.query_sketches.iter().enumerate() {
            if qs.len() != arena.nbits() {
                return Err(CoreError::SketchLengthMismatch {
                    left: qs.len(),
                    right: arena.nbits(),
                });
            }
            let heap = &mut self.heaps[slot];
            let threshold = self.thresholds[slot].unwrap_or(u32::MAX);
            match *qs.words() {
                // The shipped 128-bit sketch: two XOR + popcount per segment
                // over fixed-size chunks the compiler fully unrolls.
                [q0, q1] => {
                    let distances = words
                        .as_chunks::<2>()
                        .0
                        .iter()
                        .map(|&[a, b]| (a ^ q0).count_ones() + (b ^ q1).count_ones());
                    walk_arena(heap, cap, threshold, distances, owners, part.dead, restrict);
                }
                ref q => {
                    let distances = words.chunks_exact(width).map(|s| {
                        s.iter()
                            .zip(q)
                            .map(|(a, b)| (a ^ b).count_ones())
                            .sum::<u32>()
                    });
                    walk_arena(heap, cap, threshold, distances, owners, part.dead, restrict);
                }
            }
        }
        Ok(())
    }

    /// Ends the scan, returning the candidate set and statistics.
    pub fn finish(mut self) -> (HashSet<ObjectId>, FilterStats) {
        let mut candidates = HashSet::new();
        for heap in self.heaps {
            for entry in heap {
                candidates.insert(entry.object);
            }
        }
        self.stats.candidates = candidates.len();
        (candidates, self.stats)
    }
}

/// One storage part's sketches as the arena kernel reads them: the part's
/// [`SketchArena`] plus the removals the arena cannot record in place.
///
/// Monolithic storage and the segmented memtable remove from their arena
/// directly; a sealed segment's arena is immutable, so removals after
/// sealing land in its dead set until compaction rewrites the segment.
#[derive(Debug, Clone, Copy)]
pub struct ArenaPart<'a> {
    /// Every sketch of the part, back to back, with its owner column.
    pub arena: &'a SketchArena,
    /// Objects removed from the part after its arena was built.
    pub dead: Option<&'a HashSet<ObjectId>>,
    /// Sketches owned by `dead` objects, so the live count is known
    /// without walking the dead set per query.
    pub dead_segments: usize,
}

impl<'a> ArenaPart<'a> {
    /// A part with no removals pending.
    pub fn live(arena: &'a SketchArena) -> Self {
        Self {
            arena,
            dead: None,
            dead_segments: 0,
        }
    }

    /// Live objects in the part.
    pub fn live_objects(&self) -> usize {
        self.arena.objects() - self.dead.map_or(0, HashSet::len)
    }

    /// Live segment sketches in the part.
    pub fn live_segments(&self) -> usize {
        self.arena.len() - self.dead_segments
    }
}

/// The filtering scan over arena parts: the production scan path.
///
/// Walks every part with the arena kernel on the calling thread. Every
/// segment is compared first; the dead set and `restrict` are consulted
/// only for segments within the admission limit, and excluded ones are
/// never offered to a heap. Heap admission is the same total order as
/// [`filter_candidates`], so the candidate set is identical to it over the
/// live (and allowed) objects; the statistics count every live object and
/// segment (see [`FilterStats`]).
pub fn filter_candidates_arena(
    query: &SketchedObject,
    parts: &[ArenaPart<'_>],
    params: &FilterParams,
    restrict: Option<&HashSet<ObjectId>>,
) -> Result<(HashSet<ObjectId>, FilterStats)> {
    let mut scan = FilterScan::new(query, params)?;
    for part in parts {
        scan.scan_arena(part, restrict)?;
    }
    Ok(scan.finish())
}

/// Streams the sketch database and produces the candidate object set.
///
/// `dataset` yields `(id, sketched_object)` pairs; iteration order does
/// not affect the result (ties are broken by object id, not arrival
/// order). Returns the candidate ids and scan statistics.
pub fn filter_candidates<'a, I>(
    query: &SketchedObject,
    dataset: I,
    params: &FilterParams,
) -> Result<(HashSet<ObjectId>, FilterStats)>
where
    I: IntoIterator<Item = (ObjectId, &'a SketchedObject)>,
{
    let mut scan = FilterScan::new(query, params)?;
    for (id, so) in dataset {
        scan.observe(id, so)?;
    }
    Ok(scan.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{BitVec, SketchedObject};

    fn sketched(bits: &[&[bool]], weights: &[f32]) -> SketchedObject {
        SketchedObject {
            weights: weights.to_vec(),
            sketches: bits.iter().map(|b| BitVec::from_bits(b)).collect(),
        }
    }

    /// 4-bit sketch helper.
    fn s4(a: bool, b: bool, c: bool, d: bool) -> Vec<bool> {
        vec![a, b, c, d]
    }

    #[test]
    fn default_params_are_valid() {
        FilterParams::default().validate().unwrap();
    }

    #[test]
    fn params_validation() {
        let p = FilterParams {
            query_segments: 0,
            ..FilterParams::default()
        };
        assert!(p.validate().is_err());
        let p = FilterParams {
            candidates_per_segment: 0,
            ..FilterParams::default()
        };
        assert!(p.validate().is_err());
        let p = FilterParams {
            weight_attenuation: 1.5,
            ..FilterParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn threshold_decreases_with_weight() {
        let p = FilterParams {
            base_threshold: Some(100),
            weight_attenuation: 0.5,
            ..FilterParams::default()
        };
        let t_light = p.threshold_for_weight(0.1).unwrap();
        let t_heavy = p.threshold_for_weight(0.9).unwrap();
        assert!(t_heavy < t_light, "{t_heavy} !< {t_light}");
        assert_eq!(p.threshold_for_weight(0.0).unwrap(), 100);
        // No threshold configured -> None.
        assert!(FilterParams::default().threshold_for_weight(0.5).is_none());
    }

    #[test]
    fn finds_objects_with_close_segments() {
        let query = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let near = sketched(&[&s4(true, true, false, true)], &[1.0]); // hamming 1
        let far = sketched(&[&s4(false, false, true, true)], &[1.0]); // hamming 4
        let data = vec![(ObjectId(1), &near), (ObjectId(2), &far)];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 1,
            ..FilterParams::default()
        };
        let (cands, stats) = filter_candidates(&query, data, &p).unwrap();
        assert!(cands.contains(&ObjectId(1)));
        assert!(!cands.contains(&ObjectId(2)));
        assert_eq!(stats.objects_scanned, 2);
        assert_eq!(stats.segments_scanned, 2);
        assert_eq!(stats.candidates, 1);
    }

    #[test]
    fn threshold_excludes_distant_matches() {
        let query = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let far = sketched(&[&s4(false, false, false, false)], &[1.0]); // hamming 4
        let data = vec![(ObjectId(1), &far)];
        // Without a threshold the k-NN keeps it even though it is far.
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 5,
            ..FilterParams::default()
        };
        let (cands, _) = filter_candidates(&query, data.clone(), &p).unwrap();
        assert_eq!(cands.len(), 1);
        // With a threshold of 2 bits it is dropped.
        let p = FilterParams {
            base_threshold: Some(2),
            weight_attenuation: 0.0,
            ..p
        };
        let (cands, stats) = filter_candidates(&query, data, &p).unwrap();
        assert!(cands.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn keeps_k_nearest_only() {
        let query = sketched(&[&s4(true, true, true, true)], &[1.0]);
        // Objects at increasing Hamming distance 0, 1, 2, 3.
        let d0 = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let d1 = sketched(&[&s4(true, true, true, false)], &[1.0]);
        let d2 = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let d3 = sketched(&[&s4(true, false, false, false)], &[1.0]);
        let data = vec![
            (ObjectId(3), &d3),
            (ObjectId(0), &d0),
            (ObjectId(2), &d2),
            (ObjectId(1), &d1),
        ];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 2,
            ..FilterParams::default()
        };
        let (cands, _) = filter_candidates(&query, data, &p).unwrap();
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&ObjectId(0)) && cands.contains(&ObjectId(1)));
    }

    #[test]
    fn uses_highest_weight_query_segments() {
        // Query has a heavy segment (all ones) and a light one (all zeros);
        // with r = 1 only the heavy segment drives filtering.
        let query = sketched(
            &[&s4(false, false, false, false), &s4(true, true, true, true)],
            &[0.1, 0.9],
        );
        let matches_heavy = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let matches_light = sketched(&[&s4(false, false, false, false)], &[1.0]);
        let data = vec![(ObjectId(1), &matches_heavy), (ObjectId(2), &matches_light)];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 1,
            ..FilterParams::default()
        };
        let (cands, _) = filter_candidates(&query, data, &p).unwrap();
        assert!(cands.contains(&ObjectId(1)));
        assert!(!cands.contains(&ObjectId(2)));
    }

    #[test]
    fn multi_segment_objects_counted_once() {
        let query = sketched(&[&s4(true, true, false, false)], &[1.0]);
        let multi = sketched(
            &[&s4(true, true, false, false), &s4(true, true, false, true)],
            &[0.5, 0.5],
        );
        let data = vec![(ObjectId(7), &multi)];
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 10,
            ..FilterParams::default()
        };
        let (cands, stats) = filter_candidates(&query, data, &p).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(stats.segments_scanned, 2);
    }

    #[test]
    fn empty_dataset_gives_empty_candidates() {
        let query = sketched(&[&s4(true, false, true, false)], &[1.0]);
        let (cands, stats) =
            filter_candidates(&query, Vec::new(), &FilterParams::default()).unwrap();
        assert!(cands.is_empty());
        assert_eq!(stats.objects_scanned, 0);
    }

    #[test]
    fn kept_set_is_scan_order_independent() {
        // Ties at the same Hamming distance resolve by object id, so a
        // reversed scan keeps the same candidates.
        let query = sketched(&[&s4(true, true, true, true)], &[1.0]);
        let tied: Vec<SketchedObject> = (0..10)
            .map(|_| sketched(&[&s4(true, true, true, false)], &[1.0]))
            .collect();
        let forward: Vec<(ObjectId, &SketchedObject)> = tied
            .iter()
            .enumerate()
            .map(|(i, so)| (ObjectId(i as u64), so))
            .collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let p = FilterParams {
            query_segments: 1,
            candidates_per_segment: 3,
            ..FilterParams::default()
        };
        let (a, _) = filter_candidates(&query, forward, &p).unwrap();
        let (b, _) = filter_candidates(&query, reversed, &p).unwrap();
        assert_eq!(a, b);
        // Lowest ids win ties.
        assert_eq!(a, HashSet::from([ObjectId(0), ObjectId(1), ObjectId(2)]));
    }

    #[test]
    fn rejects_empty_query() {
        let query = SketchedObject {
            weights: vec![],
            sketches: vec![],
        };
        assert!(matches!(
            filter_candidates(&query, Vec::new(), &FilterParams::default()),
            Err(CoreError::EmptyObject)
        ));
    }
}
