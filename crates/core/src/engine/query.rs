//! The engine's query path (paper §4.1.1): one driver takes a seed
//! through a sketch stage, a candidate stage and a rank stage. The three
//! query modes of §6.3.3 only choose which stages run and what the ranker
//! reads.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use super::{QueryMode, QueryOptions, QueryResponse, QueryStats, RankingMethod, SearchEngine};
use crate::distance::emd::{emd_with_costs, greedy_emd_with_costs, Emd, GreedyEmd, ThresholdedEmd};
use crate::distance::ObjectDistance;
use crate::error::{CoreError, Result};
use crate::filter::filter_candidates_arena;
use crate::object::{weight_sum, DataObject, ObjectId};
use crate::parallel::{try_map_chunked, DEFAULT_CHUNK};
use crate::rank::{rank_candidates_parallel, rank_scores, SearchResult};
use crate::sketch::SketchedObject;
use crate::telemetry::{MetricsRegistry, QueryTrace, StageClock, StageTrace, Unit, SIZE_BUCKETS};

/// What a query starts from. A stored seed is borrowed; only a weight
/// override makes a copy.
enum Seed<'a> {
    /// An object: sketched when the mode reads sketches, ranked against
    /// originals when the engine has them.
    Object(Cow<'a, DataObject>),
    /// A stored sketch: a `mode=sketch` query seeded by id needs no
    /// original.
    Sketch(Cow<'a, SketchedObject>),
}

impl Seed<'_> {
    /// The seed with its segment weights replaced by `weights`, held to
    /// the object weight rule and normalised like an object's (an object
    /// seed is rebuilt by `DataObject::new`, which applies both).
    fn reweighted(self, weights: &[f32]) -> Result<Self> {
        let segments = match &self {
            Seed::Object(o) => o.num_segments(),
            Seed::Sketch(s) => s.num_segments(),
        };
        if weights.len() != segments {
            return Err(CoreError::InvalidQuery(format!(
                "weight override has {} entries for {segments} query segments",
                weights.len()
            )));
        }
        Ok(match self {
            Seed::Object(o) => Seed::Object(Cow::Owned(DataObject::new(
                o.segments()
                    .iter()
                    .zip(weights)
                    .map(|(seg, &w)| (seg.vector.clone(), w))
                    .collect(),
            )?)),
            Seed::Sketch(s) => {
                let sum = weight_sum(weights.iter().copied())?;
                let mut s = s.into_owned();
                s.weights = weights
                    .iter()
                    .map(|&w| (f64::from(w) / sum) as f32)
                    .collect();
                Seed::Sketch(Cow::Owned(s))
            }
        })
    }
}

impl SearchEngine {
    /// Sketches a query object with the engine's construction unit.
    pub fn sketch_query(&self, query: &DataObject) -> Result<SketchedObject> {
        self.builder.sketch_object(query)
    }

    /// Answers a similarity query.
    pub fn query(&self, query: &DataObject, options: &QueryOptions) -> Result<QueryResponse> {
        self.run(Seed::Object(Cow::Borrowed(query)), options)
    }

    /// Answers a query using a stored object as the seed
    /// ("similarity search requires a seed or initial query object", §4.1.2).
    /// A `mode=sketch` query is seeded by the stored sketch, so it also
    /// works on a sketch-only engine.
    pub fn query_by_id(&self, id: ObjectId, options: &QueryOptions) -> Result<QueryResponse> {
        let seed = match options.mode {
            QueryMode::BruteForceSketch => self
                .storage
                .sketch(id)
                .map(|s| Seed::Sketch(Cow::Borrowed(s))),
            _ => self
                .storage
                .object(id)
                .map(|o| Seed::Object(Cow::Borrowed(o))),
        };
        self.run(seed.ok_or(CoreError::UnknownObject(id.0))?, options)
    }

    /// The one query driver: validates the options, runs the sketch,
    /// candidate and rank stages, shapes the results and records the
    /// query's statistics, trace and metrics.
    fn run(&self, seed: Seed<'_>, options: &QueryOptions) -> Result<QueryResponse> {
        if options.k == 0 {
            return Err(CoreError::InvalidQuery("k must be > 0".into()));
        }
        options.validate_shape()?;
        let seed = match &options.weight_override {
            Some(weights) => seed.reweighted(weights)?,
            None => seed,
        };
        let start = Instant::now();
        let mut trace = self.telemetry.is_some().then(QueryTrace::default);

        // Sketch stage: an object seed in a mode that reads sketches.
        let sketched;
        let sketch = match &seed {
            Seed::Sketch(s) => Some(s.as_ref()),
            Seed::Object(_) if options.mode == QueryMode::BruteForceOriginal => None,
            Seed::Object(o) => {
                let clock = StageClock::start(trace.is_some());
                sketched = self.builder.sketch_object(o)?;
                record_stage(&mut trace, |t| &mut t.sketch, clock, 1);
                Some(&sketched)
            }
        };

        // Candidate stage: the filter's candidates in id order, or every
        // live object the restrict set allows.
        let (candidates, objects_scanned, segments_scanned) = match sketch {
            Some(qs) if options.mode == QueryMode::Filtering => {
                self.filter_stage(qs, options, &mut trace)?
            }
            _ => {
                let allowed =
                    |id: &ObjectId| options.restrict.as_ref().is_none_or(|s| s.contains(id));
                let ids: Vec<ObjectId> =
                    self.storage.ids().iter().copied().filter(allowed).collect();
                let scanned = ids.len();
                (ids, scanned, 0)
            }
        };

        // Rank stage: EMD over the originals, or the sketch estimate.
        let by_originals =
            options.mode != QueryMode::BruteForceSketch && self.config.store_originals;
        let threads = self.config.parallelism.threads_for(candidates.len());
        let clock = StageClock::start(trace.is_some());
        let mut results = match (&seed, sketch) {
            (Seed::Object(query), _) if by_originals => {
                let dist = self.object_distance_original();
                let cands: Vec<(ObjectId, &DataObject)> = candidates
                    .iter()
                    .filter_map(|&id| self.storage.object(id).map(|o| (id, o)))
                    .collect();
                rank_candidates_parallel(query, &cands, dist.as_ref(), options.k, threads)?
            }
            (_, Some(qs)) => {
                let cands: Vec<(ObjectId, &SketchedObject)> = candidates
                    .iter()
                    .filter_map(|&id| self.storage.sketch(id).map(|so| (id, so)))
                    .collect();
                let scored = try_map_chunked(threads, DEFAULT_CHUNK, &cands, |_, &(id, so)| {
                    let distance = self.sketched_object_distance(qs, so)?;
                    Ok(SearchResult { id, distance })
                })?;
                rank_scores(scored, options.k)
            }
            (_, None) => {
                return Err(CoreError::InvalidQuery(
                    "engine is sketch-only; BruteForceOriginal unavailable".into(),
                ))
            }
        };
        record_stage(&mut trace, |t| &mut t.rank, clock, threads);

        // Finish: shape, then account for the query.
        options.apply_shape(&mut results);
        let stats = QueryStats {
            mode: options.mode,
            objects_scanned,
            segments_scanned,
            distance_evals: candidates.len(),
            elapsed: start.elapsed(),
        };
        if let Some(t) = trace.as_mut() {
            t.mode = stats.mode.to_string();
            t.total = stats.elapsed;
            t.objects_scanned = stats.objects_scanned;
            t.segments_scanned = stats.segments_scanned;
            t.candidates = candidates.len();
            t.distance_evals = stats.distance_evals;
            t.results = results.len();
            if let Some(registry) = &self.telemetry {
                record_query_metrics(registry, t);
            }
        }
        Ok(QueryResponse {
            results,
            stats,
            trace,
        })
    }

    /// The filter candidate stage: one scan of the sketch arena, timed as
    /// the `filter` stage, plus the predicate-pushdown counters. Returns
    /// the candidates in id order (the rank stage's deterministic order)
    /// with the objects and segment sketches scanned.
    fn filter_stage(
        &self,
        qs: &SketchedObject,
        options: &QueryOptions,
        trace: &mut Option<QueryTrace>,
    ) -> Result<(Vec<ObjectId>, usize, usize)> {
        let clock = StageClock::start(trace.is_some());
        let (candidates, fstats) = filter_candidates_arena(
            qs,
            self.storage.arena(),
            &options.filter,
            options.restrict.as_ref(),
        )?;
        // The arena scan runs on the calling thread.
        record_stage(trace, |t| &mut t.filter, clock, 1);
        if let (Some(registry), Some(allowed)) = (&self.telemetry, &options.restrict) {
            // Predicate pushdown: count queries that carried a candidate
            // set and how many live objects it let the filter skip — the
            // live count minus the live members of the set, so no live
            // list is materialised.
            registry.inc_counter(
                "ferret_pushdown_queries_total",
                "Filter-stage queries that carried an attribute candidate set.",
                &[],
                1,
            );
            let allowed_live = allowed
                .iter()
                .filter(|&&id| self.storage.contains(id))
                .count();
            registry.inc_counter(
                "ferret_pushdown_skipped_total",
                "Objects excluded before heap admission by predicate pushdown.",
                &[],
                (self.len() - allowed_live) as u64,
            );
        }
        let mut ids: Vec<ObjectId> = candidates.into_iter().collect();
        ids.sort();
        Ok((ids, fstats.objects_scanned, fstats.segments_scanned))
    }

    fn object_distance_original(&self) -> Box<dyn ObjectDistance + '_> {
        let ground = Arc::clone(&self.config.seg_distance);
        match &self.config.ranking {
            RankingMethod::Emd => Box::new(Emd::new(ground)),
            RankingMethod::ThresholdedEmd { tau, sqrt_weights } => {
                Box::new(ThresholdedEmd::new(ground, *tau, *sqrt_weights))
            }
            RankingMethod::GreedyEmd => Box::new(GreedyEmd::new(ground)),
            RankingMethod::Custom(d) => Box::new(Arc::clone(d)),
        }
    }

    /// Object distance between two sketched objects: EMD over scaled
    /// Hamming ground distances (the sketch estimate of the segment ℓ₁).
    pub fn sketched_object_distance(&self, a: &SketchedObject, b: &SketchedObject) -> Result<f64> {
        let scale = self.sketch_scale;
        let ground =
            |i: usize, j: usize| f64::from(a.sketches[i].hamming_unchecked(&b.sketches[j])) * scale;
        // Single-segment objects: the object distance is the (scaled,
        // possibly thresholded) segment Hamming distance; skip the solver.
        if a.num_segments() == 1 && b.num_segments() == 1 {
            return match &self.config.ranking {
                RankingMethod::Emd | RankingMethod::GreedyEmd => Ok(ground(0, 0)),
                RankingMethod::ThresholdedEmd { tau, .. } => Ok(ground(0, 0).min(*tau)),
                RankingMethod::Custom(_) => Err(CoreError::InvalidQuery(
                    "custom object distance cannot rank sketches".into(),
                )),
            };
        }
        match &self.config.ranking {
            RankingMethod::Emd => emd_with_costs(&a.weights, &b.weights, ground),
            RankingMethod::ThresholdedEmd { tau, sqrt_weights } => {
                let wa = transform_weights(&a.weights, *sqrt_weights);
                let wb = transform_weights(&b.weights, *sqrt_weights);
                emd_with_costs(&wa, &wb, |i, j| ground(i, j).min(*tau))
            }
            RankingMethod::GreedyEmd => greedy_emd_with_costs(&a.weights, &b.weights, ground),
            RankingMethod::Custom(_) => Err(CoreError::InvalidQuery(
                "custom object distance cannot rank sketches".into(),
            )),
        }
    }
}

/// Stores one stage's timing in the trace; a no-op when telemetry is off.
fn record_stage(
    trace: &mut Option<QueryTrace>,
    stage: fn(&mut QueryTrace) -> &mut Option<StageTrace>,
    clock: StageClock,
    threads: usize,
) {
    if let (Some(t), Some(duration)) = (trace.as_mut(), clock.elapsed()) {
        *stage(t) = Some(StageTrace { duration, threads });
    }
}

/// Records one traced query into the metrics registry: per-mode query
/// counts and latency, per-stage latency histograms, and scan volume
/// counters.
fn record_query_metrics(registry: &MetricsRegistry, trace: &QueryTrace) {
    let mode = trace.mode.as_str();
    registry.inc_counter(
        "ferret_queries_total",
        "Similarity queries answered, by traversal mode.",
        &[("mode", mode)],
        1,
    );
    registry.observe_latency(
        "ferret_query_seconds",
        "End-to-end query latency.",
        &[("mode", mode)],
        trace.total,
    );
    let stages = [
        ("rank", &trace.rank),
        ("sketch", &trace.sketch),
        ("filter", &trace.filter),
    ];
    for (stage, st) in stages {
        if let Some(st) = st {
            registry.observe_latency(
                "ferret_query_stage_seconds",
                "Per-stage query latency (sketch, filter scan, EMD rank).",
                &[("stage", stage), ("mode", mode)],
                st.duration,
            );
        }
    }
    registry.inc_counter(
        "ferret_query_objects_scanned_total",
        "Objects visited while scanning.",
        &[("mode", mode)],
        trace.objects_scanned as u64,
    );
    registry.inc_counter(
        "ferret_query_segments_scanned_total",
        "Segment sketches compared during filtering.",
        &[("mode", mode)],
        trace.segments_scanned as u64,
    );
    registry.inc_counter(
        "ferret_query_distance_evals_total",
        "Object-distance evaluations in the ranking stage.",
        &[("mode", mode)],
        trace.distance_evals as u64,
    );
    registry
        .histogram(
            "ferret_query_candidates",
            "Candidate-set size entering the ranking stage.",
            &[("mode", mode)],
            &SIZE_BUCKETS,
            Unit::Raw,
        )
        .observe(trace.candidates as u64);
}

fn transform_weights(weights: &[f32], sqrt: bool) -> Vec<f32> {
    if !sqrt {
        return weights.to_vec();
    }
    let sqrted: Vec<f64> = weights.iter().map(|&w| f64::from(w).sqrt()).collect();
    let sum: f64 = sqrted.iter().sum();
    if sum <= 0.0 {
        return weights.to_vec();
    }
    sqrted.into_iter().map(|w| (w / sum) as f32).collect()
}
