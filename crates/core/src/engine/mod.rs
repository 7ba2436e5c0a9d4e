//! The core similarity search engine (paper §4.1.1).
//!
//! The engine owns the sketch construction unit, the (optional) feature
//! vector metadata, the sketch database, the filtering unit and the ranking
//! unit. It supports the three query approaches evaluated in the paper
//! (§6.3.3): `BruteForceOriginal`, `BruteForceSketch`, and `Filtering`.
//! Inserts, removals and retunes live in `ingest`; every query runs the
//! one staged driver in `query`.

mod ingest;
mod query;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crate::distance::{ObjectDistance, SegmentDistance};
use crate::error::{CoreError, Result};
use crate::filter::FilterParams;
use crate::object::{DataObject, ObjectId};
use crate::rank::SearchResult;
use crate::sketch::{SketchBuilder, SketchParams, SketchedObject};
use crate::storage::Storage;
use crate::telemetry::{MetricsRegistry, QueryTrace};

/// How a query traverses the dataset (paper §6.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// Compute the object distance to every object using original feature
    /// vectors. Most accurate, slowest, requires stored originals.
    BruteForceOriginal,
    /// Compute the object distance to every object using sketches only
    /// (segment distances estimated by scaled Hamming distance).
    BruteForceSketch,
    /// Sketch-based filtering to a small candidate set, then accurate
    /// ranking of the candidates.
    Filtering,
}

impl std::fmt::Display for QueryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QueryMode::BruteForceOriginal => "brute-force-original",
            QueryMode::BruteForceSketch => "brute-force-sketch",
            QueryMode::Filtering => "filtering",
        };
        f.write_str(s)
    }
}

/// The object distance used by the ranking unit.
#[derive(Clone)]
pub enum RankingMethod {
    /// Exact Earth Mover's Distance over the segment distance.
    Emd,
    /// EMD with ground distances clamped at `tau` and optional square-root
    /// weight transformation (the improved EMD of CIKM'04, paper §4.2.2).
    ThresholdedEmd {
        /// Ground-distance clamp, in segment-distance units.
        tau: f64,
        /// Apply the square-root weighting transform before matching.
        sqrt_weights: bool,
    },
    /// Greedy EMD approximation (upper bound, faster).
    GreedyEmd,
    /// A user-supplied object distance; only usable with stored originals
    /// (`BruteForceOriginal` or the ranking phase of `Filtering`).
    Custom(Arc<dyn ObjectDistance>),
}

impl std::fmt::Debug for RankingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankingMethod::Emd => write!(f, "Emd"),
            RankingMethod::ThresholdedEmd { tau, sqrt_weights } => {
                write!(
                    f,
                    "ThresholdedEmd {{ tau: {tau}, sqrt_weights: {sqrt_weights} }}"
                )
            }
            RankingMethod::GreedyEmd => write!(f, "GreedyEmd"),
            RankingMethod::Custom(d) => write!(f, "Custom({})", d.name()),
        }
    }
}

/// Engine construction parameters.
///
/// Marked `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates: construct via [`EngineConfig::basic`], then refine
/// fields directly, or set them through [`EngineBuilder`].
#[derive(Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Sketch construction parameters (`N`, `K`, per-dimension ranges).
    pub sketch: SketchParams,
    /// Seed for the sketch construction unit's random `(i, t)` pairs.
    pub seed: u64,
    /// The segment distance function (used for original-vector EMD grounds).
    pub seg_distance: Arc<dyn SegmentDistance>,
    /// The object distance used by the ranking unit.
    pub ranking: RankingMethod,
    /// Keep original feature vectors in memory. When `false` the engine is
    /// sketch-only ("users have the option to use compact sketches as the
    /// only internal data structures", §4.1.1); `BruteForceOriginal` queries
    /// are then rejected and `Filtering` ranks with sketches.
    pub store_originals: bool,
}

impl EngineConfig {
    /// Conventional configuration: ℓ₁ segment distance, exact EMD ranking,
    /// originals stored.
    pub fn basic(sketch: SketchParams, seed: u64) -> Self {
        Self {
            sketch,
            seed,
            seg_distance: Arc::new(crate::distance::lp::L1),
            ranking: RankingMethod::Emd,
            store_originals: true,
        }
    }
}

/// Maps a ranking distance to a similarity score in `(0, 1]`: `1 / (1 + d)`.
///
/// Monotone decreasing in the distance, so similarity order always equals
/// distance order; distance `0` is similarity `1`. This is the scale both
/// the `min_similarity` threshold and weighted fusion scoring use.
pub fn similarity_from_distance(d: f64) -> f64 {
    1.0 / (1.0 + d)
}

/// Per-query options.
///
/// Marked `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates: construct via [`QueryOptions::default`] or the named
/// constructors, then refine with the fluent `with_*` methods or set the
/// remaining fields directly.
///
/// ```
/// use ferret_core::engine::{QueryMode, QueryOptions};
/// let opts = QueryOptions::default()
///     .with_k(5)
///     .with_mode(QueryMode::BruteForceOriginal);
/// assert_eq!(opts.k, 5);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryOptions {
    /// Number of results to return.
    pub k: usize,
    /// Query traversal mode.
    pub mode: QueryMode,
    /// Filtering parameters (used only in [`QueryMode::Filtering`]).
    pub filter: FilterParams,
    /// Restrict the search to these objects (e.g. the result of an
    /// attribute-based search, paper §4.1.2). `None` searches everything.
    pub restrict: Option<HashSet<ObjectId>>,
    /// Override the query object's segment weights ("adjusted weights for
    /// feature vectors", paper §4.1.4). Must match the query's segment
    /// count and obey the object weight rule (each weight finite and
    /// non-negative, a positive sum); weights are re-normalized.
    pub weight_override: Option<Vec<f32>>,
    /// Drop results whose similarity `1 / (1 + distance)` falls below this
    /// threshold (must lie in `[0, 1]`). Applied after ranking, so it only
    /// shrinks the result list.
    pub min_similarity: Option<f64>,
    /// Cap the final result list at this many entries (must be > 0).
    /// Unlike `k` — the size of the ranked similarity pool — the limit is
    /// applied *after* the min-similarity threshold (and, in the service
    /// layer, after fusion).
    pub limit: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            k: 10,
            mode: QueryMode::Filtering,
            filter: FilterParams::default(),
            restrict: None,
            weight_override: None,
            min_similarity: None,
            limit: None,
        }
    }
}

impl QueryOptions {
    /// Options for a brute-force query over the original feature vectors.
    pub fn brute_force(k: usize) -> Self {
        Self {
            k,
            mode: QueryMode::BruteForceOriginal,
            ..Self::default()
        }
    }

    /// Options for a brute-force query over sketches.
    pub fn brute_force_sketch(k: usize) -> Self {
        Self {
            k,
            mode: QueryMode::BruteForceSketch,
            ..Self::default()
        }
    }

    /// Options for a filtered query.
    pub fn filtering(k: usize, filter: FilterParams) -> Self {
        Self {
            k,
            mode: QueryMode::Filtering,
            filter,
            ..Self::default()
        }
    }

    /// Sets the number of results to return.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the traversal mode.
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the filtering parameters (used in [`QueryMode::Filtering`]).
    pub fn with_filter(mut self, filter: FilterParams) -> Self {
        self.filter = filter;
        self
    }

    /// Restricts the search to `ids` (e.g. an attribute-search result).
    pub fn with_restrict(mut self, ids: HashSet<ObjectId>) -> Self {
        self.restrict = Some(ids);
        self
    }

    /// Validates the result-shaping knobs (`min_similarity`, `limit`).
    fn validate_shape(&self) -> Result<()> {
        if let Some(ms) = self.min_similarity {
            if !ms.is_finite() || !(0.0..=1.0).contains(&ms) {
                return Err(CoreError::InvalidQuery(format!(
                    "min similarity {ms} outside [0, 1]"
                )));
            }
        }
        if self.limit == Some(0) {
            return Err(CoreError::InvalidQuery("limit must be > 0".into()));
        }
        Ok(())
    }

    /// Applies the result-shaping knobs to a ranked result list: the
    /// min-similarity threshold first, then the limit. Shaping only ever
    /// removes entries from the tail region; the surviving prefix order is
    /// untouched, so shaped results stay a prefix-consistent view of the
    /// unshaped ranking.
    pub fn apply_shape(&self, results: &mut Vec<SearchResult>) {
        if let Some(ms) = self.min_similarity {
            results.retain(|r| similarity_from_distance(r.distance) >= ms);
        }
        if let Some(limit) = self.limit {
            results.truncate(limit);
        }
    }
}

/// Statistics collected while answering one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// The traversal mode used.
    pub mode: QueryMode,
    /// Objects visited during filtering or brute-force scanning.
    pub objects_scanned: usize,
    /// Segment sketches compared during filtering.
    pub segments_scanned: usize,
    /// Objects whose object distance to the query was evaluated.
    pub distance_evals: usize,
    /// Wall-clock time for the query.
    pub elapsed: Duration,
}

/// A query answer: ranked results plus statistics.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Ranked results, closest first.
    pub results: Vec<SearchResult>,
    /// Query execution statistics.
    pub stats: QueryStats,
    /// Per-stage trace, present when engine telemetry is enabled.
    /// Instrumentation never affects `results`: telemetry-on and
    /// telemetry-off runs are byte-identical in everything but this
    /// field.
    pub trace: Option<QueryTrace>,
}

/// Size of the engine's metadata, for storage-ratio reporting (Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataFootprint {
    /// Bytes of original feature-vector metadata (4 bytes per component).
    pub feature_vector_bytes: usize,
    /// Bytes of sketch metadata (packed bits).
    pub sketch_bytes: usize,
    /// Total number of segments stored.
    pub segments: usize,
}

impl MetadataFootprint {
    /// Feature-vector to sketch size ratio (`0.0` if no sketches).
    pub fn ratio(&self) -> f64 {
        if self.sketch_bytes == 0 {
            0.0
        } else {
            self.feature_vector_bytes as f64 / self.sketch_bytes as f64
        }
    }
}

/// Estimated resident bytes of an engine's bulk structures (see
/// [`SearchEngine::memory_estimate`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMemory {
    /// Original feature vectors (0 for sketch-only engines).
    pub originals: usize,
    /// Segment sketches and weights, plus the sketch arenas the filter
    /// scans.
    pub sketches: usize,
}

/// Builds a [`SearchEngine`], mirroring `ServiceBuilder` in the query
/// crate. This is the one construction surface.
///
/// ```
/// use ferret_core::prelude::*;
/// let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
/// let engine = SearchEngine::builder(params, 42).build().unwrap();
/// assert!(engine.is_empty());
/// ```
#[derive(Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl EngineBuilder {
    /// Starts from the conventional configuration (see
    /// [`EngineConfig::basic`]).
    pub fn new(sketch: SketchParams, seed: u64) -> Self {
        Self::from_config(EngineConfig::basic(sketch, seed))
    }

    /// Starts from an existing configuration.
    pub fn from_config(config: EngineConfig) -> Self {
        Self {
            config,
            telemetry: None,
        }
    }

    /// Sets the segment distance function.
    pub fn seg_distance(mut self, seg_distance: Arc<dyn SegmentDistance>) -> Self {
        self.config.seg_distance = seg_distance;
        self
    }

    /// Sets the ranking method.
    pub fn ranking(mut self, ranking: RankingMethod) -> Self {
        self.config.ranking = ranking;
        self
    }

    /// Keeps (or drops) original feature vectors in memory.
    pub fn store_originals(mut self, store_originals: bool) -> Self {
        self.config.store_originals = store_originals;
        self
    }

    /// Wires a metrics registry into the engine at construction time.
    pub fn telemetry(mut self, registry: Option<Arc<MetricsRegistry>>) -> Self {
        self.telemetry = registry;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Result<SearchEngine> {
        let config = self.config;
        let builder = SketchBuilder::new(config.sketch.clone(), config.seed);
        let sketch_scale = 1.0 / builder.hamming_per_l1();
        let storage = Storage::new(builder.nbits());
        let mut engine = SearchEngine {
            builder,
            sketch_scale,
            config,
            telemetry: None,
            storage,
            segments: 0,
        };
        if self.telemetry.is_some() {
            engine.set_telemetry(self.telemetry);
        }
        Ok(engine)
    }
}

/// The core similarity search engine.
pub struct SearchEngine {
    builder: SketchBuilder,
    /// Cached `1 / hamming_per_l1`, the sketch-to-l1 scale factor.
    sketch_scale: f64,
    /// The full construction configuration, kept so [`SearchEngine::retune`]
    /// preserves every knob (not just the ones it re-specifies).
    config: EngineConfig,
    /// When set, queries are timed per stage, metrics are recorded into
    /// the registry, and responses carry a [`QueryTrace`].
    telemetry: Option<Arc<MetricsRegistry>>,
    /// The object maps and the sketch arena.
    storage: Storage,
    /// Segments across all live objects, kept by insert/remove so
    /// [`SearchEngine::memory_estimate`] needs no corpus walk.
    segments: usize,
}

impl SearchEngine {
    /// Starts an [`EngineBuilder`] with the conventional configuration.
    pub fn builder(sketch: SketchParams, seed: u64) -> EngineBuilder {
        EngineBuilder::new(sketch, seed)
    }

    /// The engine's sketch construction unit.
    pub fn sketch_builder(&self) -> &SketchBuilder {
        &self.builder
    }

    /// The engine's full construction configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Enables (or disables, with `None`) telemetry collection. When
    /// enabled, every query records per-stage latency histograms and
    /// scan counters into `registry` and returns a [`QueryTrace`] on its
    /// response. Collection never changes query results.
    pub fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.telemetry = registry;
        // Register the ingest sketch series eagerly so `/metrics` shows
        // them (at zero) even before the first post-enable insert — the
        // initial import typically happens before telemetry is wired up.
        if let Some(registry) = &self.telemetry {
            registry.counter(
                "ferret_sketch_objects_total",
                "Objects sketched on the ingest path.",
                &[],
            );
            registry.counter(
                "ferret_sketch_out_of_range_total",
                "Objects inserted with at least one component outside the calibrated sketch range.",
                &[],
            );
            registry.gauge(
                "ferret_sketch_objects_per_sec",
                "Ingest sketch-construction throughput of the most recent batch.",
                &[],
            );
            // Pushdown counters likewise appear at zero so dashboards can
            // tell "no hybrid queries yet" from "series missing".
            registry.counter(
                "ferret_pushdown_queries_total",
                "Filter-stage queries that carried an attribute candidate set.",
                &[],
            );
            registry.counter(
                "ferret_pushdown_skipped_total",
                "Objects excluded before heap admission by predicate pushdown.",
                &[],
            );
        }
    }

    /// The metrics registry queries record into, if telemetry is on.
    pub fn telemetry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref()
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True if the engine holds no objects.
    pub fn is_empty(&self) -> bool {
        self.storage.len() == 0
    }

    /// True if `id` is stored.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.storage.contains(id)
    }

    /// Object ids in insertion order.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.storage.ids().to_vec()
    }

    /// The original object, if originals are stored.
    pub fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.storage.object(id)
    }

    /// The sketched form of an object.
    pub fn sketched(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.storage.sketch(id)
    }

    /// Estimated resident bytes of the engine's two bulk structures, from
    /// object and segment counts plus the sketch arena's capacity (O(1)).
    pub fn memory_estimate(&self) -> EngineMemory {
        use std::mem::size_of;
        let (objects, segments) = (self.len(), self.segments);
        // A map slot: the id key plus hash-table control and slack.
        let slot = 2 * size_of::<ObjectId>();
        let dim = self.builder.params().dim();
        let sketch_words = self.builder.nbits().div_ceil(64);
        let originals = if self.config.store_originals {
            objects * (slot + size_of::<DataObject>())
                + segments * (size_of::<crate::object::Segment>() + dim * size_of::<f32>())
        } else {
            0
        };
        let sketches = objects * (slot + size_of::<SketchedObject>())
            + segments
                * (size_of::<crate::sketch::BitVec>()
                    + sketch_words * size_of::<u64>()
                    + size_of::<f32>())
            + self.storage.arena().memory_bytes();
        EngineMemory {
            originals,
            sketches,
        }
    }

    /// Current metadata footprint (for storage-ratio reporting).
    pub fn metadata_footprint(&self) -> MetadataFootprint {
        use std::mem::size_of;
        let mut fp = MetadataFootprint::default();
        for &id in self.storage.ids() {
            if let Some(so) = self.storage.sketch(id) {
                fp.segments += so.num_segments();
                fp.sketch_bytes += so
                    .sketches
                    .iter()
                    .map(|s| s.len().div_ceil(8))
                    .sum::<usize>();
            }
            if let Some(obj) = self.storage.object(id) {
                fp.feature_vector_bytes += obj
                    .segments()
                    .iter()
                    .map(|seg| seg.vector.dim() * size_of::<f32>())
                    .sum::<usize>();
            }
        }
        if !self.config.store_originals {
            // Originals not stored: report what they would occupy.
            fp.feature_vector_bytes = fp.segments * self.builder.params().dim() * size_of::<f32>();
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::emd::Emd;
    use crate::vector::FeatureVector;

    fn params(nbits: usize, d: usize) -> SketchParams {
        SketchParams::new(nbits, vec![0.0; d], vec![1.0; d]).unwrap()
    }

    fn obj(parts: &[(&[f32], f32)]) -> DataObject {
        DataObject::new(
            parts
                .iter()
                .map(|(c, w)| (FeatureVector::new(c.to_vec()).unwrap(), *w))
                .collect(),
        )
        .unwrap()
    }

    fn engine(nbits: usize, d: usize) -> SearchEngine {
        SearchEngine::builder(params(nbits, d), 42).build().unwrap()
    }

    /// A small clustered dataset: ids 0..3 near the query, 4..9 far away.
    fn clustered_engine() -> (SearchEngine, DataObject) {
        let mut e = engine(256, 4);
        let query = obj(&[(&[0.1, 0.1, 0.1, 0.1], 0.5), (&[0.2, 0.2, 0.2, 0.2], 0.5)]);
        for i in 0..4u64 {
            let eps = i as f32 * 0.01;
            e.insert(
                ObjectId(i),
                obj(&[
                    (&[0.1 + eps, 0.1, 0.1, 0.1], 0.5),
                    (&[0.2, 0.2 + eps, 0.2, 0.2], 0.5),
                ]),
            )
            .unwrap();
        }
        for i in 4..10u64 {
            let base = 0.6 + (i as f32 - 4.0) * 0.05;
            e.insert(
                ObjectId(i),
                obj(&[
                    (&[base, base, base, base], 0.5),
                    (&[0.9, 0.9, 0.9, base], 0.5),
                ]),
            )
            .unwrap();
        }
        (e, query)
    }

    #[test]
    fn insert_and_lookup() {
        let mut e = engine(64, 2);
        let o = obj(&[(&[0.5, 0.5], 1.0)]);
        e.insert(ObjectId(1), o.clone()).unwrap();
        assert_eq!(e.len(), 1);
        assert!(e.contains(ObjectId(1)));
        assert_eq!(e.object(ObjectId(1)), Some(&o));
        assert!(e.sketched(ObjectId(1)).is_some());
        assert_eq!(e.ids(), &[ObjectId(1)]);
    }

    #[test]
    fn insert_rejects_duplicates_and_bad_dims() {
        let mut e = engine(64, 2);
        e.insert(ObjectId(1), obj(&[(&[0.5, 0.5], 1.0)])).unwrap();
        assert!(matches!(
            e.insert(ObjectId(1), obj(&[(&[0.4, 0.4], 1.0)])),
            Err(CoreError::DuplicateObject(1))
        ));
        assert!(matches!(
            e.insert(ObjectId(2), obj(&[(&[0.5], 1.0)])),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn remove_works() {
        let mut e = engine(64, 2);
        e.insert(ObjectId(1), obj(&[(&[0.5, 0.5], 1.0)])).unwrap();
        assert!(e.remove(ObjectId(1)));
        assert!(!e.remove(ObjectId(1)));
        assert!(e.is_empty());
        // A re-insert under a removed id serves the new payload only.
        let newer = obj(&[(&[0.1, 0.9], 1.0)]);
        e.insert(ObjectId(1), newer.clone()).unwrap();
        assert_eq!(e.object(ObjectId(1)), Some(&newer));
        assert_eq!(
            e.sketched(ObjectId(1)),
            Some(&e.sketch_query(&newer).unwrap())
        );
        assert_eq!(e.ids(), vec![ObjectId(1)]);
    }

    #[test]
    fn brute_force_original_finds_nearest() {
        let (e, q) = clustered_engine();
        let resp = e.query(&q, &QueryOptions::brute_force(4)).unwrap();
        let ids: HashSet<u64> = resp.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, HashSet::from([0, 1, 2, 3]));
        assert_eq!(resp.stats.distance_evals, 10);
        assert_eq!(resp.stats.mode, QueryMode::BruteForceOriginal);
    }

    #[test]
    fn brute_force_sketch_finds_nearest() {
        let (e, q) = clustered_engine();
        let resp = e.query(&q, &QueryOptions::brute_force_sketch(4)).unwrap();
        let ids: HashSet<u64> = resp.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, HashSet::from([0, 1, 2, 3]));
    }

    #[test]
    fn filtering_finds_nearest() {
        let (e, q) = clustered_engine();
        let opts = QueryOptions::filtering(
            4,
            FilterParams {
                query_segments: 2,
                candidates_per_segment: 4,
                ..FilterParams::default()
            },
        );
        let resp = e.query(&q, &opts).unwrap();
        let ids: HashSet<u64> = resp.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, HashSet::from([0, 1, 2, 3]));
        // Filtering must not rank everything.
        assert!(resp.stats.distance_evals < 10);
        assert!(resp.stats.segments_scanned > 0);
    }

    #[test]
    fn restrict_limits_search() {
        let (e, q) = clustered_engine();
        let mut opts = QueryOptions::brute_force(10);
        opts.restrict = Some(HashSet::from([ObjectId(5), ObjectId(6)]));
        let resp = e.query(&q, &opts).unwrap();
        let ids: HashSet<u64> = resp.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, HashSet::from([5, 6]));
    }

    #[test]
    fn query_by_id_uses_seed_object() {
        let (e, _) = clustered_engine();
        let resp = e
            .query_by_id(ObjectId(0), &QueryOptions::brute_force(1))
            .unwrap();
        // The seed itself is its own nearest neighbor.
        assert_eq!(resp.results[0].id, ObjectId(0));
        assert!(resp.results[0].distance < 1e-9);
        assert!(e
            .query_by_id(ObjectId(99), &QueryOptions::brute_force(1))
            .is_err());
    }

    #[test]
    fn sketch_only_engine_rejects_brute_original() {
        let mut cfg = EngineConfig::basic(params(128, 2), 1);
        cfg.store_originals = false;
        let mut e = EngineBuilder::from_config(cfg).build().unwrap();
        e.insert(ObjectId(1), obj(&[(&[0.2, 0.2], 1.0)])).unwrap();
        assert!(e.object(ObjectId(1)).is_none());
        let q = obj(&[(&[0.2, 0.2], 1.0)]);
        assert!(e.query(&q, &QueryOptions::brute_force(1)).is_err());
        // Sketch and filtering modes still work.
        assert!(e.query(&q, &QueryOptions::brute_force_sketch(1)).is_ok());
        let resp = e
            .query(&q, &QueryOptions::filtering(1, FilterParams::default()))
            .unwrap();
        assert_eq!(resp.results.len(), 1);
    }

    #[test]
    fn k_zero_is_invalid() {
        let (e, q) = clustered_engine();
        let opts = QueryOptions {
            k: 0,
            ..QueryOptions::default()
        };
        assert!(e.query(&q, &opts).is_err());
    }

    #[test]
    fn insert_batch_matches_serial_insert_and_is_atomic() {
        let mut serial = engine(128, 2);
        let mut batched = engine(128, 2);
        let items: Vec<(ObjectId, DataObject)> = (0..20u64)
            .map(|i| {
                let x = i as f32 / 20.0;
                (ObjectId(i), obj(&[(&[x, 1.0 - x], 1.0), (&[0.5, x], 2.0)]))
            })
            .collect();
        for (id, o) in items.clone() {
            serial.insert(id, o).unwrap();
        }
        batched.insert_batch(items).unwrap();
        assert_eq!(serial.ids(), batched.ids());
        for id in serial.ids() {
            assert_eq!(serial.sketched(id), batched.sketched(id), "{id:?}");
            assert_eq!(serial.object(id), batched.object(id));
        }
        // A duplicate anywhere in the batch rejects the whole batch.
        let before = batched.len();
        let bad = vec![
            (ObjectId(100), obj(&[(&[0.3, 0.3], 1.0)])),
            (ObjectId(5), obj(&[(&[0.4, 0.4], 1.0)])),
        ];
        assert!(matches!(
            batched.insert_batch(bad),
            Err(CoreError::DuplicateObject(5))
        ));
        assert_eq!(batched.len(), before);
        assert!(!batched.contains(ObjectId(100)));
        // Duplicates within the batch itself are also rejected.
        let twice = vec![
            (ObjectId(200), obj(&[(&[0.3, 0.3], 1.0)])),
            (ObjectId(200), obj(&[(&[0.4, 0.4], 1.0)])),
        ];
        assert!(batched.insert_batch(twice).is_err());
        assert!(!batched.contains(ObjectId(200)));
    }

    #[test]
    fn metadata_footprint_reports_ratio() {
        let (e, _) = clustered_engine();
        let fp = e.metadata_footprint();
        assert_eq!(fp.segments, 20);
        // 4 dims * 4 bytes = 16 bytes per vector; 256-bit sketch = 32 bytes.
        assert_eq!(fp.feature_vector_bytes, 20 * 16);
        assert_eq!(fp.sketch_bytes, 20 * 32);
        assert!((fp.ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thresholded_ranking_works_in_all_modes() {
        let mut cfg = EngineConfig::basic(params(256, 4), 3);
        cfg.ranking = RankingMethod::ThresholdedEmd {
            tau: 0.5,
            sqrt_weights: true,
        };
        let mut e = EngineBuilder::from_config(cfg).build().unwrap();
        for i in 0..5u64 {
            let x = i as f32 * 0.2;
            e.insert(ObjectId(i), obj(&[(&[x, x, x, x], 1.0)])).unwrap();
        }
        let q = obj(&[(&[0.0, 0.0, 0.0, 0.0], 1.0)]);
        for mode in [
            QueryMode::BruteForceOriginal,
            QueryMode::BruteForceSketch,
            QueryMode::Filtering,
        ] {
            let opts = QueryOptions {
                mode,
                k: 1,
                ..QueryOptions::default()
            };
            let resp = e.query(&q, &opts).unwrap();
            assert_eq!(resp.results[0].id, ObjectId(0), "mode {mode}");
        }
    }

    #[test]
    fn custom_ranking_rejected_for_sketch_mode() {
        let mut cfg = EngineConfig::basic(params(64, 2), 1);
        cfg.ranking = RankingMethod::Custom(Arc::new(Emd::new(crate::distance::lp::L2)));
        let mut e = EngineBuilder::from_config(cfg).build().unwrap();
        e.insert(ObjectId(1), obj(&[(&[0.5, 0.5], 1.0)])).unwrap();
        let q = obj(&[(&[0.5, 0.5], 1.0)]);
        assert!(e.query(&q, &QueryOptions::brute_force_sketch(1)).is_err());
        assert!(e.query(&q, &QueryOptions::brute_force(1)).is_ok());
    }

    /// A fresh engine over `source`'s live objects: the reference a
    /// retune must reproduce.
    fn fresh_copy(source: &SearchEngine, sketch: SketchParams, seed: u64) -> SearchEngine {
        let mut fresh = SearchEngine::builder(sketch, seed).build().unwrap();
        for id in source.ids() {
            fresh
                .insert(id, source.object(id).unwrap().clone())
                .unwrap();
        }
        fresh
    }

    #[test]
    fn derive_and_retune() {
        let (mut e, q) = clustered_engine();
        let derived = e.derive_sketch_params(512, 2).unwrap();
        assert_eq!(derived.dim(), 4);
        assert!(derived
            .mins
            .iter()
            .zip(derived.maxs.iter())
            .all(|(a, b)| a < b));
        let fresh = fresh_copy(&e, derived.clone(), 99);
        e.retune(derived, 99).unwrap();
        assert_eq!(e.ids(), fresh.ids());
        for id in e.ids() {
            assert_eq!(e.sketched(id), fresh.sketched(id), "{id}");
        }
        // Data-derived ranges keep retrieval working.
        let resp = e.query(&q, &QueryOptions::brute_force_sketch(4)).unwrap();
        let ids: HashSet<u64> = resp.results.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, HashSet::from([0, 1, 2, 3]));
        // Sketch-only engines cannot retune.
        let mut cfg = EngineConfig::basic(params(64, 2), 1);
        cfg.store_originals = false;
        let mut sk = EngineBuilder::from_config(cfg).build().unwrap();
        assert!(sk.derive_sketch_params(64, 1).is_err());
        assert!(sk.retune(params(64, 2), 0).is_err());
    }

    #[test]
    fn retune_in_place_equals_fresh_build() {
        let (clustered, _) = clustered_engine();
        let mut e = SearchEngine::builder(params(256, 4), 42).build().unwrap();
        for id in clustered.ids() {
            e.insert(id, clustered.object(id).unwrap().clone()).unwrap();
        }
        // A removed object must not come back.
        assert!(e.remove(ObjectId(1)));
        let derived = e.derive_sketch_params(512, 2).unwrap();
        let fresh = fresh_copy(&e, derived.clone(), 99);
        let before = e.memory_estimate();
        e.retune(derived.clone(), 99).unwrap();
        assert_eq!(e.ids(), fresh.ids());
        assert_eq!(e.sketch_builder().params(), &derived);
        assert_eq!(e.config().seed, 99);
        for id in e.ids() {
            assert_eq!(e.sketched(id), fresh.sketched(id), "{id}");
            assert_eq!(e.object(id), fresh.object(id));
        }
        // 9 objects × 2 segments survive; only the sketch width grew.
        let after = e.memory_estimate();
        assert_eq!(after.originals, before.originals);
        assert_eq!(after.originals, fresh.memory_estimate().originals);
        assert!(after.sketches > before.sketches);
        // A wrong dimensionality is refused before anything is torn down.
        assert!(e.retune(params(64, 2), 1).is_err());
        assert_eq!(e.len(), 9);
        assert_eq!(e.sketch_builder().params(), &derived);
    }

    #[test]
    fn weight_override_changes_ranking() {
        // Two stored objects match the query's two segments respectively;
        // shifting the query weights flips which one ranks first.
        let mut e = engine(512, 2);
        e.insert(ObjectId(1), obj(&[(&[0.1, 0.1], 1.0)])).unwrap();
        e.insert(ObjectId(2), obj(&[(&[0.9, 0.9], 1.0)])).unwrap();
        let q = obj(&[(&[0.1, 0.1], 0.5), (&[0.9, 0.9], 0.5)]);
        let mut opts = QueryOptions::brute_force(1);
        opts.weight_override = Some(vec![1.0, 0.0]);
        let resp = e.query(&q, &opts).unwrap();
        assert_eq!(resp.results[0].id, ObjectId(1));
        opts.weight_override = Some(vec![0.0, 1.0]);
        let resp = e.query(&q, &opts).unwrap();
        assert_eq!(resp.results[0].id, ObjectId(2));
        // Mismatched length is rejected.
        opts.weight_override = Some(vec![1.0]);
        assert!(e.query(&q, &opts).is_err());
    }

    #[test]
    fn weight_override_in_sketch_seeded_query() {
        let mut e = engine(512, 2);
        e.insert(ObjectId(0), obj(&[(&[0.1, 0.1], 0.5), (&[0.9, 0.9], 0.5)]))
            .unwrap();
        e.insert(ObjectId(1), obj(&[(&[0.1, 0.1], 1.0)])).unwrap();
        e.insert(ObjectId(2), obj(&[(&[0.9, 0.9], 1.0)])).unwrap();
        let mut opts = QueryOptions::brute_force_sketch(2);
        opts.weight_override = Some(vec![1.0, 0.0]);
        let resp = e.query_by_id(ObjectId(0), &opts).unwrap();
        let top_non_self = resp.results.iter().find(|r| r.id != ObjectId(0)).unwrap();
        assert_eq!(top_non_self.id, ObjectId(1));
        opts.weight_override = Some(vec![0.0, 0.0]);
        assert!(e.query_by_id(ObjectId(0), &opts).is_err());
        opts.weight_override = Some(vec![1.0]);
        assert!(e.query_by_id(ObjectId(0), &opts).is_err());
    }

    #[test]
    fn every_mode_and_seed_validates_k_and_weights_alike() {
        let (e, q) = clustered_engine();
        for mode in [
            QueryMode::BruteForceOriginal,
            QueryMode::BruteForceSketch,
            QueryMode::Filtering,
        ] {
            let mut opts = QueryOptions::default().with_mode(mode).with_k(0);
            for answer in [e.query(&q, &opts), e.query_by_id(ObjectId(3), &opts)] {
                assert!(
                    matches!(&answer, Err(CoreError::InvalidQuery(m)) if m == "k must be > 0"),
                    "{mode}: {answer:?}"
                );
            }
            opts.k = 5;
            for (weights, want) in [
                (vec![2.0, -1.0], "segment 1 has weight -1"),
                (vec![0.0, 0.0], "weights sum to zero"),
            ] {
                opts.weight_override = Some(weights);
                for answer in [e.query(&q, &opts), e.query_by_id(ObjectId(3), &opts)] {
                    assert!(
                        matches!(&answer, Err(CoreError::InvalidWeights(m)) if m == want),
                        "{mode}: {answer:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sketch_distance_scaling_tracks_l1() {
        // With many bits, the sketched object distance should approximate
        // the true EMD/l1 distance reasonably well.
        let mut e = SearchEngine::builder(params(4096, 4), 9).build().unwrap();
        let a = obj(&[(&[0.2, 0.2, 0.2, 0.2], 1.0)]);
        let b = obj(&[(&[0.4, 0.4, 0.4, 0.4], 1.0)]);
        e.insert(ObjectId(1), b.clone()).unwrap();
        let sa = e.sketch_query(&a).unwrap();
        let sb = e.sketch_query(&b).unwrap();
        let est = e.sketched_object_distance(&sa, &sb).unwrap();
        // True l1 distance is 0.8.
        assert!((est - 0.8).abs() < 0.15, "estimate {est}");
    }
}
