//! The core similarity search engine (paper §4.1.1).
//!
//! The engine owns the sketch construction unit, the (optional) feature
//! vector metadata, the sketch database, the filtering unit and the ranking
//! unit. It supports the three query approaches evaluated in the paper
//! (§6.3.3): `BruteForceOriginal`, `BruteForceSketch`, and `Filtering`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::distance::emd::{emd_with_costs, greedy_emd_with_costs, Emd, GreedyEmd, ThresholdedEmd};
use crate::distance::{ObjectDistance, SegmentDistance};
use crate::error::{CoreError, Result};
use crate::filter::{filter_candidates_arena, FilterParams};
use crate::object::{DataObject, ObjectId};
use crate::parallel::{try_map_chunked, Parallelism, DEFAULT_CHUNK};
use crate::rank::{rank_candidates_parallel, rank_scores, SearchResult};
use crate::segment::{
    IndexLayout, IndexStorage, MonolithicStorage, SegmentedStorage, StorageStats,
};
use crate::sketch::{SketchBuilder, SketchParams, SketchedObject};
use crate::telemetry::{MetricsRegistry, QueryTrace, StageClock, StageTrace, SIZE_BUCKETS};

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
    /// How many threads the query path (filtering scan, EMD ranking) and
    /// batch sketch construction may use. Results are bit-identical for
    /// every setting; this only trades wall-clock time for cores.
    pub parallelism: Parallelism,
    /// Which storage layout backs the object maps and sketch index:
    /// one mutable monolith, or LSM-style immutable segments. Results
    /// are bit-identical for every setting (see [`IndexLayout`]).
    pub index_layout: IndexLayout,
    /// Seal threshold of the segmented layout's memtable (ignored by
    /// [`IndexLayout::Monolithic`]).
    pub memtable_size: usize,
    /// Run the segmented layout's background compaction worker (ignored
    /// by [`IndexLayout::Monolithic`]). Off, segments only merge through
    /// explicit [`SearchEngine::compact`] calls — deterministic, for
    /// tests.
    pub compaction: bool,
}

/// Default memtable seal threshold for [`IndexLayout::Segmented`].
pub const DEFAULT_MEMTABLE_SIZE: usize = 1024;

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
            parallelism: Parallelism::Auto,
            index_layout: IndexLayout::default(),
            memtable_size: DEFAULT_MEMTABLE_SIZE,
            compaction: true,
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

/// How a hybrid query blends the attribute-match ranking with the
/// similarity (EMD) ranking.
///
/// The engine itself never fuses — it has no attribute index. Fusion is
/// interpreted by the service layer (`ferret-query`), which owns both
/// rankings; the mode travels in [`QueryOptions`] so one options value
/// describes the whole query. Both modes order results by
/// `(score descending, object id ascending)`, a deterministic total order.
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
    fn from_str(s: &str) -> Result<Self> {
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

/// Per-query options.
///
/// Marked `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates: construct via [`QueryOptions::default`] or the named
/// constructors, then refine with the fluent `with_*` methods.
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
    /// count; weights are re-normalized.
    pub weight_override: Option<Vec<f32>>,
    /// How a hybrid query blends attribute and similarity rankings. The
    /// engine ignores this (it has no attribute ranking); the service
    /// layer interprets it. See [`FusionMode`].
    pub fusion: FusionMode,
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
            fusion: FusionMode::None,
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

    /// Overrides the query object's segment weights.
    pub fn with_weights(mut self, weights: Vec<f32>) -> Self {
        self.weight_override = Some(weights);
        self
    }

    /// Sets the fusion mode (interpreted by the service layer).
    pub fn with_fusion(mut self, fusion: FusionMode) -> Self {
        self.fusion = fusion;
        self
    }

    /// Drops results whose similarity falls below `threshold`.
    pub fn with_min_similarity(mut self, threshold: f64) -> Self {
        self.min_similarity = Some(threshold);
        self
    }

    /// Caps the final result list at `limit` entries.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
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
/// let engine = SearchEngine::builder(params, 42)
///     .index_layout(IndexLayout::Segmented)
///     .memtable_size(64)
///     .build()
///     .unwrap();
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

    /// Sets the parallelism budget.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the index storage layout.
    pub fn index_layout(mut self, index_layout: IndexLayout) -> Self {
        self.config.index_layout = index_layout;
        self
    }

    /// Sets the segmented layout's memtable seal threshold.
    pub fn memtable_size(mut self, memtable_size: usize) -> Self {
        self.config.memtable_size = memtable_size;
        self
    }

    /// Enables or disables the segmented layout's background compaction.
    pub fn compaction(mut self, compaction: bool) -> Self {
        self.config.compaction = compaction;
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
        let storage: Box<dyn IndexStorage> = match config.index_layout {
            IndexLayout::Monolithic => Box::new(MonolithicStorage::new(builder.nbits())),
            IndexLayout::Segmented => Box::new(SegmentedStorage::new(
                builder.nbits(),
                config.memtable_size,
                config.compaction,
            )),
        };
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
    /// The object maps and sketch index, behind the layout seam.
    storage: Box<dyn IndexStorage>,
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

    /// The engine's index storage layout.
    pub fn index_layout(&self) -> IndexLayout {
        self.storage.layout()
    }

    /// The engine's parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.config.parallelism
    }

    /// Changes the parallelism setting. Affects only wall-clock time:
    /// results are bit-identical across settings.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.config.parallelism = parallelism;
    }

    /// Records one ingest batch into the metrics registry: objects
    /// sketched, those outside the calibrated ranges, the sketch-stage
    /// build timer, and the most recent objects/sec ingest rate.
    fn record_ingest_metrics<'a>(
        &self,
        objects: impl ExactSizeIterator<Item = &'a DataObject>,
        elapsed: Duration,
    ) {
        let Some(registry) = &self.telemetry else {
            return;
        };
        let objects_len = objects.len();
        let params = self.builder.params();
        let out_of_range = objects.filter(|o| !params.covers(o)).count();
        registry.inc_counter(
            "ferret_sketch_objects_total",
            "Objects sketched on the ingest path.",
            &[],
            objects_len as u64,
        );
        registry.inc_counter(
            "ferret_sketch_out_of_range_total",
            "Objects inserted with at least one component outside the calibrated sketch range.",
            &[],
            out_of_range as u64,
        );
        registry.observe_latency(
            "ferret_sketch_build_seconds",
            "Wall time of the ingest sketch-construction stage.",
            &[],
            elapsed,
        );
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            registry
                .gauge(
                    "ferret_sketch_objects_per_sec",
                    "Ingest sketch-construction throughput of the most recent batch.",
                    &[],
                )
                .set((objects_len as f64 / secs) as i64);
        }
    }

    /// Point-in-time statistics of the storage layout (segment counts,
    /// memtable occupancy, tombstones).
    pub fn storage_stats(&self) -> StorageStats {
        self.storage.stats()
    }

    /// The storage epoch: a monotone counter advancing on every visible
    /// mutation (insert, remove, seal, compaction apply). Equal epochs
    /// imply identical visible state.
    pub fn storage_epoch(&self) -> u64 {
        self.storage.epoch()
    }

    /// Seals the segmented layout's memtable into an immutable segment
    /// (no-op for the monolithic layout or an empty memtable).
    pub fn seal(&mut self) -> Result<()> {
        self.storage.seal()
    }

    /// Runs compaction to quiescence inline: merges small or
    /// removal-heavy segment runs synchronously. A no-op for the
    /// monolithic layout.
    pub fn compact(&mut self) -> Result<()> {
        self.storage.merge()
    }

    /// Applies any finished background compactions and schedules due
    /// ones, without blocking. Call periodically (the serve scan loop
    /// does) so background merges land even when the write path is idle.
    pub fn maintain(&mut self) -> Result<()> {
        self.storage.maintain()
    }

    /// Attaches durable segment persistence (segmented layout only; the
    /// monolithic layout has no segments and ignores this). The current
    /// sealed segments are checkpointed immediately.
    pub fn attach_segment_persistence(&mut self, store: ferret_store::SegmentStore) -> Result<()> {
        self.storage.attach_persistence(store)
    }

    /// Enables (or disables, with `None`) telemetry collection. When
    /// enabled, every query records per-stage latency histograms and
    /// scan counters into `registry` and returns a [`QueryTrace`] on its
    /// response. Collection never changes query results.
    pub fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.telemetry = registry;
        self.storage.set_telemetry(self.telemetry.clone());
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
        self.storage.is_empty()
    }

    /// True if `id` is stored.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.storage.contains(id)
    }

    /// Object ids in insertion order.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.storage.live_ids()
    }

    /// The original object, if originals are stored.
    pub fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.storage.object(id)
    }

    /// The sketched form of an object.
    pub fn sketched(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.storage.sketch(id)
    }

    /// Inserts an object: sketches every segment and stores the metadata.
    pub fn insert(&mut self, id: ObjectId, object: DataObject) -> Result<()> {
        if self.storage.contains(id) {
            return Err(CoreError::DuplicateObject(id.0));
        }
        if object.dim() != self.builder.params().dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.builder.params().dim(),
                actual: object.dim(),
            });
        }
        let clock = StageClock::start(self.telemetry.is_some());
        let sketched = self.builder.sketch_object(&object)?;
        if let Some(elapsed) = clock.elapsed() {
            self.record_ingest_metrics(std::iter::once(&object), elapsed);
        }
        let segments = sketched.num_segments();
        let original = self.config.store_originals.then_some(object);
        self.storage.insert(id, sketched, original)?;
        self.segments += segments;
        Ok(())
    }

    /// Inserts a batch of objects, sketching them in parallel according
    /// to the engine's [`Parallelism`] setting.
    ///
    /// The whole batch is validated up front (duplicate ids — against the
    /// store *and* within the batch — and dimension mismatches), so a
    /// failed batch leaves the engine untouched. Insertion order follows
    /// the batch order, and the stored sketches are identical to what
    /// one-by-one [`SearchEngine::insert`] calls would produce.
    pub fn insert_batch(&mut self, items: Vec<(ObjectId, DataObject)>) -> Result<()> {
        let mut batch_ids = HashSet::with_capacity(items.len());
        for (id, object) in &items {
            if self.storage.contains(*id) || !batch_ids.insert(*id) {
                return Err(CoreError::DuplicateObject(id.0));
            }
            if object.dim() != self.builder.params().dim() {
                return Err(CoreError::DimensionMismatch {
                    expected: self.builder.params().dim(),
                    actual: object.dim(),
                });
            }
        }
        let threads = self.config.parallelism.threads_for(items.len());
        let clock = StageClock::start(self.telemetry.is_some());
        let sketched = try_map_chunked(threads, DEFAULT_CHUNK, &items, |_, (_, object)| {
            self.builder.sketch_object(object)
        })?;
        if let Some(elapsed) = clock.elapsed() {
            self.record_ingest_metrics(items.iter().map(|(_, o)| o), elapsed);
        }
        for ((id, object), so) in items.into_iter().zip(sketched) {
            let segments = so.num_segments();
            let original = self.config.store_originals.then_some(object);
            self.storage.insert(id, so, original)?;
            self.segments += segments;
        }
        Ok(())
    }

    /// Removes an object; returns `true` if it was present. With the
    /// segmented layout the removal is a tombstone until compaction
    /// reclaims it, which is why this can now report an I/O error (the
    /// tombstone may trigger a persisted compaction apply).
    pub fn remove(&mut self, id: ObjectId) -> Result<bool> {
        let segments = self
            .storage
            .sketch(id)
            .map_or(0, SketchedObject::num_segments);
        let present = self.storage.tombstone(id)?;
        if present {
            self.segments -= segments;
        }
        Ok(present)
    }

    /// Sketches a query object with the engine's construction unit.
    pub fn sketch_query(&self, query: &DataObject) -> Result<SketchedObject> {
        self.builder.sketch_object(query)
    }

    /// Derives sketch parameters from the stored feature vectors
    /// (per-dimension min/max), keeping `nbits`/`xor_folds` as given.
    /// Requires stored originals and at least one object.
    pub fn derive_sketch_params(&self, nbits: usize, xor_folds: usize) -> Result<SketchParams> {
        if !self.config.store_originals {
            return Err(CoreError::InvalidQuery(
                "engine is sketch-only; cannot derive parameters".into(),
            ));
        }
        let live = self.storage.live_refs();
        SketchParams::from_objects(nbits, xor_folds, live.iter().filter_map(|(_, _, obj)| *obj))
    }

    /// An empty engine configured like this one except for the sketch
    /// geometry and seed: the first half of a retune.
    fn reconfigured(&self, sketch: SketchParams, seed: u64) -> Result<SearchEngine> {
        if !self.config.store_originals {
            return Err(CoreError::InvalidQuery(
                "engine is sketch-only; cannot rebuild".into(),
            ));
        }
        // Preserve the *entire* configuration — only the sketch geometry
        // and seed change. (Constructing a fresh config here used to
        // silently reset every knob added after the original fields.)
        let mut config = self.config.clone();
        config.sketch = sketch;
        config.seed = seed;
        // Carry the registry over so a retune does not silently disable
        // telemetry on the replacement engine.
        EngineBuilder::from_config(config)
            .telemetry(self.telemetry.clone())
            .build()
    }

    /// Sketches `items` into this (empty) engine and takes
    /// over durable segment persistence: the first checkpoint commits a
    /// manifest naming only this engine's segment files, superseding (and
    /// garbage-collecting) the previous owner's.
    fn adopt(
        &mut self,
        items: Vec<(ObjectId, DataObject)>,
        store: Option<ferret_store::SegmentStore>,
    ) -> Result<()> {
        self.insert_batch(items)?;
        match store {
            Some(store) => self.attach_segment_persistence(store),
            None => Ok(()),
        }
    }

    /// Re-sketches this engine in place with new sketch parameters (the
    /// parameter-tuning loop of paper §4.3). The originals are moved, not
    /// copied, and the old sketches are dropped before the new ones are
    /// built, so the corpus is never resident twice. Requires stored
    /// originals and parameters of the engine's dimensionality; both are
    /// checked before anything is torn down.
    pub fn retune(&mut self, sketch: SketchParams, seed: u64) -> Result<()> {
        if sketch.dim() != self.builder.params().dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.builder.params().dim(),
                actual: sketch.dim(),
            });
        }
        let rebuilt = self.reconfigured(sketch, seed)?;
        let old = std::mem::replace(self, rebuilt);
        let (items, store) = old.storage.into_originals();
        self.adopt(items, store)
    }

    /// Estimated resident bytes of the engine's two bulk structures, from
    /// object and segment counts plus the sketch arenas' capacity
    /// (O(parts)).
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
            + self.storage.arena_bytes();
        EngineMemory {
            originals,
            sketches,
        }
    }

    /// Current metadata footprint (for storage-ratio reporting).
    pub fn metadata_footprint(&self) -> MetadataFootprint {
        let mut fp = MetadataFootprint::default();
        let live = self.storage.live_refs();
        for (_, so, _) in &live {
            fp.segments += so.num_segments();
            for s in &so.sketches {
                fp.sketch_bytes += s.len().div_ceil(8);
            }
        }
        if self.config.store_originals {
            for obj in live.iter().filter_map(|(_, _, obj)| *obj) {
                for seg in obj.segments() {
                    fp.feature_vector_bytes += seg.vector.dim() * std::mem::size_of::<f32>();
                }
            }
        } else {
            // Originals not stored: report what they would occupy.
            let dim = self.builder.params().dim();
            fp.feature_vector_bytes = fp.segments * dim * std::mem::size_of::<f32>();
        }
        fp
    }

    /// Rebuilds a query object with overridden segment weights.
    fn apply_weight_override(query: &DataObject, weights: &[f32]) -> Result<DataObject> {
        if weights.len() != query.num_segments() {
            return Err(CoreError::InvalidQuery(format!(
                "weight override has {} entries for {} query segments",
                weights.len(),
                query.num_segments()
            )));
        }
        DataObject::new(
            query
                .segments()
                .iter()
                .zip(weights.iter())
                .map(|(seg, &w)| (seg.vector.clone(), w))
                .collect(),
        )
    }

    /// Answers a similarity query.
    pub fn query(&self, query: &DataObject, options: &QueryOptions) -> Result<QueryResponse> {
        if options.k == 0 {
            return Err(CoreError::InvalidQuery("k must be > 0".into()));
        }
        options.validate_shape()?;
        let reweighted;
        let query = match &options.weight_override {
            Some(weights) => {
                reweighted = Self::apply_weight_override(query, weights)?;
                &reweighted
            }
            None => query,
        };
        let start = Instant::now();
        let mut stats = QueryStats {
            mode: options.mode,
            objects_scanned: 0,
            segments_scanned: 0,
            distance_evals: 0,
            elapsed: Duration::ZERO,
        };
        let mut trace = self.telemetry.is_some().then(QueryTrace::default);
        let mut results = match options.mode {
            QueryMode::BruteForceOriginal => {
                self.query_brute_original(query, options, &mut stats, &mut trace)?
            }
            QueryMode::BruteForceSketch => {
                self.query_brute_sketch(query, options, &mut stats, &mut trace)?
            }
            QueryMode::Filtering => self.query_filtering(query, options, &mut stats, &mut trace)?,
        };
        options.apply_shape(&mut results);
        stats.elapsed = start.elapsed();
        self.finish_trace(&mut trace, &stats, results.len());
        Ok(QueryResponse {
            results,
            stats,
            trace,
        })
    }

    /// Fills the cross-stage fields of a trace and records the query's
    /// metrics into the registry.
    fn finish_trace(&self, trace: &mut Option<QueryTrace>, stats: &QueryStats, results: usize) {
        let Some(t) = trace.as_mut() else {
            return;
        };
        t.mode = stats.mode.to_string();
        t.total = stats.elapsed;
        t.objects_scanned = stats.objects_scanned;
        t.segments_scanned = stats.segments_scanned;
        t.distance_evals = stats.distance_evals;
        t.results = results;
        if let Some(registry) = &self.telemetry {
            Self::record_query_metrics(registry, t);
        }
    }

    /// Records one traced query into the metrics registry: per-mode
    /// query counts and latency, per-stage latency histograms, and scan
    /// volume counters.
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
        if let Some(st) = &trace.rank {
            registry.observe_latency(
                "ferret_query_stage_seconds",
                "Per-stage query latency (sketch, filter scan, EMD rank).",
                &[("stage", "rank"), ("mode", mode)],
                st.duration,
            );
        }
        if let Some(st) = &trace.sketch {
            registry.observe_latency(
                "ferret_query_stage_seconds",
                "Per-stage query latency (sketch, filter scan, EMD rank).",
                &[("stage", "sketch"), ("mode", mode)],
                st.duration,
            );
        }
        if let Some(st) = &trace.filter {
            registry.observe_latency(
                "ferret_query_stage_seconds",
                "Per-stage query latency (sketch, filter scan, EMD rank).",
                &[("stage", "filter"), ("mode", mode)],
                st.duration,
            );
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
                crate::telemetry::Unit::Raw,
            )
            .observe(trace.candidates as u64);
    }

    /// Answers a query using a stored object as the seed
    /// ("similarity search requires a seed or initial query object", §4.1.2).
    pub fn query_by_id(&self, id: ObjectId, options: &QueryOptions) -> Result<QueryResponse> {
        match options.mode {
            QueryMode::BruteForceSketch => {
                options.validate_shape()?;
                // Sketch-only queries can be seeded without originals.
                let mut seed = self
                    .storage
                    .sketch(id)
                    .ok_or(CoreError::UnknownObject(id.0))?
                    .clone();
                if let Some(weights) = &options.weight_override {
                    if weights.len() != seed.num_segments() {
                        return Err(CoreError::InvalidQuery(format!(
                            "weight override has {} entries for {} query segments",
                            weights.len(),
                            seed.num_segments()
                        )));
                    }
                    let sum: f32 = weights.iter().sum();
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(CoreError::InvalidQuery(
                            "weight override sums to zero".into(),
                        ));
                    }
                    seed.weights = weights.iter().map(|w| w / sum).collect();
                }
                let start = Instant::now();
                let mut stats = QueryStats {
                    mode: options.mode,
                    objects_scanned: 0,
                    segments_scanned: 0,
                    distance_evals: 0,
                    elapsed: Duration::ZERO,
                };
                let mut trace = self.telemetry.is_some().then(QueryTrace::default);
                let mut results =
                    self.rank_all_by_sketch(&seed, options, &mut stats, &mut trace)?;
                options.apply_shape(&mut results);
                stats.elapsed = start.elapsed();
                self.finish_trace(&mut trace, &stats, results.len());
                Ok(QueryResponse {
                    results,
                    stats,
                    trace,
                })
            }
            _ => {
                let seed = self
                    .storage
                    .object(id)
                    .ok_or(CoreError::UnknownObject(id.0))?
                    .clone();
                self.query(&seed, options)
            }
        }
    }

    fn allowed(&self, id: ObjectId, options: &QueryOptions) -> bool {
        options
            .restrict
            .as_ref()
            .is_none_or(|set| set.contains(&id))
    }

    fn object_distance_original(&self) -> Result<Box<dyn ObjectDistance + '_>> {
        let ground = Arc::clone(&self.config.seg_distance);
        Ok(match &self.config.ranking {
            RankingMethod::Emd => Box::new(Emd::new(ground)),
            RankingMethod::ThresholdedEmd { tau, sqrt_weights } => {
                Box::new(ThresholdedEmd::new(ground, *tau, *sqrt_weights))
            }
            RankingMethod::GreedyEmd => Box::new(GreedyEmd::new(ground)),
            RankingMethod::Custom(d) => Box::new(Arc::clone(d)),
        })
    }

    fn query_brute_original(
        &self,
        query: &DataObject,
        options: &QueryOptions,
        stats: &mut QueryStats,
        trace: &mut Option<QueryTrace>,
    ) -> Result<Vec<SearchResult>> {
        if !self.config.store_originals {
            return Err(CoreError::InvalidQuery(
                "engine is sketch-only; BruteForceOriginal unavailable".into(),
            ));
        }
        let dist = self.object_distance_original()?;
        let live = self.storage.live_refs();
        let collected: Vec<(ObjectId, &DataObject)> = live
            .iter()
            .filter_map(|&(id, _, obj)| {
                if !self.allowed(id, options) {
                    return None;
                }
                obj.map(|o| (id, o))
            })
            .collect();
        stats.objects_scanned = collected.len();
        stats.distance_evals = collected.len();
        let threads = self.config.parallelism.threads_for(collected.len());
        let clock = StageClock::start(trace.is_some());
        let ranked = rank_candidates_parallel(query, &collected, dist.as_ref(), options.k, threads);
        if let (Some(t), Some(elapsed)) = (trace.as_mut(), clock.elapsed()) {
            t.candidates = collected.len();
            t.rank = Some(StageTrace {
                duration: elapsed,
                threads,
            });
        }
        ranked
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

    fn rank_all_by_sketch(
        &self,
        query: &SketchedObject,
        options: &QueryOptions,
        stats: &mut QueryStats,
        trace: &mut Option<QueryTrace>,
    ) -> Result<Vec<SearchResult>> {
        // Sketch lengths must match the engine's.
        for s in &query.sketches {
            if s.len() != self.builder.nbits() {
                return Err(CoreError::SketchLengthMismatch {
                    left: s.len(),
                    right: self.builder.nbits(),
                });
            }
        }
        let live = self.storage.live_refs();
        let cands: Vec<(ObjectId, &SketchedObject)> = live
            .iter()
            .filter_map(|&(id, so, _)| {
                if !self.allowed(id, options) {
                    return None;
                }
                Some((id, so))
            })
            .collect();
        stats.objects_scanned = cands.len();
        stats.distance_evals = cands.len();
        let threads = self.config.parallelism.threads_for(cands.len());
        let clock = StageClock::start(trace.is_some());
        let scored = try_map_chunked(threads, DEFAULT_CHUNK, &cands, |_, &(id, so)| {
            let d = self.sketched_object_distance(query, so)?;
            Ok(SearchResult { id, distance: d })
        })?;
        if let (Some(t), Some(elapsed)) = (trace.as_mut(), clock.elapsed()) {
            t.candidates = cands.len();
            t.rank = Some(StageTrace {
                duration: elapsed,
                threads,
            });
        }
        Ok(rank_scores(scored, options.k))
    }

    fn query_brute_sketch(
        &self,
        query: &DataObject,
        options: &QueryOptions,
        stats: &mut QueryStats,
        trace: &mut Option<QueryTrace>,
    ) -> Result<Vec<SearchResult>> {
        let clock = StageClock::start(trace.is_some());
        let qs = self.builder.sketch_object(query)?;
        if let (Some(t), Some(elapsed)) = (trace.as_mut(), clock.elapsed()) {
            t.sketch = Some(StageTrace {
                duration: elapsed,
                threads: 1,
            });
        }
        self.rank_all_by_sketch(&qs, options, stats, trace)
    }

    fn query_filtering(
        &self,
        query: &DataObject,
        options: &QueryOptions,
        stats: &mut QueryStats,
        trace: &mut Option<QueryTrace>,
    ) -> Result<Vec<SearchResult>> {
        let clock = StageClock::start(trace.is_some());
        let qs = self.builder.sketch_object(query)?;
        if let (Some(t), Some(elapsed)) = (trace.as_mut(), clock.elapsed()) {
            t.sketch = Some(StageTrace {
                duration: elapsed,
                threads: 1,
            });
        }
        let clock = StageClock::start(trace.is_some());
        let (candidates, fstats) = filter_candidates_arena(
            &qs,
            &self.storage.arena_parts(),
            &options.filter,
            options.restrict.as_ref(),
        )?;
        if let (Some(t), Some(elapsed)) = (trace.as_mut(), clock.elapsed()) {
            // The arena scan runs on the calling thread.
            t.filter = Some(StageTrace {
                duration: elapsed,
                threads: 1,
            });
            t.candidates = candidates.len();
        }
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
        stats.objects_scanned = fstats.objects_scanned;
        stats.segments_scanned = fstats.segments_scanned;
        stats.distance_evals = candidates.len();

        // Deterministic ranking order.
        let mut cand_ids: Vec<ObjectId> = candidates.into_iter().collect();
        cand_ids.sort();
        let rank_threads = self.config.parallelism.threads_for(cand_ids.len());
        let clock = StageClock::start(trace.is_some());
        let ranked = if self.config.store_originals {
            let dist = self.object_distance_original()?;
            let cands: Vec<(ObjectId, &DataObject)> = cand_ids
                .iter()
                .filter_map(|&id| self.storage.object(id).map(|o| (id, o)))
                .collect();
            rank_candidates_parallel(query, &cands, dist.as_ref(), options.k, rank_threads)
        } else {
            // Sketch-only engine: rank candidates by sketch distance.
            let cands: Vec<(ObjectId, &SketchedObject)> = cand_ids
                .iter()
                .filter_map(|&id| self.storage.sketch(id).map(|so| (id, so)))
                .collect();
            let scored = try_map_chunked(rank_threads, DEFAULT_CHUNK, &cands, |_, &(id, so)| {
                let d = self.sketched_object_distance(&qs, so)?;
                Ok(SearchResult { id, distance: d })
            })?;
            Ok(rank_scores(scored, options.k))
        };
        if let (Some(t), Some(elapsed)) = (trace.as_mut(), clock.elapsed()) {
            t.rank = Some(StageTrace {
                duration: elapsed,
                threads: rank_threads,
            });
        }
        ranked
    }
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

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(e.remove(ObjectId(1)).unwrap());
        assert!(!e.remove(ObjectId(1)).unwrap());
        assert!(e.is_empty());
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
        batched.set_parallelism(Parallelism::Threads(3));
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
    fn queries_identical_across_parallelism_settings() {
        let (mut e, q) = clustered_engine();
        let opts = [
            QueryOptions::brute_force(5),
            QueryOptions::brute_force_sketch(5),
            QueryOptions::filtering(
                5,
                FilterParams {
                    query_segments: 2,
                    candidates_per_segment: 4,
                    ..FilterParams::default()
                },
            ),
        ];
        e.set_parallelism(Parallelism::Serial);
        let baselines: Vec<_> = opts.iter().map(|o| e.query(&q, o).unwrap()).collect();
        for p in [
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            e.set_parallelism(p);
            assert_eq!(e.parallelism(), p);
            for (o, base) in opts.iter().zip(baselines.iter()) {
                let resp = e.query(&q, o).unwrap();
                assert_eq!(resp.results, base.results, "{p} {:?}", o.mode);
                assert_eq!(resp.stats.objects_scanned, base.stats.objects_scanned);
                assert_eq!(resp.stats.segments_scanned, base.stats.segments_scanned);
                assert_eq!(resp.stats.distance_evals, base.stats.distance_evals);
            }
        }
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

    /// A fresh engine over `source`'s live objects, built with `configure`
    /// applied to the conventional builder: the reference a retune must
    /// reproduce.
    fn fresh_copy(
        source: &SearchEngine,
        sketch: SketchParams,
        seed: u64,
        configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
    ) -> SearchEngine {
        let mut fresh = configure(SearchEngine::builder(sketch, seed))
            .build()
            .unwrap();
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
        let fresh = fresh_copy(&e, derived.clone(), 99, |b| b);
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
    fn retune_in_place_equals_fresh_build_in_both_layouts() {
        for layout in [IndexLayout::Monolithic, IndexLayout::Segmented] {
            let (clustered, _) = clustered_engine();
            let mut e = SearchEngine::builder(params(256, 4), 42)
                .index_layout(layout)
                .memtable_size(3)
                .compaction(false)
                .build()
                .unwrap();
            for id in clustered.ids() {
                e.insert(id, clustered.object(id).unwrap().clone()).unwrap();
            }
            // A tombstone inside a sealed segment must not come back.
            assert!(e.remove(ObjectId(1)).unwrap());
            let derived = e.derive_sketch_params(512, 2).unwrap();
            let fresh = fresh_copy(&e, derived.clone(), 99, |b| {
                b.index_layout(layout).memtable_size(3).compaction(false)
            });
            let before = e.memory_estimate();
            e.retune(derived.clone(), 99).unwrap();
            assert_eq!(e.ids(), fresh.ids(), "{layout}");
            assert_eq!(e.sketch_builder().params(), &derived);
            assert_eq!(e.config().seed, 99);
            for id in e.ids() {
                assert_eq!(e.sketched(id), fresh.sketched(id), "{layout} {id}");
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
