//! The Ferret search service: core engine + attribute search + persistent
//! metadata, behind a single command-execution interface.
//!
//! This is the composition point of the toolkit: feature vectors,
//! attributes, and object mappings are stored transactionally (paper
//! §4.1.3 — "all the updates to the metadata associated with the same
//! object are protected by database transactions"), the sketch database is
//! rebuilt deterministically on open, and attribute queries can restrict
//! similarity searches (§4.1.2).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use ferret_attr::{AttrStore, Attributes};
use ferret_core::codec::{decode_calibration, decode_object, encode_calibration, encode_object};
use ferret_core::engine::{
    similarity_from_distance, EngineBuilder, EngineConfig, QueryOptions, QueryResponse,
    SearchEngine,
};
use ferret_core::error::CoreError;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::parallel::Parallelism;
use ferret_core::telemetry::{MetricsRegistry, QueryTrace, Unit, SIZE_BUCKETS};
use ferret_store::{Database, DbOptions, StoreError, Vfs};

use crate::cache::ResultCache;
use crate::fusion::{rank_attr_scores, rrf_fuse, weighted_fuse, FusedHit, FusionMode};
use crate::protocol::{Command, ProtocolError};

pub use crate::protocol::Response;

/// The table original feature-vector metadata lives in.
pub const FEATURES_TABLE: &str = "features";

/// The table holding the store's one sketch calibration record (sketch
/// parameters, seed and format version; `ferret_core::codec::
/// encode_calibration`), under [`CALIBRATION_KEY`].
pub const CALIBRATION_TABLE: &str = "calibration";

/// The key of the calibration record in [`CALIBRATION_TABLE`].
pub const CALIBRATION_KEY: &[u8] = b"sketch";

/// Errors surfaced by the service.
#[derive(Debug)]
pub enum ServiceError {
    /// Engine-level error.
    Core(CoreError),
    /// Storage-level error.
    Store(StoreError),
    /// Protocol or attribute-expression error.
    BadRequest(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::Store(e) => write!(f, "{e}"),
            ServiceError::BadRequest(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<ProtocolError> for ServiceError {
    fn from(e: ProtocolError) -> Self {
        ServiceError::BadRequest(e.to_string())
    }
}

/// How many recent query traces the service retains for `/trace` by
/// default (configurable through [`ServiceBuilder::trace_capacity`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 16;

/// The bounded ring of recent query traces, keyed by a monotonically
/// increasing trace id. Lives behind a [`Mutex`] inside the service so
/// the read-only query path (`&self`) can record traces concurrently.
struct TraceRing {
    traces: VecDeque<(u64, QueryTrace)>,
    next_id: u64,
    capacity: usize,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        Self {
            traces: VecDeque::new(),
            next_id: 0,
            capacity,
        }
    }

    fn record(&mut self, trace: QueryTrace) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.capacity == 0 {
            return id;
        }
        if self.traces.len() == self.capacity {
            self.traces.pop_front();
        }
        self.traces.push_back((id, trace));
        id
    }
}

/// What the last cold start cost, stage by stage (served as
/// `ferret_recovery_seconds{stage}` once telemetry is enabled).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `(stage, wall time)` in execution order. [`ServiceBuilder::open`]
    /// records `db_open`, `decode`, `sketch_index` and `attrs`; the caller
    /// adds its own (importer state, initial scan) through
    /// [`FerretService::record_recovery_stage`].
    pub stages: Vec<(&'static str, Duration)>,
}

fn publish_recovery_stage(registry: &MetricsRegistry, stage: &str, wall: Duration) {
    registry.set_duration_gauge(
        "ferret_recovery_seconds",
        "Wall time of each stage of the last cold start.",
        &[("stage", stage)],
        wall,
    );
}

/// Configures and builds a [`FerretService`]: engine configuration plus
/// every optional knob (persistence options, VFS, telemetry registry,
/// parallelism, trace-ring capacity) in one place.
///
/// This is the single construction surface; `FerretService::{in_memory,
/// open, open_with_vfs}` are thin wrappers over it.
///
/// ```
/// use ferret_core::engine::EngineConfig;
/// use ferret_core::sketch::SketchParams;
/// use ferret_query::ServiceBuilder;
///
/// let config = EngineConfig::basic(
///     SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap(), 1);
/// let service = ServiceBuilder::new(config).build_in_memory().unwrap();
/// assert!(service.engine().is_empty());
/// ```
pub struct ServiceBuilder {
    config: EngineConfig,
    db_options: DbOptions,
    vfs: Option<Arc<dyn Vfs>>,
    telemetry: Option<Arc<MetricsRegistry>>,
    parallelism: Option<Parallelism>,
    trace_capacity: usize,
    cache_capacity: usize,
}

impl ServiceBuilder {
    /// Starts a builder from an engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            db_options: DbOptions::default(),
            vfs: None,
            telemetry: None,
            parallelism: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            cache_capacity: 0,
        }
    }

    /// Metadata-store options used when the service is opened
    /// persistently (ignored by [`ServiceBuilder::build_in_memory`]).
    pub fn db_options(mut self, options: DbOptions) -> Self {
        self.db_options = options;
        self
    }

    /// Routes all metadata I/O through an explicit [`Vfs`] — this is how
    /// fault-injection tests fail or tear the service's storage.
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Enables telemetry from the start: engine and service metrics are
    /// recorded into `registry` and recent query traces retained.
    pub fn telemetry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Overrides the engine parallelism from
    /// [`EngineConfig::parallelism`].
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// How many recent query traces to retain for `/trace` (0 disables
    /// retention; ids still advance).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// How many query replies the epoch-keyed result cache retains
    /// (0 — the default — disables caching entirely).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    fn finish(
        self,
        engine: SearchEngine,
        attrs: AttrStore,
        db: Option<Database>,
        recovery: RecoveryReport,
    ) -> FerretService {
        let mut svc = FerretService {
            engine,
            attrs,
            db,
            recovery,
            calibrated: false,
            telemetry: None,
            traces: Mutex::new(TraceRing::new(self.trace_capacity)),
            cache: ResultCache::new(self.cache_capacity),
        };
        if let Some(p) = self.parallelism {
            svc.engine.set_parallelism(p);
        }
        if let Some(reg) = self.telemetry {
            svc.enable_telemetry(reg);
        }
        svc
    }

    /// Builds an in-memory service (no persistence).
    pub fn build_in_memory(self) -> Result<FerretService, ServiceError> {
        let engine = EngineBuilder::from_config(self.config.clone()).build()?;
        Ok(self.finish(engine, AttrStore::new(), None, RecoveryReport::default()))
    }

    /// Opens (or creates) a persistent service in `dir`, recovering all
    /// objects and attributes and rebuilding sketches deterministically.
    /// Uses the configured [`Vfs`] when one was set.
    ///
    /// A store's sketch calibration record, when it has one, supplies the
    /// sketch parameters and seed; the configured ones serve only a store
    /// without a record. A record of another dimensionality than the
    /// configuration is a [`CoreError::DimensionMismatch`].
    pub fn open(self, dir: &std::path::Path) -> Result<FerretService, ServiceError> {
        let mut stages = Vec::new();
        let mut clock = Instant::now();
        let mut stage = |name| {
            let now = Instant::now();
            stages.push((name, now - clock));
            clock = now;
        };
        let db = match &self.vfs {
            Some(vfs) => Database::open_with_vfs(Arc::clone(vfs), dir, self.db_options)?,
            None => Database::open_with(dir, self.db_options)?,
        };
        stage("db_open");
        let mut config = self.config.clone();
        let calibration = db.get(CALIBRATION_TABLE, CALIBRATION_KEY);
        if let Some(bytes) = calibration {
            let (params, seed) = decode_calibration(bytes)
                .map_err(|e| StoreError::Corrupt(format!("sketch calibration record: {e}")))?;
            if params.dim() != config.sketch.dim() {
                return Err(ServiceError::Core(CoreError::DimensionMismatch {
                    expected: config.sketch.dim(),
                    actual: params.dim(),
                }));
            }
            config.sketch = params;
            config.seed = seed;
        }
        let calibrated = calibration.is_some();
        let mut recovered = Vec::with_capacity(db.table_len(FEATURES_TABLE));
        for (key, value) in db.iter_table(FEATURES_TABLE) {
            let id = match <[u8; 8]>::try_from(key) {
                Ok(raw) => ObjectId(u64::from_le_bytes(raw)),
                Err(_) => {
                    return Err(ServiceError::Store(StoreError::Corrupt(
                        "feature key not 8 bytes".into(),
                    )));
                }
            };
            let obj = decode_object(value)?;
            recovered.push((id, obj));
        }
        stage("decode");
        let mut engine = EngineBuilder::from_config(config)
            .telemetry(self.telemetry.clone())
            .build()?;
        // Sketch construction dominates recovery time, so the whole recovered
        // set goes through the batch-parallel insert path.
        engine.insert_batch(recovered)?;
        stage("sketch_index");
        let attrs = AttrStore::load(&db)?;
        stage("attrs");
        let mut svc = self.finish(engine, attrs, Some(db), RecoveryReport { stages });
        svc.calibrated = calibrated;
        Ok(svc)
    }
}

/// The composed search service.
pub struct FerretService {
    engine: SearchEngine,
    attrs: AttrStore,
    db: Option<Database>,
    recovery: RecoveryReport,
    /// True once the sketch parameters come from a calibration: the
    /// store's record at open, or a [`FerretService::retune_sketches`].
    calibrated: bool,
    telemetry: Option<Arc<MetricsRegistry>>,
    /// Recent query traces. Behind a mutex so the `&self` read path can
    /// record traces from many threads at once.
    traces: Mutex<TraceRing>,
    /// Epoch-keyed result cache for protocol queries; every index
    /// mutation bumps its epoch so hits are never stale.
    cache: ResultCache,
}

impl FerretService {
    /// Starts a [`ServiceBuilder`] from an engine configuration.
    pub fn builder(config: EngineConfig) -> ServiceBuilder {
        ServiceBuilder::new(config)
    }

    /// Creates an in-memory service (no persistence). Equivalent to
    /// `ServiceBuilder::new(config).build_in_memory()`.
    pub fn in_memory(config: EngineConfig) -> Result<Self, ServiceError> {
        ServiceBuilder::new(config).build_in_memory()
    }

    /// Opens (or creates) a persistent service in `dir`, recovering all
    /// objects and attributes and rebuilding sketches deterministically.
    /// Equivalent to `ServiceBuilder::new(config).db_options(db_options)
    /// .open(dir)`.
    pub fn open(
        dir: &std::path::Path,
        config: EngineConfig,
        db_options: DbOptions,
    ) -> Result<Self, ServiceError> {
        ServiceBuilder::new(config).db_options(db_options).open(dir)
    }

    /// [`FerretService::open`] over an explicit [`ferret_store::Vfs`] —
    /// lets fault-injection tests fail or tear the service's metadata I/O.
    /// Equivalent to `ServiceBuilder::new(config).vfs(vfs)
    /// .db_options(db_options).open(dir)`.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &std::path::Path,
        config: EngineConfig,
        db_options: DbOptions,
    ) -> Result<Self, ServiceError> {
        ServiceBuilder::new(config)
            .vfs(vfs)
            .db_options(db_options)
            .open(dir)
    }

    /// Enables telemetry: the engine records per-stage metrics and
    /// traces into `registry`, the service records per-command and
    /// storage metrics, and recent query traces are retained for the
    /// web interface's `/trace` endpoint.
    pub fn enable_telemetry(&mut self, registry: Arc<MetricsRegistry>) {
        // Every documented family appears on /metrics from the first
        // scrape, not just the ones whose code paths have already run.
        registry.register_catalog();
        self.engine.set_telemetry(Some(Arc::clone(&registry)));
        self.cache.set_telemetry(Some(Arc::clone(&registry)));
        for (stage, wall) in &self.recovery.stages {
            publish_recovery_stage(&registry, stage, *wall);
        }
        self.telemetry = Some(registry);
        self.publish_memory();
    }

    /// What the last cold start cost (empty for in-memory services).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// True when the engine's sketch parameters come from a calibration
    /// (the store's record, or [`FerretService::retune_sketches`]) rather
    /// than from the configuration.
    pub fn calibrated(&self) -> bool {
        self.calibrated
    }

    /// Appends the caller's own stage (importer state, initial scan) to
    /// the recovery report.
    pub fn record_recovery_stage(&mut self, stage: &'static str, wall: Duration) {
        self.recovery.stages.push((stage, wall));
        if let Some(reg) = &self.telemetry {
            publish_recovery_stage(reg, stage, wall);
        }
    }

    /// Refreshes `ferret_memory_bytes{component}` from the components'
    /// own length-based estimates. Called on open and after mutations,
    /// never per query.
    fn publish_memory(&self) {
        let Some(reg) = &self.telemetry else {
            return;
        };
        let engine = self.engine.memory_estimate();
        for (component, bytes) in [
            ("originals", engine.originals),
            ("sketches", engine.sketches),
            ("attr", self.attrs.index().memory_bytes()),
            (
                "db_tables",
                self.db.as_ref().map_or(0, Database::memory_bytes),
            ),
            ("cache", self.cache.memory_bytes()),
        ] {
            reg.gauge(
                "ferret_memory_bytes",
                "Estimated resident bytes, by component.",
                &[("component", component)],
            )
            .set(bytes as i64);
        }
    }

    /// Disables telemetry collection (existing metrics are dropped with
    /// the registry when the last handle goes away).
    pub fn disable_telemetry(&mut self) {
        self.engine.set_telemetry(None);
        self.cache.set_telemetry(None);
        self.telemetry = None;
    }

    /// The result cache's current index epoch (advances on every
    /// mutation; useful for asserting invalidation in tests).
    pub fn cache_epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// The service's metrics registry, if telemetry is enabled.
    pub fn telemetry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref()
    }

    /// The most recent retained query trace, with its id.
    pub fn last_trace(&self) -> Option<(u64, QueryTrace)> {
        let ring = self.traces.lock();
        ring.traces.back().map(|(id, t)| (*id, t.clone()))
    }

    /// A retained query trace by id (ids come from [`Self::last_trace`];
    /// the ring keeps the most recent [`DEFAULT_TRACE_CAPACITY`] unless
    /// configured otherwise).
    pub fn trace(&self, id: u64) -> Option<QueryTrace> {
        let ring = self.traces.lock();
        ring.traces
            .iter()
            .find(|(tid, _)| *tid == id)
            .map(|(_, t)| t.clone())
    }

    fn record_trace(&self, trace: QueryTrace) -> u64 {
        self.traces.lock().record(trace)
    }

    fn record_store_error(&self, op: &str) {
        if let Some(reg) = &self.telemetry {
            reg.inc_counter(
                "ferret_store_errors_total",
                "Metadata store / WAL operation failures.",
                &[("op", op)],
                1,
            );
        }
    }

    /// The underlying engine (read access).
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// The attribute store (read access).
    pub fn attrs(&self) -> &AttrStore {
        &self.attrs
    }

    /// The backing metadata database, if persistent.
    pub fn db(&self) -> Option<&Database> {
        self.db.as_ref()
    }

    /// Mutable access to the backing metadata database, for callers that
    /// persist auxiliary state (e.g. the acquisition manifest) alongside
    /// the service's own tables — through the same VFS-routed store, so
    /// crash-consistency covers that state too.
    pub fn db_mut(&mut self) -> Option<&mut Database> {
        self.db.as_mut()
    }

    /// The engine's parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.engine.parallelism()
    }

    /// Changes the engine's parallelism setting for subsequent queries,
    /// batch inserts, and rebuilds.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.engine.set_parallelism(parallelism);
    }

    /// Inserts a batch of objects (with optional attributes) in one go.
    ///
    /// Sketches are built with the engine's batch-parallel path and the
    /// whole batch is validated up front, so either every object is
    /// inserted or none is. When persistent, all metadata updates commit in
    /// one transaction.
    pub fn insert_batch(
        &mut self,
        items: Vec<(ObjectId, DataObject, Option<Attributes>)>,
    ) -> Result<(), ServiceError> {
        // Invalidate cached replies before any state changes; bumping on
        // a failed insert merely over-invalidates, which is always safe.
        self.cache.bump_epoch();
        // Encode attribute payloads before mutating anything so an encoding
        // failure leaves both engine and storage untouched.
        let mut encoded_attrs = Vec::with_capacity(items.len());
        for (_, _, attributes) in &items {
            encoded_attrs.push(match attributes {
                Some(attrs) => Some(ferret_attr::store::encode_attributes(attrs)?),
                None => None,
            });
        }
        let objects: Vec<(ObjectId, DataObject)> = items
            .iter()
            .map(|(id, obj, _)| (*id, obj.clone()))
            .collect();
        self.engine.insert_batch(objects)?;
        if let Some(db) = self.db.as_mut() {
            let mut txn = db.begin();
            for ((id, object, _), encoded) in items.iter().zip(&encoded_attrs) {
                txn.put(FEATURES_TABLE, &id.0.to_le_bytes(), &encode_object(object));
                if let Some(bytes) = encoded {
                    txn.put(ferret_attr::ATTR_TABLE, &id.0.to_le_bytes(), bytes);
                }
            }
            if let Err(e) = txn.commit() {
                // Roll the engine back so memory matches storage.
                for (id, _, _) in &items {
                    self.engine.remove(*id);
                }
                self.record_store_error("insert_batch");
                return Err(e.into());
            }
        }
        if let Some(reg) = &self.telemetry {
            reg.inc_counter(
                "ferret_inserts_total",
                "Objects inserted.",
                &[],
                items.len() as u64,
            );
            reg.histogram(
                "ferret_insert_batch_size",
                "Objects per insert batch.",
                &[],
                &SIZE_BUCKETS,
                Unit::Raw,
            )
            .observe(items.len() as u64);
        }
        for (id, _, attributes) in items {
            if let Some(attrs) = attributes {
                self.attrs.index_mut().insert(id, attrs);
            }
        }
        self.publish_memory();
        Ok(())
    }

    /// Inserts an object with optional attributes; all metadata updates for
    /// the object commit in one transaction when persistent.
    pub fn insert(
        &mut self,
        id: ObjectId,
        object: DataObject,
        attributes: Option<Attributes>,
    ) -> Result<(), ServiceError> {
        self.cache.bump_epoch();
        // Encoded before anything mutates, so an encoding failure leaves
        // both engine and storage untouched.
        let encoded_attrs = match (&self.db, &attributes) {
            (Some(_), Some(attrs)) => Some(ferret_attr::store::encode_attributes(attrs)?),
            _ => None,
        };
        self.engine.insert(id, object.clone())?;
        if let Some(db) = self.db.as_mut() {
            let mut txn = db.begin();
            txn.put(FEATURES_TABLE, &id.0.to_le_bytes(), &encode_object(&object));
            if let Some(bytes) = &encoded_attrs {
                txn.put(ferret_attr::ATTR_TABLE, &id.0.to_le_bytes(), bytes);
            }
            if let Err(e) = txn.commit() {
                // Roll the engine back so memory matches storage.
                self.engine.remove(id);
                self.record_store_error("insert");
                return Err(e.into());
            }
        }
        if let Some(reg) = &self.telemetry {
            reg.inc_counter("ferret_inserts_total", "Objects inserted.", &[], 1);
        }
        if let Some(attrs) = attributes {
            // Persistence (when durable) happened in the object transaction
            // above; here only the in-memory index is updated.
            self.attrs.index_mut().insert(id, attrs);
        }
        self.publish_memory();
        Ok(())
    }

    /// Removes an object and its attributes.
    pub fn remove(&mut self, id: ObjectId) -> Result<bool, ServiceError> {
        self.cache.bump_epoch();
        let present = self.engine.remove(id);
        if let Some(db) = self.db.as_mut() {
            let mut txn = db.begin();
            txn.delete(FEATURES_TABLE, &id.0.to_le_bytes());
            txn.delete(ferret_attr::ATTR_TABLE, &id.0.to_le_bytes());
            if let Err(e) = txn.commit() {
                self.record_store_error("remove");
                return Err(e.into());
            }
        }
        self.attrs.index_mut().remove(id);
        self.publish_memory();
        Ok(present)
    }

    /// Calibrates the sketches: derives per-dimension ranges from the
    /// stored objects under `nbits`/`xor_folds`, commits them with `seed`
    /// as the store's calibration record (persistent services), then
    /// re-sketches every object in place ([`SearchEngine::retune`]). This
    /// is the paper's parameter-tuning loop (§4.3); nothing else derives
    /// parameters. A failed derive (empty or sketch-only engine) leaves
    /// the engine and the record untouched.
    pub fn retune_sketches(
        &mut self,
        nbits: usize,
        xor_folds: usize,
        seed: u64,
    ) -> Result<(), ServiceError> {
        self.cache.bump_epoch();
        let params = self.engine.derive_sketch_params(nbits, xor_folds)?;
        if let Some(db) = self.db.as_mut() {
            let mut txn = db.begin();
            txn.put(
                CALIBRATION_TABLE,
                CALIBRATION_KEY,
                &encode_calibration(&params, seed),
            );
            if let Err(e) = txn.commit() {
                self.record_store_error("retune");
                return Err(e.into());
            }
        }
        self.calibrated = true;
        self.engine.retune(params, seed)?;
        self.publish_memory();
        Ok(())
    }

    /// Flushes buffered commits (persistent services only).
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        if let Some(db) = self.db.as_mut() {
            if let Err(e) = db.flush() {
                self.record_store_error("flush");
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Checkpoints the metadata store (persistent services only).
    pub fn checkpoint(&mut self) -> Result<(), ServiceError> {
        if let Some(db) = self.db.as_mut() {
            if let Err(e) = db.checkpoint() {
                self.record_store_error("checkpoint");
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Runs a similarity query seeded by a stored object, optionally
    /// restricted by an attribute expression.
    pub fn query(
        &self,
        seed: ObjectId,
        mut options: QueryOptions,
        attr_expr: Option<&str>,
    ) -> Result<QueryResponse, ServiceError> {
        if let Some(expr) = attr_expr {
            let hits: HashSet<ObjectId> = self
                .attrs
                .search_str(expr)
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            options.restrict = Some(hits);
        }
        Ok(self.engine.query_by_id(seed, &options)?)
    }

    fn record_command(&self, command: &Command, ok: bool) {
        if let Some(reg) = &self.telemetry {
            let name = match command {
                Command::Query { .. } => "query",
                Command::Attr { .. } => "attr",
                Command::Delete { .. } => "delete",
                Command::Stat => "stat",
                Command::Help => "help",
                Command::Quit => "quit",
            };
            let outcome = if ok { "ok" } else { "error" };
            reg.inc_counter(
                "ferret_commands_total",
                "Protocol commands executed, by command and outcome.",
                &[("command", name), ("outcome", outcome)],
                1,
            );
        }
    }

    /// Executes one parsed protocol command. This typed entry point is
    /// the documented public surface: parse with
    /// [`crate::protocol::parse_command`], execute here, render with
    /// [`crate::protocol::render_response`].
    ///
    /// Read commands ([`Command::is_read`]) are delegated to
    /// [`FerretService::execute_read`] and never mutate the service;
    /// callers holding only a shared reference can invoke that method
    /// directly (this is what lets the server run N queries on N
    /// connections concurrently under `RwLock::read`).
    pub fn execute(&mut self, command: &Command) -> Result<Response, ServiceError> {
        if command.is_read() {
            return self.execute_read(command);
        }
        let result = self.execute_write_inner(command);
        self.record_command(command, result.is_ok());
        result
    }

    /// Executes a read-only protocol command through a shared reference.
    ///
    /// Rejects write commands with a `BadRequest` error — the server's
    /// read/write classification ([`Command::is_read`]) must route those
    /// through [`FerretService::execute`] under an exclusive lock.
    pub fn execute_read(&self, command: &Command) -> Result<Response, ServiceError> {
        let result = self.execute_read_inner(command);
        self.record_command(command, result.is_ok());
        result
    }

    /// Executes a similarity query with fusion ranking: the similarity
    /// pool (top `k`, unrestricted) is blended with the attribute
    /// ranking of `attr_expr` under the requested merge rule, then the
    /// query shape (min-similarity, limit) is applied to the fused
    /// list. `min_similarity` constrains the *similarity* component, so
    /// attribute-only hits (no distance) are dropped when it is set.
    /// `options` describes the similarity pool query only.
    fn query_fused(
        &self,
        req: &FusedRequest<'_>,
        options: QueryOptions,
    ) -> Result<Vec<FusedHit>, ServiceError> {
        let scored = self
            .attrs
            .search_scored_str(req.attr_expr)
            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        let attr_rank = rank_attr_scores(&scored);
        let resp = self.engine.query_by_id(req.id, &options)?;
        if let Some(trace) = resp.trace {
            self.record_trace(trace);
        }
        let sim: Vec<(ObjectId, f64)> = resp.results.iter().map(|r| (r.id, r.distance)).collect();
        let (mut hits, mode_label) = match req.fusion {
            FusionMode::Rrf { k } => (rrf_fuse(&sim, &attr_rank, k), "rrf"),
            FusionMode::Weighted { attr_weight } => {
                (weighted_fuse(&sim, &attr_rank, attr_weight), "weighted")
            }
            FusionMode::None => {
                return Err(ServiceError::BadRequest(
                    "fusion mode required on the fused path".into(),
                ))
            }
        };
        if let Some(ms) = req.min_similarity {
            hits.retain(|h| {
                h.distance
                    .is_some_and(|d| similarity_from_distance(d) >= ms)
            });
        }
        hits.truncate(req.limit.unwrap_or(req.k));
        if let Some(reg) = &self.telemetry {
            reg.inc_counter(
                "ferret_fusion_queries_total",
                "Hybrid fusion-ranked queries, by merge rule.",
                &[("mode", mode_label)],
                1,
            );
        }
        Ok(hits)
    }

    fn execute_read_inner(&self, command: &Command) -> Result<Response, ServiceError> {
        match command {
            Command::Query {
                id,
                k,
                mode,
                filter,
                attr,
                weights,
                fusion,
                min_similarity,
                limit,
                json: _,
            } => {
                // The cache key covers every parameter that affects the
                // response value (the output format only affects its
                // rendering). A hit skips execution — and therefore
                // trace recording — entirely.
                let key = self.cache.enabled().then(|| query_cache_key(command));
                if let Some(key) = &key {
                    if let Some(cached) = self.cache.lookup(key) {
                        return Ok(cached);
                    }
                }
                let mut options = QueryOptions::default()
                    .with_k(*k)
                    .with_mode(*mode)
                    .with_filter(filter.clone());
                options.weight_override = weights.clone();
                let resp = if *fusion == FusionMode::None {
                    options.min_similarity = *min_similarity;
                    options.limit = *limit;
                    let resp = self.query(*id, options, attr.as_deref())?;
                    if let Some(trace) = resp.trace {
                        self.record_trace(trace);
                    }
                    Response::Results(resp.results.iter().map(|r| (r.id, r.distance)).collect())
                } else {
                    let attr_expr = attr.as_deref().ok_or_else(|| {
                        ServiceError::BadRequest("fusion requires an attr expression".into())
                    })?;
                    Response::Fused(self.query_fused(
                        &FusedRequest {
                            id: *id,
                            k: *k,
                            attr_expr,
                            fusion: *fusion,
                            min_similarity: *min_similarity,
                            limit: *limit,
                        },
                        options,
                    )?)
                };
                if let Some(key) = key {
                    self.cache.store(key, resp.clone());
                }
                Ok(resp)
            }
            Command::Attr { expression } => {
                let mut hits: Vec<ObjectId> = self
                    .attrs
                    .search_str(expression)
                    .map_err(|e| ServiceError::BadRequest(e.to_string()))?
                    .into_iter()
                    .collect();
                hits.sort();
                Ok(Response::Ids(hits))
            }
            Command::Stat => {
                let fp = self.engine.metadata_footprint();
                Ok(Response::Stat {
                    objects: self.engine.len(),
                    segments: fp.segments,
                    sketch_bytes: fp.sketch_bytes,
                    feature_bytes: fp.feature_vector_bytes,
                })
            }
            Command::Help => Ok(Response::Help),
            Command::Quit => Ok(Response::Bye),
            Command::Delete { .. } => Err(ServiceError::BadRequest(
                "write command on the read-only path".into(),
            )),
        }
    }

    fn execute_write_inner(&mut self, command: &Command) -> Result<Response, ServiceError> {
        match command {
            Command::Delete { id } => {
                if self.remove(*id)? {
                    Ok(Response::Ok)
                } else {
                    Err(ServiceError::BadRequest(format!("unknown object {}", id.0)))
                }
            }
            read_only => self.execute_read_inner(read_only),
        }
    }

    /// Parses and executes one protocol line, rendering the response (or
    /// an `ERR` line) in the command's requested format: parse →
    /// [`FerretService::execute`] → [`crate::protocol::render_reply`].
    pub fn execute_line(&mut self, line: &str) -> String {
        match crate::protocol::parse_command(line) {
            Ok(cmd) => match self.execute(&cmd) {
                Ok(resp) => crate::protocol::render_reply(&cmd, &resp),
                Err(e) => crate::protocol::render_error(&e),
            },
            Err(e) => crate::protocol::render_error(&e),
        }
    }
}

/// The fused half of a hybrid query: everything `query_fused` needs
/// beyond the similarity-pool options.
struct FusedRequest<'a> {
    id: ObjectId,
    k: usize,
    attr_expr: &'a str,
    fusion: FusionMode,
    min_similarity: Option<f64>,
    limit: Option<usize>,
}

/// The normalized cache key of a query command: every parameter that
/// determines the response *value*. The output format is deliberately
/// excluded — `format=text` and `format=json` share one cached entry.
fn query_cache_key(command: &Command) -> String {
    let Command::Query {
        id,
        k,
        mode,
        filter,
        attr,
        weights,
        fusion,
        min_similarity,
        limit,
        json: _,
    } = command
    else {
        unreachable!("cache keys exist only for queries");
    };
    format!(
        "id={} k={k} mode={mode:?} filter={filter:?} attr={attr:?} weights={weights:?} \
         fusion={fusion:?} minsim={min_similarity:?} limit={limit:?}",
        id.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_attr::AttrsBuilder;
    use ferret_core::sketch::SketchParams;
    use ferret_core::vector::FeatureVector;
    use ferret_store::Durability;

    fn config() -> EngineConfig {
        EngineConfig::basic(
            SketchParams::new(128, vec![0.0; 3], vec![1.0; 3]).unwrap(),
            7,
        )
    }

    fn obj(x: f32) -> DataObject {
        DataObject::single(FeatureVector::new(vec![x, x, x]).unwrap())
    }

    fn populated() -> FerretService {
        let mut svc = FerretService::in_memory(config()).unwrap();
        for i in 0..6u64 {
            let attrs = AttrsBuilder::new()
                .keyword("group", if i < 3 { "low" } else { "high" })
                .int("idx", i as i64)
                .build();
            svc.insert(ObjectId(i), obj(0.1 + 0.15 * i as f32), Some(attrs))
                .unwrap();
        }
        svc
    }

    #[test]
    fn query_via_protocol() {
        let mut svc = populated();
        let out = svc.execute_line("query id=0 k=2 mode=brute");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "OK 2");
        assert!(lines[1].starts_with("0 "), "self first: {out}");
        assert!(lines[2].starts_with("1 "), "nearest second: {out}");
    }

    #[test]
    fn attr_restricted_query() {
        let mut svc = populated();
        // Restrict to group=high (ids 3,4,5): nearest to 0 is then 3.
        let out = svc.execute_line("query id=0 k=1 mode=brute attr=\"group:high\"");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "OK 1");
        assert!(lines[1].starts_with("3 "), "{out}");
    }

    #[test]
    fn attr_only_search() {
        let mut svc = populated();
        let out = svc.execute_line("attr group:low");
        assert_eq!(out.lines().next().unwrap(), "OK 3");
        let out = svc.execute_line("attr idx>=4");
        assert_eq!(out.lines().next().unwrap(), "OK 2");
    }

    #[test]
    fn stat_help_quit_delete() {
        let mut svc = populated();
        let out = svc.execute_line("stat");
        assert!(out.contains("objects 6"), "{out}");
        assert!(svc.execute_line("help").contains("query id=<n>"));
        assert_eq!(svc.execute_line("quit"), "OK bye\n");
        assert_eq!(svc.execute_line("delete id=5"), "OK\n");
        assert!(svc.execute_line("delete id=5").starts_with("ERR"));
        let out = svc.execute_line("stat");
        assert!(out.contains("objects 5"), "{out}");
    }

    #[test]
    fn errors_render_as_err_lines() {
        let mut svc = populated();
        assert!(svc.execute_line("nonsense").starts_with("ERR"));
        assert!(svc.execute_line("query id=99").starts_with("ERR"));
        assert!(svc
            .execute_line("query id=0 attr=\"((\"")
            .starts_with("ERR"));
    }

    #[test]
    fn every_mode_rejects_k_zero_and_negative_weights_by_id() {
        let mut svc = populated();
        let parts = vec![
            (FeatureVector::new(vec![0.2; 3]).unwrap(), 1.0),
            (FeatureVector::new(vec![0.7; 3]).unwrap(), 1.0),
        ];
        svc.insert(ObjectId(10), DataObject::new(parts).unwrap(), None)
            .unwrap();
        for mode in ["brute", "sketch", "filter"] {
            let reply = svc.execute_line(&format!("query id=10 k=0 mode={mode}"));
            assert!(
                reply.starts_with("ERR") && reply.contains("k must be > 0"),
                "mode={mode}: {reply}"
            );
            let reply = svc.execute_line(&format!("query id=10 mode={mode} weights=2,-1"));
            assert!(
                reply.starts_with("ERR") && reply.contains("segment 1 has weight -1"),
                "mode={mode}: {reply}"
            );
            let reply = svc.execute_line(&format!("query id=10 mode={mode} weights=2,1"));
            assert!(reply.starts_with("OK"), "mode={mode}: {reply}");
        }
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ferret-svc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db_opts = DbOptions {
            durability: Durability::Sync,
            checkpoint_every: None,
        };
        {
            let mut svc = FerretService::open(&dir, config(), db_opts).unwrap();
            svc.insert(
                ObjectId(1),
                obj(0.2),
                Some(AttrsBuilder::new().keyword("tag", "keep").build()),
            )
            .unwrap();
            svc.insert(ObjectId(2), obj(0.8), None).unwrap();
            svc.insert(ObjectId(3), obj(0.5), None).unwrap();
            svc.remove(ObjectId(3)).unwrap();
            svc.checkpoint().unwrap();
        }
        let mut svc = FerretService::open(&dir, config(), db_opts).unwrap();
        assert_eq!(svc.engine().len(), 2);
        let out = svc.execute_line("query id=1 k=2 mode=brute");
        assert!(out.starts_with("OK 2"), "{out}");
        let out = svc.execute_line("attr tag:keep");
        assert_eq!(out, "OK 1\n1\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression for the retune config-drop bug: the replacement engine
    /// used to be built from a minimal config that silently reset every
    /// knob added after the original fields.
    #[test]
    fn retune_preserves_the_full_engine_config() {
        let mut config = config();
        config.ranking = ferret_core::engine::RankingMethod::GreedyEmd;
        config.parallelism = Parallelism::Threads(2);
        let mut svc = FerretService::in_memory(config).unwrap();
        for i in 0..12u64 {
            svc.insert(ObjectId(i), obj(0.05 + 0.07 * i as f32), None)
                .unwrap();
        }
        svc.retune_sketches(96, 2, 17).unwrap();
        let engine = svc.engine();
        assert_eq!(engine.len(), 12, "retune must carry every object over");
        assert_eq!(engine.config().seed, 17);
        assert_eq!(engine.sketch_builder().nbits(), 96);
        assert!(
            matches!(
                engine.config().ranking,
                ferret_core::engine::RankingMethod::GreedyEmd
            ),
            "retune dropped the ranking method"
        );
        assert_eq!(engine.parallelism(), Parallelism::Threads(2));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut svc = populated();
        assert!(svc.insert(ObjectId(0), obj(0.5), None).is_err());
    }

    #[test]
    fn batch_insert_matches_serial_and_is_atomic() {
        let mut serial = FerretService::in_memory(config()).unwrap();
        let mut batched = FerretService::in_memory(config()).unwrap();
        batched.set_parallelism(Parallelism::Threads(3));
        let attrs = |i: u64| Some(AttrsBuilder::new().int("idx", i as i64).build());
        for i in 0..8u64 {
            serial
                .insert(ObjectId(i), obj(0.1 + 0.1 * i as f32), attrs(i))
                .unwrap();
        }
        let items: Vec<_> = (0..8u64)
            .map(|i| (ObjectId(i), obj(0.1 + 0.1 * i as f32), attrs(i)))
            .collect();
        batched.insert_batch(items).unwrap();
        assert_eq!(
            serial.execute_line("query id=0 k=4"),
            batched.execute_line("query id=0 k=4")
        );
        assert_eq!(
            serial.execute_line("attr idx>=5"),
            batched.execute_line("attr idx>=5")
        );
        // Duplicate id inside a batch leaves the service untouched.
        let dup: Vec<_> = [
            (ObjectId(100), obj(0.3), None),
            (ObjectId(100), obj(0.4), None),
        ]
        .into();
        assert!(batched.insert_batch(dup).is_err());
        assert_eq!(batched.engine().len(), 8);
    }
}
