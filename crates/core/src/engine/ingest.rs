//! The engine's write side: inserts (one object or a parallel batch),
//! removals, and the re-sketching retune of paper §4.3.

use std::collections::HashSet;
use std::time::Duration;

use super::{EngineBuilder, SearchEngine};
use crate::error::{CoreError, Result};
use crate::object::{DataObject, ObjectId};
use crate::parallel::{try_map_chunked, DEFAULT_CHUNK};
use crate::sketch::{SketchParams, SketchedObject};
use crate::telemetry::StageClock;

impl SearchEngine {
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

    /// Removes an object; returns `true` if it was present.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        let segments = self
            .storage
            .sketch(id)
            .map_or(0, SketchedObject::num_segments);
        let present = self.storage.remove(id);
        if present {
            self.segments -= segments;
        }
        present
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
        let objects = self.storage.ids().iter();
        SketchParams::from_objects(
            nbits,
            xor_folds,
            objects.filter_map(|&id| self.storage.object(id)),
        )
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
        self.insert_batch(old.storage.into_originals())
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
}
