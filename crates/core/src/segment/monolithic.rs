//! The original storage layout: one insertion-ordered object map, one
//! sketch arena, and (for the `Indexed` strategy) one incrementally
//! maintained [`ShardedSketchIndex`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::filter::{ArenaPart, IndexedPart};
use crate::object::{DataObject, ObjectId};
use crate::sketch::{ShardedSketchIndex, SketchArena, SketchedObject};
use crate::telemetry::MetricsRegistry;
use ferret_store::SegmentStore;

use super::{IndexLayout, IndexStorage, ProbeSet, StorageStats};

/// One mutable object map, one sketch arena and one optional mutable sketch
/// index. Removals take effect immediately (the arena moves its tail down);
/// `merge` rebuilds the index in place (the stop-the-world behavior
/// [`super::SegmentedStorage`] exists to avoid).
pub struct MonolithicStorage {
    nbits: usize,
    order: Vec<ObjectId>,
    objects: HashMap<ObjectId, DataObject>,
    sketches: HashMap<ObjectId, SketchedObject>,
    arena: SketchArena,
    index: Option<ShardedSketchIndex>,
    index_enabled: bool,
    epoch: u64,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for MonolithicStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonolithicStorage")
            .field("live", &self.order.len())
            .field("index_enabled", &self.index_enabled)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl MonolithicStorage {
    /// Creates an empty monolithic storage for sketches of `nbits` bits.
    /// `index_enabled` mirrors the engine's filter strategy: `false` for
    /// scan-only engines, which never pay for index maintenance.
    pub fn new(nbits: usize, index_enabled: bool) -> Result<Self> {
        let index = if index_enabled {
            Some(ShardedSketchIndex::new(nbits)?)
        } else {
            None
        };
        Ok(Self {
            nbits,
            order: Vec::new(),
            objects: HashMap::new(),
            sketches: HashMap::new(),
            arena: SketchArena::new(nbits),
            index,
            index_enabled,
            epoch: 0,
            telemetry: None,
        })
    }

    fn rebuilt_index(&self) -> Result<ShardedSketchIndex> {
        let mut index = ShardedSketchIndex::new(self.nbits)?;
        for id in &self.order {
            if let Some(so) = self.sketches.get(id) {
                index.insert(*id, so)?;
            }
        }
        Ok(index)
    }

    fn publish_gauges(&self) {
        if let Some(registry) = &self.telemetry {
            registry
                .gauge(
                    "ferret_index_memory_bytes",
                    "Approximate resident size of the sketch filter index.",
                    &[],
                )
                .set(self.index_bytes() as i64);
        }
    }
}

impl IndexStorage for MonolithicStorage {
    fn layout(&self) -> IndexLayout {
        IndexLayout::Monolithic
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.sketches.contains_key(&id)
    }

    fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.objects.get(&id)
    }

    fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.sketches.get(&id)
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        self.order.clone()
    }

    fn live_refs(&self) -> Vec<(ObjectId, &SketchedObject, Option<&DataObject>)> {
        self.order
            .iter()
            .filter_map(|id| {
                self.sketches
                    .get(id)
                    .map(|so| (*id, so, self.objects.get(id)))
            })
            .collect()
    }

    fn insert(
        &mut self,
        id: ObjectId,
        sketched: SketchedObject,
        original: Option<DataObject>,
    ) -> Result<()> {
        if self.sketches.contains_key(&id) {
            return Err(CoreError::DuplicateObject(id.0));
        }
        self.arena.push(id, &sketched)?;
        if let Some(index) = self.index.as_mut() {
            if let Err(e) = index.insert(id, &sketched) {
                self.arena.remove(id);
                return Err(e);
            }
        }
        self.sketches.insert(id, sketched);
        if let Some(object) = original {
            self.objects.insert(id, object);
        }
        self.order.push(id);
        self.epoch += 1;
        self.publish_gauges();
        Ok(())
    }

    fn tombstone(&mut self, id: ObjectId) -> Result<bool> {
        let present = self.sketches.remove(&id).is_some();
        self.objects.remove(&id);
        if present {
            self.order.retain(|&x| x != id);
            self.arena.remove(id);
            if let Some(index) = self.index.as_mut() {
                index.remove(id);
            }
            self.epoch += 1;
            self.publish_gauges();
        }
        Ok(present)
    }

    fn seal(&mut self) -> Result<()> {
        Ok(())
    }

    fn merge(&mut self) -> Result<()> {
        if self.index_enabled {
            self.index = Some(self.rebuilt_index()?);
            self.epoch += 1;
            self.publish_gauges();
        }
        Ok(())
    }

    fn maintain(&mut self) -> Result<()> {
        Ok(())
    }

    fn set_index_enabled(&mut self, enabled: bool) -> Result<()> {
        if enabled == self.index_enabled {
            return Ok(());
        }
        self.index_enabled = enabled;
        self.index = if enabled {
            Some(self.rebuilt_index()?)
        } else {
            None
        };
        self.epoch += 1;
        self.publish_gauges();
        Ok(())
    }

    fn index_enabled(&self) -> bool {
        self.index_enabled
    }

    fn arena_parts(&self) -> Vec<ArenaPart<'_>> {
        vec![ArenaPart::live(&self.arena)]
    }

    fn arena_bytes(&self) -> usize {
        self.arena.memory_bytes()
    }

    fn probe_set(&self) -> Option<ProbeSet<'_>> {
        self.index.as_ref().map(|index| ProbeSet {
            parts: vec![IndexedPart { index, dead: None }],
            extras: Vec::new(),
        })
    }

    fn monolithic_index(&self) -> Option<&ShardedSketchIndex> {
        self.index.as_ref()
    }

    fn index_bytes(&self) -> usize {
        self.index
            .as_ref()
            .map_or(0, ShardedSketchIndex::memory_bytes)
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_objects: self.order.len(),
            memtable_objects: 0,
            sealed_segments: 0,
            indexed_segments: 0,
            tombstones: 0,
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.telemetry = registry;
        self.publish_gauges();
    }

    fn attach_persistence(&mut self, _store: SegmentStore) -> Result<()> {
        Ok(())
    }

    fn persistence_handle(&self) -> Option<&SegmentStore> {
        None
    }

    fn into_originals(self: Box<Self>) -> (Vec<(ObjectId, DataObject)>, Option<SegmentStore>) {
        let Self {
            order,
            mut objects,
            sketches,
            arena,
            index,
            ..
        } = *self;
        drop((sketches, arena, index));
        let originals = order
            .into_iter()
            .filter_map(|id| objects.remove(&id).map(|o| (id, o)))
            .collect();
        (originals, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SketchBuilder, SketchParams};
    use crate::vector::FeatureVector;

    fn sketched(builder: &SketchBuilder, v: &[f32]) -> (DataObject, SketchedObject) {
        let obj = DataObject::single(FeatureVector::new(v.to_vec()).unwrap());
        let so = builder.sketch_object(&obj).unwrap();
        (obj, so)
    }

    fn test_builder() -> SketchBuilder {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        SketchBuilder::new(params, 7)
    }

    #[test]
    fn insert_tombstone_roundtrip() {
        let builder = test_builder();
        let mut storage = MonolithicStorage::new(builder.nbits(), true).unwrap();
        let (obj, so) = sketched(&builder, &[0.1, 0.2]);
        storage.insert(ObjectId(1), so, Some(obj)).unwrap();
        assert!(storage.contains(ObjectId(1)));
        assert_eq!(storage.len(), 1);
        assert_eq!(storage.live_ids(), vec![ObjectId(1)]);
        let e0 = storage.epoch();
        assert!(storage.tombstone(ObjectId(1)).unwrap());
        assert!(!storage.tombstone(ObjectId(1)).unwrap());
        assert!(storage.epoch() > e0);
        assert!(storage.is_empty());
        assert_eq!(storage.stats(), StorageStats::default());
    }

    #[test]
    fn index_toggle_rebuilds() {
        let builder = test_builder();
        let mut storage = MonolithicStorage::new(builder.nbits(), false).unwrap();
        let (_, so) = sketched(&builder, &[0.3, 0.4]);
        storage.insert(ObjectId(9), so, None).unwrap();
        assert!(storage.probe_set().is_none());
        assert_eq!(storage.index_bytes(), 0);
        storage.set_index_enabled(true).unwrap();
        let probe = storage.probe_set().unwrap();
        assert_eq!(probe.parts.len(), 1);
        assert!(probe.extras.is_empty());
        assert!(storage.monolithic_index().unwrap().contains(ObjectId(9)));
    }
}
