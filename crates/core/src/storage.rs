//! The engine's object and sketch state: one insertion-ordered object map
//! and one sketch arena, mutated in place (paper §4.1.1: the sketch
//! database is one in-memory collection the filter streams in full).

use std::collections::HashMap;

use crate::error::{CoreError, Result};
use crate::object::{DataObject, ObjectId};
use crate::sketch::{SketchArena, SketchedObject};

/// Live objects, their sketches and the arena the filter scans. Removals
/// take effect immediately (the arena moves its tail down), so there is
/// nothing to reclaim later.
pub(crate) struct Storage {
    order: Vec<ObjectId>,
    objects: HashMap<ObjectId, DataObject>,
    sketches: HashMap<ObjectId, SketchedObject>,
    arena: SketchArena,
}

impl Storage {
    /// Creates an empty storage for sketches of `nbits` bits.
    pub(crate) fn new(nbits: usize) -> Self {
        Self {
            order: Vec::new(),
            objects: HashMap::new(),
            sketches: HashMap::new(),
            arena: SketchArena::new(nbits),
        }
    }

    /// Live objects.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// True if `id` is live. One hash lookup: the pushdown counter calls
    /// it once per member of a query's restrict set.
    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.sketches.contains_key(&id)
    }

    /// The original object, if originals are stored and `id` is live.
    pub(crate) fn object(&self, id: ObjectId) -> Option<&DataObject> {
        self.objects.get(&id)
    }

    /// The sketched form of a live object.
    pub(crate) fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        self.sketches.get(&id)
    }

    /// Live object ids in insertion order.
    pub(crate) fn ids(&self) -> &[ObjectId] {
        &self.order
    }

    /// Every live segment sketch, back to back: what the filter scans.
    pub(crate) fn arena(&self) -> &SketchArena {
        &self.arena
    }

    /// Inserts a new object. `original` is `None` for sketch-only engines.
    pub(crate) fn insert(
        &mut self,
        id: ObjectId,
        sketched: SketchedObject,
        original: Option<DataObject>,
    ) -> Result<()> {
        if self.sketches.contains_key(&id) {
            return Err(CoreError::DuplicateObject(id.0));
        }
        self.arena.push(id, &sketched)?;
        self.sketches.insert(id, sketched);
        if let Some(object) = original {
            self.objects.insert(id, object);
        }
        self.order.push(id);
        Ok(())
    }

    /// Removes `id`; returns `true` if it was live.
    pub(crate) fn remove(&mut self, id: ObjectId) -> bool {
        let present = self.sketches.remove(&id).is_some();
        self.objects.remove(&id);
        if present {
            self.order.retain(|&x| x != id);
            self.arena.remove(id);
        }
        present
    }

    /// Tears the storage down to what a retune needs: the live originals
    /// in insertion order, moved out. Sketches and the arena are dropped
    /// on the way, so the caller can build their replacements without
    /// holding both.
    pub(crate) fn into_originals(self) -> Vec<(ObjectId, DataObject)> {
        let Self {
            order,
            mut objects,
            sketches,
            arena,
        } = self;
        drop((sketches, arena));
        order
            .into_iter()
            .filter_map(|id| objects.remove(&id).map(|o| (id, o)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SketchBuilder, SketchParams};
    use crate::vector::FeatureVector;

    #[test]
    fn insert_remove_roundtrip() {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        let builder = SketchBuilder::new(params, 7);
        let mut storage = Storage::new(builder.nbits());
        let obj = DataObject::single(FeatureVector::new(vec![0.1, 0.2]).unwrap());
        let so = builder.sketch_object(&obj).unwrap();
        storage.insert(ObjectId(1), so, Some(obj)).unwrap();
        assert!(storage.contains(ObjectId(1)));
        assert_eq!(storage.ids(), &[ObjectId(1)]);
        assert_eq!(storage.arena().objects(), 1);
        assert!(storage.remove(ObjectId(1)));
        assert!(!storage.remove(ObjectId(1)));
        assert_eq!(storage.len(), 0);
        assert!(storage.arena().is_empty());
    }
}
