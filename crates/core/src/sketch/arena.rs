//! Flat sketch storage: every segment sketch of the engine back to back
//! in one `Vec<u64>`, with a parallel owner column.
//!
//! The filtering scan compares every stored segment sketch with a few
//! query sketches (paper §4.1.1). With one boxed [`BitVec`](crate::sketch::BitVec) per segment
//! inside one `Vec` per object, each comparison chases two pointers; in an
//! arena the scan is a linear walk over contiguous words, `nbits / 64`
//! XOR + popcount per segment. [`crate::filter::filter_candidates_arena`]
//! is the kernel that walks it.

use crate::error::{CoreError, Result};
use crate::object::ObjectId;
use crate::sketch::SketchedObject;

/// All segment sketches of the engine, `words_per_sketch` words each, in
/// insertion order. An object's segments are adjacent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchArena {
    nbits: usize,
    words_per_sketch: usize,
    words: Vec<u64>,
    owners: Vec<ObjectId>,
    objects: usize,
}

impl SketchArena {
    /// An empty arena for sketches of `nbits` bits.
    pub fn new(nbits: usize) -> Self {
        Self {
            nbits,
            words_per_sketch: nbits.div_ceil(64),
            words: Vec::new(),
            owners: Vec::new(),
            objects: 0,
        }
    }

    /// Appends every segment sketch of `so`, owned by `id`. Fails, leaving
    /// the arena untouched, if `so` has no sketch (so every object counted
    /// owns a run [`SketchArena::remove`] can find) or any sketch is not
    /// `nbits` long.
    pub fn push(&mut self, id: ObjectId, so: &SketchedObject) -> Result<()> {
        if so.sketches.is_empty() {
            return Err(CoreError::EmptyObject);
        }
        if let Some(bad) = so.sketches.iter().find(|s| s.len() != self.nbits) {
            return Err(CoreError::SketchLengthMismatch {
                left: bad.len(),
                right: self.nbits,
            });
        }
        for sketch in &so.sketches {
            self.words.extend_from_slice(sketch.words());
            self.owners.push(id);
        }
        self.objects += 1;
        Ok(())
    }

    /// Removes the segments owned by `id`, if present, by moving the tail
    /// down: O(segments), which is what the engine's in-place removal of
    /// the object's ids already costs.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        let Some(start) = self.owners.iter().position(|&o| o == id) else {
            return false;
        };
        let run = self.owners[start..]
            .iter()
            .take_while(|&&o| o == id)
            .count();
        let end = start + run;
        self.owners.drain(start..end);
        self.words
            .drain(start * self.words_per_sketch..end * self.words_per_sketch);
        self.objects -= 1;
        true
    }

    /// Sketch length in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// `u64` words per sketch (`nbits.div_ceil(64)`).
    pub fn words_per_sketch(&self) -> usize {
        self.words_per_sketch
    }

    /// Number of segment sketches stored.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True if no sketch is stored.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Number of objects pushed and not removed.
    pub fn objects(&self) -> usize {
        self.objects
    }

    /// The packed sketch words: sketch `i` is
    /// `words[i * words_per_sketch..(i + 1) * words_per_sketch]`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The owner of every sketch, parallel to [`SketchArena::words`].
    pub fn owners(&self) -> &[ObjectId] {
        &self.owners
    }

    /// Resident bytes of the two columns (their allocated capacity).
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.owners.capacity() * std::mem::size_of::<ObjectId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::BitVec;

    fn object(nbits: usize, bits: &[&[usize]]) -> SketchedObject {
        let sketches: Vec<BitVec> = bits
            .iter()
            .map(|set| {
                let mut bv = BitVec::zeros(nbits);
                for &i in *set {
                    bv.set(i, true);
                }
                bv
            })
            .collect();
        SketchedObject {
            weights: vec![1.0 / sketches.len() as f32; sketches.len()],
            sketches,
        }
    }

    #[test]
    fn push_lays_sketches_out_back_to_back() {
        let mut arena = SketchArena::new(100);
        assert_eq!(arena.words_per_sketch(), 2);
        arena
            .push(ObjectId(7), &object(100, &[&[0, 64], &[99]]))
            .unwrap();
        arena.push(ObjectId(3), &object(100, &[&[1]])).unwrap();
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.objects(), 2);
        assert_eq!(arena.owners(), &[ObjectId(7), ObjectId(7), ObjectId(3)]);
        assert_eq!(arena.words(), &[1, 1, 0, 1 << 35, 2, 0]);
    }

    #[test]
    fn push_rejects_bad_objects_without_a_partial_write() {
        let mut arena = SketchArena::new(64);
        let mut so = object(64, &[&[1]]);
        so.sketches.push(BitVec::zeros(65));
        assert!(matches!(
            arena.push(ObjectId(1), &so),
            Err(CoreError::SketchLengthMismatch {
                left: 65,
                right: 64
            })
        ));
        assert!(matches!(
            arena.push(ObjectId(1), &object(64, &[])),
            Err(CoreError::EmptyObject)
        ));
        assert!(arena.is_empty());
        assert_eq!(arena.objects(), 0);
    }

    #[test]
    fn remove_drops_exactly_the_owners_run() {
        let mut arena = SketchArena::new(64);
        arena.push(ObjectId(1), &object(64, &[&[1]])).unwrap();
        arena.push(ObjectId(2), &object(64, &[&[2], &[3]])).unwrap();
        arena.push(ObjectId(3), &object(64, &[&[4]])).unwrap();
        assert!(arena.remove(ObjectId(2)));
        assert!(!arena.remove(ObjectId(2)));
        assert_eq!(arena.owners(), &[ObjectId(1), ObjectId(3)]);
        assert_eq!(arena.words(), &[1 << 1, 1 << 4]);
        assert_eq!(arena.objects(), 2);
        // Re-inserting the id appends it at the end.
        arena.push(ObjectId(2), &object(64, &[&[5]])).unwrap();
        assert_eq!(arena.owners(), &[ObjectId(1), ObjectId(3), ObjectId(2)]);
    }
}
