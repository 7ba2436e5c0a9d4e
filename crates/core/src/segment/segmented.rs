//! LSM-style segmented storage: a mutable memtable, immutable sealed
//! segments (each carrying its own build-once sketch arena), per-segment
//! dead sets for removals, and a background compaction worker.
//!
//! Concurrency model: all mutation happens through `&mut self` (the
//! service serializes writers), so the only cross-thread state is the
//! compaction mailbox. Writers enqueue a merge job carrying `Arc` clones
//! of the input segments plus a snapshot of their dead sets; the worker
//! merges off-thread and posts a
//! [`MergeOutcome`] to an outbox. The next `&mut` operation applies it:
//! if the input run is still present and the generation matches, the run
//! is spliced out for the merged segment, carrying forward any removals
//! that landed after the snapshot (`dead_now − dead_claimed`). Stale
//! outcomes are discarded — the inputs are immutable, so a discarded
//! merge wastes work but can never corrupt state.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::CoreError;
use crate::error::Result;
use crate::filter::ArenaPart;
use crate::object::{DataObject, ObjectId};
use crate::sketch::{SketchArena, SketchedObject};
use crate::telemetry::{MetricsRegistry, Unit, LATENCY_BUCKETS_NS};
use ferret_store::{SegmentRecord, SegmentStore};

use super::{store_err, IndexLayout, IndexStorage, StorageStats};

const COMPACTIONS_HELP: &str = "Segment compaction merges completed.";
const COMPACTION_SECONDS_HELP: &str = "Latency of segment compaction merges.";
const SEGMENTS_HELP: &str = "Immutable sealed segments in the engine.";
const MEMTABLE_HELP: &str = "Objects in the mutable memtable awaiting seal.";

/// An immutable sealed segment: a slice of the corpus in insertion order
/// and its sketch arena.
#[derive(Clone)]
struct Segment {
    /// Storage-local segment id (also used to match compaction outcomes
    /// back to their input run).
    id: u64,
    /// Record ids in insertion order.
    ids: Vec<ObjectId>,
    sketches: HashMap<ObjectId, SketchedObject>,
    objects: HashMap<ObjectId, DataObject>,
    /// Every record's sketches back to back, in `ids` order; taken over
    /// from the memtable at seal, rebuilt at merge.
    arena: SketchArena,
}

impl Segment {
    fn live_count(&self, dead: &HashSet<ObjectId>) -> usize {
        self.ids.len() - dead.len()
    }
}

/// A sealed segment plus its mutable side-state: removals recorded since
/// sealing (and how many arena sketches they own), and the durable file id
/// once checkpointed.
struct SegmentSlot {
    segment: Arc<Segment>,
    dead: HashSet<ObjectId>,
    dead_segments: usize,
    persist_id: Option<u64>,
}

impl SegmentSlot {
    fn new(segment: Segment, dead: HashSet<ObjectId>) -> Self {
        let dead_segments = dead
            .iter()
            .filter_map(|id| segment.sketches.get(id))
            .map(SketchedObject::num_segments)
            .sum();
        Self {
            segment: Arc::new(segment),
            dead,
            dead_segments,
            persist_id: None,
        }
    }

    fn arena_part(&self) -> ArenaPart<'_> {
        ArenaPart {
            arena: &self.segment.arena,
            dead: (!self.dead.is_empty()).then_some(&self.dead),
            dead_segments: self.dead_segments,
        }
    }
}

/// Work order for the compaction worker.
struct MergeJob {
    generation: u64,
    out_id: u64,
    nbits: usize,
    inputs: Vec<Arc<Segment>>,
    dead_claimed: Vec<HashSet<ObjectId>>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

enum Job {
    Merge(Box<MergeJob>),
    Shutdown,
}

/// Result posted back by the worker; applied by the next writer.
struct MergeOutcome {
    generation: u64,
    input_ids: Vec<u64>,
    dead_claimed: Vec<HashSet<ObjectId>>,
    merged: Result<Segment>,
}

#[derive(Default)]
struct CompactorShared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    outbox: Mutex<Vec<MergeOutcome>>,
}

struct CompactorHandle {
    shared: Arc<CompactorShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        lock_inner(&self.shared.queue).push_back(Job::Shutdown);
        self.shared.cv.notify_one();
        if let Some(join) = self.join.take() {
            join.join().ok();
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock — the worker
/// holds these locks only around queue push/pop, so the protected state
/// cannot be torn by a panic.
fn lock_inner<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(shared: Arc<CompactorShared>) {
    loop {
        let job = {
            let mut queue = lock_inner(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .cv
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let job = match job {
            Job::Shutdown => return,
            Job::Merge(job) => job,
        };
        let start = std::time::Instant::now();
        let input_ids = job.inputs.iter().map(|s| s.id).collect();
        let merged = merge_segments(job.out_id, job.nbits, &job.inputs, &job.dead_claimed);
        if let Some(registry) = &job.telemetry {
            registry.inc_counter("ferret_compactions_total", COMPACTIONS_HELP, &[], 1);
            registry.observe_latency(
                "ferret_compaction_seconds",
                COMPACTION_SECONDS_HELP,
                &[],
                start.elapsed(),
            );
        }
        lock_inner(&shared.outbox).push(MergeOutcome {
            generation: job.generation,
            input_ids,
            dead_claimed: job.dead_claimed,
            merged,
        });
    }
}

/// Merges a contiguous run of segments into one, dropping records that
/// were dead at snapshot time. Record order is preserved (inputs are in
/// segment order, records in insertion order), so the merged segment
/// occupies exactly its inputs' place in the global insertion order.
fn merge_segments(
    out_id: u64,
    nbits: usize,
    inputs: &[Arc<Segment>],
    dead_claimed: &[HashSet<ObjectId>],
) -> Result<Segment> {
    let mut ids = Vec::new();
    let mut sketches = HashMap::new();
    let mut objects = HashMap::new();
    let mut arena = SketchArena::new(nbits);
    for (i, seg) in inputs.iter().enumerate() {
        let dead = dead_claimed.get(i);
        for id in &seg.ids {
            if dead.is_some_and(|d| d.contains(id)) {
                continue;
            }
            let Some(so) = seg.sketches.get(id) else {
                continue;
            };
            arena.push(*id, so)?;
            ids.push(*id);
            sketches.insert(*id, so.clone());
            if let Some(obj) = seg.objects.get(id) {
                objects.insert(*id, obj.clone());
            }
        }
    }
    Ok(Segment {
        id: out_id,
        ids,
        sketches,
        objects,
        arena,
    })
}

/// LSM-style [`IndexStorage`]: inserts land in a small mutable memtable,
/// sealed segments are immutable, and a background worker merges small or
/// removal-heavy runs off the write path.
pub struct SegmentedStorage {
    nbits: usize,
    memtable_size: usize,
    compaction: bool,
    mem_order: Vec<ObjectId>,
    mem_sketches: HashMap<ObjectId, SketchedObject>,
    mem_objects: HashMap<ObjectId, DataObject>,
    mem_arena: SketchArena,
    slots: Vec<SegmentSlot>,
    /// Every live id, memtable and sealed, so membership is one lookup
    /// instead of a walk over the slots.
    live: HashSet<ObjectId>,
    next_segment_id: u64,
    epoch: u64,
    /// Bumped whenever the slot list is invalidated wholesale (inline
    /// merge); outcomes from older generations are
    /// discarded on apply.
    generation: u64,
    /// At most one background merge outstanding.
    inflight: bool,
    compactor: Option<CompactorHandle>,
    persist: Option<SegmentStore>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for SegmentedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedStorage")
            .field("live", &self.len())
            .field("memtable", &self.mem_order.len())
            .field("segments", &self.slots.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl SegmentedStorage {
    /// Creates an empty segmented storage. `memtable_size` is the seal
    /// threshold (clamped to at least 1); `compaction` controls the
    /// background worker — with it off, segments only merge through
    /// explicit [`IndexStorage::merge`] calls (deterministic, for tests).
    pub fn new(nbits: usize, memtable_size: usize, compaction: bool) -> Self {
        Self {
            nbits,
            memtable_size: memtable_size.max(1),
            compaction,
            mem_order: Vec::new(),
            mem_sketches: HashMap::new(),
            mem_objects: HashMap::new(),
            mem_arena: SketchArena::new(nbits),
            slots: Vec::new(),
            live: HashSet::new(),
            next_segment_id: 0,
            epoch: 0,
            generation: 0,
            inflight: false,
            compactor: None,
            persist: None,
            telemetry: None,
        }
    }

    /// Index of the slot where `id` is live, if any.
    fn live_slot(&self, id: ObjectId) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.segment.sketches.contains_key(&id) && !s.dead.contains(&id))
    }

    fn publish_gauges(&self) {
        if let Some(registry) = &self.telemetry {
            registry
                .gauge("ferret_segments", SEGMENTS_HELP, &[])
                .set(self.slots.len() as i64);
            registry
                .gauge("ferret_memtable_objects", MEMTABLE_HELP, &[])
                .set(self.mem_order.len() as i64);
        }
    }

    /// Drains the compaction outbox and applies every outcome that still
    /// matches the current slot list.
    fn apply_pending(&mut self) -> Result<()> {
        let outcomes = match &self.compactor {
            Some(handle) => {
                let mut outbox = lock_inner(&handle.shared.outbox);
                std::mem::take(&mut *outbox)
            }
            None => return Ok(()),
        };
        for outcome in outcomes {
            // One job outstanding at a time, so any outcome settles it.
            self.inflight = false;
            if outcome.generation != self.generation {
                continue;
            }
            let Some(start) = self.find_run(&outcome.input_ids) else {
                continue;
            };
            let merged = outcome.merged?;
            self.splice_run(
                start,
                outcome.input_ids.len(),
                merged,
                &outcome.dead_claimed,
            )?;
        }
        Ok(())
    }

    /// Position of `input_ids` as a contiguous run of current slots.
    fn find_run(&self, input_ids: &[u64]) -> Option<usize> {
        if input_ids.is_empty() || input_ids.len() > self.slots.len() {
            return None;
        }
        (0..=self.slots.len() - input_ids.len()).find(|&start| {
            input_ids
                .iter()
                .enumerate()
                .all(|(i, id)| self.slots[start + i].segment.id == *id)
        })
    }

    /// Replaces `slots[start..start+len]` with the merged segment,
    /// carrying forward removals that landed after the job's dead-set
    /// snapshot (`dead_now − dead_claimed` per input — those records were
    /// live at snapshot time, so they exist in the merged segment).
    fn splice_run(
        &mut self,
        start: usize,
        len: usize,
        merged: Segment,
        dead_claimed: &[HashSet<ObjectId>],
    ) -> Result<()> {
        let mut dead = HashSet::new();
        for (i, slot) in self.slots[start..start + len].iter().enumerate() {
            let claimed = dead_claimed.get(i);
            dead.extend(
                slot.dead
                    .iter()
                    .filter(|id| !claimed.is_some_and(|c| c.contains(id)))
                    .copied(),
            );
        }
        self.slots
            .splice(start..start + len, [SegmentSlot::new(merged, dead)]);
        self.epoch += 1;
        self.persist_checkpoint()?;
        self.publish_gauges();
        Ok(())
    }

    /// Freezes the memtable into a new sealed segment.
    fn seal_memtable(&mut self) -> Result<()> {
        if self.mem_order.is_empty() {
            return Ok(());
        }
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let segment = Segment {
            id,
            ids: std::mem::take(&mut self.mem_order),
            sketches: std::mem::take(&mut self.mem_sketches),
            objects: std::mem::take(&mut self.mem_objects),
            arena: std::mem::replace(&mut self.mem_arena, SketchArena::new(self.nbits)),
        };
        self.slots.push(SegmentSlot::new(segment, HashSet::new()));
        self.epoch += 1;
        self.persist_checkpoint()?;
        self.publish_gauges();
        Ok(())
    }

    /// Picks the next contiguous run to compact: the first maximal run of
    /// two or more candidate slots (small or removal-heavy), else a lone
    /// slot that needs a removal sweep. Returns `(start, len)`.
    fn plan_merge(&self) -> Option<(usize, usize)> {
        let small_limit = self.memtable_size.saturating_mul(4).max(8);
        let needs_sweep = |slot: &SegmentSlot| slot.dead.len() * 2 >= slot.segment.ids.len().max(1);
        let candidate = |slot: &SegmentSlot| {
            needs_sweep(slot) || slot.segment.live_count(&slot.dead) < small_limit
        };
        let mut start = 0;
        while start < self.slots.len() {
            if !candidate(&self.slots[start]) {
                start += 1;
                continue;
            }
            let mut end = start + 1;
            while end < self.slots.len() && candidate(&self.slots[end]) {
                end += 1;
            }
            if end - start >= 2 {
                return Some((start, end - start));
            }
            // A lone candidate is only worth rewriting if it needs a
            // removal sweep; re-merging a small but healthy segment by
            // itself would loop forever.
            if needs_sweep(&self.slots[start]) {
                return Some((start, 1));
            }
            start = end;
        }
        None
    }

    /// Snapshot of the run for a merge: `Arc` clones of the segments plus
    /// the dead sets as of now.
    fn snapshot_run(
        &self,
        start: usize,
        len: usize,
    ) -> (Vec<Arc<Segment>>, Vec<HashSet<ObjectId>>) {
        let inputs = self.slots[start..start + len]
            .iter()
            .map(|s| Arc::clone(&s.segment))
            .collect();
        let dead = self.slots[start..start + len]
            .iter()
            .map(|s| s.dead.clone())
            .collect();
        (inputs, dead)
    }

    /// Spawns the compaction worker on first use. Returns `false` (and
    /// disables background compaction) if the thread cannot be spawned.
    fn ensure_worker(&mut self) -> bool {
        if self.compactor.is_some() {
            return true;
        }
        if !self.compaction {
            return false;
        }
        let shared = Arc::new(CompactorShared::default());
        let worker_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("ferret-compaction".into())
            .spawn(move || worker_loop(worker_shared))
        {
            Ok(join) => {
                self.compactor = Some(CompactorHandle {
                    shared,
                    join: Some(join),
                });
                true
            }
            Err(_) => {
                self.compaction = false;
                false
            }
        }
    }

    /// Enqueues the next due merge for the background worker, if any.
    fn schedule_compaction(&mut self) {
        if !self.compaction || self.inflight {
            return;
        }
        let Some((start, len)) = self.plan_merge() else {
            return;
        };
        if !self.ensure_worker() {
            return;
        }
        let (inputs, dead_claimed) = self.snapshot_run(start, len);
        let out_id = self.next_segment_id;
        self.next_segment_id += 1;
        let job = MergeJob {
            generation: self.generation,
            out_id,
            nbits: self.nbits,
            inputs,
            dead_claimed,
            telemetry: self.telemetry.clone(),
        };
        if let Some(handle) = &self.compactor {
            lock_inner(&handle.shared.queue).push_back(Job::Merge(Box::new(job)));
            handle.shared.cv.notify_one();
            self.inflight = true;
        }
    }

    /// Writes any not-yet-persisted sealed segments through the attached
    /// [`SegmentStore`] and commits a manifest naming the live set. The
    /// manifest swap is the durability point; superseded segment files are
    /// garbage-collected only after the swap.
    fn persist_checkpoint(&mut self) -> Result<()> {
        let Some(store) = self.persist.as_mut() else {
            return Ok(());
        };
        for slot in &mut self.slots {
            if slot.persist_id.is_some() {
                continue;
            }
            let mut records = Vec::with_capacity(slot.segment.ids.len());
            for id in &slot.segment.ids {
                if let Some(so) = slot.segment.sketches.get(id) {
                    records.push(SegmentRecord {
                        id: id.0,
                        payload: crate::codec::encode_sketched(so),
                    });
                }
            }
            slot.persist_id = Some(store.write_segment(&records).map_err(store_err)?);
        }
        let live: Vec<u64> = self.slots.iter().filter_map(|s| s.persist_id).collect();
        store.commit_manifest(&live).map_err(store_err)?;
        Ok(())
    }

    /// Runs one inline (synchronous) merge step; returns `true` if a run
    /// was merged.
    fn merge_step(&mut self) -> Result<bool> {
        let Some((start, len)) = self.plan_merge() else {
            return Ok(false);
        };
        let (inputs, dead_claimed) = self.snapshot_run(start, len);
        let out_id = self.next_segment_id;
        self.next_segment_id += 1;
        let begin = std::time::Instant::now();
        let merged = merge_segments(out_id, self.nbits, &inputs, &dead_claimed)?;
        if let Some(registry) = &self.telemetry {
            registry.inc_counter("ferret_compactions_total", COMPACTIONS_HELP, &[], 1);
            registry.observe_latency(
                "ferret_compaction_seconds",
                COMPACTION_SECONDS_HELP,
                &[],
                begin.elapsed(),
            );
        }
        self.splice_run(start, len, merged, &dead_claimed)?;
        Ok(true)
    }
}

impl IndexStorage for SegmentedStorage {
    fn layout(&self) -> IndexLayout {
        IndexLayout::Segmented
    }

    fn len(&self) -> usize {
        let sealed: usize = self
            .slots
            .iter()
            .map(|s| s.segment.live_count(&s.dead))
            .sum();
        sealed + self.mem_order.len()
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.live.contains(&id)
    }

    fn object(&self, id: ObjectId) -> Option<&DataObject> {
        if let Some(obj) = self.mem_objects.get(&id) {
            return Some(obj);
        }
        if self.mem_sketches.contains_key(&id) {
            return None;
        }
        self.live_slot(id)
            .and_then(|i| self.slots[i].segment.objects.get(&id))
    }

    fn sketch(&self, id: ObjectId) -> Option<&SketchedObject> {
        if let Some(so) = self.mem_sketches.get(&id) {
            return Some(so);
        }
        self.live_slot(id)
            .and_then(|i| self.slots[i].segment.sketches.get(&id))
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::with_capacity(self.len());
        for slot in &self.slots {
            out.extend(slot.segment.ids.iter().filter(|id| !slot.dead.contains(id)));
        }
        out.extend(self.mem_order.iter().copied());
        out
    }

    fn live_refs(&self) -> Vec<(ObjectId, &SketchedObject, Option<&DataObject>)> {
        let mut out = Vec::with_capacity(self.len());
        for slot in &self.slots {
            for id in &slot.segment.ids {
                if slot.dead.contains(id) {
                    continue;
                }
                if let Some(so) = slot.segment.sketches.get(id) {
                    out.push((*id, so, slot.segment.objects.get(id)));
                }
            }
        }
        for id in &self.mem_order {
            if let Some(so) = self.mem_sketches.get(id) {
                out.push((*id, so, self.mem_objects.get(id)));
            }
        }
        out
    }

    fn insert(
        &mut self,
        id: ObjectId,
        sketched: SketchedObject,
        original: Option<DataObject>,
    ) -> Result<()> {
        self.apply_pending()?;
        if self.contains(id) {
            return Err(CoreError::DuplicateObject(id.0));
        }
        self.mem_arena.push(id, &sketched)?;
        self.mem_sketches.insert(id, sketched);
        if let Some(object) = original {
            self.mem_objects.insert(id, object);
        }
        self.mem_order.push(id);
        self.live.insert(id);
        self.epoch += 1;
        if self.mem_order.len() >= self.memtable_size {
            self.seal_memtable()?;
            self.schedule_compaction();
        }
        self.publish_gauges();
        Ok(())
    }

    fn tombstone(&mut self, id: ObjectId) -> Result<bool> {
        self.apply_pending()?;
        if !self.live.remove(&id) {
            return Ok(false);
        }
        if self.mem_sketches.remove(&id).is_some() {
            self.mem_objects.remove(&id);
            self.mem_order.retain(|&x| x != id);
            self.mem_arena.remove(id);
            self.epoch += 1;
            self.publish_gauges();
            return Ok(true);
        }
        if let Some(i) = self.live_slot(id) {
            let slot = &mut self.slots[i];
            slot.dead_segments += slot
                .segment
                .sketches
                .get(&id)
                .map_or(0, SketchedObject::num_segments);
            slot.dead.insert(id);
            self.epoch += 1;
            self.schedule_compaction();
            self.publish_gauges();
            return Ok(true);
        }
        Ok(false)
    }

    fn seal(&mut self) -> Result<()> {
        self.apply_pending()?;
        self.seal_memtable()?;
        self.schedule_compaction();
        Ok(())
    }

    fn merge(&mut self) -> Result<()> {
        self.apply_pending()?;
        // Invalidate any in-flight background job: its inputs may be
        // spliced away by the inline merges below.
        self.generation += 1;
        while self.merge_step()? {}
        Ok(())
    }

    fn maintain(&mut self) -> Result<()> {
        self.apply_pending()?;
        self.schedule_compaction();
        Ok(())
    }

    fn arena_parts(&self) -> Vec<ArenaPart<'_>> {
        self.slots
            .iter()
            .map(SegmentSlot::arena_part)
            .chain([ArenaPart::live(&self.mem_arena)])
            .collect()
    }

    fn arena_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.segment.arena.memory_bytes())
            .sum::<usize>()
            + self.mem_arena.memory_bytes()
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_objects: self.len(),
            memtable_objects: self.mem_order.len(),
            sealed_segments: self.slots.len(),
            tombstones: self.slots.iter().map(|s| s.dead.len()).sum(),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_telemetry(&mut self, registry: Option<Arc<MetricsRegistry>>) {
        self.telemetry = registry;
        // Register the compaction series eagerly so `/metrics` shows them
        // (at zero) before the first background merge completes.
        if let Some(registry) = &self.telemetry {
            registry.counter("ferret_compactions_total", COMPACTIONS_HELP, &[]);
            registry.histogram(
                "ferret_compaction_seconds",
                COMPACTION_SECONDS_HELP,
                &[],
                &LATENCY_BUCKETS_NS,
                Unit::Nanoseconds,
            );
        }
        self.publish_gauges();
    }

    fn attach_persistence(&mut self, store: SegmentStore) -> Result<()> {
        self.persist = Some(store);
        self.persist_checkpoint()
    }

    fn into_originals(self: Box<Self>) -> (Vec<(ObjectId, DataObject)>, Option<SegmentStore>) {
        let Self {
            mem_order,
            mem_sketches,
            mut mem_objects,
            mem_arena,
            slots,
            compactor,
            persist,
            ..
        } = *self;
        // Joining the worker first releases its `Arc`s on the segments, so
        // they unwrap below without a copy.
        drop((compactor, mem_sketches, mem_arena));
        let mut originals = Vec::new();
        for slot in slots {
            let Segment {
                ids, mut objects, ..
            } = Arc::unwrap_or_clone(slot.segment);
            originals.extend(
                ids.into_iter()
                    .filter(|id| !slot.dead.contains(id))
                    .filter_map(|id| objects.remove(&id).map(|o| (id, o))),
            );
        }
        originals.extend(
            mem_order
                .into_iter()
                .filter_map(|id| mem_objects.remove(&id).map(|o| (id, o))),
        );
        (originals, persist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SketchBuilder, SketchParams};
    use crate::vector::FeatureVector;

    fn test_builder() -> SketchBuilder {
        let params = SketchParams::new(64, vec![0.0; 2], vec![1.0; 2]).unwrap();
        SketchBuilder::new(params, 7)
    }

    fn sketched(builder: &SketchBuilder, v: &[f32]) -> (DataObject, SketchedObject) {
        let obj = DataObject::single(FeatureVector::new(v.to_vec()).unwrap());
        let so = builder.sketch_object(&obj).unwrap();
        (obj, so)
    }

    fn fill(storage: &mut SegmentedStorage, builder: &SketchBuilder, ids: std::ops::Range<u64>) {
        for i in ids {
            let (obj, so) = sketched(builder, &[(i % 10) as f32 / 10.0, 0.5]);
            storage.insert(ObjectId(i), so, Some(obj)).unwrap();
        }
    }

    #[test]
    fn seal_and_inline_merge_preserve_order() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(builder.nbits(), 4, false);
        fill(&mut storage, &builder, 0..10);
        let stats = storage.stats();
        assert_eq!(stats.live_objects, 10);
        assert_eq!(stats.sealed_segments, 2);
        assert_eq!(stats.memtable_objects, 2);
        let expect: Vec<ObjectId> = (0..10).map(ObjectId).collect();
        assert_eq!(storage.live_ids(), expect);
        storage.merge().unwrap();
        assert_eq!(storage.live_ids(), expect);
        let stats = storage.stats();
        assert_eq!(stats.sealed_segments, 1);
        assert_eq!(stats.tombstones, 0);
    }

    #[test]
    fn tombstone_then_reinsert_moves_to_memtable() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(builder.nbits(), 2, false);
        fill(&mut storage, &builder, 0..4);
        assert!(storage.tombstone(ObjectId(1)).unwrap());
        assert!(!storage.contains(ObjectId(1)));
        assert_eq!(storage.stats().tombstones, 1);
        let (obj, so) = sketched(&builder, &[0.9, 0.9]);
        storage.insert(ObjectId(1), so, Some(obj)).unwrap();
        assert!(storage.contains(ObjectId(1)));
        // Reinsertion lands at the end of the global order.
        let ids = storage.live_ids();
        assert_eq!(ids.last(), Some(&ObjectId(1)));
        storage.merge().unwrap();
        assert_eq!(storage.stats().tombstones, 0);
        assert_eq!(storage.live_ids().last(), Some(&ObjectId(1)));
        assert_eq!(storage.len(), 4);
    }

    #[test]
    fn background_compaction_applies_on_next_write() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(builder.nbits(), 2, true);
        fill(&mut storage, &builder, 0..8);
        // Four sealed segments of two; the worker needs a moment to merge
        // them, so poll through maintain().
        for _ in 0..200 {
            storage.maintain().unwrap();
            if storage.stats().sealed_segments < 4 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(storage.stats().sealed_segments < 4, "{:?}", storage.stats());
        assert_eq!(storage.len(), 8);
        let expect: Vec<ObjectId> = (0..8).map(ObjectId).collect();
        assert_eq!(storage.live_ids(), expect);
    }

    #[test]
    fn arena_parts_cover_all_live_records() {
        let builder = test_builder();
        let mut storage = SegmentedStorage::new(builder.nbits(), 3, false);
        fill(&mut storage, &builder, 0..8);
        storage.merge().unwrap();
        fill(&mut storage, &builder, 8..10);
        storage.tombstone(ObjectId(0)).unwrap();
        let parts = storage.arena_parts();
        let live: usize = parts.iter().map(ArenaPart::live_objects).sum();
        assert_eq!(live, storage.len());
        let segments: usize = parts.iter().map(ArenaPart::live_segments).sum();
        assert_eq!(segments, storage.len());
    }
}
