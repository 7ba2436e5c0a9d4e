//! The import pipeline: scanned files → extractor → search system.
//!
//! Each scan pass feeds new and changed files through the plug-in
//! extractor and hands the resulting objects (plus automatically collected
//! file attributes) to a caller-supplied sink — typically
//! `FerretService::insert`. Extraction failures are collected, not fatal:
//! one corrupt file must not stop acquisition.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ferret_attr::{Attributes, AttrsBuilder};
use ferret_core::error::CoreError;
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::plugin::FileExtractor;
use ferret_store::codec::{Decoder, Encoder};
use ferret_store::{Database, Result as StoreResult, StoreError};

use crate::scanner::{Manifest, MANIFEST_TABLE};

/// The metadata-store key the path → id assignment persists under (in
/// [`MANIFEST_TABLE`], next to the manifest itself).
const IDS_KEY: &[u8] = b"ids";

/// What happens to each imported object.
pub trait ImportSink {
    /// Error type surfaced by the sink.
    type Error: std::fmt::Display;

    /// Adds (or replaces) an object extracted from `path`.
    fn upsert(
        &mut self,
        id: ObjectId,
        object: DataObject,
        attributes: Attributes,
        path: &Path,
    ) -> Result<(), Self::Error>;

    /// Removes an object whose source file disappeared.
    fn remove(&mut self, id: ObjectId, path: &Path) -> Result<(), Self::Error>;

    /// Adds (or replaces) a batch of extracted objects, returning one
    /// result per item in order.
    ///
    /// The default implementation loops over [`ImportSink::upsert`]; sinks
    /// backed by an engine with batch-parallel sketch construction should
    /// override this to sketch the whole batch at once.
    fn upsert_batch(
        &mut self,
        items: Vec<(ObjectId, DataObject, Attributes, PathBuf)>,
    ) -> Vec<Result<(), Self::Error>> {
        items
            .into_iter()
            .map(|(id, object, attrs, path)| self.upsert(id, object, attrs, &path))
            .collect()
    }
}

/// The outcome of one import pass.
#[derive(Debug, Default)]
pub struct ImportReport {
    /// Objects newly imported.
    pub imported: Vec<(ObjectId, PathBuf)>,
    /// Objects re-imported because their file changed.
    pub updated: Vec<(ObjectId, PathBuf)>,
    /// Objects removed because their file disappeared.
    pub removed: Vec<(ObjectId, PathBuf)>,
    /// Files that failed extraction or sinking, with the error text.
    pub failures: Vec<(PathBuf, String)>,
}

impl ImportReport {
    /// True if the pass did nothing.
    pub fn is_empty(&self) -> bool {
        self.imported.is_empty()
            && self.updated.is_empty()
            && self.removed.is_empty()
            && self.failures.is_empty()
    }
}

/// Automatically collected per-file attributes: file name, extension,
/// directory, and size (paper §4.1.2's "generic attributes").
pub fn file_attributes(path: &Path) -> Attributes {
    let mut builder = AttrsBuilder::new();
    if let Some(name) = path.file_name().and_then(|s| s.to_str()) {
        builder = builder.text("filename", name);
    }
    if let Some(ext) = path.extension().and_then(|s| s.to_str()) {
        builder = builder.keyword("ext", ext);
    }
    if let Some(dir) = path.parent().and_then(|p| p.to_str()) {
        builder = builder.text("dir", dir);
    }
    // ferret-lint: allow(vfs-bypass) -- read-only stat of a user source file; the Vfs seam covers durable writes, not ingest-side reads
    if let Ok(meta) = std::fs::metadata(path) {
        builder = builder.int("size", meta.len() as i64);
        if let Ok(mtime) = meta.modified() {
            if let Ok(secs) = mtime.duration_since(std::time::UNIX_EPOCH) {
                builder = builder.int("mtime", secs.as_secs() as i64);
            }
        }
    }
    builder.build()
}

/// A directory importer bound to one extractor.
pub struct Importer<E> {
    directory: PathBuf,
    extractor: E,
    manifest: Manifest,
    /// Stable path → id assignment.
    ids: BTreeMap<PathBuf, ObjectId>,
    next_id: u64,
}

impl<E: FileExtractor> Importer<E> {
    /// Creates an importer watching `directory`.
    pub fn new(directory: &Path, extractor: E) -> Self {
        Self {
            directory: directory.to_path_buf(),
            extractor,
            manifest: Manifest::new(),
            ids: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Creates an importer with pre-existing state (restart continuation).
    pub fn with_state(
        directory: &Path,
        extractor: E,
        manifest: Manifest,
        ids: BTreeMap<PathBuf, ObjectId>,
    ) -> Self {
        let next_id = ids.values().map(|id| id.0 + 1).max().unwrap_or(0);
        Self {
            directory: directory.to_path_buf(),
            extractor,
            manifest,
            ids,
            next_id,
        }
    }

    /// Restores an importer from state persisted with
    /// [`Importer::save_state`] (empty state if none was saved). The
    /// database is the VFS-routed metadata store, so importer state
    /// enjoys the same crash guarantees as the objects it tracks.
    pub fn load_state(directory: &Path, extractor: E, db: &Database) -> StoreResult<Self> {
        let manifest = Manifest::load(db)?;
        let mut ids = BTreeMap::new();
        if let Some(bytes) = db.get(MANIFEST_TABLE, IDS_KEY) {
            let mut dec = Decoder::new(bytes);
            let count = dec.get_u64()? as usize;
            for _ in 0..count {
                let path = String::from_utf8(dec.get_blob()?)
                    .map_err(|_| StoreError::Corrupt("non-utf8 importer path".into()))?;
                let id = ObjectId(dec.get_u64()?);
                ids.insert(PathBuf::from(path), id);
            }
        }
        Ok(Self::with_state(directory, extractor, manifest, ids))
    }

    /// Persists the manifest and the path → id assignment in one
    /// transaction, so a restart never sees a manifest that is ahead of
    /// (or behind) the id table.
    pub fn save_state(&self, db: &mut Database) -> StoreResult<()> {
        let manifest_bytes = self.manifest.to_bytes()?;
        let mut enc = Encoder::new();
        enc.put_u64(self.ids.len() as u64);
        for (path, id) in &self.ids {
            let bytes = path.to_string_lossy();
            enc.put_blob(bytes.as_bytes())?;
            enc.put_u64(id.0);
        }
        let mut txn = db.begin();
        txn.put(MANIFEST_TABLE, b"manifest", &manifest_bytes);
        txn.put(MANIFEST_TABLE, IDS_KEY, &enc.into_bytes());
        txn.commit()
    }

    /// The current manifest (for persistence).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The current path → id assignment (for persistence).
    pub fn ids(&self) -> &BTreeMap<PathBuf, ObjectId> {
        &self.ids
    }

    /// Estimated resident bytes of the importer's state: every watched
    /// path twice (manifest and id table) with its stamp and id. Walks
    /// both maps, so call it per scan, not per file.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let id_entries: usize = self
            .ids
            .keys()
            .map(|p| p.as_os_str().len() + size_of::<(PathBuf, ObjectId)>())
            .sum();
        id_entries + self.manifest.memory_bytes()
    }

    /// The id assigned to a path, if imported.
    pub fn id_of(&self, path: &Path) -> Option<ObjectId> {
        self.ids.get(path).copied()
    }

    fn assign_id(&mut self, path: &Path) -> ObjectId {
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.ids.insert(path.to_path_buf(), id);
        id
    }

    /// Runs one scan-and-import pass.
    pub fn scan_once<S: ImportSink>(&mut self, sink: &mut S) -> Result<ImportReport, CoreError> {
        let scan = self
            .manifest
            .scan(&self.directory)
            .map_err(|e| CoreError::Extraction(format!("scan failed: {e}")))?;
        let mut report = ImportReport::default();
        for (paths, updated) in [(&scan.new, false), (&scan.changed, true)] {
            // Extract everything first, then hand the surviving objects to
            // the sink in one batch so it can sketch them in parallel.
            let mut batch = Vec::new();
            for path in paths {
                let id = self.assign_id(path);
                match self.extractor.extract_file(path) {
                    Ok(object) => {
                        batch.push((id, object, file_attributes(path), path.clone()));
                    }
                    Err(e) => report.failures.push((path.clone(), e.to_string())),
                }
            }
            if batch.is_empty() {
                continue;
            }
            let keys: Vec<(ObjectId, PathBuf)> = batch
                .iter()
                .map(|(id, _, _, path)| (*id, path.clone()))
                .collect();
            for ((id, path), result) in keys.into_iter().zip(sink.upsert_batch(batch)) {
                match result {
                    Ok(()) => {
                        if updated {
                            report.updated.push((id, path));
                        } else {
                            report.imported.push((id, path));
                        }
                    }
                    Err(e) => report.failures.push((path, e.to_string())),
                }
            }
        }
        for path in &scan.removed {
            if let Some(id) = self.ids.remove(path) {
                match sink.remove(id, path) {
                    Ok(()) => report.removed.push((id, path.clone())),
                    Err(e) => report.failures.push((path.clone(), e.to_string())),
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
// Tests write fixture files directly; the Vfs seam is for production durability.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use ferret_core::error::Result as CoreResult;
    use ferret_core::vector::FeatureVector;

    /// Extractor: file bytes -> one segment per byte (1-d), fails on empty
    /// or files containing 0xFF.
    struct ByteExtractor;

    impl FileExtractor for ByteExtractor {
        fn name(&self) -> &'static str {
            "bytes"
        }

        fn extract_file(&self, path: &Path) -> CoreResult<DataObject> {
            let bytes =
                std::fs::read(path).map_err(|e| CoreError::Extraction(format!("read: {e}")))?;
            if bytes.contains(&0xFF) {
                return Err(CoreError::Extraction("corrupt file".into()));
            }
            DataObject::new(
                bytes
                    .iter()
                    .map(|&b| (FeatureVector::from_components(vec![f32::from(b)]), 1.0))
                    .collect(),
            )
        }
    }

    #[derive(Default)]
    struct MemorySink {
        objects: BTreeMap<u64, (usize, Attributes)>,
    }

    impl ImportSink for MemorySink {
        type Error = CoreError;

        fn upsert(
            &mut self,
            id: ObjectId,
            object: DataObject,
            attributes: Attributes,
            _path: &Path,
        ) -> CoreResult<()> {
            self.objects
                .insert(id.0, (object.num_segments(), attributes));
            Ok(())
        }

        fn remove(&mut self, id: ObjectId, _path: &Path) -> CoreResult<()> {
            self.objects.remove(&id.0);
            Ok(())
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ferret-import-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn import_update_remove_cycle() {
        let dir = tmpdir("cycle");
        std::fs::write(dir.join("a.bin"), [1u8, 2, 3]).unwrap();
        let mut importer = Importer::new(&dir, ByteExtractor);
        let mut sink = MemorySink::default();

        let report = importer.scan_once(&mut sink).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert!(report.failures.is_empty());
        let id = importer.id_of(&dir.join("a.bin")).unwrap();
        assert_eq!(sink.objects[&id.0].0, 3);

        // Idempotent second pass.
        let report = importer.scan_once(&mut sink).unwrap();
        assert!(report.is_empty());

        // Update keeps the id.
        std::fs::write(dir.join("a.bin"), [1u8, 2, 3, 4, 5]).unwrap();
        let report = importer.scan_once(&mut sink).unwrap();
        assert_eq!(report.updated, vec![(id, dir.join("a.bin"))]);
        assert_eq!(sink.objects[&id.0].0, 5);

        // Removal.
        std::fs::remove_file(dir.join("a.bin")).unwrap();
        let report = importer.scan_once(&mut sink).unwrap();
        assert_eq!(report.removed, vec![(id, dir.join("a.bin"))]);
        assert!(sink.objects.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failures_do_not_stop_the_pass() {
        let dir = tmpdir("failures");
        std::fs::write(dir.join("good.bin"), [1u8, 2]).unwrap();
        std::fs::write(dir.join("bad.bin"), [1u8, 0xFF]).unwrap();
        std::fs::write(dir.join("empty.bin"), []).unwrap();
        let mut importer = Importer::new(&dir, ByteExtractor);
        let mut sink = MemorySink::default();
        let report = importer.scan_once(&mut sink).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(sink.objects.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_attributes_capture_metadata() {
        let dir = tmpdir("attrs");
        let path = dir.join("photo.jpg");
        std::fs::write(&path, [0u8; 10]).unwrap();
        let attrs = file_attributes(&path);
        assert!(matches!(&attrs["filename"], ferret_attr::AttrValue::Text(t) if t == "photo.jpg"));
        assert!(matches!(&attrs["ext"], ferret_attr::AttrValue::Keyword(k) if k == "jpg"));
        assert_eq!(attrs["size"], ferret_attr::AttrValue::Int(10));
        assert!(attrs.contains_key("mtime"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_hands_sink_one_batch_per_pass() {
        #[derive(Default)]
        struct BatchSink {
            inner: MemorySink,
            batch_sizes: Vec<usize>,
        }

        impl ImportSink for BatchSink {
            type Error = CoreError;

            fn upsert(
                &mut self,
                id: ObjectId,
                object: DataObject,
                attributes: Attributes,
                path: &Path,
            ) -> CoreResult<()> {
                self.inner.upsert(id, object, attributes, path)
            }

            fn remove(&mut self, id: ObjectId, path: &Path) -> CoreResult<()> {
                self.inner.remove(id, path)
            }

            fn upsert_batch(
                &mut self,
                items: Vec<(ObjectId, DataObject, Attributes, PathBuf)>,
            ) -> Vec<CoreResult<()>> {
                self.batch_sizes.push(items.len());
                items
                    .into_iter()
                    .map(|(id, object, attrs, path)| self.upsert(id, object, attrs, &path))
                    .collect()
            }
        }

        let dir = tmpdir("batch");
        for name in ["a.bin", "b.bin", "c.bin"] {
            std::fs::write(dir.join(name), [1u8, 2]).unwrap();
        }
        let mut importer = Importer::new(&dir, ByteExtractor);
        let mut sink = BatchSink::default();
        let report = importer.scan_once(&mut sink).unwrap();
        assert_eq!(report.imported.len(), 3);
        // One batch for the new files; no call for the empty changed set.
        assert_eq!(sink.batch_sizes, vec![3]);
        assert_eq!(sink.inner.objects.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_round_trips_through_the_metadata_store() {
        let dir = tmpdir("dbstate");
        std::fs::write(dir.join("a.bin"), [1u8]).unwrap();
        std::fs::write(dir.join("b.bin"), [2u8, 3]).unwrap();
        let mut importer = Importer::new(&dir, ByteExtractor);
        let mut sink = MemorySink::default();
        importer.scan_once(&mut sink).unwrap();

        let dbdir = tmpdir("dbstate-db");
        let mut db = Database::open(&dbdir).unwrap();
        importer.save_state(&mut db).unwrap();

        // Restart from the database: nothing re-imported, ids stable, a
        // new file continues the id sequence.
        std::fs::write(dir.join("c.bin"), [4u8]).unwrap();
        let mut importer2 = Importer::load_state(&dir, ByteExtractor, &db).unwrap();
        assert_eq!(importer2.ids(), importer.ids());
        let report = importer2.scan_once(&mut sink).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert!(report.updated.is_empty() && report.removed.is_empty());
        assert_eq!(importer2.id_of(&dir.join("c.bin")), Some(ObjectId(2)));

        // A database with no saved state yields a fresh importer.
        let dbdir2 = tmpdir("dbstate-db2");
        let db2 = Database::open(&dbdir2).unwrap();
        let fresh = Importer::load_state(&dir, ByteExtractor, &db2).unwrap();
        assert!(fresh.ids().is_empty());
        for d in [&dir, &dbdir, &dbdir2] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn with_state_continues_ids() {
        let dir = tmpdir("state");
        std::fs::write(dir.join("a.bin"), [1u8]).unwrap();
        let mut importer = Importer::new(&dir, ByteExtractor);
        let mut sink = MemorySink::default();
        importer.scan_once(&mut sink).unwrap();
        let manifest = importer.manifest().clone();
        let ids = importer.ids().clone();

        // Restart: existing file not re-imported, new file gets a new id.
        std::fs::write(dir.join("b.bin"), [2u8]).unwrap();
        let mut importer2 = Importer::with_state(&dir, ByteExtractor, manifest, ids);
        let report = importer2.scan_once(&mut sink).unwrap();
        assert_eq!(report.imported.len(), 1);
        assert_eq!(importer2.id_of(&dir.join("b.bin")), Some(ObjectId(1)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
