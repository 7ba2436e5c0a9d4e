//! Directory scanning with change detection.
//!
//! "The default data acquisition method is via periodical scan of a
//! designated directory in the file system. Each newly added file in that
//! directory will be imported into the system" (paper §4.3). The scanner
//! keeps a manifest of `(path → mtime, length)` and reports new, changed,
//! and removed files on each pass; the manifest can be persisted in the
//! metadata store so restarts do not re-import everything.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ferret_store::codec::{Decoder, Encoder};
use ferret_store::{Database, Result as StoreResult, StoreError};

/// The database table the manifest persists to.
pub const MANIFEST_TABLE: &str = "acquire_manifest";

/// A file's identity snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStamp {
    /// Modification time, seconds since the Unix epoch.
    pub mtime: u64,
    /// File length in bytes.
    pub len: u64,
}

/// The scanner's persistent state: what it has already seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    files: BTreeMap<PathBuf, FileStamp>,
}

/// What one scan pass discovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Files never seen before.
    pub new: Vec<PathBuf>,
    /// Files whose stamp changed since the last scan.
    pub changed: Vec<PathBuf>,
    /// Files present in the manifest but gone from disk.
    pub removed: Vec<PathBuf>,
}

impl ScanReport {
    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.new.is_empty() && self.changed.is_empty() && self.removed.is_empty()
    }
}

fn stamp_of(path: &Path) -> std::io::Result<FileStamp> {
    // ferret-lint: allow(vfs-bypass) -- read-only stat of scanned source files; no durable state is written here
    let meta = std::fs::metadata(path)?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs());
    Ok(FileStamp {
        mtime,
        len: meta.len(),
    })
}

impl Manifest {
    /// Creates an empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files are tracked.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Estimated resident bytes: every tracked path plus its stamp.
    pub fn memory_bytes(&self) -> usize {
        self.files
            .keys()
            .map(|p| p.as_os_str().len() + std::mem::size_of::<(PathBuf, FileStamp)>())
            .sum()
    }

    /// The stamp recorded for a path.
    pub fn stamp(&self, path: &Path) -> Option<FileStamp> {
        self.files.get(path).copied()
    }

    /// Scans `dir` (recursively), updating the manifest and reporting the
    /// differences. Unreadable entries are skipped, not fatal.
    pub fn scan(&mut self, dir: &Path) -> std::io::Result<ScanReport> {
        let mut report = ScanReport::default();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(current) = stack.pop() {
            // ferret-lint: allow(vfs-bypass) -- read-only directory walk over user data; the Vfs trait has no read_dir and nothing durable is written
            let entries = match std::fs::read_dir(&current) {
                Ok(e) => e,
                Err(_) => continue, // Tolerate unreadable directories.
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let Ok(stamp) = stamp_of(&path) else {
                    continue; // Tolerate unreadable files.
                };
                seen.insert(path.clone());
                match self.files.get(&path) {
                    None => {
                        self.files.insert(path.clone(), stamp);
                        report.new.push(path);
                    }
                    Some(old) if *old != stamp => {
                        self.files.insert(path.clone(), stamp);
                        report.changed.push(path);
                    }
                    Some(_) => {}
                }
            }
        }
        // Removed files: in the manifest (under dir) but not on disk.
        let gone: Vec<PathBuf> = self
            .files
            .keys()
            .filter(|p| p.starts_with(dir) && !seen.contains(*p))
            .cloned()
            .collect();
        for p in gone {
            self.files.remove(&p);
            report.removed.push(p);
        }
        report.new.sort();
        report.changed.sort();
        report.removed.sort();
        Ok(report)
    }

    /// Serializes the manifest for the metadata store.
    pub fn to_bytes(&self) -> StoreResult<Vec<u8>> {
        let mut enc = Encoder::new();
        enc.put_u64(self.files.len() as u64);
        for (path, stamp) in &self.files {
            let bytes = path.to_string_lossy();
            enc.put_blob(bytes.as_bytes())?;
            enc.put_u64(stamp.mtime);
            enc.put_u64(stamp.len);
        }
        Ok(enc.into_bytes())
    }

    /// Deserializes a manifest produced by [`Manifest::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> StoreResult<Self> {
        let mut dec = Decoder::new(bytes);
        let count = dec.get_u64()? as usize;
        let mut files = BTreeMap::new();
        for _ in 0..count {
            let path = String::from_utf8(dec.get_blob()?)
                .map_err(|_| StoreError::Corrupt("non-utf8 manifest path".into()))?;
            let mtime = dec.get_u64()?;
            let len = dec.get_u64()?;
            files.insert(PathBuf::from(path), FileStamp { mtime, len });
        }
        Ok(Self { files })
    }

    /// Persists the manifest to the metadata store.
    pub fn save(&self, db: &mut Database) -> StoreResult<()> {
        db.put(MANIFEST_TABLE, b"manifest", &self.to_bytes()?)
    }

    /// Loads the manifest from the metadata store (empty if absent).
    pub fn load(db: &Database) -> StoreResult<Self> {
        match db.get(MANIFEST_TABLE, b"manifest") {
            Some(bytes) => Self::from_bytes(bytes),
            None => Ok(Self::default()),
        }
    }
}

#[cfg(test)]
// Tests write fixture files directly; the Vfs seam is for production durability.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ferret-scan-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn detects_new_changed_removed() {
        let dir = tmpdir("basic");
        std::fs::write(dir.join("a.dat"), b"one").unwrap();
        std::fs::write(dir.join("b.dat"), b"two").unwrap();
        let mut manifest = Manifest::new();
        let report = manifest.scan(&dir).unwrap();
        assert_eq!(report.new.len(), 2);
        assert!(report.changed.is_empty() && report.removed.is_empty());
        assert_eq!(manifest.len(), 2);

        // Nothing changed: empty report.
        let report = manifest.scan(&dir).unwrap();
        assert!(report.is_empty());

        // Change one (different length guarantees a stamp change), remove
        // one, add one.
        std::fs::write(dir.join("a.dat"), b"one-changed").unwrap();
        std::fs::remove_file(dir.join("b.dat")).unwrap();
        std::fs::write(dir.join("c.dat"), b"three").unwrap();
        let report = manifest.scan(&dir).unwrap();
        assert_eq!(report.changed, vec![dir.join("a.dat")]);
        assert_eq!(report.removed, vec![dir.join("b.dat")]);
        assert_eq!(report.new, vec![dir.join("c.dat")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scans_subdirectories() {
        let dir = tmpdir("subdirs");
        std::fs::create_dir_all(dir.join("x/y")).unwrap();
        std::fs::write(dir.join("x/y/deep.dat"), b"deep").unwrap();
        let mut manifest = Manifest::new();
        let report = manifest.scan(&dir).unwrap();
        assert_eq!(report.new, vec![dir.join("x/y/deep.dat")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_empty_scan() {
        let mut manifest = Manifest::new();
        let report = manifest
            .scan(Path::new("/nonexistent/ferret/scan/dir"))
            .unwrap();
        assert!(report.is_empty());
    }

    #[test]
    fn manifest_persistence() {
        let dir = tmpdir("persist");
        std::fs::write(dir.join("a.dat"), b"one").unwrap();
        let mut manifest = Manifest::new();
        manifest.scan(&dir).unwrap();

        let dbdir = tmpdir("persist-db");
        let mut db = Database::open(&dbdir).unwrap();
        manifest.save(&mut db).unwrap();
        let loaded = Manifest::load(&db).unwrap();
        assert_eq!(manifest, loaded);
        assert!(loaded.stamp(&dir.join("a.dat")).is_some());
        // Fresh database: empty manifest.
        let dbdir2 = tmpdir("persist-db2");
        let db2 = Database::open(&dbdir2).unwrap();
        assert!(Manifest::load(&db2).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dbdir).ok();
        std::fs::remove_dir_all(&dbdir2).ok();
    }
}
