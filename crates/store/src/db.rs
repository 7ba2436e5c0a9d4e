//! The transactional metadata database.
//!
//! [`Database`] combines the in-memory tables, the write-ahead log, and
//! checkpoint snapshots into the store the toolkit keeps feature vectors,
//! sketches, attributes, and object mappings in (paper §4.1.3). All updates
//! belonging to one object are grouped into a [`Transaction`] and become
//! visible atomically.
//!
//! Durability follows the paper's relaxed contract: with
//! [`Durability::Buffered`] commits are batched and may be lost in a crash
//! ("updates may not become durable for several seconds"), but recovery is
//! always *consistent* — a prefix of committed transactions is restored and
//! no partial transaction is ever visible. [`Durability::Sync`] fsyncs on
//! every commit for tests and small datasets.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::Result;
use crate::snapshot::Snapshot;
use crate::table::Table;
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{Op, Wal};

/// When commits become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync the log on every commit.
    Sync,
    /// Buffer log writes; fsync on [`Database::flush`], checkpoint, or every
    /// `flush_every` commits. Matches the paper's relaxed ACID setting.
    Buffered {
        /// Commits between automatic fsyncs.
        flush_every: usize,
    },
}

/// Database tuning options.
#[derive(Debug, Clone, Copy)]
pub struct DbOptions {
    /// Commit durability policy.
    pub durability: Durability,
    /// Automatically checkpoint after this many committed transactions
    /// (`None` disables automatic checkpoints).
    pub checkpoint_every: Option<usize>,
}

impl Default for DbOptions {
    fn default() -> Self {
        Self {
            durability: Durability::Buffered { flush_every: 64 },
            checkpoint_every: Some(4096),
        }
    }
}

/// File names inside a database directory.
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.db";

/// An embedded, transaction-protected, crash-recoverable key-value store.
pub struct Database {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    wal: Wal,
    tables: BTreeMap<String, Table>,
    options: DbOptions,
    commits_since_flush: usize,
    commits_since_checkpoint: usize,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("dir", &self.dir)
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl Database {
    /// Opens (or creates) a database in `dir` with default options.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with(dir, DbOptions::default())
    }

    /// Opens (or creates) a database with explicit options, running crash
    /// recovery: load the latest snapshot, then replay the log suffix.
    pub fn open_with(dir: &Path, options: DbOptions) -> Result<Self> {
        Self::open_with_vfs(Arc::new(StdVfs), dir, options)
    }

    /// [`Database::open_with`] over an explicit [`Vfs`] — the seam
    /// fault-injection tests use to fail or tear any individual I/O.
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path, options: DbOptions) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        let snapshot =
            Snapshot::read_from_vfs(vfs.as_ref(), &dir.join(SNAPSHOT_FILE))?.unwrap_or_default();
        let (wal, batches) = Wal::open_with_vfs(Arc::clone(&vfs), &dir.join(WAL_FILE))?;
        let mut tables = snapshot.tables;
        // Consumed batch by batch, so each record's key and value move
        // into its table instead of living twice until replay ends.
        for batch in batches {
            // Records at or below the snapshot sequence are already
            // reflected in the snapshot (crash between snapshot write and
            // log reset); re-applying them could resurrect deleted keys.
            if batch.seq <= snapshot.last_seq {
                continue;
            }
            Self::apply(&mut tables, batch.ops);
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            vfs,
            wal,
            tables,
            options,
            commits_since_flush: 0,
            commits_since_checkpoint: 0,
        })
    }

    fn apply(tables: &mut BTreeMap<String, Table>, ops: Vec<Op>) {
        for op in ops {
            match op {
                Op::Put { table, key, value } => match tables.get_mut(table.as_str()) {
                    Some(t) => {
                        t.put(key, value);
                    }
                    None => {
                        tables.entry(table).or_default().put(key, value);
                    }
                },
                Op::Delete { table, key } => {
                    if let Some(t) = tables.get_mut(table.as_str()) {
                        t.delete(&key);
                    }
                }
            }
        }
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Names of all tables that currently exist.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Looks up a key in a table.
    pub fn get(&self, table: &str, key: &[u8]) -> Option<&[u8]> {
        self.tables.get(table).and_then(|t| t.get(key))
    }

    /// Number of entries in a table (0 if the table does not exist).
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, Table::len)
    }

    /// Approximate resident bytes of the in-memory tables (see
    /// [`Table::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.tables.values().map(Table::memory_bytes).sum()
    }

    /// Iterates a table's entries in key order.
    pub fn iter_table<'a>(
        &'a self,
        table: &str,
    ) -> Box<dyn Iterator<Item = (&'a [u8], &'a [u8])> + 'a> {
        match self.tables.get(table) {
            Some(t) => Box::new(t.iter()),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Iterates entries of `table` whose keys start with `prefix`.
    pub fn scan_prefix<'a>(
        &'a self,
        table: &str,
        prefix: &'a [u8],
    ) -> Box<dyn Iterator<Item = (&'a [u8], &'a [u8])> + 'a> {
        match self.tables.get(table) {
            Some(t) => Box::new(t.scan_prefix(prefix)),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Starts a transaction.
    pub fn begin(&mut self) -> Transaction<'_> {
        Transaction {
            db: self,
            ops: Vec::new(),
            overlay: HashMap::new(),
        }
    }

    /// Convenience: a single-put transaction.
    pub fn put(&mut self, table: &str, key: &[u8], value: &[u8]) -> Result<()> {
        let mut txn = self.begin();
        txn.put(table, key, value);
        txn.commit()
    }

    /// Convenience: a single-delete transaction.
    pub fn delete(&mut self, table: &str, key: &[u8]) -> Result<()> {
        let mut txn = self.begin();
        txn.delete(table, key);
        txn.commit()
    }

    fn commit_ops(&mut self, ops: Vec<Op>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        self.wal.append(&ops)?;
        match self.options.durability {
            Durability::Sync => self.wal.sync()?,
            Durability::Buffered { flush_every } => {
                self.commits_since_flush += 1;
                if self.commits_since_flush >= flush_every {
                    self.wal.sync()?;
                    self.commits_since_flush = 0;
                }
            }
        }
        Self::apply(&mut self.tables, ops);
        self.commits_since_checkpoint += 1;
        if let Some(every) = self.options.checkpoint_every {
            if self.commits_since_checkpoint >= every {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Forces buffered commits to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.wal.sync()?;
        self.commits_since_flush = 0;
        Ok(())
    }

    /// Writes a checkpoint snapshot and truncates the log.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.wal.sync()?;
        let snapshot = Snapshot {
            last_seq: self.wal.next_seq() - 1,
            tables: self.tables.clone(),
        };
        snapshot.write_to_vfs(self.vfs.as_ref(), &self.dir.join(SNAPSHOT_FILE))?;
        self.wal.reset()?;
        self.commits_since_flush = 0;
        self.commits_since_checkpoint = 0;
        Ok(())
    }
}

/// A read-your-writes transaction.
///
/// Mutations are staged locally and become durable and visible atomically
/// on [`Transaction::commit`]. Dropping the transaction discards them.
pub struct Transaction<'db> {
    db: &'db mut Database,
    ops: Vec<Op>,
    /// Staged state for read-your-writes: `None` marks a staged delete.
    overlay: HashMap<(String, Vec<u8>), Option<Vec<u8>>>,
}

impl<'db> Transaction<'db> {
    /// Stages a put.
    pub fn put(&mut self, table: &str, key: &[u8], value: &[u8]) {
        self.ops.push(Op::Put {
            table: table.to_string(),
            key: key.to_vec(),
            value: value.to_vec(),
        });
        self.overlay
            .insert((table.to_string(), key.to_vec()), Some(value.to_vec()));
    }

    /// Stages a delete.
    pub fn delete(&mut self, table: &str, key: &[u8]) {
        self.ops.push(Op::Delete {
            table: table.to_string(),
            key: key.to_vec(),
        });
        self.overlay.insert((table.to_string(), key.to_vec()), None);
    }

    /// Reads through the transaction: staged writes shadow the database.
    pub fn get(&self, table: &str, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(staged) = self.overlay.get(&(table.to_string(), key.to_vec())) {
            return staged.clone();
        }
        self.db.get(table, key).map(<[u8]>::to_vec)
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commits the staged operations atomically.
    pub fn commit(self) -> Result<()> {
        self.db.commit_ops(self.ops)
    }
}

#[cfg(test)]
// Tests write fixture files directly; the Vfs seam is for production durability.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ferret-db-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sync_options() -> DbOptions {
        DbOptions {
            durability: Durability::Sync,
            checkpoint_every: None,
        }
    }

    #[test]
    fn put_get_across_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut db = Database::open_with(&dir, sync_options()).unwrap();
            db.put("features", b"obj1", b"vector-bytes").unwrap();
            db.put("sketches", b"obj1", b"sketch-bytes").unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.get("features", b"obj1"), Some(b"vector-bytes".as_ref()));
        assert_eq!(db.get("sketches", b"obj1"), Some(b"sketch-bytes".as_ref()));
        assert_eq!(db.table_names(), vec!["features", "sketches"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transaction_is_atomic_and_read_your_writes() {
        let dir = tmpdir("txn");
        let mut db = Database::open_with(&dir, sync_options()).unwrap();
        db.put("t", b"existing", b"old").unwrap();
        {
            let mut txn = db.begin();
            txn.put("t", b"a", b"1");
            txn.delete("t", b"existing");
            // Read-your-writes.
            assert_eq!(txn.get("t", b"a"), Some(b"1".to_vec()));
            assert_eq!(txn.get("t", b"existing"), None);
            // Not yet visible outside... (txn borrows db mutably, so checked
            // after dropping it instead).
            drop(txn);
        }
        assert_eq!(db.get("t", b"a"), None);
        assert_eq!(db.get("t", b"existing"), Some(b"old".as_ref()));

        let mut txn = db.begin();
        txn.put("t", b"a", b"1");
        txn.put("t", b"b", b"2");
        assert_eq!(txn.len(), 2);
        txn.commit().unwrap();
        assert_eq!(db.get("t", b"a"), Some(b"1".as_ref()));
        assert_eq!(db.get("t", b"b"), Some(b"2".as_ref()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovers() {
        let dir = tmpdir("checkpoint");
        {
            let mut db = Database::open_with(&dir, sync_options()).unwrap();
            for i in 0..100u32 {
                db.put("t", &i.to_le_bytes(), b"x").unwrap();
            }
            db.checkpoint().unwrap();
            // Post-checkpoint commits land in the fresh log.
            db.put("t", b"after", b"y").unwrap();
        }
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert!(wal_len > 0, "post-checkpoint commit should be in the log");
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.table_len("t"), 101);
        assert_eq!(db.get("t", b"after"), Some(b"y".as_ref()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_survives_checkpoint_then_stale_log_replay() {
        // Crash between snapshot write and wal reset must not resurrect
        // deleted keys: batches at or below the snapshot seq are skipped.
        let dir = tmpdir("stale-log");
        {
            let mut db = Database::open_with(&dir, sync_options()).unwrap();
            db.put("t", b"k", b"v").unwrap();
            db.delete("t", b"k").unwrap();
            // Write the snapshot manually without resetting the log,
            // simulating a crash inside checkpoint() after the snapshot write.
            db.wal.sync().unwrap();
            let snapshot = Snapshot {
                last_seq: db.wal.next_seq() - 1,
                tables: db.tables.clone(),
            };
            snapshot
                .write_to_vfs(&StdVfs, &dir.join("snapshot.db"))
                .unwrap();
            // Crash: log still contains both batches.
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.get("t", b"k"), None, "deleted key resurrected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffered_durability_flushes_on_demand() {
        let dir = tmpdir("buffered");
        {
            let mut db = Database::open_with(
                &dir,
                DbOptions {
                    durability: Durability::Buffered { flush_every: 1000 },
                    checkpoint_every: None,
                },
            )
            .unwrap();
            db.put("t", b"a", b"1").unwrap();
            db.flush().unwrap();
            db.put("t", b"b", b"2").unwrap();
            // "b" is buffered only; simulate losing it by not flushing.
        }
        // Dropping the Database drops the BufWriter which flushes on drop;
        // to truly test loss we would need to kill the process. Here we
        // assert both keys exist OR only the flushed prefix — recovery must
        // be consistent either way.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.get("t", b"a"), Some(b"1".as_ref()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_checkpoint_fires() {
        let dir = tmpdir("autock");
        let mut db = Database::open_with(
            &dir,
            DbOptions {
                durability: Durability::Sync,
                checkpoint_every: Some(10),
            },
        )
        .unwrap();
        for i in 0..25u32 {
            db.put("t", &i.to_le_bytes(), b"x").unwrap();
        }
        // Two checkpoints should have fired; snapshot must exist.
        assert!(dir.join("snapshot.db").exists());
        let snap = Snapshot::read_from_vfs(&StdVfs, &dir.join("snapshot.db"))
            .unwrap()
            .unwrap();
        assert!(snap.tables["t"].len() >= 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_transaction_commit_is_noop() {
        let dir = tmpdir("emptytxn");
        let mut db = Database::open_with(&dir, sync_options()).unwrap();
        let txn = db.begin();
        assert!(txn.is_empty());
        txn.commit().unwrap();
        assert!(db.table_names().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn iter_and_scan_through_db() {
        let dir = tmpdir("scan");
        let mut db = Database::open_with(&dir, sync_options()).unwrap();
        db.put("t", b"a/1", b"1").unwrap();
        db.put("t", b"a/2", b"2").unwrap();
        db.put("t", b"b/1", b"3").unwrap();
        assert_eq!(db.iter_table("t").count(), 3);
        assert_eq!(db.scan_prefix("t", b"a/").count(), 2);
        assert_eq!(db.iter_table("missing").count(), 0);
        assert_eq!(db.scan_prefix("missing", b"a").count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = tmpdir("torn-db");
        {
            let mut db = Database::open_with(&dir, sync_options()).unwrap();
            db.put("t", b"a", b"1").unwrap();
            db.put("t", b"b", b"2").unwrap();
        }
        // Corrupt the tail of the log.
        let wal_path = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let n = bytes.len();
        bytes.truncate(n - 3);
        std::fs::write(&wal_path, &bytes).unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.get("t", b"a"), Some(b"1".as_ref()));
        assert_eq!(db.get("t", b"b"), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
